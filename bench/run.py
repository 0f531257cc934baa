"""End-to-end benchmark of the patseg CLI on seeded synthetic worlds.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` a run repeats whole rounds until the next round would
end after ``S`` seconds (at least ``MIN_ROUNDS``).  A round sets the world
up in a fresh directory (generates the corpora from the seed, writes them
in the CLI's formats and runs ``extract-knowledge`` where the workload
needs it), then runs ``train`` and ``segment``, each in a fresh
``python -m patseg.cli`` process, and checks the output.  ``eval`` runs
once on the last round's output.  Every timing and size is the median
over the rounds.

With ``--trace 1`` it runs ``bench/layers.py`` instead: the same path in
one process, alternately without and with spans, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those of ``BENCHMARK.json``.  Every round's figures and the
spans are written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"

# One BLAS thread: with OpenBLAS's default of one thread per core, train()
# used 1.4x as much CPU time as wall time on a 2-core machine, so BLAS
# threads competed with the run for the cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3
STARTUP_REPEATS = 5
RUN_BUDGET_S = 150.0


@dataclass
class Proc:
    ok: bool
    wall_s: float
    maxrss_mb: float
    stdout: str


class Runner:
    """Starts child processes, times them and counts operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **THREAD_ENV)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def run(self, args: list[str], what: str) -> Proc:
        """Run one child to its end; its wall time, peak RSS and output."""
        self._n += 1
        out_path = self.work / f"proc{self._n}.out"
        err_path = self.work / f"proc{self._n}.err"
        reaped: list = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=REPO, env=self.env, stdout=out, stderr=err)

            def reap() -> None:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.append((time.perf_counter(), status, usage))

            reaper = threading.Thread(target=reap)
            reaper.start()
            try:
                reaper.join(max(1.0, self.deadline - time.monotonic()))
            finally:
                # past the deadline, or this process is being stopped
                if reaper.is_alive():
                    proc.kill()
                    reaper.join()
        end, status, usage = reaped[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        ok = self.check(proc.returncode == 0, f"{what}: exit {proc.returncode}: {stderr.strip()[-300:]}")
        return Proc(ok, end - start, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8"))

    def cli(self, args: list[str], what: str) -> Proc:
        return self.run([sys.executable, "-m", "patseg.cli", *args], what)


def _settings(w, root: Path) -> list[str]:
    pairs = {
        "data.source": root / "source",
        "data.source_format": "tagged",
        "data.target_train": root / "train",
        "features.groups": ",".join(w.groups),
        "knowledge.archive": root / "kb",
        "knowledge.sim_k": worlds.SIM_K,
        "train.mode": w.mode,
        "train.max_iterations": worlds.MAX_ITERATIONS,
        "train.tolerance": worlds.TOLERANCE,
        "output.model": root / "model.crf",
    }
    return [arg for key, value in pairs.items() for arg in ("--set", f"{key}={value}")]


def _setup(runner: Runner, w, seed: int, root: Path) -> tuple[float, object]:
    """Generate the world, write it under ``root`` and extract knowledge
    where the workload needs it; the set-up time and the world.

    Only writing and ``extract-knowledge`` are timed: generating the world
    is the benchmark's own work, not the program's.
    """
    world = worlds.generate(w, seed)
    start = time.perf_counter()
    worlds.write_world(world, root)
    if w.needs_knowledge:
        runner.cli(["extract-knowledge", *_settings(w, root)], "extract-knowledge")
    elapsed = time.perf_counter() - start
    errors = worlds.round_trip_errors(world, root)
    runner.check(not errors, f"round trip: {errors}")
    return elapsed, world


def _parse_eval(stdout: str) -> dict[str, float]:
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("f1", "oov_recall"):
            values[key] = float(value)
    return values


class OutputChecks:
    """Checks of a predicted segmentation against the generated world."""

    def __init__(self, runner: Runner, w, world):
        self.runner = runner
        self.world = world
        self.ref = checks.vocabulary(world.source)
        trained_on = (world.train,) if w.mode == "target" else (world.train, world.source)
        self.baseline = checks.fmm_baseline(world.test, checks.vocabulary(*trained_on), self.ref)

    def aligned(self, pred_dir: Path, raw_dir: Path) -> dict | None:
        """The predicted words if every output line rebuilds its raw line."""
        pred, errors = checks.read_segmented(pred_dir, raw_dir)
        ok = not errors and set(pred) == set(self.world.test)
        return pred if self.runner.check(ok, f"line alignment: {errors}") else None

    def scores(self, pred: dict | None, reported: dict[str, float]) -> None:
        """The program's F1 and OOV recall match our scorer and beat the baseline."""
        f1, oov = reported.get("f1", -1.0), reported.get("oov_recall", -1.0)
        own = checks.span_score(self.world.test, pred, self.ref) if pred else checks.Score(-1.0, -1.0)
        self.runner.check(
            abs(own.f1 - f1) <= 0.005 + 1e-9 and abs(own.oov_recall - oov) <= 0.005 + 1e-9,
            f"span scorer: own f1 {own.f1:.4f} oov {own.oov_recall:.4f}, program f1 {f1} oov {oov}")
        self.runner.check(
            f1 > self.baseline.f1 and oov > self.baseline.oov_recall,
            f"baseline: f1 {f1} oov {oov} vs forward maximum matching "
            f"{self.baseline.f1:.2f} {self.baseline.oov_recall:.2f}")


def _test_chars(world) -> int:
    return sum(len(s.text) for sentences in world.test.values() for s in sentences)


def run_end_to_end(runner: Runner, w, seed: int, seconds: float) -> tuple[dict, dict]:
    rounds: list[dict] = []
    round_s: list[float] = []
    first_pred = pred = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + statistics.median(round_s) <= seconds:
        round_start = time.perf_counter()
        if rounds:
            shutil.rmtree(root)
        root = runner.work / f"round{len(rounds)}"
        setup_s, world = _setup(runner, w, seed, root)
        if not rounds:
            output_checks = OutputChecks(runner, w, world)
            test_chars = _test_chars(world)
        model = root / "model.crf"
        train = runner.cli(["train", *_settings(w, root)], "train")
        knowledge = ["--knowledge", str(root / "kb")] if w.needs_knowledge else []
        segment = runner.cli(["segment", "--model", str(model), "--input", str(root / "test_raw"),
                              "--output", str(root / "pred"), *knowledge], "segment")
        pred = output_checks.aligned(root / "pred", root / "test_raw")
        first_pred = first_pred or pred
        # eval runs once, after the last round, so every round must agree
        runner.check(pred is not None and pred == first_pred, "segmentation differs from round 1")
        model_files = [p for p in (model, Path(f"{model}.source")) if p.exists()]
        rounds.append({
            "setup_s": setup_s,
            "train_s": train.wall_s,
            "segment_s": segment.wall_s,
            "train_peak_rss_mb": train.maxrss_mb,
            "segment_peak_rss_mb": segment.maxrss_mb,
            "model_mb": sum(p.stat().st_size for p in model_files) / 2**20,
        })
        round_s.append(time.perf_counter() - round_start)
        if time.monotonic() > runner.deadline:
            break
    ev = runner.cli(["eval", "--gold", str(root / "test_gold"), "--pred", str(root / "pred"),
                     "--ref-vocab", str(root / "source_seg")], "eval")
    reported = _parse_eval(ev.stdout)
    output_checks.scores(pred, reported)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    # Other tenants of the machine slow a process by up to 1.7x, varying from
    # round to round; over ten runs the median round repeated better than the
    # fastest one (see README.md, "Noise").
    metrics = {
        "setup_s": median("setup_s"),
        "train_s": median("train_s"),
        "segment_chars_per_s": test_chars / median("segment_s"),
        "train_peak_rss_mb": median("train_peak_rss_mb"),
        "segment_peak_rss_mb": median("segment_peak_rss_mb"),
        "model_mb": median("model_mb"),
        **reported,
    }
    return metrics, {"rounds": rounds, "test_chars": test_chars}


def run_traced(runner: Runner, w, seed: int, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    root = runner.work / "world"
    _, world = _setup(runner, w, seed, root)
    output_checks = OutputChecks(runner, w, world)
    startup = [runner.cli(["--help"], "startup").wall_s for _ in range(STARTUP_REPEATS)]
    plain_s: list[float] = []
    traced: list[dict] = []
    pair_s: list[float] = []
    while not pair_s or time.perf_counter() - start + statistics.median(pair_s) <= seconds:
        pair_start = time.perf_counter()
        for enabled in (0, 1):
            result_path = runner.work / f"layers{len(traced)}-{enabled}.json"
            shutil.rmtree(root / "pred_layers", ignore_errors=True)
            proc = runner.run([sys.executable, str(BENCH / "layers.py"), str(root), w.name,
                               "--traced", str(enabled), "--out", str(result_path)], f"layers --traced {enabled}")
            result = json.loads(result_path.read_text(encoding="utf-8")) if proc.ok else {}
            pred = output_checks.aligned(root / "pred_layers", root / "test_raw")
            output_checks.scores(pred, result.get("score", {}))
            if not proc.ok:
                continue
            if enabled:
                traced.append(result)
            else:
                plain_s.append(result["pipeline_s"])
        pair_s.append(time.perf_counter() - pair_start)
        if time.monotonic() > runner.deadline or not (traced and plain_s):
            break
    metrics = {"cli.startup_s": statistics.median(startup)}
    if traced:
        for key in traced[0]["metrics"]:
            metrics[key] = statistics.median(t["metrics"][key] for t in traced)
    if traced and plain_s:
        traced_s = statistics.median(t["pipeline_s"] for t in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / statistics.median(plain_s) - 1.0)
    detail = {"startup_s": startup, "plain_pipeline_s": plain_s, "traced": traced}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the patseg CLI on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = worlds.WORKLOADS[args.workload]
    name = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    try:
        measure = run_traced if args.trace else run_end_to_end
        metrics, detail = measure(runner, w, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        # the result line must hold every declared metric and no other
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(set(metrics) - set(units))}; "
                         f"declared but not measured: {sorted(set(units) - set(metrics))}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT / f"{name}.json").write_text(
        json.dumps({**result, "errors": runner.errors, "detail": detail}, indent=1), encoding="utf-8")
    for error in runner.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (REPO / "src" / "patseg" / "cli.py").is_file() or not (REPO / "tests" / "_synth.py").is_file():
        print(f"error: {REPO} is not a patseg checkout (src/patseg and tests/_synth.py are needed)",
              file=sys.stderr)
        sys.exit(2)
    # stop the running child too (see Runner.run) when asked to stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # before numpy is first imported, here and in every child
    os.environ.update(THREAD_ENV)
    import checks
    import worlds

    sys.exit(main())
