"""One workload's CLI path run in a single process, with optional spans.

Usage (run.py starts it in a fresh process)::

    python3 bench/layers.py WORLD_DIR WORKLOAD --traced 0|1 --out RESULT.json

The pipeline makes the calls the four CLI commands make
(``extract-knowledge``, ``train``, ``segment``, ``eval``) through the
layers' public functions and writes the predicted segmentation to
``WORLD_DIR/pred_layers``.  With ``--traced 0`` it records nothing and
reports only the pipeline's wall time, the baseline for the tracing
overhead.  With ``--traced 1`` it records a span around each layer call,
wraps ``crf.build_registry`` and ``crf.log_likelihood_and_gradient`` from
outside to time them inside ``train``, and the optimizer's ``minimize`` to
read its iteration count and stop reason, times garbage-collector pauses,
and then runs probes that time every layer, Viterbi and the memory peak
of ``train`` on their own.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import worlds
from patseg import adaptation, crf, doc_features, evaluation
from patseg import external_features as xf
from patseg.char_features import cf_features, char_types
from patseg.corpus import read_corpus
from patseg.pipeline import FeatureExtractor

# train() capped at this many iterations still reaches its memory peak:
# the peak falls inside the first objective evaluation, and L-BFGS-B
# allocates its whole correction history before the first iteration.
PEAK_PROBE_ITERATIONS = 3


class Tracer:
    """Spans (name, start, end, parent, work) kept in memory until the end.

    ``parent`` is the index of the enclosing span.  A disabled tracer
    records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.gc_pauses: list[tuple[float, float]] = []
        # one per L-BFGS run: the enclosing span, iterations and stop reason
        self.optimizer_runs: list[dict] = []
        self._open: list[int] = []
        self._gc_start = 0.0

    @contextmanager
    def span(self, name: str, work: int = 0):
        if not self.enabled:
            yield {}
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "work": work}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapped)

    def _wrap_minimize(self) -> None:
        """Record the iteration count and stop reason of every L-BFGS run,
        which ``train()`` does not return."""
        optimize = crf.scipy.optimize
        original = optimize.minimize

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            self.optimizer_runs.append({"parent": self._open[-1] if self._open else None,
                                        "nit": int(result.nit), "message": str(result.message)})
            return result

        optimize.minimize = wrapped

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))

    def install(self) -> None:
        self.wrap(crf, "build_registry", "crf.build_registry")
        self.wrap(crf, "log_likelihood_and_gradient", "crf.objective")
        # the source model of transit mode is trained through this name
        self.wrap(adaptation, "train", "crf.train")
        self._wrap_minimize()
        gc.callbacks.append(self._on_gc)

    def gc_time(self, rec: dict) -> float:
        return sum(min(e, rec["end"]) - max(s, rec["start"])
                   for s, e in self.gc_pauses if e > rec["start"] and s < rec["end"])


def _chars(docs) -> int:
    return sum(len(s) for d in docs for s in d.sentences)


def _write_pred(docs, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for d in docs:
        (out_dir / f"{d.doc_id}.seg").write_text(
            "".join(" ".join(ws) + "\n" for ws in d.words), encoding="utf-8")


def _load_knowledge(tr: Tracer, kb_dir: Path) -> xf.KnowledgeBase:
    with tr.span("external_features.load"):
        xf.archive_checksum(kb_dir)
        return xf.KnowledgeBase.load(kb_dir)


def _build_knowledge(tr: Tracer, root: Path, kb_dir: Path) -> None:
    with tr.span("corpus.read") as rec:
        tagged = xf.read_tagged_corpus(root / "source")
        rec["work"] = _chars(t.doc for t in tagged)
    with tr.span("external_features.build_knowledge"):
        kb = xf.build_knowledge(tagged, worlds.SIM_K)
    kb.save(kb_dir)


def pipeline(tr: Tracer, root: Path, w: worlds.Workload) -> dict:
    """The CLI path in one process; returns what the probes reuse."""
    cfg = crf.TrainConfig(max_iterations=worlds.MAX_ITERATIONS, tolerance=worlds.TOLERANCE)
    model_path = root / "layers.crf"
    if w.needs_knowledge:
        with tr.span("extract-knowledge"):
            _build_knowledge(tr, root, root / "kb")

    with tr.span("train"):
        with tr.span("corpus.read") as rec:
            target = read_corpus(root / "train")
            source = None
            if w.mode != "target":
                source = [t.doc for t in xf.read_tagged_corpus(root / "source")]
            rec["work"] = _chars(target) + _chars(source or [])
        kb = _load_knowledge(tr, root / "kb") if w.needs_knowledge else None
        extractor = FeatureExtractor(w.groups, kb)
        with tr.span("adaptation.build_training"):
            instances, source_model = adaptation.build_training(w.mode, source, target, extractor, cfg)
        with tr.span("crf.train"):
            model = crf.train(instances, cfg)
        del instances
        with tr.span("crf.save"):
            model.save(model_path)
            if source_model is not None:
                source_model.save(f"{model_path}.source")

    with tr.span("segment"):
        with tr.span("crf.load"):
            model = crf.CrfModel.load(model_path)
            if w.mode == "transit":
                source_model = crf.CrfModel.load(f"{model_path}.source")
        kb = _load_knowledge(tr, root / "kb") if w.needs_knowledge else None
        extractor = FeatureExtractor(w.groups, kb)
        with tr.span("corpus.read") as rec:
            raw = read_corpus(root / "test_raw", "raw")
            rec["work"] = _chars(raw)
        with tr.span("adaptation.segment_document", _chars(raw)):
            pred = [adaptation.segment_document(model, d, extractor, w.mode, source_model) for d in raw]
        _write_pred(pred, root / "pred_layers")

    with tr.span("eval"):
        with tr.span("corpus.read") as rec:
            gold = read_corpus(root / "test_gold")
            ref_docs = read_corpus(root / "source_seg")
            rec["work"] = _chars(gold) + _chars(ref_docs)
        ref = evaluation.word_types(ref_docs)
        with tr.span("evaluation.score_documents"):
            score = evaluation.score_documents(gold, pred, ref)
    return {"score": {"f1": 100.0 * score.f1, "oov_recall": 100.0 * score.oov_recall},
            "source": source, "target": target, "raw": raw, "model": model,
            "source_model": source_model, "extractor": extractor, "cfg": cfg}


def probes(tr: Tracer, root: Path, w: worlds.Workload, state: dict) -> None:
    """Time every layer on its own, over the documents the pipeline trained on.

    Layers the workload's own path does not call are probed too, so that
    every workload reports the same per-layer metrics; a workload without
    external groups builds and loads a knowledge base from its source corpus
    for that.
    """
    docs = (state["source"] or []) + state["target"]
    positions = _chars(docs)
    extractor = state["extractor"]
    if w.needs_knowledge:
        kb = extractor.knowledge
    else:
        _build_knowledge(tr, root, root / "kb_probe")
        kb = _load_knowledge(tr, root / "kb_probe")

    with tr.span("char_features.cf_features", positions):
        for d in docs:
            for sent in d.sentences:
                types = char_types(sent)
                for i in range(len(sent)):
                    cf_features(sent, types, i)
    with tr.span("doc_features.lng", positions):
        for d in docs:
            lng = doc_features.extract_lng(d)
            for si, sent in enumerate(d.sentences):
                for i in range(len(sent)):
                    doc_features.lng_label(d, lng, si, i)
    with tr.span("doc_features.trigram", positions):
        for d in docs:
            table = doc_features.TrigramTable.from_document(d)
            pkl1, pkl2 = doc_features.compute_pkl(d, table)
            pmi1, pmi2 = doc_features.compute_pmi(d, table)
            for scores, direction in ((pkl1, "ascending"), (pkl2, "ascending"),
                                      (pmi1, "descending"), (pmi2, "descending")):
                doc_features.bin_scores(scores, direction)
    with tr.span("external_features.lookup", positions):
        for d in docs:
            for sent in d.sentences:
                for i in range(len(sent)):
                    xf.cpos_feature(kb.pos_lexicon, sent[i])
                    xf.dict_feature(kb.dictionary, sent, i)
                    for sim in xf.sim_features(kb.similarity, sent, i):
                        xf.discretize_similarity(sim)
    with tr.span("pipeline.document_features", positions):
        rows = [fv for d in docs for sent in extractor.document_features(d) for fv in sent]
    with tr.span("adaptation.augment", positions):
        for fv in rows:
            adaptation.augment(fv, adaptation.TARGET_DOMAIN)
    del rows

    model, source_model, raw = state["model"], state["source_model"], state["raw"]
    if w.mode == "transit":
        source_rows = [rows for d in raw for rows in extractor.document_features(d)]
        with tr.span("crf.viterbi", _chars(raw)):
            for rows in source_rows:
                source_model.viterbi(rows)
        del source_rows
    test_rows = [rows for d in raw for rows in adaptation.decoding_features(d, extractor, w.mode, source_model)]
    with tr.span("crf.viterbi", _chars(raw)):
        for rows in test_rows:
            model.viterbi(rows)
    del test_rows

    cfg = state["cfg"]
    instances, _ = adaptation.build_training(
        w.mode, state["source"], state["target"], extractor, cfg)
    capped = crf.TrainConfig(max_iterations=PEAK_PROBE_ITERATIONS, tolerance=cfg.tolerance)
    with tr.span("probe.train_peak") as rec:
        tracemalloc.start()
        crf.train(instances, capped)
        rec["work"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def _merged_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_metrics(tr: Tracer, window: tuple[float, float], test_chars: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans."""
    spans = tr.spans
    dur = [s["end"] - s["start"] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name.get(name, []))

    def rate(name: str) -> float:
        return sum(spans[i]["work"] for i in by_name[name]) / total(name)

    def children(parent: int, name: str) -> list[int]:
        return [i for i in by_name.get(name, []) if spans[i]["parent"] == parent]

    train_phase = by_name["train"][0]
    main_train = children(train_phase, "crf.train")[0]
    objective = children(main_train, "crf.objective")
    registry = children(main_train, "crf.build_registry")
    build = by_name["adaptation.build_training"][0]
    in_window = [(s["start"], s["end"]) for s in spans
                 if "." in s["name"] and s["start"] >= window[0] and s["end"] <= window[1]]
    wall = window[1] - window[0]
    (main_run,) = [r for r in tr.optimizer_runs if r["parent"] == main_train]
    return {
        "corpus.read_chars_per_s": rate("corpus.read"),
        "external_features.build_knowledge_s": total("external_features.build_knowledge"),
        "external_features.load_s": statistics.median(dur[i] for i in by_name["external_features.load"]),
        "char_features.positions_per_s": rate("char_features.cf_features"),
        "doc_features.lng_s": total("doc_features.lng"),
        "doc_features.trigram_s": total("doc_features.trigram"),
        "external_features.lookup_positions_per_s": rate("external_features.lookup"),
        "pipeline.extract_positions_per_s": rate("pipeline.document_features"),
        "adaptation.augment_positions_per_s": rate("adaptation.augment"),
        "adaptation.build_training_s": dur[build],
        "adaptation.build_training_gc_s": tr.gc_time(spans[build]),
        "crf.build_registry_s": sum(dur[i] for i in registry),
        "crf.objective_s": statistics.median(dur[i] for i in objective),
        "crf.objective_evaluations": len(objective),
        "crf.lbfgs_iterations": main_run["nit"],
        "crf.train_other_s": dur[main_train] - sum(dur[i] for i in registry + objective),
        "crf.train_peak_traced_mb": spans[by_name["probe.train_peak"][0]]["work"] / 2**20,
        "crf.viterbi_chars_per_s": test_chars / total("crf.viterbi"),
        "adaptation.segment_chars_per_s": rate("adaptation.segment_document"),
        "crf.save_s": total("crf.save"),
        "crf.load_s": total("crf.load"),
        "evaluation.score_s": total("evaluation.score_documents"),
        "trace.uncovered_pct": 100.0 * (wall - _merged_length(in_window)) / wall,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("world", type=Path)
    ap.add_argument("workload", choices=sorted(worlds.WORKLOADS))
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    w = worlds.WORKLOADS[args.workload]
    tr = Tracer(bool(args.traced))
    if tr.enabled:
        tr.install()
    start = time.perf_counter()
    state = pipeline(tr, args.world, w)
    end = time.perf_counter()
    result: dict = {"pipeline_s": end - start, "score": state["score"]}
    if tr.enabled:
        probes(tr, args.world, w, state)
        result["metrics"] = layer_metrics(tr, (start, end), _chars(state["raw"]))
        result["optimizer_runs"] = [{**r, "span": tr.spans[r["parent"]]["name"]} for r in tr.optimizer_runs]
        result["spans"] = tr.spans
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
