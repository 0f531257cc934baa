"""Command-line entry points for the segmentation pipeline.

Subcommands: ``extract-knowledge``, ``train``, ``segment``, ``eval``,
``curve``.  Every command but ``eval`` takes ``--config PATH`` plus
repeatable ``--set section.key=value`` overrides; flags win over file
values.  A training run whose model, or whose ``transit`` source model,
stops before converging, at ``max_iterations`` or for any other reason the
optimizer gives, prints a ``warning:training:`` line per model to stderr
and still succeeds.

Exit status: 0 on success; 1 on a failure, after a single
``error:<category>: message`` line on stderr; 2 on a usage error (an
unknown, abbreviated or missing option or command), after argparse's usage
and message, which is not an ``error:`` line.

``train`` writes one model file, which for ``transit`` also holds the
source model and for ``easy`` leaves out the ``source`` namespace that
decoding never reads, and ``segment`` reads only that file.  A model
file that is damaged or not a model, or whose manifest gives feature
groups that are not a list of known groups or an unknown mode, is
refused with ``error:invalid:``.

A process pays only for the command it runs.  At module level this
module loads :mod:`~patseg.config`, :mod:`~patseg.corpus` and
:mod:`~patseg.external_features`, which is all ``extract-knowledge``
needs.  ``train``, ``segment`` and ``curve`` import the CRF, the feature
pipeline and the adaptation modes when they run, and ``eval`` imports
only the scorer.  So ``extract-knowledge`` and ``eval`` load neither the
CRF nor any ``scipy`` module; ``segment`` loads the bare ``scipy``
package through the CRF; only ``train`` and ``curve`` load
``scipy.optimize`` and ``scipy.sparse``.

A process started as ``patseg`` or ``python -m patseg.cli`` runs
:func:`console_main`: :func:`main`, then ``gc.freeze()`` and exit.  The
freeze spares the process the collection the interpreter otherwise runs
at exit over every object the imports made, which takes longest in a
process that loaded ``scipy.optimize``.  Output files are already closed
by then, and standard streams are still flushed.  :func:`main` itself
never freezes, because a caller that runs it in process, such as a test,
goes on collecting afterwards.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
from pathlib import Path

from .config import (
    EXTERNAL_GROUPS,
    FEATURE_GROUPS,
    MODES,
    ConfigError,
    RunConfig,
    TrainingError,
    load_config,
    parse_config,
)
from .corpus import Document, ParseError, atomic_write, checksum, corpus_files, read_corpus, read_lines
from .external_features import KnowledgeBase, build_knowledge, read_tagged_corpus


class MismatchError(RuntimeError):
    """A model's manifest disagrees with the supplied inputs."""


_ERROR_CATEGORIES = (
    (ConfigError, "config"),
    (ParseError, "parse"),
    (MismatchError, "mismatch"),
    (TrainingError, "training"),
    (OSError, "io"),
    (ValueError, "invalid"),
)


def _fail(exc: Exception) -> int:
    # the category of the first categorized exception along the __cause__
    # chain, so a wrapper keeps its cause's category and its own message
    cause: BaseException | None = exc
    while cause is not None:
        for exc_type, category in _ERROR_CATEGORIES:
            if isinstance(cause, exc_type):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return 1
        cause = cause.__cause__
    raise exc


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    pairs = {}
    for item in args.overrides:
        dotted, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        pairs[dotted.strip()] = value
    if args.config:
        return load_config(args.config, pairs)
    return parse_config("", pairs)


def _require(path: str, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} is not configured")
    if not Path(path).exists():
        raise FileNotFoundError(f"{what} {path!r} does not exist")
    return path


def _read_source_documents(cfg: RunConfig) -> list[Document]:
    _require(cfg.source, "source corpus")
    if cfg.source_format == "tagged":
        return [t.doc for t in read_tagged_corpus(cfg.source)]
    return read_corpus(cfg.source, "segmented")


def _load_knowledge(cfg: RunConfig, groups: tuple[str, ...]) -> tuple[KnowledgeBase | None, str]:
    if not (EXTERNAL_GROUPS & set(groups)):
        return None, ""
    _require(cfg.knowledge, "knowledge archive")
    return KnowledgeBase.load(cfg.knowledge), checksum(cfg.knowledge)


def cmd_extract_knowledge(args: argparse.Namespace) -> None:
    """Build the POS lexicon, word dictionary, and similarity model."""
    cfg = _load_run_config(args)
    _require(cfg.source, "source corpus")
    if not cfg.knowledge:
        raise ConfigError("knowledge archive output path is not configured")
    if cfg.source_format != "tagged":
        raise ConfigError("knowledge extraction needs a tagged source corpus (word_TAG)")
    tagged = read_tagged_corpus(cfg.source)
    if not tagged:
        raise ConfigError(f"source corpus {cfg.source!r} is empty")
    try:
        kb = build_knowledge(tagged, cfg.sim_k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kb.save(cfg.knowledge)
    print(f"knowledge archive written to {cfg.knowledge}")


def cmd_train(args: argparse.Namespace) -> None:
    """Extract features, build the mode's training set, and fit a model."""
    from . import adaptation
    from .crf import train as crf_train
    from .pipeline import FeatureExtractor

    cfg = _load_run_config(args)
    if not cfg.model:
        raise ConfigError("model output path is not configured")
    _require(cfg.target_train, "target training corpus")
    target_docs = read_corpus(cfg.target_train, "segmented")
    if not target_docs:
        raise ConfigError(f"target training corpus {cfg.target_train!r} is empty")
    knowledge, kb_checksum = _load_knowledge(cfg, cfg.groups)
    source_docs = None
    checksums = {"target_train": checksum(cfg.target_train)}
    if cfg.mode != "target":
        source_docs = _read_source_documents(cfg)
        checksums["source"] = checksum(cfg.source)
    extractor = FeatureExtractor(cfg.groups, knowledge)
    instances, source_model = adaptation.build_training(
        cfg.mode, source_docs, target_docs, extractor, cfg.train
    )
    manifest = {
        "feature_groups": list(extractor.groups),
        "mode": cfg.mode,
        "knowledge_checksum": kb_checksum,
        "corpus_checksums": checksums,
    }
    model = adaptation.decoding_model(crf_train(instances, cfg.train, manifest))
    model.source = source_model
    for prefix, trained in (("", model), ("source model ", source_model)):
        if trained is None or trained.manifest["optimizer"]["converged"]:
            continue
        optimizer = trained.manifest["optimizer"]
        if optimizer["nit"] >= cfg.train.max_iterations:
            reason = f"stopped at max_iterations={cfg.train.max_iterations} before convergence"
        else:
            reason = f"optimizer stopped before convergence: {optimizer['message']}"
        print(f"warning:training: {prefix}{reason}", file=sys.stderr)
    model.save(cfg.model)
    print(f"model written to {cfg.model}")


def _segment_file(path: Path, model, extractor, mode) -> list[str]:
    from . import adaptation

    # blank lines are skipped by the decoder but preserved in the output
    lines = read_lines(path)
    for lineno, line in enumerate(lines, start=1):
        if " " in line:
            raise ValueError(
                f"{path}:{lineno}: the line holds a space (U+0020), which separates words "
                "in segmented output, so no output line can represent it"
            )
    sentences = [ln for ln in lines if ln]
    if not sentences:
        return ["" for _ in lines]
    doc = Document(path.stem, tuple(sentences))
    segmented = adaptation.segment_document(model, doc, extractor, mode, model.source)
    non_blank = iter(segmented.words)
    return [" ".join(next(non_blank)) if ln else "" for ln in lines]


def cmd_segment(args: argparse.Namespace) -> None:
    """Segment a raw corpus with a trained model."""
    from .crf import CrfModel
    from .pipeline import FeatureExtractor

    model = CrfModel.load(_require(args.model, "model file"))
    manifest = model.manifest
    groups = manifest.get("feature_groups", ["CF"])
    if not (isinstance(groups, list) and all(g in FEATURE_GROUPS for g in groups)):
        raise ValueError(f"{args.model}: feature groups {groups!r} are not a list of known groups; retrain the model")
    groups = tuple(groups)
    mode = manifest.get("mode", "target")
    if mode not in MODES:
        raise ValueError(f"{args.model}: unknown adaptation mode {mode!r}; retrain the model")
    if args.config or args.overrides:
        cfg = _load_run_config(args)
        if set(cfg.groups) != set(groups):
            raise MismatchError(
                f"model was trained with feature groups {sorted(groups)} "
                f"but the config enables {sorted(cfg.groups)}"
            )
    knowledge = None
    if EXTERNAL_GROUPS & set(groups):
        if not args.knowledge:
            raise ConfigError(f"model needs feature groups {sorted(EXTERNAL_GROUPS & set(groups))}; pass --knowledge")
        if checksum(_require(args.knowledge, "knowledge archive")) != manifest.get("knowledge_checksum"):
            raise MismatchError(
                "knowledge archive checksum does not match the one recorded at training time"
            )
        knowledge = KnowledgeBase.load(args.knowledge)
    if mode == "transit" and model.source is None:
        raise ValueError(f"{args.model} is a transit model without its source model; retrain the model")
    extractor = FeatureExtractor(groups, knowledge)
    _require(args.input, "input corpus")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in corpus_files(args.input):
        out_lines = _segment_file(p, model, extractor, mode)
        atomic_write(out_dir / f"{p.stem}.seg", "".join(line + "\n" for line in out_lines).encode("utf-8"))
    print(f"segmented corpus written to {args.output}")


def cmd_eval(args: argparse.Namespace) -> None:
    """Score a predicted segmentation against gold."""
    from . import evaluation

    gold = read_corpus(_require(args.gold, "gold corpus"), "segmented")
    pred = read_corpus(_require(args.pred, "predicted corpus"), "segmented")
    ref_vocab = None
    if args.ref_vocab:
        ref_vocab = evaluation.word_types(read_corpus(_require(args.ref_vocab, "ref-vocab corpus"), "segmented"))
    result = evaluation.score_documents(gold, pred, ref_vocab)
    cells = result.formatted()
    for key in ("precision", "recall", "f1", "oov_recall"):
        print(f"{key} {cells[key]}")
    if args.report:
        header = "precision,recall,f1,oov_recall\n"
        row = ",".join(cells[k] for k in ("precision", "recall", "f1", "oov_recall"))
        atomic_write(args.report, (header + row + "\n").encode("utf-8"))


def cmd_curve(args: argparse.Namespace) -> None:
    """Run the learning-curve experiment over modes and training sizes."""
    from . import evaluation
    from .pipeline import FeatureExtractor

    cfg = _load_run_config(args)
    if not cfg.curve_sizes:
        raise ConfigError("curve sizes are not configured")
    if not cfg.report:
        raise ConfigError("report output path is not configured")
    target_docs = read_corpus(_require(cfg.target_train, "target training corpus"), "segmented")
    dev_docs = read_corpus(_require(cfg.target_dev, "target dev corpus"), "segmented")
    source_docs = _read_source_documents(cfg)
    knowledge, _checksum = _load_knowledge(cfg, cfg.groups)
    extractor = FeatureExtractor(cfg.groups, knowledge)
    points = evaluation.run_curve(
        source_docs,
        target_docs,
        dev_docs,
        list(cfg.curve_sizes),
        list(cfg.curve_modes),
        extractor,
        cfg.train,
    )
    report = io.StringIO()
    evaluation.write_curve_report(points, report)
    atomic_write(cfg.report, report.getvalue().encode("utf-8"))
    plot = io.StringIO()
    evaluation.write_plot_data(points, plot)
    atomic_write(Path(cfg.report).with_suffix(".plot.tsv"), plot.getvalue().encode("utf-8"))
    print(f"curve report written to {cfg.report}")


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser, so that a prefix such as --mod is refused
    parser = argparse.ArgumentParser(
        prog="patseg", description="Word segmentation toolkit for technical Chinese text.", allow_abbrev=False
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    run_config = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    run_config.add_argument("--config", metavar="PATH")
    run_config.add_argument("--set", dest="overrides", action="append", default=[], metavar="TEXT",
                            help="Override a config value: section.key=value")

    def command(name, run, *parents):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, parents=parents, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    command("extract-knowledge", cmd_extract_knowledge, run_config)
    command("train", cmd_train, run_config)
    segment = command("segment", cmd_segment, run_config)
    for option in ("--model", "--input", "--output"):
        segment.add_argument(option, metavar="PATH", required=True)
    segment.add_argument("--knowledge", metavar="PATH")
    evaluate = command("eval", cmd_eval)
    for option in ("--gold", "--pred"):
        evaluate.add_argument(option, metavar="PATH", required=True)
    evaluate.add_argument("--ref-vocab", metavar="PATH",
                          help="Segmented corpus supplying the reference vocabulary for OOV recall")
    evaluate.add_argument("--report", metavar="PATH")
    command("curve", cmd_curve, run_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit status (argparse exits 2 itself on a usage error)."""
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except Exception as exc:
        return _fail(exc)
    return 0


def console_main() -> None:
    """The process entry point: run :func:`main` on ``sys.argv``, then exit
    with its status, skipping the exit-time collection (module docstring)."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    console_main()
