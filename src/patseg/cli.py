"""Command-line entry points for the segmentation pipeline.

Subcommands: ``extract-knowledge``, ``train``, ``segment``, ``eval``,
``curve``.  Every command takes ``--config PATH`` plus repeatable
``--set section.key=value`` overrides; flags win over file values.  On
failure the process exits nonzero after printing a single
``error:<category>: message`` line to stderr.  A training run that stops
before converging, at ``max_iterations`` or for any other reason the
optimizer gives, prints a ``warning:training:`` line to stderr and still
succeeds.

``train`` writes one model file, which for ``transit`` also holds the
source model, and ``segment`` reads only that file.  A model file that is
damaged or not a model is refused with ``error:invalid:``.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import click

from . import adaptation, evaluation
from .config import ConfigError, RunConfig, load_config, parse_config
from .corpus import Document, ParseError, atomic_write, checksum, corpus_files, read_corpus, read_lines
from .crf import CrfModel, TrainConfig, TrainingError, train as crf_train
from .external_features import KnowledgeBase, build_knowledge, read_tagged_corpus
from .pipeline import EXTERNAL_GROUPS, FeatureExtractor


class MismatchError(RuntimeError):
    """A model's manifest disagrees with the supplied inputs."""


_ERROR_CATEGORIES = (
    (ConfigError, "config"),
    (ParseError, "parse"),
    (MismatchError, "mismatch"),
    (TrainingError, "training"),
    (FileNotFoundError, "io"),
    (OSError, "io"),
    (ValueError, "invalid"),
)


def _fail(exc: Exception) -> "None":
    for exc_type, category in _ERROR_CATEGORIES:
        if isinstance(exc, exc_type):
            click.echo(f"error:{category}: {exc}", err=True)
            sys.exit(1)
    raise exc


def _load_run_config(config_path: str | None, overrides: tuple[str, ...]) -> RunConfig:
    pairs = {}
    for item in overrides:
        dotted, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        pairs[dotted.strip()] = value
    if config_path:
        return load_config(config_path, pairs)
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


@click.group()
def main() -> None:
    """Word segmentation toolkit for technical Chinese text."""


_config_option = click.option("--config", "config_path", type=click.Path(), default=None)
_set_option = click.option(
    "--set", "overrides", multiple=True, help="Override a config value: section.key=value"
)


@main.command("extract-knowledge")
@_config_option
@_set_option
def cmd_extract_knowledge(config_path, overrides) -> None:
    """Build the POS lexicon, word dictionary, and similarity model."""
    try:
        cfg = _load_run_config(config_path, overrides)
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
        click.echo(f"knowledge archive written to {cfg.knowledge}")
    except Exception as exc:
        _fail(exc)


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        l2=cfg.l2,
        max_iterations=cfg.max_iterations,
        tolerance=cfg.tolerance,
        feature_cutoff=cfg.feature_cutoff,
    )


@main.command("train")
@_config_option
@_set_option
def cmd_train(config_path, overrides) -> None:
    """Extract features, build the mode's training set, and fit a model."""
    try:
        cfg = _load_run_config(config_path, overrides)
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
        train_config = _train_config(cfg)
        instances, source_model = adaptation.build_training(
            cfg.mode, source_docs, target_docs, extractor, train_config
        )
        manifest = {
            "feature_groups": list(extractor.groups),
            "mode": cfg.mode,
            "knowledge_checksum": kb_checksum,
            "corpus_checksums": checksums,
        }
        model = crf_train(instances, train_config, manifest)
        model.source = source_model
        optimizer = model.manifest["optimizer"]
        if not optimizer["converged"]:
            if optimizer["nit"] >= train_config.max_iterations:
                reason = f"stopped at max_iterations={train_config.max_iterations} before convergence"
            else:
                reason = f"optimizer stopped before convergence: {optimizer['message']}"
            click.echo(f"warning:training: {reason}", err=True)
        model.save(cfg.model)
        click.echo(f"model written to {cfg.model}")
    except Exception as exc:
        _fail(exc)


def _segment_file(path: Path, model, extractor, mode) -> list[str]:
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


@main.command("segment")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--knowledge", "knowledge_path", type=click.Path(), default=None)
@_config_option
@_set_option
def cmd_segment(model_path, input_path, output_path, knowledge_path, config_path, overrides) -> None:
    """Segment a raw corpus with a trained model."""
    try:
        model = CrfModel.load(_require(model_path, "model file"))
        manifest = model.manifest
        groups = tuple(manifest.get("feature_groups", ("CF",)))
        mode = manifest.get("mode", "target")
        if config_path or overrides:
            cfg = _load_run_config(config_path, overrides)
            if set(cfg.groups) != set(groups):
                raise MismatchError(
                    f"model was trained with feature groups {sorted(groups)} "
                    f"but the config enables {sorted(cfg.groups)}"
                )
        knowledge = None
        if EXTERNAL_GROUPS & set(groups):
            if not knowledge_path:
                raise ConfigError(f"model needs feature groups {sorted(EXTERNAL_GROUPS & set(groups))}; pass --knowledge")
            if checksum(_require(knowledge_path, "knowledge archive")) != manifest.get("knowledge_checksum"):
                raise MismatchError(
                    "knowledge archive checksum does not match the one recorded at training time"
                )
            knowledge = KnowledgeBase.load(knowledge_path)
        if mode == "transit" and model.source is None:
            raise ValueError(f"{model_path} is a transit model without its source model; retrain the model")
        extractor = FeatureExtractor(groups, knowledge)
        _require(input_path, "input corpus")
        out_dir = Path(output_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        for p in corpus_files(input_path):
            out_lines = _segment_file(p, model, extractor, mode)
            atomic_write(out_dir / f"{p.stem}.seg", "".join(line + "\n" for line in out_lines).encode("utf-8"))
        click.echo(f"segmented corpus written to {output_path}")
    except Exception as exc:
        _fail(exc)


@main.command("eval")
@click.option("--gold", "gold_path", required=True, type=click.Path())
@click.option("--pred", "pred_path", required=True, type=click.Path())
@click.option("--ref-vocab", "ref_path", type=click.Path(), default=None,
              help="Segmented corpus supplying the reference vocabulary for OOV recall")
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_eval(gold_path, pred_path, ref_path, report_path) -> None:
    """Score a predicted segmentation against gold."""
    try:
        gold = read_corpus(_require(gold_path, "gold corpus"), "segmented")
        pred = read_corpus(_require(pred_path, "predicted corpus"), "segmented")
        ref_vocab = None
        if ref_path:
            ref_vocab = evaluation.word_types(read_corpus(_require(ref_path, "ref-vocab corpus"), "segmented"))
        result = evaluation.score_documents(gold, pred, ref_vocab)
        cells = result.formatted()
        for key in ("precision", "recall", "f1", "oov_recall"):
            click.echo(f"{key} {cells[key]}")
        if report_path:
            header = "precision,recall,f1,oov_recall\n"
            row = ",".join(cells[k] for k in ("precision", "recall", "f1", "oov_recall"))
            atomic_write(report_path, (header + row + "\n").encode("utf-8"))
    except Exception as exc:
        _fail(exc)


@main.command("curve")
@_config_option
@_set_option
def cmd_curve(config_path, overrides) -> None:
    """Run the learning-curve experiment over modes and training sizes."""
    try:
        cfg = _load_run_config(config_path, overrides)
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
            _train_config(cfg),
        )
        report = io.StringIO()
        evaluation.write_curve_report(points, report)
        atomic_write(cfg.report, report.getvalue().encode("utf-8"))
        plot = io.StringIO()
        evaluation.write_plot_data(points, plot)
        atomic_write(Path(cfg.report).with_suffix(".plot.tsv"), plot.getvalue().encode("utf-8"))
        click.echo(f"curve report written to {cfg.report}")
    except Exception as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
