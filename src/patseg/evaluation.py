"""Segmentation scoring and the learning-curve experiment runner.

Scoring follows the bakeoff convention: a predicted word counts as
correct when its character span (start and end offsets) matches a gold
word span.  Metrics are micro-averaged over all evaluation sentences.
OOV recall is measured against a reference vocabulary, normally the word
types of the source training corpus, and is undefined when the
evaluation data has no OOV words at all.

Scoring imports nothing of the CRF, so ``patseg eval`` loads neither the
CRF nor scipy; :func:`run_curve` loads the training modes and the CRF
when it is called.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .config import TrainConfig
from .corpus import Document

if TYPE_CHECKING:
    from .pipeline import FeatureExtractor


@dataclass(frozen=True)
class SegScore:
    precision: float
    recall: float
    f1: float
    oov_recall: float | None
    gold_words: int
    predicted_words: int
    correct_words: int
    gold_oov: int
    correct_oov: int

    def formatted(self) -> dict[str, str]:
        """Percentages with two decimals, OOV as n/a when undefined."""
        def pct(x: float) -> str:
            return f"{100.0 * x:.2f}"

        return {
            "precision": pct(self.precision),
            "recall": pct(self.recall),
            "f1": pct(self.f1),
            "oov_recall": "n/a" if self.oov_recall is None else pct(self.oov_recall),
        }


def _spans(words: Sequence[str]) -> list[tuple[int, int]]:
    spans = []
    offset = 0
    for w in words:
        spans.append((offset, offset + len(w)))
        offset += len(w)
    return spans


def score(
    gold: Sequence[Sequence[str]],
    predicted: Sequence[Sequence[str]],
    ref_vocab: set[str] | None = None,
) -> SegScore:
    """Span-match precision/recall/F1 and OOV recall over sentence pairs.

    ``gold`` and ``predicted`` are parallel lists of word sequences and
    must cover identical character strings sentence by sentence.
    """
    if len(gold) != len(predicted):
        raise ValueError(f"{len(gold)} gold sentences vs {len(predicted)} predicted")
    n_gold = n_pred = n_correct = n_gold_oov = n_correct_oov = 0
    for line, (gws, pws) in enumerate(zip(gold, predicted), start=1):
        if "".join(gws) != "".join(pws):
            raise ValueError(f"sentence {line}: gold and predicted characters differ")
        gold_spans = _spans(gws)
        pred_spans = set(_spans(pws))
        n_gold += len(gold_spans)
        n_pred += len(pred_spans)
        for word, span in zip(gws, gold_spans):
            hit = span in pred_spans
            if hit:
                n_correct += 1
            if ref_vocab is not None and word not in ref_vocab:
                n_gold_oov += 1
                if hit:
                    n_correct_oov += 1
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    oov_recall = None
    if ref_vocab is not None and n_gold_oov:
        oov_recall = n_correct_oov / n_gold_oov
    return SegScore(
        precision, recall, f1, oov_recall, n_gold, n_pred, n_correct, n_gold_oov, n_correct_oov
    )


def score_documents(
    gold_docs: Sequence[Document],
    pred_docs: Sequence[Document],
    ref_vocab: set[str] | None = None,
) -> SegScore:
    """Score two aligned segmented corpora (matched by document id)."""
    for side, docs in (("gold", gold_docs), ("predicted", pred_docs)):
        ids = [d.doc_id for d in docs]
        if len(set(ids)) != len(ids):
            duplicate = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"{side} corpus holds document {duplicate!r} more than once")
    pred_by_id = {d.doc_id: d for d in pred_docs}
    gold_sentences: list[Sequence[str]] = []
    pred_sentences: list[Sequence[str]] = []
    for gdoc in gold_docs:
        pdoc = pred_by_id.get(gdoc.doc_id)
        if pdoc is None:
            raise ValueError(f"document {gdoc.doc_id!r} missing from predictions")
        if gdoc.words is None or pdoc.words is None:
            raise ValueError(f"document {gdoc.doc_id!r} is not segmented on both sides")
        if len(gdoc.sentences) != len(pdoc.sentences):
            raise ValueError(
                f"document {gdoc.doc_id!r}: {len(gdoc.sentences)} gold sentences "
                f"vs {len(pdoc.sentences)} predicted"
            )
        for line, (gws, pws) in enumerate(zip(gdoc.words, pdoc.words), start=1):
            if "".join(gws) != "".join(pws):
                raise ValueError(
                    f"document {gdoc.doc_id!r} line {line}: character sequences differ"
                )
        gold_sentences.extend(gdoc.words)
        pred_sentences.extend(pdoc.words)
    return score(gold_sentences, pred_sentences, ref_vocab)


def word_types(docs: Sequence[Document]) -> set[str]:
    vocab: set[str] = set()
    for doc in docs:
        if doc.words is None:
            raise ValueError(f"document {doc.doc_id!r} is not segmented")
        for ws in doc.words:
            vocab.update(ws)
    return vocab


@dataclass(frozen=True)
class CurvePoint:
    mode: str
    size: int
    score: SegScore


def run_curve(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    dev_docs: Sequence[Document],
    sizes: Sequence[int],
    modes: Sequence[str],
    extractor: FeatureExtractor,
    config: TrainConfig = TrainConfig(),
) -> list[CurvePoint]:
    """Train and evaluate every (mode, size) cell of the learning curve.

    The reference vocabulary for OOV recall is the source corpus's word
    types.  Points come back sorted by (mode, size); any failed training
    aborts the run naming the failing cell.  Two sizes that select the
    same target documents raise ``ValueError`` before any cell trains.
    """
    from . import adaptation
    from .crf import train

    ref_vocab = word_types(source_docs)
    sizes = sorted(set(sizes))
    by_size = dict(zip(sizes, adaptation.slice_target(target_docs, sizes)))
    points: list[CurvePoint] = []
    for mode in sorted(set(modes)):
        # transit's source model depends on neither the size nor the
        # target documents: the first cell trains it and the others reuse it
        source_model = None
        for size in sizes:
            try:
                instances, source_model = adaptation.build_training(
                    mode, source_docs, by_size[size], extractor, config, source_model=source_model
                )
                model = train(instances, config)
                predicted = [
                    adaptation.segment_document(model, doc, extractor, mode, source_model)
                    for doc in dev_docs
                ]
            except Exception as exc:
                raise RuntimeError(f"curve cell (mode={mode}, size={size}) failed: {exc}") from exc
            points.append(CurvePoint(mode, size, score_documents(dev_docs, predicted, ref_vocab)))
    return points


def write_curve_report(points: Sequence[CurvePoint], fh) -> None:
    """CSV rows sorted by (mode, size), percentages with two decimals."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["mode", "size", "precision", "recall", "f1", "oov_recall"])
    for p in sorted(points, key=lambda p: (p.mode, p.size)):
        cells = p.score.formatted()
        writer.writerow(
            [p.mode, p.size, cells["precision"], cells["recall"], cells["f1"], cells["oov_recall"]]
        )


def write_plot_data(points: Sequence[CurvePoint], fh) -> None:
    """TSV of F1 by size, one column per mode, for external plotting."""
    modes = sorted({p.mode for p in points})
    sizes = sorted({p.size for p in points})
    by_cell = {(p.mode, p.size): p.score.f1 for p in points}
    fh.write("\t".join(["size"] + modes) + "\n")
    for size in sizes:
        row = [str(size)]
        for mode in modes:
            f1 = by_cell.get((mode, size))
            row.append("" if f1 is None else f"{100.0 * f1:.2f}")
        fh.write("\t".join(row) + "\n")
