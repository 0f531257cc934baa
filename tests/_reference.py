"""Reference forms for the tests.

The program takes features only as :class:`~patseg.crf.FeatureColumns`.
Tests write hand-made inputs as per-position rows, lists of
(template-id, value) pairs, and convert them here.  The feature dump,
one line per character position with TAB-separated ``template-id=value``
pairs in template order and a blank line between sentences, pins the
extractor's output format against a golden file.

The CRF passes run as chunked scans.  Their step-by-step forms,
:func:`sequential_forward_backward` and :func:`sequential_viterbi`, are
the oracle for batches too long to enumerate.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO

import numpy as np

from patseg.corpus import LABELS
from patseg.crf import FeatureColumns, FeatureRegistry, PackedBatch, TrainingInstance

Row = list[tuple[str, str]]


def columns_from_rows(rows: Sequence[Row], lengths: Sequence[int] | None = None) -> FeatureColumns:
    """Rows of any arity as columns; one sentence unless ``lengths`` splits them.

    The k-th entry of template t in a row goes to the k-th column of t;
    columns are ordered by first appearance, and rows without the entry
    hold None there.
    """
    index: dict[tuple[str, int], int] = {}
    templates: list[str] = []
    columns: list[list[str | None]] = []
    for r, fv in enumerate(rows):
        occurrences: dict[str, int] = {}
        for template_id, value in fv:
            k = occurrences.get(template_id, 0)
            occurrences[template_id] = k + 1
            j = index.setdefault((template_id, k), len(columns))
            if j == len(columns):
                templates.append(template_id)
                columns.append([None] * len(rows))
            columns[j][r] = value
    return FeatureColumns(tuple(templates), tuple(columns), tuple(lengths or (len(rows),)))


def run_of(sentences: Sequence[Sequence[Row]]) -> FeatureColumns:
    """Several sentences, each given as rows, as one run of columns."""
    return columns_from_rows([fv for rows in sentences for fv in rows], [len(rows) for rows in sentences])


def instance(rows: Sequence[Row], gold: Sequence[str], source_id: str = "") -> TrainingInstance:
    return TrainingInstance(columns_from_rows(rows), tuple(gold), source_id)


def emission_index(registry: FeatureRegistry, template_id: str, value: str, label: str) -> int:
    slot = dict(registry.slot_items())[(template_id, value)]
    return slot * len(LABELS) + LABELS.index(label)


def transition_index(registry: FeatureRegistry, prev_label: str, label: str) -> int:
    k = len(LABELS)
    return registry.n_slots * k + LABELS.index(prev_label) * k + LABELS.index(label)


def write_feature_dump(fh: TextIO, sentence_features: Iterable[Iterable[Row]]) -> None:
    """Write per-sentence features, each an iterable of rows, in the dump format."""
    for si, rows in enumerate(sentence_features):
        if si:
            fh.write("\n")
        for fv in rows:
            fh.write("\t".join(f"{t}={v}" for t, v in fv))
            fh.write("\n")


def sequential_forward_backward(batch: PackedBatch, e: np.ndarray, w_t: np.ndarray):
    """:meth:`PackedBatch.forward_backward` one step at a time: alpha and
    beta renormalized at every row, log Z from the row scales."""
    shift = e.max(axis=1)
    emit = np.exp(e - shift[:, None])
    t_shift = w_t.max()
    trans = np.exp(w_t - t_shift)
    alpha = np.empty_like(emit)
    scale = np.empty(batch.n_rows)
    n, offset, active = batch.n, batch.offset, batch.active
    scale[:n] = emit[:n].sum(axis=1)
    alpha[:n] = emit[:n] / scale[:n, None]
    for t in range(1, batch.l_max):
        prev_lo, lo, k = offset[t - 1], offset[t], active[t]
        a = alpha[prev_lo : prev_lo + k] @ trans * emit[lo : lo + k]
        scale[lo : lo + k] = a.sum(axis=1)
        alpha[lo : lo + k] = a / scale[lo : lo + k, None]
    log_z = np.bincount(batch.seq_of_row, np.log(scale) + shift, minlength=n)
    log_z += (batch.lengths - 1) * t_shift

    beta = np.ones_like(emit)
    for t in range(batch.l_max - 2, -1, -1):
        lo, next_lo, k = offset[t], offset[t + 1], active[t + 1]
        b = (emit[next_lo : next_lo + k] * beta[next_lo : next_lo + k]) @ trans.T
        beta[lo : lo + k] = b / b.sum(axis=1)[:, None]

    gamma = alpha * beta
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    later = emit[n:] * beta[n:] / (scale[n:] * norm[n:])[:, None]
    xi = trans * (alpha[batch.prev_rows].T @ later)
    return log_z, gamma, xi


def sequential_viterbi(batch: PackedBatch, e: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """:meth:`PackedBatch.viterbi` one step at a time: the max recursion
    backward, then the labels read out forward, each the first label that
    still attains the optimum."""
    best = e.copy()
    offset, active = batch.offset, batch.active
    for t in range(batch.l_max - 2, -1, -1):
        lo, next_lo, k = offset[t], offset[t + 1], active[t + 1]
        best[lo : lo + k] += (w_t + best[next_lo : next_lo + k, None, :]).max(axis=2)
    labels = np.empty(batch.n_rows, dtype=np.intp)
    labels[: batch.n] = best[: batch.n].argmax(axis=1)
    for t in range(1, batch.l_max):
        prev_lo, lo, k = offset[t - 1], offset[t], active[t]
        labels[lo : lo + k] = (w_t[labels[prev_lo : prev_lo + k]] + best[lo : lo + k]).argmax(axis=1)
    return labels
