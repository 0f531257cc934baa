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

The document statistics run on integer codes.  Their string forms, one
dictionary entry per n-gram or position, are the oracles of the coded
ones: :func:`levelwise_lng` for the repeated sequences, and
:func:`string_trigram_scores` with :func:`string_bins` for PKL/PMI and
their bins.

:func:`pairwise_cooccurrence` counts character co-occurrences pair by
pair over each sentence's distinct characters, the oracle of the
matrix product in :func:`~patseg.external_features.cooccurrence_matrix`.
:func:`svd_similarity` factors the PPMI matrix by a rank-k SVD, the
oracle of the eigendecomposition in
:func:`~patseg.external_features.build_similarity`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from operator import add
from typing import Iterable, Sequence, TextIO

import numpy as np

from patseg.corpus import LABELS, Document
from patseg.crf import FeatureColumns, FeatureRegistry, PackedBatch, TrainingInstance
from patseg.external_features import SimilarityModel, cooccurrence_matrix, ppmi

Row = list[tuple[str, str]]


def coded(templates: Sequence[str], columns: Sequence[Sequence[str | None]], lengths: Sequence[int]) -> FeatureColumns:
    """Value lists as coded columns: each column's table holds its distinct
    values in first-seen order, None kept as the entry for "no entry"."""
    tables, codes = [], []
    for column in columns:
        index: dict[str | None, int] = {}
        codes.append([index.setdefault(v, len(index)) for v in column])
        tables.append(tuple(index))
    n_rows = sum(lengths)
    array = np.array(codes, dtype=np.intp).reshape(len(columns), n_rows)
    return FeatureColumns(tuple(templates), tuple(tables), array, tuple(lengths))


def columns_from_rows(rows: Sequence[Row], lengths: Sequence[int] | None = None) -> FeatureColumns:
    """Rows of any arity as columns; one sentence unless ``lengths`` splits them.

    Each template is one column, columns ordered by first appearance, and
    rows without the template hold None there.  A row naming a template
    twice is refused.
    """
    columns: dict[str, list[str | None]] = {}
    for r, fv in enumerate(rows):
        named = [template_id for template_id, _ in fv]
        if len(set(named)) != len(named):
            raise ValueError(f"row {r} names a template twice")
        for template_id, value in fv:
            columns.setdefault(template_id, [None] * len(rows))[r] = value
    return coded(tuple(columns), tuple(columns.values()), lengths or (len(rows),))


def run_of(sentences: Sequence[Sequence[Row]]) -> FeatureColumns:
    """Several sentences, each given as rows, as one run of columns."""
    return columns_from_rows([fv for rows in sentences for fv in rows], [len(rows) for rows in sentences])


def instance(rows: Sequence[Row], gold: Sequence[str], source_id: str = "") -> TrainingInstance:
    return TrainingInstance(columns_from_rows(rows), tuple(gold), source_id)


def value_registry(instances: Sequence[TrainingInstance], feature_cutoff: int = 1) -> dict[str, list[str]]:
    """The registry's values built over value lists: templates in the
    order they first occur among the instances' columns, each with its
    values in first-seen order (rows in instance order), None and values
    seen fewer than ``feature_cutoff`` times left out.  The oracle for the
    slots and for the order in which a model file lists each template's
    values."""
    first: dict[str, dict[str | None, None]] = {}
    counts: Counter = Counter()
    for inst in instances:
        templates = inst.features.templates
        for template_id in templates:
            first.setdefault(template_id, {})
        for row in zip(*inst.features.values()):
            for template_id, value in zip(templates, row):
                first[template_id].setdefault(value)
                counts[template_id, value] += 1
    return {
        t: [v for v in seen if v is not None and counts[t, v] >= feature_cutoff] for t, seen in first.items()
    }


def as_version_2(data: bytes) -> bytes:
    """A model file rewritten in the layout of format version 2: the same
    header marked version 2, and before each model's weights its slot ids
    as little-endian int32, one per value in header order."""
    end = data.index(b"\n")
    header = json.loads(data[:end])
    header["version"] = 2
    parts, offset = [json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n"], end + 1
    for entry in header["models"]:
        n_slots = sum(len(values) for values in entry["templates"].values())
        n_bytes = 8 * (n_slots * len(LABELS) + len(LABELS) ** 2)
        parts += [np.arange(n_slots, dtype="<i4").tobytes(), data[offset : offset + n_bytes]]
        offset += n_bytes
    return b"".join(parts)


def slot_items(registry: FeatureRegistry) -> list[tuple[tuple[str, str], int]]:
    """Every registered (template-id, value) pair with its slot, in slot order."""
    return [((t, v), s) for t, values in registry._slots.items() for v, s in values.items()]


def emission_index(registry: FeatureRegistry, template_id: str, value: str, label: str) -> int:
    slot = dict(slot_items(registry))[(template_id, value)]
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
    starts, lengths, later = batch.starts, batch.lengths, batch.later
    scale[starts] = emit[starts].sum(axis=1)
    alpha[starts] = emit[starts] / scale[starts, None]
    for t in range(1, batch.l_max):
        rows = starts[lengths > t] + t
        a = alpha[rows - 1] @ trans * emit[rows]
        scale[rows] = a.sum(axis=1)
        alpha[rows] = a / scale[rows, None]
    log_z = np.bincount(batch.seq_of_row, np.log(scale) + shift, minlength=batch.n)
    log_z += (lengths - 1) * t_shift

    beta = np.ones_like(emit)
    for t in range(batch.l_max - 2, -1, -1):
        rows = starts[lengths > t + 1] + t
        b = (emit[rows + 1] * beta[rows + 1]) @ trans.T
        beta[rows] = b / b.sum(axis=1)[:, None]

    gamma = alpha * beta
    norm = gamma.sum(axis=1)
    gamma /= norm[:, None]
    ahead = emit[later] * beta[later] / (scale[later] * norm[later])[:, None]
    xi = trans * (alpha[later - 1].T @ ahead)
    return log_z, gamma, xi


def sequential_viterbi(batch: PackedBatch, e: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """:meth:`PackedBatch.viterbi` one step at a time: the max recursion
    backward, then the labels read out forward, each the first label that
    still attains the optimum."""
    best = e.copy()
    starts, lengths = batch.starts, batch.lengths
    for t in range(batch.l_max - 2, -1, -1):
        rows = starts[lengths > t + 1] + t
        best[rows] += (w_t + best[rows + 1, None, :]).max(axis=2)
    labels = np.empty(batch.n_rows, dtype=np.intp)
    labels[starts] = best[starts].argmax(axis=1)
    for t in range(1, batch.l_max):
        rows = starts[lengths > t] + t
        labels[rows] = (w_t[labels[rows - 1]] + best[rows]).argmax(axis=1)
    return labels


def pairwise_cooccurrence(sentences: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Co-occurrence counts by a loop over the pairs of each sentence's
    distinct characters: a sentence holding x m times and y k times adds
    m*k to M[x][y] and M[y][x]."""
    vocab = sorted({c for sent in sentences for c in sent})
    index = {c: i for i, c in enumerate(vocab)}
    m = np.zeros((len(vocab), len(vocab)))
    for sent in sentences:
        counts = list(Counter(sent).items())
        for a, (x, cx) in enumerate(counts):
            for y, cy in counts[a + 1 :]:
                m[index[x], index[y]] += cx * cy
                m[index[y], index[x]] += cx * cy
    return vocab, m


def svd_similarity(sentences: Sequence[str], k: int) -> SimilarityModel:
    """Co-occurrence -> PPMI -> rank-k SVD, rows U_k Sigma_k."""
    vocab, m = cooccurrence_matrix(list(sentences))
    u, s, _ = np.linalg.svd(ppmi(m), full_matrices=False)
    return SimilarityModel(vocab, u[:, :k] * s[:k])


def levelwise_lng(doc: Document) -> set[str]:
    """Maximal repeated sequences, grown level by level over strings: an
    (n+1)-gram is counted only where both of its n-grams repeat."""
    level = Counter()
    for sent in doc.sentences:
        level.update(map(add, sent, sent[1:]))
    survivors = {g for g, c in level.items() if c >= 2}
    kept: set[str] = set()
    n = 2
    while survivors:
        nxt = Counter()
        for sent in doc.sentences:
            repeats = [sent[i : i + n] in survivors for i in range(len(sent) - n + 1)]
            nxt.update(sent[i : i + n + 1] for i in range(len(sent) - n) if repeats[i] and repeats[i + 1])
        longer = {g for g, c in nxt.items() if c >= 2}
        kept.update(survivors - ({g[:-1] for g in longer} | {g[1:] for g in longer}))
        survivors = longer
        n += 1
    return kept


def string_trigram_scores(doc: Document) -> dict[str, dict[tuple[int, int], float]]:
    """PKL1/PKL2/PMI1/PMI2 of every position whose trigram occurs at least
    twice, from dictionaries of trigram strings and float sums."""
    raw = Counter(sent[i : i + 3] for sent in doc.sentences for i in range(len(sent) - 2))
    counts = {t: c for t, c in raw.items() if c >= 2}
    total = sum(counts.values())
    p: list[dict[str, float]] = [{}, {}, {}]
    j12: dict[tuple[str, str], float] = {}
    j13: dict[tuple[str, str], float] = {}
    for t, c in counts.items():
        for slot in range(3):
            p[slot][t[slot]] = p[slot].get(t[slot], 0.0) + c
        j12[t[0], t[1]] = j12.get((t[0], t[1]), 0.0) + c
        j13[t[0], t[2]] = j13.get((t[0], t[2]), 0.0) + c
    for table in (*p, j12, j13):
        for key in table:
            table[key] /= total
    out: dict[str, dict[tuple[int, int], float]] = {"pkl1": {}, "pkl2": {}, "pmi1": {}, "pmi2": {}}
    for si, sent in enumerate(doc.sentences):
        for i in range(len(sent) - 2):
            if sent[i : i + 3] in counts:
                x, y, z = sent[i : i + 3]
                px = p[0][x]
                out["pkl1"][si, i] = px * math.log(px / p[1][y])
                out["pkl2"][si, i] = px * math.log(px / p[2][z])
                out["pmi1"][si, i] = math.log(j12[x, y] / (px * p[1][y]))
                out["pmi2"][si, i] = math.log(j13[x, z] / (px * p[2][z]))
    return out


def string_bins(scores: dict[tuple[int, int], float], direction: str) -> dict[tuple[int, int], int]:
    """Five near-equal bins by a sort of (sign * score, position) tuples."""
    sign = 1.0 if direction == "ascending" else -1.0
    ranked = sorted(scores, key=lambda pos: (sign * scores[pos], pos))
    q, r = divmod(len(ranked), 5)
    bins = {}
    start = 0
    for bin_id, size in enumerate([q + 1] * r + [q] * (5 - r), start=1):
        for pos in ranked[start : start + size]:
            bins[pos] = bin_id
        start += size
    return bins
