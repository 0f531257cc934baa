"""Per-position reference forms for the tests.

The program takes features only as :class:`~patseg.crf.FeatureColumns`.
Tests write hand-made inputs as per-position rows, lists of
(template-id, value) pairs, and convert them here.  The feature dump,
one line per character position with TAB-separated ``template-id=value``
pairs in template order and a blank line between sentences, pins the
extractor's output format against a golden file.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TextIO

from patseg.corpus import LABELS
from patseg.crf import FeatureColumns, FeatureRegistry, TrainingInstance

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
