"""Per-document repetition statistics: LNG, PKL, PMI, and quintile bins.

Every statistic here treats one document as an independent unit and never
lets an n-gram cross a sentence boundary.  Technical terms recur within a
document even when they are rare in the corpus, which is exactly the
signal these features pick up.

The statistics run on the document's integer codes
(:class:`~patseg.corpus.DocumentCodes`): repeated sequences grow as
integer n-gram ids level by level, trigram statistics come from
``bincount`` over codes, and :func:`lng_column` and
:func:`trigram_columns` give the coded feature columns.  The functions
that return strings and dictionaries -- :func:`extract_lng`,
:class:`TrigramTable`, :func:`compute_pkl`, :func:`compute_pmi` and
:func:`bin_scores` -- are views of the same arrays, where positions are
addressed as (sentence-index, character-index) pairs within their
document; :func:`lng_label` is the per-position definition of LNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Column, Document, DocumentCodes

Position = tuple[int, int]

BIN_COUNT = 5
NO_SCORE = "none"


@dataclass(frozen=True)
class LngList:
    """Maximal repeated character sequences of one document.

    Every sequence has length >= 2 and occurred at least twice within the
    document; no sequence is a substring of another in the list.
    """

    doc_id: str
    sequences: frozenset[str]
    _prefixes: frozenset[str] = field(init=False, repr=False, compare=False)
    _suffixes: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_prefixes", frozenset(s[:2] for s in self.sequences))
        object.__setattr__(self, "_suffixes", frozenset(s[-2:] for s in self.sequences))

    def starts_with(self, bigram: str) -> bool:
        return bigram in self._prefixes

    def ends_with(self, bigram: str) -> bool:
        return bigram in self._suffixes


def extract_lng(doc: Document) -> LngList:
    """Longest repeated n-gram sequences of a document, as strings: the
    sequences :func:`lng_column` finds."""
    coded = DocumentCodes.of(doc)
    found = _repeated_sequences(coded)
    return LngList(doc.doc_id, frozenset(coded.text[r : r + n] for n, r in zip(found.lengths, found.rows)))


@dataclass(frozen=True)
class _Sequences:
    """Maximal repeated sequences: each one's length, a row where it
    starts, and the bigram ids (``DocumentCodes.bigrams``) it starts and
    ends with."""

    lengths: list[int]
    rows: list[int]
    first_bigrams: np.ndarray
    last_bigrams: np.ndarray


def _repeated_sequences(coded: DocumentCodes) -> _Sequences:
    """Grows candidate n-grams level by level, with integer ids.

    An (n+1)-gram can only repeat if both of its n-gram substrings
    repeat, so level n+1 is formed only at rows where the n-grams at
    ``r`` and ``r + 1`` both occur at least twice; the pair of their ids
    identifies the (n+1)-gram.  An n-gram that repeats is kept when no
    repeating (n+1)-gram starts or ends with it, which makes it maximal.

    A level costs a sort of its candidate rows, so the worst case is
    O(L N log N) for N characters whose longest repeated sequence has L
    characters: a run of one character repeated N times has L = N - 1.
    """
    bigrams = coded.bigrams
    rows = np.flatnonzero(bigrams.ids >= 0)
    ids = bigrams.ids[rows]
    counts = np.bincount(ids)
    first_bigram = last_bigram = np.arange(len(counts))
    lengths: list[int] = []
    kept_rows: list[np.ndarray] = []
    firsts: list[np.ndarray] = []
    lasts: list[np.ndarray] = []
    n = 2
    while True:
        repeats = counts[ids] >= 2
        rows, ids = rows[repeats], ids[repeats]
        if not len(rows):
            break
        # a pair of consecutive rows both repeating forms an (n+1)-gram
        pair = np.flatnonzero(rows[1:] == rows[:-1] + 1)
        keys = ids[pair] * len(counts) + ids[pair + 1]
        distinct, inverse, longer_counts = np.unique(keys, return_inverse=True, return_counts=True)
        left, right = np.divmod(distinct, len(counts))
        absorbed = np.zeros(len(counts), dtype=bool)
        absorbed[left[longer_counts >= 2]] = True
        absorbed[right[longer_counts >= 2]] = True
        survivors, at = np.unique(ids, return_index=True)
        kept = survivors[~absorbed[survivors]]
        lengths += [n] * len(kept)
        kept_rows.append(rows[at[~absorbed[survivors]]])
        firsts.append(first_bigram[kept])
        lasts.append(last_bigram[kept])

        first_bigram, last_bigram = first_bigram[left], last_bigram[right]
        rows, ids, counts = rows[pair], inverse.reshape(-1), longer_counts
        n += 1
    concat = np.concatenate
    empty = np.empty(0, dtype=np.intp)
    return _Sequences(
        lengths, concat(kept_rows or [empty]).tolist(), concat(firsts or [empty]), concat(lasts or [empty])
    )


LNG_TABLE = ("O", "F", "S", "T")


def lng_column(coded: DocumentCodes) -> Column:
    """:func:`lng_label` of every row, coded in ``LNG_TABLE``: the
    bigram at each row and the one before it looked up by id."""
    found = _repeated_sequences(coded)
    n_bigrams = len(coded.bigrams.first)
    opens = np.zeros(n_bigrams + 1, dtype=bool)  # the last entry stands for "no bigram" (id -1)
    closes = np.zeros(n_bigrams + 1, dtype=bool)
    opens[found.first_bigrams] = True
    closes[found.last_bigrams] = True
    ids = coded.bigrams.ids
    starts = opens[ids]
    ends = np.zeros(len(ids), dtype=bool)
    ends[1:] = closes[ids[:-1]]
    return LNG_TABLE, 2 * starts + ends
def lng_label(doc: Document, lng: LngList, sentence_index: int, i: int) -> str:
    """LNG label for one character position: S, F, T, or O.

    S when (C_i, C_{i+1}) open some listed sequence, F when
    (C_{i-1}, C_i) close one, T when both hold, O otherwise.  Window
    positions past the sentence edge never match.
    """
    sent = doc.sentences[sentence_index]
    starts = i + 1 < len(sent) and lng.starts_with(sent[i : i + 2])
    ends = i >= 1 and lng.ends_with(sent[i - 1 : i + 1])
    if starts and ends:
        return "T"
    if starts:
        return "S"
    if ends:
        return "F"
    return "O"


@dataclass(frozen=True)
class _TrigramStats:
    """Within-sentence trigrams of a document that occur at least twice,
    and the PKL/PMI scores of the rows where they start.

    ``rows`` (ascending) are those rows and ``trigram[k]`` the index of
    row ``rows[k]``'s trigram among the distinct survivors; per distinct
    survivor ``first`` is a row where it starts and ``counts`` its
    frequency.  ``marginals[slot]`` counts the surviving trigram tokens
    by the character code at each slot, ``joint12`` and ``joint13`` per
    distinct survivor those sharing its characters at slots 1-2 and 1-3.
    The four score arrays are per distinct survivor.
    """

    rows: np.ndarray
    trigram: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    marginals: tuple[np.ndarray, np.ndarray, np.ndarray]
    joint12: np.ndarray
    joint13: np.ndarray
    pkl1: np.ndarray
    pkl2: np.ndarray
    pmi1: np.ndarray
    pmi2: np.ndarray


def _logs(values: np.ndarray) -> np.ndarray:
    """Natural logs by ``math.log``, which np.log may differ from in the
    last bit; one call per distinct trigram, not per row."""
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))


def _trigram_stats(coded: DocumentCodes) -> _TrigramStats:
    """Counts by ``bincount`` over trigram, bigram and character codes.
    Counts are integers, so every probability is the exact count divided
    by the total, as a sum of float counts would give."""
    ids = coded.trigrams.ids
    rows = np.flatnonzero(ids >= 0)
    rows = rows[np.bincount(ids[rows])[ids[rows]] >= 2]
    _, at, trigram, counts = np.unique(ids[rows], return_index=True, return_inverse=True, return_counts=True)
    trigram = trigram.reshape(-1)
    codes, n_chars = coded.codes, len(coded.chars)
    x, y, z = codes[rows], codes[rows + 1], codes[rows + 2]
    marginals = tuple(np.bincount(c, minlength=n_chars) for c in (x, y, z))
    pairs12 = coded.bigrams.ids[rows]
    joint12 = np.bincount(pairs12)[pairs12[at]]
    _, inverse13, counts13 = np.unique(x * n_chars + z, return_inverse=True, return_counts=True)
    joint13 = counts13[inverse13.reshape(-1)[at]]

    total = len(rows)
    px, py, pz = (m[c[at]] / total for m, c in zip(marginals, (x, y, z)))
    return _TrigramStats(
        rows, trigram, rows[at], counts, marginals, joint12, joint13,
        pkl1=px * _logs(px / py),
        pkl2=px * _logs(px / pz),
        pmi1=_logs(joint12 / total / (px * py)),
        pmi2=_logs(joint13 / total / (px * pz)),
    )


@dataclass(frozen=True)
class TrigramTable:
    """Within-sentence trigram counts of a document, frequency-filtered.

    ``counts`` holds trigrams with raw frequency >= 2; the per-slot
    marginals p1/p2/p3 are maximum-likelihood over the surviving trigram
    tokens (no smoothing -- the hard frequency filter stands in for it).
    A string view of the coded statistics :func:`trigram_columns` bins.
    """

    doc_id: str
    counts: dict[str, int]
    total: int
    p1: dict[str, float]
    p2: dict[str, float]
    p3: dict[str, float]
    _joint12: dict[tuple[str, str], float]
    _joint13: dict[tuple[str, str], float]
    _scores: dict[str, dict[Position, float]] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_document(cls, doc: Document) -> "TrigramTable":
        coded = DocumentCodes.of(doc)
        stats = _trigram_stats(coded)
        text, chars = coded.text, coded.chars
        total = len(stats.rows)
        firsts = stats.first.tolist()
        marginals = [
            {chars[c]: k / total for c, k in enumerate(m.tolist()) if k} for m in stats.marginals
        ]
        joints = [
            {(text[r], text[r + gap]): k / total for r, k in zip(firsts, joint.tolist())}
            for gap, joint in ((1, stats.joint12), (2, stats.joint13))
        ]
        positions = _positions(coded, stats.rows)
        scores = {
            name: dict(zip(positions, getattr(stats, name)[stats.trigram].tolist()))
            for name in ("pkl1", "pkl2", "pmi1", "pmi2")
        }
        counts = dict(zip((text[r : r + 3] for r in firsts), stats.counts.tolist()))
        return cls(doc.doc_id, counts, total, *marginals, *joints, scores)

    def joint12(self, x: str, y: str) -> float:
        """Fraction of surviving trigram tokens with x at slot 1, y at slot 2."""
        return self._joint12.get((x, y), 0.0)

    def joint13(self, x: str, z: str) -> float:
        """Fraction of surviving trigram tokens with x at slot 1, z at slot 3."""
        return self._joint13.get((x, z), 0.0)


def _positions(coded: DocumentCodes, rows: np.ndarray) -> list[Position]:
    """(sentence-index, character-index) of every row."""
    starts = coded.starts
    sentence = np.searchsorted(starts, rows, side="right") - 1
    return list(zip(sentence.tolist(), (rows - starts[sentence]).tolist()))


def compute_pkl(
    doc: Document, table: TrigramTable | None = None
) -> tuple[dict[Position, float], dict[Position, float]]:
    """Pseudo KL divergence scores per position.

    For each position whose starting trigram survived the frequency
    filter: pkl1 = p1(C_i) * log(p1(C_i) / p2(C_{i+1})) and pkl2
    analogously against p3(C_{i+2}).  Other positions carry no score.
    Natural log; binning is rank-based so the base is immaterial.
    """
    table = table or TrigramTable.from_document(doc)
    return dict(table._scores["pkl1"]), dict(table._scores["pkl2"])


def compute_pmi(
    doc: Document, table: TrigramTable | None = None
) -> tuple[dict[Position, float], dict[Position, float]]:
    """Pointwise mutual information per position, gathered per document.

    pmi1 = log(p12(C_i, C_{i+1}) / (p1(C_i) * p2(C_{i+1}))), pmi2
    analogously over trigram slots 1 and 3.  Same trigram pipeline and
    survival rule as :func:`compute_pkl`.
    """
    table = table or TrigramTable.from_document(doc)
    return dict(table._scores["pmi1"]), dict(table._scores["pmi2"])


def _bin_ids(scores: np.ndarray, direction: str) -> np.ndarray:
    """Bin id (1-based) of every score, the scores given in position order."""
    if direction not in ("ascending", "descending"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "ascending" else -1.0
    # a stable sort of scores in position order breaks ties by position,
    # as np.lexsort((position, sign * scores)) would
    ranked = np.argsort(sign * scores, kind="stable")
    q, r = divmod(len(scores), BIN_COUNT)
    bins = np.empty(len(scores), dtype=np.intp)
    bins[ranked] = np.repeat(np.arange(1, BIN_COUNT + 1), [q + 1] * r + [q] * (BIN_COUNT - r))
    return bins


def bin_scores(scores: dict[Position, float], direction: str) -> dict[Position, int]:
    """Rank one document's scores and split them into five near-equal bins.

    ``direction`` is "ascending" (used for PKL) or "descending" (PMI).
    Bin populations differ by at most one, with earlier bins taking the
    extra element; ties are broken by position, ascending, so binning is
    deterministic.  Returns 1-based bin ids for scored positions only.
    """
    positions = sorted(scores)
    bins = _bin_ids(np.array([scores[p] for p in positions], dtype=np.float64), direction)
    return dict(zip(positions, bins.tolist()))


BIN_TABLE = (NO_SCORE, *(str(b) for b in range(1, BIN_COUNT + 1)))


def trigram_columns(coded: DocumentCodes, pkl: bool, pmi: bool) -> list[Column]:
    """The PKL1, PKL2 (if ``pkl``) and PMI1, PMI2 (if ``pmi``) columns,
    coded in ``BIN_TABLE``: each row's :func:`bin_scores` bin, ``none``
    where no trigram survived."""
    stats = _trigram_stats(coded)
    wanted = [("pkl1", "ascending"), ("pkl2", "ascending")] * pkl
    wanted += [("pmi1", "descending"), ("pmi2", "descending")] * pmi
    columns = []
    for name, direction in wanted:
        codes = np.zeros(len(coded.codes), dtype=np.intp)
        codes[stats.rows] = _bin_ids(getattr(stats, name)[stats.trigram], direction)
        columns.append((BIN_TABLE, codes))
    return columns
