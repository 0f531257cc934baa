"""Per-document repetition statistics: LNG, PKL, PMI, and quintile bins.

Every statistic here treats one document as an independent unit and never
lets an n-gram cross a sentence boundary.  Technical terms recur within a
document even when they are rare in the corpus, which is exactly the
signal these features pick up.

Positions are addressed as (sentence-index, character-index) pairs within
their document.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add

from .corpus import Document

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
    """Longest repeated n-gram sequences of a document.

    Grows candidate n-grams level by level: an (n+1)-gram can only repeat
    if both of its n-gram substrings repeat, so each level is counted
    only where the previous level survived the frequency >= 2 filter.  A
    survivor is kept when no longer survivor contains it, which at level
    n reduces to not being a substring of a level-(n+1) survivor.
    """
    level = Counter()
    for sent in doc.sentences:
        level.update(map(add, sent, sent[1:]))
    survivors = {g for g, c in level.items() if c >= 2}

    kept: set[str] = set()
    n = 2
    while survivors:
        nxt = Counter()
        for sent in doc.sentences:
            # repeats[i]: the n-gram starting at i survived
            repeats = [sent[i : i + n] in survivors for i in range(len(sent) - n + 1)]
            nxt.update(sent[i : i + n + 1] for i in range(len(sent) - n) if repeats[i] and repeats[i + 1])
        longer = {g for g, c in nxt.items() if c >= 2}
        absorbed = {g[:-1] for g in longer} | {g[1:] for g in longer}
        kept.update(survivors - absorbed)
        survivors = longer
        n += 1
    return LngList(doc.doc_id, frozenset(kept))


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


def lng_labels(sentence: str, lng: LngList) -> list[str]:
    """:func:`lng_label` of every position of one sentence, each bigram
    looked up once."""
    bigrams = list(map(add, sentence, sentence[1:]))
    starts = [*map(lng.starts_with, bigrams), False]
    ends = [False, *map(lng.ends_with, bigrams)]
    return ["OFST"[2 * s + e] for s, e in zip(starts, ends)]


@dataclass(frozen=True)
class TrigramTable:
    """Within-sentence trigram counts of a document, frequency-filtered.

    ``counts`` holds trigrams with raw frequency >= 2; the per-slot
    marginals p1/p2/p3 are maximum-likelihood over the surviving trigram
    tokens (no smoothing -- the hard frequency filter stands in for it).
    """

    doc_id: str
    counts: dict[str, int]
    total: int
    p1: dict[str, float]
    p2: dict[str, float]
    p3: dict[str, float]
    _joint12: dict[tuple[str, str], float]
    _joint13: dict[tuple[str, str], float]

    @classmethod
    def from_document(cls, doc: Document) -> "TrigramTable":
        raw = Counter()
        for sent in doc.sentences:
            for i in range(len(sent) - 2):
                raw[sent[i : i + 3]] += 1
        counts = {t: c for t, c in raw.items() if c >= 2}
        total = sum(counts.values())
        marginals: list[dict[str, float]] = [{}, {}, {}]
        joint12: dict[tuple[str, str], float] = {}
        joint13: dict[tuple[str, str], float] = {}
        if total:
            for t, c in counts.items():
                for slot in range(3):
                    marginals[slot][t[slot]] = marginals[slot].get(t[slot], 0.0) + c
                joint12[t[0], t[1]] = joint12.get((t[0], t[1]), 0.0) + c
                joint13[t[0], t[2]] = joint13.get((t[0], t[2]), 0.0) + c
            for slot in range(3):
                for ch in marginals[slot]:
                    marginals[slot][ch] /= total
            for key in joint12:
                joint12[key] /= total
            for key in joint13:
                joint13[key] /= total
        return cls(doc.doc_id, counts, total, *marginals, joint12, joint13)

    def joint12(self, x: str, y: str) -> float:
        """Fraction of surviving trigram tokens with x at slot 1, y at slot 2."""
        return self._joint12.get((x, y), 0.0)

    def joint13(self, x: str, z: str) -> float:
        """Fraction of surviving trigram tokens with x at slot 1, z at slot 3."""
        return self._joint13.get((x, z), 0.0)


def _scored_positions(doc: Document, table: TrigramTable):
    for si, sent in enumerate(doc.sentences):
        for i in range(len(sent) - 2):
            if sent[i : i + 3] in table.counts:
                yield (si, i), sent[i], sent[i + 1], sent[i + 2]


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
    pkl1: dict[Position, float] = {}
    pkl2: dict[Position, float] = {}
    for pos, x, y, z in _scored_positions(doc, table):
        px = table.p1[x]
        pkl1[pos] = px * math.log(px / table.p2[y])
        pkl2[pos] = px * math.log(px / table.p3[z])
    return pkl1, pkl2


def compute_pmi(
    doc: Document, table: TrigramTable | None = None
) -> tuple[dict[Position, float], dict[Position, float]]:
    """Pointwise mutual information per position, gathered per document.

    pmi1 = log(p12(C_i, C_{i+1}) / (p1(C_i) * p2(C_{i+1}))), pmi2
    analogously over trigram slots 1 and 3.  Same trigram pipeline and
    survival rule as :func:`compute_pkl`.
    """
    table = table or TrigramTable.from_document(doc)
    pmi1: dict[Position, float] = {}
    pmi2: dict[Position, float] = {}
    for pos, x, y, z in _scored_positions(doc, table):
        pmi1[pos] = math.log(table.joint12(x, y) / (table.p1[x] * table.p2[y]))
        pmi2[pos] = math.log(table.joint13(x, z) / (table.p1[x] * table.p3[z]))
    return pmi1, pmi2


def bin_scores(scores: dict[Position, float], direction: str) -> dict[Position, int]:
    """Rank one document's scores and split them into five near-equal bins.

    ``direction`` is "ascending" (used for PKL) or "descending" (PMI).
    Bin populations differ by at most one, with earlier bins taking the
    extra element; ties are broken by position, ascending, so binning is
    deterministic.  Returns 1-based bin ids for scored positions only.
    """
    if direction not in ("ascending", "descending"):
        raise ValueError(f"unknown direction {direction!r}")
    if not scores:
        return {}
    sign = 1.0 if direction == "ascending" else -1.0
    ranked = sorted(scores, key=lambda pos: (sign * scores[pos], pos))
    q, r = divmod(len(ranked), BIN_COUNT)
    sizes = [q + 1] * r + [q] * (BIN_COUNT - r)
    bins: dict[Position, int] = {}
    start = 0
    for bin_id, size in enumerate(sizes, start=1):
        for pos in ranked[start : start + size]:
            bins[pos] = bin_id
        start += size
    return bins
