"""Baseline character-window feature templates.

For a target position i the extractor emits 14 entries: 10 character
n-gram templates (five unigrams C_{i-2}..C_{i+2}, four bigrams
C_kC_{k+1} for k in i-2..i+1, and the skip bigram C_{i-1}C_{i+1}) and 4
character-type templates (the type unigram T_i, type bigrams T_{i-1}T_i
and T_iT_{i+1}, and the type skip bigram T_{i-1}T_{i+1}).

Window positions that fall off the sentence contribute a reserved
boundary token instead of dropping the template, so arity is constant at
every position.

:func:`cf_columns` builds these values for a whole document at once, one
coded column per template over the document's character codes; it is
what feature extraction uses.  :func:`cf_features` builds the entries of
one position, one at a time: no training or decoding path calls it, and
it stays as the per-position definition the columns are checked against.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

import numpy as np

from .corpus import CharType, Column, DocumentCodes, classify_char

# One feature entry is a (template-id, value) pair; a feature vector is the
# ordered list of entries for one character position, the per-position
# form of one row of feature columns.
FeatureEntry = tuple[str, str]
FeatureVector = list[FeatureEntry]

# Character n-gram values are plain concatenations; type n-gram values join
# the type names with a middle dot ("Number·Hanzi").
_TYPE_JOIN = "·"

_UNIGRAM_OFFSETS = (-2, -1, 0, 1, 2)
_BIGRAM_OFFSETS = (-2, -1, 0, 1)

CF_TEMPLATE_IDS = (
    "U[-2]", "U[-1]", "U[0]", "U[1]", "U[2]",
    "B[-2,-1]", "B[-1,0]", "B[0,1]", "B[1,2]",
    "S[-1,1]",
    "TU[0]",
    "TB[-1,0]", "TB[0,1]",
    "TS[-1,1]",
)


def boundary_token(offset: int) -> str:
    """Reserved placeholder for a window position outside the sentence.

    Multi-character, so it can never collide with a real character value
    of the same template.  Position-specific ("_B-1", "_B+2", ...).
    """
    return f"_B{offset:+d}"


def char_types(sentence: str) -> list[CharType]:
    return [classify_char(c) for c in sentence]


def _char_at(sentence: str, j: int) -> str:
    if 0 <= j < len(sentence):
        return sentence[j]
    return boundary_token(j if j < 0 else j - len(sentence) + 1)


def _type_at(types: Sequence[CharType], j: int) -> str:
    if 0 <= j < len(types):
        return types[j].value
    return boundary_token(j if j < 0 else j - len(types) + 1)


def cf_features(sentence: str, types: Sequence[CharType], i: int) -> FeatureVector:
    """The 14 character-window entries for position ``i``.

    ``types`` must be the per-character types of ``sentence`` (see
    :func:`char_types`); it is passed in so callers can compute it once
    per sentence.
    """
    n = len(sentence)
    if not 0 <= i < n:
        raise IndexError(f"position {i} out of range for sentence of length {n}")
    if len(types) != n:
        raise ValueError("types not aligned to sentence")

    entries: FeatureVector = []
    for off in _UNIGRAM_OFFSETS:
        entries.append((f"U[{off}]", _char_at(sentence, i + off)))
    for off in _BIGRAM_OFFSETS:
        entries.append(
            (f"B[{off},{off + 1}]", _char_at(sentence, i + off) + _char_at(sentence, i + off + 1))
        )
    entries.append(("S[-1,1]", _char_at(sentence, i - 1) + _char_at(sentence, i + 1)))
    entries.append(("TU[0]", _type_at(types, i)))
    entries.append(("TB[-1,0]", _type_at(types, i - 1) + _TYPE_JOIN + _type_at(types, i)))
    entries.append(("TB[0,1]", _type_at(types, i) + _TYPE_JOIN + _type_at(types, i + 1)))
    entries.append(("TS[-1,1]", _type_at(types, i - 1) + _TYPE_JOIN + _type_at(types, i + 1)))
    return entries


_BOUNDARY = tuple(boundary_token(off) for off in (-2, -1, 1, 2))
_TYPES = list(CharType)
# Type codes 0-3 are the types, 4-7 the boundary tokens; the type bigram
# of codes (a, b) is _TYPE_PAIRS[a * 8 + b].
_TYPE_TABLE = tuple(t.value for t in _TYPES) + _BOUNDARY
_TYPE_PAIRS = tuple(a + _TYPE_JOIN + b for a in _TYPE_TABLE for b in _TYPE_TABLE)


def cf_columns(coded: DocumentCodes) -> list[Column]:
    """The 14 character-window columns of a document, in
    ``CF_TEMPLATE_IDS`` order, each a ``(table, codes)`` pair: row ``r``
    of a column holds ``table[codes[r]]``, the value :func:`cf_features`
    gives that template at row ``r``'s position.

    Every sentence is framed by the codes of the four boundary tokens
    (``_B-2 _B-1`` before it, ``_B+1 _B+2`` after), so a window column is
    the framed codes shifted by its offset.  Bigram strings are built
    once per distinct pair of codes, type bigrams come from a fixed
    table of all 64 pairs.
    """
    n_rows, n_chars = len(coded.codes), len(coded.chars)
    n_sentences = len(coded.lengths)
    # at[r] is row r's index in the framed layout
    at = np.arange(n_rows) + 4 * np.repeat(np.arange(n_sentences), coded.lengths) + 2
    framed = np.empty(n_rows + 4 * n_sentences, dtype=np.intp)
    framed[at] = coded.codes
    before = coded.starts + 4 * np.arange(n_sentences)
    after = before + coded.lengths + 2
    for k, pos in enumerate((before, before + 1, after, after + 1)):
        framed[pos] = n_chars + k
    unigram_table = coded.chars + list(_BOUNDARY)
    pair_table, pair_codes = _pairs(unigram_table, framed[:-1], framed[1:])
    skip_table, skip_codes = _pairs(unigram_table, framed[:-2], framed[2:])

    char_type = list(map(_TYPES.index, map(classify_char, coded.chars)))
    types = np.array(char_type + [4, 5, 6, 7], dtype=np.intp)[framed]
    return [
        *((unigram_table, framed[at + off]) for off in _UNIGRAM_OFFSETS),
        *((pair_table, pair_codes[at + off]) for off in _BIGRAM_OFFSETS),
        (skip_table, skip_codes[at - 1]),
        (_TYPE_TABLE, types[at]),
        (_TYPE_PAIRS, types[at - 1] * 8 + types[at]),
        (_TYPE_PAIRS, types[at] * 8 + types[at + 1]),
        (_TYPE_PAIRS, types[at - 1] * 8 + types[at + 1]),
    ]


def _pairs(table: list[str], left: np.ndarray, right: np.ndarray) -> Column:
    """The distinct concatenations ``table[left[k]] + table[right[k]]``
    and the code of every k among them."""
    distinct, codes = np.unique(left * len(table) + right, return_inverse=True)
    a, b = np.divmod(distinct, len(table))
    return list(map(add, map(table.__getitem__, a.tolist()), map(table.__getitem__, b.tolist()))), codes.reshape(-1)
