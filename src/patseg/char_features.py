"""Baseline character-window feature templates.

For a target position i the extractor emits 14 entries: 10 character
n-gram templates (five unigrams C_{i-2}..C_{i+2}, four bigrams
C_kC_{k+1} for k in i-2..i+1, and the skip bigram C_{i-1}C_{i+1}) and 4
character-type templates (the type unigram T_i, type bigrams T_{i-1}T_i
and T_iT_{i+1}, and the type skip bigram T_{i-1}T_{i+1}).

Window positions that fall off the sentence contribute a reserved
boundary token instead of dropping the template, so arity is constant at
every position.

:func:`cf_columns` gives the same values for a whole sentence at once,
one column per template, as slices of the boundary-padded sentence;
:func:`cf_features` is the per-position form.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .corpus import CharType, classify_char

# One feature entry is a (template-id, value) pair; a feature vector is the
# ordered list of entries for one character position.
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


_PAD_BEFORE = [boundary_token(-2), boundary_token(-1)]
_PAD_AFTER = [boundary_token(1), boundary_token(2)]

# Every joined type bigram, boundary tokens included.
_TYPE_BIGRAMS = {
    a: {b: a + _TYPE_JOIN + b for b in [*(t.value for t in CharType), _PAD_AFTER[0]]}
    for a in [*(t.value for t in CharType), _PAD_BEFORE[1]]
}


def cf_columns(sentence: str, types: list[str]) -> list[list[str]]:
    """The 14 character-window columns of a sentence, in
    ``CF_TEMPLATE_IDS`` order: row ``i`` of each column is the value
    :func:`cf_features` gives that template at position ``i``.

    ``types`` must be the type names (``CharType.value``) of the
    sentence's characters.
    """
    n = len(sentence)
    # chars[i + 2 + off] is C_{i+off}, a boundary token off the sentence
    chars = [*_PAD_BEFORE, *sentence, *_PAD_AFTER]
    unigrams = [chars[2 + off : 2 + off + n] for off in _UNIGRAM_OFFSETS]
    bigrams = [
        list(map(add, chars[2 + off : 2 + off + n], chars[3 + off : 3 + off + n])) for off in _BIGRAM_OFFSETS
    ]
    skip = list(map(add, chars[1 : 1 + n], chars[3 : 3 + n]))
    # padded[i + 1 + off] is T_{i+off}
    padded = [_PAD_BEFORE[1], *types, _PAD_AFTER[0]]
    before, after = padded[:n], padded[2:]

    def joined(left: list[str], right: list[str]) -> list[str]:
        return [_TYPE_BIGRAMS[a][b] for a, b in zip(left, right)]

    return [*unigrams, *bigrams, skip, types, joined(before, types), joined(types, after), joined(before, after)]
