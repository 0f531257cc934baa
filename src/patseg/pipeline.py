"""Feature extraction: one value column per template for each document.

Feature groups are named CF, LNG, PKL, PMI, C_POS, DICT, SIM.  CF is the
baseline and always enabled; document-level statistics (LNG/PKL/PMI) are
recomputed per document from its own sentences, so they work on raw input
just as on training data.

:meth:`FeatureExtractor.document_columns` returns a document's features
as a :class:`~patseg.crf.FeatureColumns`: the enabled groups' templates in
a fixed order, each with one value per character position, rows running
through the sentences in order.  Each column is built for a whole
sentence at once: CF columns are slices of the boundary-padded sentence,
DICT looks each two- and three-character window up once, and the
discretized SIM value of a character pair is computed once for the life
of the extractor.  The CRF maps every column through its template's
dictionary to integer slot ids, so training and decoding never build a
(template, value) pair per position.

:meth:`FeatureExtractor.document_features` is the per-position view of
the same columns: one FeatureColumns per sentence, whose rows read as
feature vectors of (template-id, value) pairs, formed only when read.

The shared feature-dump format: one line per character position with
TAB-separated ``template-id=value`` pairs in template order, blank line
between sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import Iterable, Sequence, TextIO

from . import doc_features, external_features
from .char_features import CF_TEMPLATE_IDS, FeatureVector, cf_columns
from .corpus import Document, classify_char
from .crf import FeatureColumns
from .external_features import KnowledgeBase

FEATURE_GROUPS = ("CF", "LNG", "PKL", "PMI", "C_POS", "DICT", "SIM")
EXTERNAL_GROUPS = frozenset({"C_POS", "DICT", "SIM"})

# Templates each group adds after CF, in column order.
_GROUP_TEMPLATES = {
    "LNG": ("LNG",),
    "PKL": ("PKL1", "PKL2"),
    "PMI": ("PMI1", "PMI2"),
    "C_POS": ("C_POS",),
    "DICT": ("DICT",),
    "SIM": tuple(f"SIM[{off:+d}]" for off in external_features.SIM_OFFSETS),
}


def normalize_groups(groups: Iterable[str]) -> tuple[str, ...]:
    """Validate group names and force the CF baseline on, spec order."""
    requested = set(groups)
    unknown = requested - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    requested.add("CF")
    return tuple(g for g in FEATURE_GROUPS if g in requested)


@dataclass(frozen=True)
class FeatureExtractor:
    """Feature assembly for a fixed group selection and knowledge base."""

    groups: tuple[str, ...]
    knowledge: KnowledgeBase | None = None
    # type name of each character and discretized similarity of each
    # character pair seen so far
    _type_memo: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)
    _sim_memo: dict[str, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", normalize_groups(self.groups))
        if EXTERNAL_GROUPS & set(self.groups) and self.knowledge is None:
            missing = sorted(EXTERNAL_GROUPS & set(self.groups))
            raise ValueError(f"feature groups {missing} need a knowledge base")

    @property
    def templates(self) -> tuple[str, ...]:
        """Template ids of the columns, in column order."""
        return CF_TEMPLATE_IDS + tuple(t for g in self.groups[1:] for t in _GROUP_TEMPLATES[g])

    def document_columns(self, doc: Document) -> FeatureColumns:
        """One value column per template over every position of a document."""
        groups = set(self.groups)
        lengths = [len(s) for s in doc.sentences]
        lng = doc_features.extract_lng(doc) if "LNG" in groups else None
        bins: list[list[list[str]]] = []
        if "PKL" in groups or "PMI" in groups:
            table = doc_features.TrigramTable.from_document(doc)
            if "PKL" in groups:
                for scores in doc_features.compute_pkl(doc, table):
                    bins.append(_bin_columns(doc_features.bin_scores(scores, "ascending"), lengths))
            if "PMI" in groups:
                for scores in doc_features.compute_pmi(doc, table):
                    bins.append(_bin_columns(doc_features.bin_scores(scores, "descending"), lengths))

        kb = self.knowledge
        templates = self.templates
        columns: list[list[str]] = [[] for _ in templates]
        for si, sent in enumerate(doc.sentences):
            parts = cf_columns(sent, self._type_names(sent))
            if lng is not None:
                parts.append(doc_features.lng_labels(sent, lng))
            parts.extend(per_sentence[si] for per_sentence in bins)
            if "C_POS" in groups:
                parts.append(list(map(kb.pos_lexicon.get, sent, repeat(external_features.NO_TAG))))
            if "DICT" in groups:
                parts.append(external_features.dict_column(kb.dictionary, sent))
            if "SIM" in groups:
                parts.extend(self._sim_columns(sent))
            for column, part in zip(columns, parts):
                column.extend(part)
        return FeatureColumns(templates, tuple(columns), tuple(lengths))

    def document_features(self, doc: Document) -> list[FeatureColumns]:
        """Per-sentence features of one document; each sentence iterates
        as its per-position feature vectors."""
        return self.document_columns(doc).sentences()

    def _type_names(self, sent: str) -> list[str]:
        memo = self._type_memo
        for c in set(sent).difference(memo):
            memo[c] = classify_char(c).value
        return list(map(memo.__getitem__, sent))

    def _sim_columns(self, sent: str) -> list[list[str]]:
        """Discretized similarity of every character with its neighbor at
        each offset; ``zero`` past the sentence edges."""
        memo = self._sim_memo
        similarity = self.knowledge.similarity.similarity
        n = len(sent)
        out = []
        for off in external_features.SIM_OFFSETS:
            k = abs(off)
            # each pair is C_i followed by C_{i+off}
            pairs = list(map(add, sent[: n - k], sent[k:]) if off > 0 else map(add, sent[k:], sent[: n - k]))
            for pair in set(pairs).difference(memo):
                # cosine is symmetric to the last bit: the same products,
                # summed in the same order, over the same product of norms
                memo[pair] = memo[pair[::-1]] = external_features.discretize_similarity(
                    similarity(pair[0], pair[1])
                )
            inside = list(map(memo.__getitem__, pairs))
            edge = [external_features.ZERO_SIM] * min(k, n)
            out.append(inside + edge if off > 0 else edge + inside)
        return out


def _bin_columns(bins: dict[doc_features.Position, int], lengths: Sequence[int]) -> list[list[str]]:
    """Per-sentence columns of bin ids, ``none`` where a position has no score."""
    columns = [[doc_features.NO_SCORE] * n for n in lengths]
    for (si, i), bin_id in bins.items():
        columns[si][i] = str(bin_id)
    return columns


def write_feature_dump(fh: TextIO, sentence_features: Iterable[Sequence[FeatureVector]]) -> None:
    """Write per-sentence features (FeatureColumns or lists of feature
    vectors) in the shared dump format."""
    for si, rows in enumerate(sentence_features):
        if si:
            fh.write("\n")
        for fv in rows:
            fh.write("\t".join(f"{t}={v}" for t, v in fv))
            fh.write("\n")
