"""Feature extraction: one coded column per template for each document.

Feature groups are named CF, LNG, PKL, PMI, C_POS, DICT, SIM.  CF is the
baseline and always enabled; document-level statistics (LNG/PKL/PMI) are
recomputed per document from its own sentences, so they work on raw input
just as on training data.

:meth:`FeatureExtractor.document_columns` returns a document's features
as a :class:`~patseg.crf.FeatureColumns`: the enabled groups' templates in
a fixed order, each a coded column (a table of distinct values and one
code per character position), rows running through the sentences in
order.  The document's text is turned into integer character codes once
(:class:`~patseg.corpus.DocumentCodes`), and every column is array work
over those codes: CF windows are shifted codes of the boundary-framed
text, n-grams get integer ids from ``np.unique``, and strings are built,
and dictionaries, lexicons and similarity vectors consulted, once per
distinct character, n-gram or character pair of the document.  The CRF
maps each table through its template's dictionary once, so training and
decoding never look a value up per position.

:meth:`FeatureExtractor.document_features` splits the same columns into
one FeatureColumns per sentence; the sentences share the document's
tables.  A training instance holds the columns of a whole document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import doc_features, external_features
from .char_features import CF_TEMPLATE_IDS, cf_columns
from .config import EXTERNAL_GROUPS, FEATURE_GROUPS, normalize_groups  # noqa: F401  (FEATURE_GROUPS re-exported)
from .corpus import Document, DocumentCodes
from .crf import FeatureColumns
from .external_features import KnowledgeBase

# Templates each group adds after CF, in column order.
_GROUP_TEMPLATES = {
    "LNG": ("LNG",),
    "PKL": ("PKL1", "PKL2"),
    "PMI": ("PMI1", "PMI2"),
    "C_POS": ("C_POS",),
    "DICT": ("DICT",),
    "SIM": tuple(f"SIM[{off:+d}]" for off in external_features.SIM_OFFSETS),
}


@dataclass(frozen=True)
class FeatureExtractor:
    """Feature assembly for a fixed group selection and knowledge base."""

    groups: tuple[str, ...]
    knowledge: KnowledgeBase | None = None

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
        """One coded column per template over every position of a document."""
        groups = set(self.groups)
        coded = DocumentCodes.of(doc)
        columns = cf_columns(coded)
        if "LNG" in groups:
            columns.append(doc_features.lng_column(coded))
        if "PKL" in groups or "PMI" in groups:
            columns += doc_features.trigram_columns(coded, "PKL" in groups, "PMI" in groups)
        kb = self.knowledge
        if "C_POS" in groups:
            columns.append(external_features.cpos_column(kb.pos_lexicon, coded))
        if "DICT" in groups:
            columns.append(external_features.dict_column(kb.dictionary, coded))
        if "SIM" in groups:
            columns += external_features.sim_columns(kb.similarity, coded)
        tables, codes = zip(*columns)
        return FeatureColumns(self.templates, tables, np.stack(codes), tuple(coded.lengths.tolist()))

    def document_features(self, doc: Document) -> list[FeatureColumns]:
        """The columns of one document, split into its sentences."""
        return self.document_columns(doc).sentences()
