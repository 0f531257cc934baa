"""Training regimes over a source corpus S and a target corpus T.

Four modes: ``target`` trains on T alone; ``all`` concatenates S and T;
``transit`` first trains a model on S, labels T with it, and feeds the
predicted label at each position to the target model as one extra
feature; ``easy`` expands every feature into a common copy and a
domain-specific copy, so shared regularities and domain-specific ones
get separate weights.

The easy expansion triples the feature space conceptually: a source
vector x becomes <x, x, 0> and a target vector <x, 0, x>.  On feature
columns it renames templates only: every template ``t`` becomes the two
namespaces ``COM:t`` and ``<domain>:t``, which share the one coded
column, and the zero block simply has no columns.  ``transit`` adds one
``TRANSIT`` column of predicted labels, coded in ``LABELS``.

Training an ``easy`` model fits all three blocks.  Decoding reads only
``COM`` and ``target``, since a decoded document is target data, so a
saved ``easy`` model keeps those two and drops ``source``
(:func:`decoding_model`).

A training instance is one document, so its document-level features
and its gold labels stay together; training averages the objective over
sentences, however they are grouped into documents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import MODES, ConfigError
from .corpus import LABELS, Document, decode_bmes, encode_bmes
from .crf import CrfModel, FeatureColumns, TrainConfig, TrainingInstance, train
from .pipeline import FeatureExtractor

COMMON_PREFIX = "COM"
SOURCE_DOMAIN = "source"
TARGET_DOMAIN = "target"
TRANSIT_TEMPLATE = "TRANSIT"


def _check_domain(domain: str) -> None:
    if domain not in (SOURCE_DOMAIN, TARGET_DOMAIN):
        raise ValueError(f"unknown domain {domain!r}")


def augment(fv: list[tuple[str, str]], domain: str) -> list[tuple[str, str]]:
    """Expand each entry of one row into its common and domain-specific
    copies: the per-position form of the easy namespaces, which no
    training or decoding path uses."""
    _check_domain(domain)
    out = []
    for template_id, value in fv:
        out.append((f"{COMMON_PREFIX}:{template_id}", value))
        out.append((f"{domain}:{template_id}", value))
    return out


def _namespaced(columns: FeatureColumns, domain: str) -> FeatureColumns:
    """The easy expansion of a document's columns for one domain: the two
    namespaces of a template share its table and repeat its codes."""
    _check_domain(domain)
    return FeatureColumns(
        tuple(f"{ns}:{t}" for t in columns.templates for ns in (COMMON_PREFIX, domain)),
        tuple(table for table in columns.tables for _ in range(2)),
        np.repeat(columns.codes, 2, axis=0),
        columns.lengths,
    )


def _with_transit_labels(source_model: CrfModel, columns: FeatureColumns) -> FeatureColumns:
    """Add the source model's predicted label at every position as a
    column, coded in ``LABELS``."""
    return FeatureColumns(
        columns.templates + (TRANSIT_TEMPLATE,),
        columns.tables + (LABELS,),
        np.vstack([columns.codes, source_model.label_ids(columns)]),
        columns.lengths,
    )


def _mode_columns(
    doc: Document,
    extractor: FeatureExtractor,
    mode: str,
    domain: str = TARGET_DOMAIN,
    source_model: CrfModel | None = None,
) -> FeatureColumns:
    """A document's columns in one mode's feature space, the one place
    training and decoding make that decision: ``easy`` gives the
    namespaces of ``domain``, ``transit`` adds the source model's labels,
    and the other modes use the plain columns."""
    if mode not in MODES:
        raise ConfigError(f"unknown adaptation mode {mode!r}")
    if mode == "transit" and source_model is None:
        raise ConfigError("transit mode needs the auxiliary source model")
    columns = extractor.document_columns(doc)
    if mode == "easy":
        return _namespaced(columns, domain)
    if mode == "transit":
        return _with_transit_labels(source_model, columns)
    return columns


def corpus_instances(
    docs: Sequence[Document],
    extractor: FeatureExtractor,
    mode: str = "target",
    domain: str = TARGET_DOMAIN,
    source_model: CrfModel | None = None,
) -> list[TrainingInstance]:
    """One training instance per document, in corpus order."""
    out = []
    for doc in docs:
        if doc.words is None:
            raise ValueError(f"document {doc.doc_id!r} is not segmented")
        gold = tuple(label for words in doc.words for label in encode_bmes(words))
        out.append(TrainingInstance(_mode_columns(doc, extractor, mode, domain, source_model), gold, doc.doc_id))
    return out


def build_training(
    mode: str,
    source_docs: Sequence[Document] | None,
    target_docs: Sequence[Document],
    extractor: FeatureExtractor,
    config: TrainConfig = TrainConfig(),
    *,
    source_model: CrfModel | None = None,
) -> tuple[list[TrainingInstance], CrfModel | None]:
    """Assemble training instances, one per document, for one adaptation mode.

    Returns the instances and, for ``transit``, the auxiliary model
    trained on the source corpus (None otherwise).  A ``transit`` caller
    that already holds that model, trained on the same source documents
    with the same extractor and config, passes it as ``source_model`` and
    it is not trained again.  Document-level features are always
    computed per document within its own corpus.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown adaptation mode {mode!r}")
    if not target_docs:
        raise ConfigError("target corpus is empty")
    if mode != "target" and not source_docs:
        raise ConfigError(f"mode {mode!r} needs a source corpus")

    instances: list[TrainingInstance] = []
    if mode != "transit":
        source_model = None
    elif source_model is None:
        source_model = train(corpus_instances(source_docs, extractor), config)
    if mode in ("all", "easy"):
        instances = corpus_instances(source_docs, extractor, mode, SOURCE_DOMAIN)
    instances += corpus_instances(target_docs, extractor, mode, TARGET_DOMAIN, source_model)
    return instances, source_model


def decoding_model(model: CrfModel) -> CrfModel:
    """The part of a trained model that decoding reads, for saving.

    Decoding puts a document in the target domain, so an ``easy`` model
    never reads its ``source`` templates: they are dropped, and the
    manifest's ``dropped_namespace`` says so.  Scores of decoded
    documents stay bit for bit the same (:meth:`CrfModel.keep_templates`).
    A model of any other mode reads every template and is returned as it
    is.
    """
    if model.manifest.get("mode") != "easy":
        return model
    prefix = f"{SOURCE_DOMAIN}:"
    kept = model.keep_templates(lambda template_id: not template_id.startswith(prefix))
    kept.manifest["dropped_namespace"] = SOURCE_DOMAIN
    return kept


def decoding_features(
    doc: Document,
    extractor: FeatureExtractor,
    mode: str = "target",
    source_model: CrfModel | None = None,
) -> list[FeatureColumns]:
    """Per-sentence features consistent with a mode's training space.

    Easy-mode test data gets the target namespaces; transit-mode test
    data gets the source model's predicted labels.
    """
    return _mode_columns(doc, extractor, mode, source_model=source_model).sentences()


def segment_document(
    model: CrfModel,
    doc: Document,
    extractor: FeatureExtractor,
    mode: str = "target",
    source_model: CrfModel | None = None,
) -> Document:
    """Decode every sentence of a document into words, in one batched pass."""
    labels = model.viterbi(_mode_columns(doc, extractor, mode, source_model=source_model))
    words = []
    start = 0
    for sent in doc.sentences:
        words.append(tuple(decode_bmes(sent, labels[start : start + len(sent)])))
        start += len(sent)
    return Document(doc.doc_id, doc.sentences, tuple(words))


def slice_target(docs: Sequence[Document], sizes: Sequence[int]) -> list[list[Document]]:
    """Document-granular nested prefixes of T reaching each word count.

    Each subset is the shortest prefix (in corpus order) whose cumulative
    word count reaches the requested size, so ascending sizes give nested
    subsets.  Two sizes that select the same prefix are refused: they
    would train the same cell under two labels.
    """
    counts = [doc.word_count() for doc in docs]
    total = sum(counts)
    previous = None
    subsets: list[list[Document]] = []
    for size in sizes:
        if previous is not None and size < previous:
            raise ValueError("sizes must be ascending")
        if size > total:
            raise ValueError(f"requested {size} words but the corpus has only {total}")
        cumulative = 0
        prefix: list[Document] = []
        for doc, c in zip(docs, counts):
            if cumulative >= size:
                break
            prefix.append(doc)
            cumulative += c
        if subsets and len(prefix) == len(subsets[-1]):
            raise ValueError(
                f"sizes {previous} and {size} both select the first {len(prefix)} document(s) "
                f"({cumulative} words); each size must select a longer prefix than the last"
            )
        previous = size
        subsets.append(prefix)
    return subsets
