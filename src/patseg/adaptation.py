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
namespaces ``COM:t`` and ``<domain>:t``, which share the one value
column, and the zero block simply has no columns.  ``transit`` adds one
``TRANSIT`` column of predicted labels.
"""

from __future__ import annotations

from typing import Sequence

from .config import MODES, ConfigError
from .corpus import Document, decode_bmes, encode_bmes
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
    """The easy expansion of a document's columns for one domain."""
    _check_domain(domain)
    return FeatureColumns(
        tuple(f"{ns}:{t}" for t in columns.templates for ns in (COMMON_PREFIX, domain)),
        tuple(column for column in columns.columns for _ in range(2)),
        columns.lengths,
    )


def _with_transit_labels(source_model: CrfModel, columns: FeatureColumns) -> FeatureColumns:
    """Add the source model's predicted label at every position as a column."""
    return FeatureColumns(
        columns.templates + (TRANSIT_TEMPLATE,),
        columns.columns + (source_model.viterbi(columns),),
        columns.lengths,
    )


def _document_columns(
    doc: Document,
    extractor: FeatureExtractor,
    domain: str | None = None,
    transit_model: CrfModel | None = None,
) -> FeatureColumns:
    columns = extractor.document_columns(doc)
    if transit_model is not None:
        columns = _with_transit_labels(transit_model, columns)
    if domain is not None:
        columns = _namespaced(columns, domain)
    return columns


def _document_instances(
    doc: Document,
    extractor: FeatureExtractor,
    domain: str | None = None,
    transit_model: CrfModel | None = None,
) -> list[TrainingInstance]:
    if doc.words is None:
        raise ValueError(f"document {doc.doc_id!r} is not segmented")
    sentences = _document_columns(doc, extractor, domain, transit_model).sentences()
    return [
        TrainingInstance(features, tuple(encode_bmes(words)), f"{doc.doc_id}#{si}")
        for si, (features, words) in enumerate(zip(sentences, doc.words))
    ]


def corpus_instances(
    docs: Sequence[Document],
    extractor: FeatureExtractor,
    domain: str | None = None,
    transit_model: CrfModel | None = None,
) -> list[TrainingInstance]:
    out: list[TrainingInstance] = []
    for doc in docs:
        out.extend(_document_instances(doc, extractor, domain, transit_model))
    return out


def build_training(
    mode: str,
    source_docs: Sequence[Document] | None,
    target_docs: Sequence[Document],
    extractor: FeatureExtractor,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[list[TrainingInstance], CrfModel | None]:
    """Assemble training instances for one adaptation mode.

    Returns the instances and, for ``transit``, the auxiliary model
    trained on the source corpus (None otherwise).  Document-level
    features are always computed per document within its own corpus.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown adaptation mode {mode!r}")
    if not target_docs:
        raise ConfigError("target corpus is empty")
    if mode != "target" and not source_docs:
        raise ConfigError(f"mode {mode!r} needs a source corpus")

    if mode == "target":
        return corpus_instances(target_docs, extractor), None
    if mode == "all":
        assert source_docs is not None
        return (
            corpus_instances(source_docs, extractor) + corpus_instances(target_docs, extractor),
            None,
        )
    if mode == "transit":
        assert source_docs is not None
        source_model = train(corpus_instances(source_docs, extractor), train_config)
        instances = corpus_instances(target_docs, extractor, transit_model=source_model)
        return instances, source_model
    assert source_docs is not None
    instances = corpus_instances(source_docs, extractor, domain=SOURCE_DOMAIN)
    instances += corpus_instances(target_docs, extractor, domain=TARGET_DOMAIN)
    return instances, None


def _decoding_columns(
    doc: Document,
    extractor: FeatureExtractor,
    mode: str,
    source_model: CrfModel | None,
) -> FeatureColumns:
    if mode not in MODES:
        raise ConfigError(f"unknown adaptation mode {mode!r}")
    if mode == "transit":
        if source_model is None:
            raise ConfigError("transit decoding needs the auxiliary source model")
        return _document_columns(doc, extractor, transit_model=source_model)
    if mode == "easy":
        return _document_columns(doc, extractor, TARGET_DOMAIN)
    return extractor.document_columns(doc)


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
    return _decoding_columns(doc, extractor, mode, source_model).sentences()


def segment_document(
    model: CrfModel,
    doc: Document,
    extractor: FeatureExtractor,
    mode: str = "target",
    source_model: CrfModel | None = None,
) -> Document:
    """Decode every sentence of a document into words, in one batched pass."""
    labels = model.viterbi(_decoding_columns(doc, extractor, mode, source_model))
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
    subsets.
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
        previous = size
        cumulative = 0
        prefix: list[Document] = []
        for doc, c in zip(docs, counts):
            if cumulative >= size:
                break
            prefix.append(doc)
            cumulative += c
        subsets.append(prefix)
    return subsets
