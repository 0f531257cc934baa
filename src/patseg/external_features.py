"""Knowledge mined from an external segmented corpus, and its features.

Three artifacts are extracted offline from a source-domain corpus: a
character POS lexicon (most frequent tag of each single-character word),
a dictionary of 2- and 3-character word types, and a character-similarity
model built from sentence co-occurrence counts via PPMI and a truncated
SVD.  The feature functions that consult them are pure lookups, cheap
enough to run per character position.

POS-tagged source files use the segmented line format with each token
written as ``word_TAG``; the tag follows the last underscore.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, ParseError, atomic_write, corpus_files, read_lines
from .corpus import checksum as archive_checksum  # noqa: F401  (re-exported: an archive's checksum)

NO_TAG = "<none>"
ZERO_SIM = "zero"
SIM_OFFSETS = (-2, -1, 1, 2)

# Five dictionary windows around position i, as (start, end) offsets.
_DICT_WINDOWS = ((0, 3), (-1, 2), (-2, 1), (0, 2), (-1, 1))


@dataclass(frozen=True)
class TaggedDocument:
    """A segmented document plus one POS tag per word."""

    doc: Document
    tags: tuple[tuple[str, ...], ...]

    def tagged_words(self):
        assert self.doc.words is not None
        for ws, ts in zip(self.doc.words, self.tags):
            yield from zip(ws, ts)


def read_tagged_corpus(path: str | Path) -> list[TaggedDocument]:
    """Read a segmented+POS corpus (tokens of the form ``word_TAG``)."""
    docs = []
    for p in corpus_files(path):
        sentences: list[str] = []
        words: list[tuple[str, ...]] = []
        tags: list[tuple[str, ...]] = []
        for lineno, line in enumerate(read_lines(p), start=1):
            if not line:
                continue
            ws, ts = [], []
            for token in line.split(" "):
                word, sep, tag = token.rpartition("_")
                if not sep or not word or not tag:
                    raise ParseError(f"{p}:{lineno}: token {token!r} is not of the form word_TAG")
                ws.append(word)
                ts.append(tag)
            words.append(tuple(ws))
            tags.append(tuple(ts))
            sentences.append("".join(ws))
        if sentences:
            docs.append(TaggedDocument(Document(p.stem, tuple(sentences), tuple(words)), tuple(tags)))
    return docs


def build_pos_lexicon(source: list[TaggedDocument]) -> dict[str, str]:
    """Most frequent POS tag of every character seen as a one-char word.

    Count ties are broken by lexicographically smallest tag so rebuilding
    from the same source is always identical.
    """
    counts: dict[str, Counter] = {}
    for tdoc in source:
        for word, tag in tdoc.tagged_words():
            if len(word) == 1:
                counts.setdefault(word, Counter())[tag] += 1
    lexicon = {}
    for char, tag_counts in counts.items():
        lexicon[char] = min(tag_counts, key=lambda t: (-tag_counts[t], t))
    return lexicon


def build_dictionary(source: list[Document]) -> set[str]:
    """All distinct 2- and 3-character word types of the source corpus."""
    words: set[str] = set()
    for doc in source:
        if doc.words is None:
            raise ValueError(f"document {doc.doc_id!r} is not segmented")
        for ws in doc.words:
            words.update(w for w in ws if len(w) in (2, 3))
    return words


class SimilarityModel:
    """Distributional character vectors from sentence co-occurrence.

    Rows of ``vectors`` align with ``vocab``; similarity is cosine, with
    0 for characters absent from the vocabulary and for zero vectors.
    """

    def __init__(self, vocab: list[str], vectors: np.ndarray):
        if vectors.shape[0] != len(vocab):
            raise ValueError("vector rows not aligned to vocabulary")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("similarity vectors must be finite")
        self.vocab = list(vocab)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self._index = {c: i for i, c in enumerate(self.vocab)}
        self._norms = np.linalg.norm(self.vectors, axis=1)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, char: str) -> bool:
        return char in self._index

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two characters; 0 when either is unknown."""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return 0.0
        na, nb = self._norms[ia], self._norms[ib]
        if na == 0.0 or nb == 0.0:
            return 0.0
        cos = float(np.dot(self.vectors[ia], self.vectors[ib]) / (na * nb))
        return max(-1.0, min(1.0, cos))


def cooccurrence_matrix(sentences: list[str]) -> tuple[list[str], np.ndarray]:
    """Character co-occurrence counts over sentences.

    Vocabulary is the sorted set of characters.  A sentence holding x
    m times and y k times adds m*k to M[x][y] (one increment per
    co-occurring pair instance); the diagonal stays zero.
    """
    vocab = sorted({c for sent in sentences for c in sent})
    index = {c: i for i, c in enumerate(vocab)}
    n = len(vocab)
    m = np.zeros((n, n), dtype=np.float64)
    for sent in sentences:
        counts = Counter(sent)
        chars = list(counts)
        for a in range(len(chars)):
            ia = index[chars[a]]
            ca = counts[chars[a]]
            for b in range(a + 1, len(chars)):
                ib = index[chars[b]]
                pairs = ca * counts[chars[b]]
                m[ia, ib] += pairs
                m[ib, ia] += pairs
    return vocab, m


def ppmi(m: np.ndarray) -> np.ndarray:
    """Positive PMI of a joint-count table; log(0) and negatives go to 0."""
    total = m.sum()
    if total == 0:
        return np.zeros_like(m)
    row = m.sum(axis=1, keepdims=True)
    col = m.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(m * total / (row * col))
    p[~np.isfinite(p)] = 0.0
    p[p < 0] = 0.0
    return p


def build_similarity(sentences: list[str], k: int) -> SimilarityModel:
    """Distributional model: co-occurrence -> PPMI -> rank-k SVD.

    The corpus only needs sentence boundaries, not word boundaries.
    Rows of the result are U_k * Sigma_k, so at full rank cosines match
    those between rows of the PPMI matrix exactly.
    """
    if k < 1:
        raise ValueError("dimension k must be >= 1")
    vocab, m = cooccurrence_matrix(sentences)
    n = len(vocab)
    if k > n:
        raise ValueError(f"dimension k={k} exceeds character inventory n={n}")
    p = ppmi(m)
    u, s, _ = np.linalg.svd(p, full_matrices=False)
    vectors = u[:, :k] * s[:k]
    return SimilarityModel(vocab, vectors)


def sim_features(model: SimilarityModel, sentence: str, i: int) -> tuple[float, float, float, float]:
    """Cosine similarity of C_i with its -2/-1/+1/+2 neighbors.

    Off-edge neighbors and characters without a vector give exactly 0.
    """
    sims = []
    for off in SIM_OFFSETS:
        j = i + off
        if 0 <= j < len(sentence):
            sims.append(model.similarity(sentence[i], sentence[j]))
        else:
            sims.append(0.0)
    return tuple(sims)


def discretize_similarity(value: float) -> str:
    """Map a cosine to one of 10 equal-width interval ids over [-1, 1].

    Exact 0 (the missing-character and sentence-edge case) gets the
    reserved "zero" value instead of the interval containing 0.
    """
    if value == 0.0:
        return ZERO_SIM
    idx = int((value + 1.0) / 0.2)
    return str(min(max(idx, 0), 9))


def cpos_feature(lexicon: dict[str, str], char: str) -> str:
    """POS tag of the character, or the reserved no-tag value."""
    return lexicon.get(char, NO_TAG)


def dict_feature(dictionary: set[str], sentence: str, i: int) -> int:
    """1 iff any of the five character windows around i is a dictionary word.

    Windows that stick out past a sentence edge are skipped.
    """
    n = len(sentence)
    for lo, hi in _DICT_WINDOWS:
        start, end = i + lo, i + hi
        if 0 <= start and end <= n and sentence[start:end] in dictionary:
            return 1
    return 0


def dict_column(dictionary: set[str], sentence: str) -> list[str]:
    """``str(dict_feature(...))`` of every position of a sentence, each
    two- and three-character window looked up once."""
    n = len(sentence)
    hit2 = [sentence[k : k + 2] in dictionary for k in range(n - 1)]
    hit3 = [sentence[k : k + 3] in dictionary for k in range(n - 2)]
    # windows starting at i - 1 and i are two[i] and two[i + 1];
    # those starting at i - 2, i - 1 and i are three[i : i + 3]
    two = [False, *hit2, False]
    three = [False, False, *hit3, False, False]
    return [
        "1" if three[i] or three[i + 1] or three[i + 2] or two[i] or two[i + 1] else "0" for i in range(n)
    ]


@dataclass(frozen=True)
class KnowledgeBase:
    """The three source-corpus artifacts bundled for feature extraction."""

    pos_lexicon: dict[str, str]
    dictionary: set[str]
    similarity: SimilarityModel

    def save(self, path: str | Path) -> None:
        """Write the archive directory: cpos.tsv, dict.txt, sim.tsv, each
        file replaced whole or left as it was."""
        root = Path(path)
        cpos = "".join(f"{char}\t{self.pos_lexicon[char]}\n" for char in sorted(self.pos_lexicon))
        atomic_write(root / "cpos.tsv", cpos.encode("utf-8"))
        atomic_write(root / "dict.txt", "".join(word + "\n" for word in sorted(self.dictionary)).encode("utf-8"))
        model = self.similarity
        sim = [f"{len(model.vocab)} {model.dimension}\n"]
        for char, row in zip(model.vocab, model.vectors):
            cells = " ".join(f"{x:.9g}" for x in row)
            sim.append(f"{char}\t{cells}\n")
        atomic_write(root / "sim.tsv", "".join(sim).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        """Read an archive written by :meth:`save`.

        The first field of a ``cpos.tsv`` or ``sim.tsv`` line is exactly
        one character, which may itself be a tab, followed by a tab.
        """
        root = Path(path)
        lexicon: dict[str, str] = {}
        for _, char, tag in _keyed_lines(root / "cpos.tsv"):
            lexicon[char] = tag
        with open(root / "dict.txt", encoding="utf-8") as fh:
            dictionary = {line.rstrip("\n") for line in fh if line.rstrip("\n")}
        sim_path = root / "sim.tsv"
        with open(sim_path, encoding="utf-8") as fh:
            header = fh.readline().split()
        if len(header) != 2 or not all(h.isdigit() for h in header):
            raise ParseError(f"{sim_path}:1: header is not 'rows dimension'")
        n, k = int(header[0]), int(header[1])
        vocab: list[str] = []
        vectors = np.zeros((n, k), dtype=np.float64)
        for where, char, cells in _keyed_lines(sim_path, skip=1):
            if len(vocab) == n:
                raise ParseError(f"{where}: more rows than the {n} the header declares")
            try:
                vectors[len(vocab)] = [float(x) for x in cells.split(" ")]
            except ValueError as exc:
                raise ParseError(f"{where}: expected {k} numbers") from exc
            vocab.append(char)
        if len(vocab) != n:
            raise ParseError(f"{sim_path}: {len(vocab)} rows but the header declares {n}")
        return cls(lexicon, dictionary, SimilarityModel(vocab, vectors))


def _keyed_lines(path: Path, skip: int = 0):
    """(``file:line``, character, rest) of every line ``<char>\\t<rest>``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= skip:
                continue
            line = line[:-1] if line.endswith("\n") else line
            if not line:
                continue
            if len(line) < 2 or line[1] != "\t":
                raise ParseError(f"{path}:{lineno}: expected one character and a tab")
            yield f"{path}:{lineno}", line[0], line[2:]


def build_knowledge(tagged_source: list[TaggedDocument], k: int) -> KnowledgeBase:
    """Run all three builders over one tagged source corpus."""
    docs = [t.doc for t in tagged_source]
    sentences = [s for d in docs for s in d.sentences]
    return KnowledgeBase(
        pos_lexicon=build_pos_lexicon(tagged_source),
        dictionary=build_dictionary(docs),
        similarity=build_similarity(sentences, k),
    )
