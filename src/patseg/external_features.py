"""Knowledge mined from an external segmented corpus, and its features.

Three artifacts are extracted offline from a source-domain corpus: a
character POS lexicon (most frequent tag of each single-character word),
a dictionary of 2- and 3-character word types, and a character-similarity
model built from sentence co-occurrence counts via PPMI and a rank-k
factorization (Levy, Goldberg and Dagan 2015), computed as a symmetric
eigendecomposition (:func:`build_similarity`).  :func:`cpos_feature`,
:func:`dict_feature` and :func:`sim_features` define the features at one
position; :func:`cpos_column`, :func:`dict_column` and :func:`sim_columns`
give a document's coded columns, consulting the artifacts once per
distinct character, window or character pair.

POS-tagged source files use the segmented line format with each token
written as ``word_TAG``; the tag follows the last underscore.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Column, Document, DocumentCodes, ParseError, atomic_write, char_codes, corpus_files, read_lines
from .corpus import checksum as archive_checksum  # noqa: F401  (re-exported: an archive's checksum)

NO_TAG = "<none>"
ZERO_SIM = "zero"
SIM_OFFSETS = (-2, -1, 1, 2)
# discretize_similarity's values: ZERO_SIM, then the interval ids 0-9
SIM_TABLE = (ZERO_SIM, *(str(k) for k in range(10)))
DICT_TABLE = ("0", "1")
_COSINE_BLOCK = 4096
_COOCCURRENCE_BLOCK = 1024

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

    def indices(self, chars: Iterable[str]) -> np.ndarray:
        """Vocabulary row of every character, -1 for one without a vector."""
        return np.fromiter(map(self._index.get, chars, repeat(-1)), dtype=np.intp)

    def cosines(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Cosine similarity of the vocabulary rows ``a[k]`` and ``b[k]``
        for every k, clipped to [-1, 1]; exactly 0 where either row is -1
        or a zero vector.

        Each cosine is its own row's products summed along the vector,
        over the product of the two norms, so it does not depend on the
        other pairs and is symmetric in ``a`` and ``b`` to the last bit.
        Pairs go through in blocks, so memory stays O(block x dimension)
        however many pairs there are.
        """
        out = np.zeros(len(a))
        known = np.flatnonzero((a >= 0) & (b >= 0))
        both = known[(self._norms[a[known]] != 0.0) & (self._norms[b[known]] != 0.0)]
        for lo in range(0, len(both), _COSINE_BLOCK):
            k = both[lo : lo + _COSINE_BLOCK]
            dots = (self.vectors[a[k]] * self.vectors[b[k]]).sum(axis=1)
            cos = dots / (self._norms[a[k]] * self._norms[b[k]])
            # fmin/fmax send NaN (from vectors too large to multiply) to 1
            out[k] = np.fmax(-1.0, np.fmin(1.0, cos))
        return out

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two characters; 0 when either is unknown."""
        return float(self.cosines(self.indices([a]), self.indices([b]))[0])


def cooccurrence_matrix(sentences: list[str]) -> tuple[list[str], np.ndarray]:
    """Character co-occurrence counts over sentences.

    Vocabulary is the sorted set of characters.  A sentence holding x
    m times and y k times adds m*k to M[x][y] (one increment per
    co-occurring pair instance); the diagonal stays zero.

    ``M`` is X^T X with its diagonal cleared, X being the
    sentences-by-characters count table, built by ``np.bincount`` over
    the character codes one block of sentences at a time.  The counts
    are integers, so every sum is exact whatever its order.
    """
    vocab, codes = char_codes("".join(sentences))
    n = len(vocab)
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    m = np.zeros((n, n))
    for lo in range(0, len(sentences), _COOCCURRENCE_BLOCK):
        block = lengths[lo : lo + _COOCCURRENCE_BLOCK]
        sentence = np.repeat(np.arange(len(block)), block)
        keys = sentence * n + codes[bounds[lo] : bounds[lo + len(block)]]
        x = np.bincount(keys, minlength=len(block) * n).reshape(len(block), n).astype(np.float64)
        m += x.T @ x
    np.fill_diagonal(m, 0.0)
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
    """Distributional model: co-occurrence -> PPMI -> rank-k factorization.

    The corpus only needs sentence boundaries, not word boundaries.

    Co-occurrence is symmetric, so the PPMI matrix P is too, and
    ``np.linalg.eigh`` factors it as V Lambda V^T with real eigenvalues.
    The singular values of P are the |lambda|, its left singular vectors
    the columns of V, so the rank-k SVD's rows U_k Sigma_k are, up to the
    sign of each column, V_k |Lambda_k| over the k eigenpairs of largest
    |lambda|.  Column signs cancel in every dot product, so both give the
    same cosines; eigh takes a fraction of the SVD's time and memory.
    The k are taken by a stable sort, so equal |lambda| keep eigh's
    ascending order.  At full rank cosines match those between rows of
    the PPMI matrix exactly.
    """
    if k < 1:
        raise ValueError("dimension k must be >= 1")
    try:
        vocab, m = cooccurrence_matrix(sentences)
        if k > len(vocab):
            raise ValueError(f"dimension k={k} exceeds character inventory n={len(vocab)}")
        eigenvalues, eigenvectors = np.linalg.eigh(ppmi(m))
    except MemoryError as exc:
        n = len(set("".join(sentences)))
        raise ValueError(
            f"the similarity model of {n} distinct characters needs {n} x {n} matrices "
            f"of {n * n * 8 / 2**20:,.1f} MiB each, which do not fit in memory"
        ) from exc
    top = np.argsort(-np.abs(eigenvalues), kind="stable")[:k]
    vectors = eigenvectors[:, top] * np.abs(eigenvalues[top])
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


def similarity_codes(cosines: np.ndarray) -> np.ndarray:
    """:func:`discretize_similarity` of every cosine, as indices into
    ``SIM_TABLE``."""
    bins = np.clip(np.floor((cosines + 1.0) / 0.2), 0, 9).astype(np.intp) + 1
    return np.where(cosines == 0.0, 0, bins)


def sim_columns(model: SimilarityModel, coded: DocumentCodes) -> list[Column]:
    """The SIM columns of a document in ``SIM_OFFSETS`` order, coded in
    ``SIM_TABLE``: the discretized similarity of every character with its
    neighbor at each offset, ``zero`` past the sentence edges.

    Cosines are computed once per distinct unordered pair of neighboring
    characters; SIM[-k] at row r is SIM[+k] at row r - k.
    """
    codes, n_chars = coded.codes, len(coded.chars)
    n_rows = len(codes)
    rows = [np.flatnonzero(coded.remaining > gap) for gap in (1, 2)]
    pairs = [(codes[r], codes[r + gap]) for gap, r in zip((1, 2), rows)]
    keys = np.concatenate([np.minimum(x, y) * n_chars + np.maximum(x, y) for x, y in pairs])
    distinct, inverse = np.unique(keys, return_inverse=True)
    vocab_row = model.indices(coded.chars)
    a, b = np.divmod(distinct, n_chars)
    pair_codes = similarity_codes(model.cosines(vocab_row[a], vocab_row[b]))[inverse.reshape(-1)]
    # ahead[k, r]: the pair of rows r and r + k
    ahead = np.zeros((3, n_rows), dtype=np.intp)
    ahead[1, rows[0]], ahead[2, rows[1]] = np.split(pair_codes, [len(rows[0])])
    columns = []
    for off in SIM_OFFSETS:
        column = ahead[abs(off)]
        if off < 0:
            column = np.concatenate([np.zeros(-off, dtype=np.intp), column])[:n_rows]
        columns.append((SIM_TABLE, column))
    return columns


def cpos_column(lexicon: dict[str, str], coded: DocumentCodes) -> Column:
    """:func:`cpos_feature` of every row, looked up once per distinct
    character."""
    tags = list(map(lexicon.get, coded.chars, repeat(NO_TAG)))
    table = list(dict.fromkeys(tags))
    tag_code = dict(zip(table, range(len(table))))
    per_char = np.fromiter(map(tag_code.__getitem__, tags), dtype=np.intp, count=len(tags))
    return table, per_char[coded.codes]


def dict_column(dictionary: set[str], coded: DocumentCodes) -> Column:
    """``str(dict_feature(...))`` of every row, coded in ``DICT_TABLE``:
    each distinct two- and three-character window inside a sentence is
    looked up once."""
    text = coded.text
    hits = []
    for n, ngrams in ((2, coded.bigrams), (3, coded.trigrams)):
        words = (text[r : r + n] for r in ngrams.first.tolist())
        found = np.fromiter(map(dictionary.__contains__, words), dtype=bool, count=len(ngrams.first))
        # -1 (no window there) reads the appended False
        hits.append(np.append(found, False)[ngrams.ids])
    two, three = hits
    # windows start at r - 1 and r (two characters), r - 2 .. r (three)
    hit = two | three
    hit[1:] |= two[:-1] | three[:-1]
    hit[2:] |= three[:-2]
    return DICT_TABLE, hit.astype(np.intp)


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
        # one %-format per row: the bytes of f"{x:.9g}" per cell, joined by spaces
        row_format = "%s\t" + " ".join(["%.9g"] * model.dimension) + "\n"
        sim = [f"{len(model.vocab)} {model.dimension}\n"]
        sim += [row_format % (char, *row) for char, row in zip(model.vocab, model.vectors.tolist())]
        atomic_write(root / "sim.tsv", "".join(sim).encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        """Read an archive written by :meth:`save`.

        The first field of a ``cpos.tsv`` or ``sim.tsv`` line is exactly
        one character, which may itself be a tab, followed by a tab.  A
        character on two lines of one file is a
        :class:`~patseg.corpus.ParseError` naming the later line.
        """
        root = Path(path)
        lexicon: dict[str, str] = {}
        cpos_path = root / "cpos.tsv"
        for _, char, tag in _keyed_lines(cpos_path, read_lines(cpos_path)):
            lexicon[char] = tag
        dictionary = {line for line in read_lines(root / "dict.txt") if line}
        sim_path = root / "sim.tsv"
        sim_lines = read_lines(sim_path)
        header = sim_lines[0].split() if sim_lines else []
        if len(header) != 2 or not all(h.isdigit() for h in header):
            raise ParseError(f"{sim_path}:1: header is not 'rows dimension'")
        n, k = int(header[0]), int(header[1])
        vocab: list[str] = []
        rows: list[list[float]] = []
        # the array is sized by the rows read, never by the header alone
        for where, char, cells in _keyed_lines(sim_path, sim_lines, skip=1):
            if len(vocab) == n:
                raise ParseError(f"{where}: more rows than the {n} the header declares")
            try:
                row = [float(x) for x in cells.split(" ")]
            except ValueError as exc:
                raise ParseError(f"{where}: expected {k} numbers") from exc
            if len(row) != k:
                raise ParseError(f"{where}: expected {k} numbers")
            rows.append(row)
            vocab.append(char)
        if len(vocab) != n:
            raise ParseError(f"{sim_path}: {len(vocab)} rows but the header declares {n}")
        vectors = np.array(rows, dtype=np.float64).reshape(n, k)
        return cls(lexicon, dictionary, SimilarityModel(vocab, vectors))


def _keyed_lines(path: Path, lines: list[str], skip: int = 0):
    """(``file:line``, character, rest) of every line ``<char>\\t<rest>``
    of ``lines``, read from ``path``; a character keys one line only."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if lineno <= skip or not line:
            continue
        if len(line) < 2 or line[1] != "\t":
            raise ParseError(f"{path}:{lineno}: expected one character and a tab")
        char = line[0]
        if char in first_line:
            raise ParseError(f"{path}:{lineno}: character {char!r} repeats line {first_line[char]}")
        first_line[char] = lineno
        yield f"{path}:{lineno}", char, line[2:]


def build_knowledge(tagged_source: list[TaggedDocument], k: int) -> KnowledgeBase:
    """Run all three builders over one tagged source corpus."""
    docs = [t.doc for t in tagged_source]
    sentences = [s for d in docs for s in d.sentences]
    return KnowledgeBase(
        pos_lexicon=build_pos_lexicon(tagged_source),
        dictionary=build_dictionary(docs),
        similarity=build_similarity(sentences, k),
    )
