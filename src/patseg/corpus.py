"""Text data model, BMES codec, character typing, and corpus file I/O.

A corpus is a directory of UTF-8 text files; each file is one document and
the document id is the filename without its extension.  Segmented files
hold one sentence per line with words separated by exactly one ASCII
space; raw files hold one unsegmented sentence per line.  Blank lines are
ignored.  Input text is used as-is: no Unicode normalization is applied,
since normalization changes character counts and would break gold
alignments.
"""

from __future__ import annotations

import enum
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

LABELS = ("B", "M", "E", "S")

# Chinese numerals count as Number, not Hanzi.  Closed set: the ordinary
# numerals plus the financial variants.
_CHINESE_NUMERALS = frozenset("〇一二三四五六七八九十百千万亿两壹贰叁肆伍陆柒捌玖拾佰仟萬")


class ParseError(ValueError):
    """A corpus file violates the line format."""


class CharType(enum.Enum):
    NUMBER = "Number"
    HANZI = "Hanzi"
    LETTER = "Letter"
    OTHER = "Other"


def classify_char(c: str) -> CharType:
    """Classify a single character as Number, Hanzi, Letter, or Other.

    Total and deterministic: Arabic digits (ASCII and full-width) and
    Chinese numerals are Number; CJK ideographs outside the numeral set
    are Hanzi; ASCII and full-width Latin letters are Letter; everything
    else is Other.
    """
    if len(c) != 1:
        raise ValueError(f"expected a single character, got {c!r}")
    if "0" <= c <= "9" or "０" <= c <= "９" or c in _CHINESE_NUMERALS:
        return CharType.NUMBER
    cp = ord(c)
    if (
        0x4E00 <= cp <= 0x9FFF
        or 0x3400 <= cp <= 0x4DBF
        or 0xF900 <= cp <= 0xFAFF
        or 0x20000 <= cp <= 0x2FA1F
    ):
        return CharType.HANZI
    if "a" <= c <= "z" or "A" <= c <= "Z" or "Ａ" <= c <= "Ｚ" or "ａ" <= c <= "ｚ":
        return CharType.LETTER
    return CharType.OTHER


@dataclass(frozen=True)
class Document:
    """Sentences of one document, optionally with gold word boundaries.

    ``sentences[i]`` is the raw character sequence; when ``words`` is
    present, ``words[i]`` is its gold segmentation and concatenates back
    to ``sentences[i]`` exactly.
    """

    doc_id: str
    sentences: tuple[str, ...]
    words: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not self.sentences:
            raise ValueError(f"document {self.doc_id!r} has no sentences")
        if any(not s for s in self.sentences):
            raise ValueError(f"document {self.doc_id!r} contains an empty sentence")
        if self.words is not None:
            if len(self.words) != len(self.sentences):
                raise ValueError(f"document {self.doc_id!r}: words/sentences length mismatch")
            for sent, ws in zip(self.sentences, self.words):
                if "".join(ws) != sent:
                    raise ValueError(
                        f"document {self.doc_id!r}: segmentation does not cover its sentence"
                    )

    @property
    def is_segmented(self) -> bool:
        return self.words is not None

    def word_count(self) -> int:
        if self.words is None:
            raise ValueError(f"document {self.doc_id!r} is not segmented")
        return sum(len(ws) for ws in self.words)


def encode_bmes(words: Sequence[str]) -> list[str]:
    """Tag every character of a segmented sentence with B/M/E/S.

    A single-character word becomes S; a k-character word becomes B,
    k-2 times M, then E.
    """
    labels: list[str] = []
    for word in words:
        if not word:
            raise ValueError("empty word in segmented sentence")
        if len(word) == 1:
            labels.append("S")
        else:
            labels.append("B")
            labels.extend("M" * (len(word) - 2))
            labels.append("E")
    return labels


def decode_bmes(sentence: str, labels: Sequence[str]) -> list[str]:
    """Recover words from a BMES label sequence.

    Inverse of :func:`encode_bmes` on well-formed sequences.  Ill-formed
    sequences are repaired left to right so that no character is ever
    dropped: B and S close any open word first; M with no open word acts
    as B; E with no open word acts as S; an open word at the end of the
    sentence is closed.
    """
    if len(sentence) != len(labels):
        raise ValueError(
            f"length mismatch: {len(sentence)} characters vs {len(labels)} labels"
        )
    words: list[str] = []
    current = ""
    for ch, label in zip(sentence, labels):
        if label == "B":
            if current:
                words.append(current)
            current = ch
        elif label == "M":
            current += ch
        elif label == "E":
            words.append(current + ch)
            current = ""
        elif label == "S":
            if current:
                words.append(current)
                current = ""
            words.append(ch)
        else:
            raise ValueError(f"unknown label {label!r}")
    if current:
        words.append(current)
    return words


def _parse_segmented_line(line: str, path: Path, lineno: int) -> tuple[str, ...]:
    words = line.split(" ")
    if any(not w for w in words):
        raise ParseError(f"{path}:{lineno}: empty word (check for doubled or stray spaces)")
    return tuple(words)


def read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 text file, the one line reader for every corpus.

    Lines end at "\n", "\r\n" or "\r" only.  Other Unicode line
    boundaries (form feed, U+0085, U+2028, ...) stay inside their line,
    so a raw file and its segmentation line up one to one.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_document(path: Path, mode: str) -> Document | None:
    sentences: list[str] = []
    words: list[tuple[str, ...]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        if mode == "segmented":
            ws = _parse_segmented_line(line, path, lineno)
            words.append(ws)
            sentences.append("".join(ws))
        else:
            sentences.append(line)
    if not sentences:
        return None
    if mode == "segmented":
        return Document(path.stem, tuple(sentences), tuple(words))
    return Document(path.stem, tuple(sentences))


def _files(path: str | Path) -> list[Path]:
    root = Path(path)
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise FileNotFoundError(f"corpus location {root} does not exist")
    return sorted((p for p in root.iterdir() if p.is_file()), key=lambda p: p.name)


def corpus_files(path: str | Path) -> list[Path]:
    """Files of a corpus directory in lexicographic filename order.

    A document id is a file's stem, so two files with the same stem
    (``a.txt`` and ``a.md``) are rejected rather than one overwriting the
    other downstream.
    """
    files = _files(path)
    by_stem: dict[str, Path] = {}
    for p in files:
        other = by_stem.setdefault(p.stem, p)
        if other is not p:
            raise ValueError(f"files {other} and {p} have the same document id {p.stem!r}")
    return files


def checksum(path: str | Path) -> str:
    """SHA-256 over the files of a directory (or over one file): each
    file's name, NUL, bytes, NUL, in filename order."""
    digest = hashlib.sha256()
    for p in _files(path):
        digest.update(p.name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(p.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` by a file holding ``data``, or leave it as it was.

    The bytes go to a new file beside the target, which then replaces it
    in one rename; a failure removes the new file.  The file is created
    by ``open``, so it gets the same permissions as any other file the
    process creates.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_corpus(path: str | Path, mode: str = "segmented") -> list[Document]:
    """Read a corpus directory (or single file) into Documents.

    Document order is lexicographic by filename; files that contain only
    blank lines are skipped.
    """
    if mode not in ("segmented", "raw"):
        raise ValueError(f"unknown corpus mode {mode!r}")
    docs = []
    for p in corpus_files(path):
        doc = _read_document(p, mode)
        if doc is not None:
            docs.append(doc)
    return docs


def write_segmented_corpus(docs: Iterable[Document], out_dir: str | Path) -> None:
    """Write segmented documents, one file per document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if doc.words is None:
            raise ValueError(f"document {doc.doc_id!r} is not segmented")
        with open(out / f"{doc.doc_id}.seg", "w", encoding="utf-8") as fh:
            for ws in doc.words:
                fh.write(" ".join(ws))
                fh.write("\n")
