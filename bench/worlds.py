"""Seeded benchmark worlds, written to disk in the CLI's file formats.

A world is generated from one seed with the two-domain sampler of
``tests/_synth.py`` and holds:

- ``source``: the source corpus as ``word_TAG`` tokens (the CLI's tagged
  format), read by ``extract-knowledge`` and by ``train`` in the
  ``easy``/``transit`` modes;
- ``source_seg``: the same corpus as plain segmented text, the reference
  vocabulary for OOV recall (``eval --ref-vocab``);
- ``train``: the segmented target training corpus;
- ``test_gold`` and ``test_raw``: the test corpus, segmented and raw.

This module parses the files back with its own reader rather than with
``patseg.corpus``, so the round-trip self-test checks the writer
independently of the program under test.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for _p in (REPO / "src", REPO / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from _synth import DomainSampler  # noqa: E402
from patseg.pipeline import EXTERNAL_GROUPS, FEATURE_GROUPS  # noqa: E402

# Training settings shared by every workload.  The tolerance is so low that
# L-BFGS always runs to the iteration cap: with convergence allowed, seeds
# differed in optimizer work (24-30 objective calls on long-sentence), and
# that spread showed in train_s.
MAX_ITERATIONS = 20
TOLERANCE = 1e-9
# The CLI's default number of similar words kept per word.
SIM_K = 50


@dataclass(frozen=True)
class Workload:
    """What one workload generates and how it trains.

    Corpus sizes are in words.  The ``long_train``/``long_test`` extra
    documents are one sentence apiece of at least ``long_chars``
    characters, like an unsplit patent claim; cutting them at a fixed
    length keeps the padded batch the same size for every seed.
    """

    name: str
    mode: str
    groups: tuple[str, ...]
    source_docs: int
    train_docs: int
    test_docs: int
    words_per_doc: int
    long_train: int = 0
    long_test: int = 0
    long_chars: int = 0

    @property
    def needs_knowledge(self) -> bool:
        return bool(EXTERNAL_GROUPS & set(self.groups))


# The corpora are small so that a 40-second run holds 5-8 rounds, whose
# median repeats across runs (see README.md, "Workloads and seeds").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-sentence", "target", ("CF",),
            source_docs=4, train_docs=1, test_docs=12, words_per_doc=300,
            long_train=2, long_test=6, long_chars=1600,
        ),
        Workload(
            "easy-bulk", "easy", FEATURE_GROUPS,
            source_docs=2, train_docs=2, test_docs=4, words_per_doc=400,
        ),
        Workload(
            "transit-segment", "transit", FEATURE_GROUPS,
            source_docs=2, train_docs=2, test_docs=16, words_per_doc=400,
        ),
    )
}


@dataclass(frozen=True)
class Sentence:
    words: tuple[str, ...]
    tags: tuple[str, ...] | None = None

    @property
    def text(self) -> str:
        return "".join(self.words)


# One corpus: document id -> sentences, in id order.
Corpus = dict[str, list[Sentence]]


@dataclass(frozen=True)
class World:
    source: Corpus
    train: Corpus
    test: Corpus


def _plain(doc) -> list[Sentence]:
    return [Sentence(tuple(ws)) for ws in doc.words]


def _long_sentence(s: DomainSampler, doc_id: str, n_chars: int) -> list[Sentence]:
    doc = s.document(doc_id, s.target_tech, s.target_chars, n_chars)
    words, length = [], 0
    for w in (w for ws in doc.words for w in ws):
        if length >= n_chars:
            break
        words.append(w)
        length += len(w)
    return [Sentence(tuple(words))]


def generate(workload: Workload, seed: int) -> World:
    """The workload's corpora for one seed; the same seed gives the same world."""
    s = DomainSampler(seed)
    w = workload
    source = {
        d.doc_id: [Sentence(tuple(ws), tuple(s.tag_of(x) for x in ws)) for ws in d.words]
        for d in s.corpus("s", s.source_tech, s.source_chars, w.source_docs, w.words_per_doc)
    }
    train = {
        d.doc_id: _plain(d)
        for d in s.corpus("t", s.target_tech, s.target_chars, w.train_docs, w.words_per_doc)
    }
    test = {
        d.doc_id: _plain(d)
        for d in s.corpus("d", s.target_tech, s.target_chars, w.test_docs, w.words_per_doc)
    }
    for i in range(w.long_train):
        train[f"tl{i:03d}"] = _long_sentence(s, f"tl{i:03d}", w.long_chars)
    for i in range(w.long_test):
        test[f"dl{i:03d}"] = _long_sentence(s, f"dl{i:03d}", w.long_chars)
    return World(source, train, test)


def _write(root: Path, corpus: Corpus, suffix: str, render) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for doc_id, sentences in corpus.items():
        text = "".join(render(s) + "\n" for s in sentences)
        (root / f"{doc_id}{suffix}").write_text(text, encoding="utf-8")


def write_world(world: World, root: Path) -> None:
    """Write every corpus of the world under ``root`` in the CLI's formats."""
    _write(root / "source", world.source, ".pos",
           lambda s: " ".join(f"{w}_{t}" for w, t in zip(s.words, s.tags)))
    _write(root / "source_seg", world.source, ".seg", lambda s: " ".join(s.words))
    _write(root / "train", world.train, ".seg", lambda s: " ".join(s.words))
    _write(root / "test_gold", world.test, ".seg", lambda s: " ".join(s.words))
    _write(root / "test_raw", world.test, ".txt", lambda s: s.text)


def read_lines(path: Path) -> list[str]:
    """Lines of a corpus file split on ``\\n`` only, blank lines kept."""
    text = path.read_text(encoding="utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def read_back(root: Path, kind: str) -> Corpus:
    """Parse one written corpus directory with the benchmark's own reader."""
    corpus: Corpus = {}
    for p in sorted((root / kind).iterdir()):
        sentences = []
        for line in read_lines(p):
            if kind == "test_raw":
                sentences.append(Sentence((line,)))
            elif kind == "source":
                pairs = [tok.rsplit("_", 1) for tok in line.split(" ")]
                sentences.append(Sentence(tuple(w for w, _ in pairs), tuple(t for _, t in pairs)))
            else:
                sentences.append(Sentence(tuple(line.split(" "))))
        corpus[p.stem] = sentences
    return corpus


def round_trip_errors(world: World, root: Path) -> list[str]:
    """Differences between the written files and the generated world."""
    expected = {
        "source": world.source,
        "source_seg": {k: [Sentence(s.words) for s in v] for k, v in world.source.items()},
        "train": world.train,
        "test_gold": world.test,
        "test_raw": {k: [Sentence((s.text,)) for s in v] for k, v in world.test.items()},
    }
    errors = []
    for kind, corpus in expected.items():
        if read_back(root, kind) != corpus:
            errors.append(f"{kind}: files differ from the generated corpus")
    return errors
