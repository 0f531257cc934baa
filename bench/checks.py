"""Output checks computed apart from the program under test.

The scorer, the line check and the forward-maximum-matching baseline
read the files the CLI wrote with the benchmark's own parser
(``worlds.read_lines``) and share no code with ``patseg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from worlds import Corpus, read_lines


@dataclass(frozen=True)
class Score:
    f1: float  # percent
    oov_recall: float  # percent


def _spans(words) -> list[tuple[int, int]]:
    spans, offset = [], 0
    for w in words:
        spans.append((offset, offset + len(w)))
        offset += len(w)
    return spans


def span_score(gold: Corpus, pred: dict[str, list[tuple[str, ...]]], ref_vocab: set[str]) -> Score:
    """Bakeoff span-match F1 and OOV recall, micro-averaged, in percent."""
    n_gold = n_pred = n_correct = n_oov = n_oov_correct = 0
    for doc_id, sentences in gold.items():
        pred_sentences = pred[doc_id]
        if len(pred_sentences) != len(sentences):
            raise ValueError(f"{doc_id}: {len(sentences)} gold vs {len(pred_sentences)} predicted lines")
        for g, p in zip(sentences, pred_sentences):
            pred_spans = set(_spans(p))
            n_gold += len(g.words)
            n_pred += len(pred_spans)
            for word, span in zip(g.words, _spans(g.words)):
                hit = span in pred_spans
                n_correct += hit
                if word not in ref_vocab:
                    n_oov += 1
                    n_oov_correct += hit
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Score(100.0 * f1, 100.0 * n_oov_correct / n_oov if n_oov else 0.0)


def vocabulary(*corpora: Corpus) -> set[str]:
    return {w for c in corpora for sentences in c.values() for s in sentences for w in s.words}


def fmm_segment(text: str, vocab: set[str], max_len: int) -> tuple[str, ...]:
    """Forward maximum matching: the longest vocabulary word at each point,
    else one character."""
    words, i = [], 0
    while i < len(text):
        for j in range(min(len(text), i + max_len), i, -1):
            if j == i + 1 or text[i:j] in vocab:
                words.append(text[i:j])
                i = j
                break
    return tuple(words)


def fmm_baseline(test: Corpus, vocab: set[str], ref_vocab: set[str]) -> Score:
    max_len = max(len(w) for w in vocab)
    pred = {
        doc_id: [fmm_segment(s.text, vocab, max_len) for s in sentences]
        for doc_id, sentences in test.items()
    }
    return span_score(test, pred, ref_vocab)


def read_segmented(pred_dir: Path, raw_dir: Path) -> tuple[dict[str, list[tuple[str, ...]]], list[str]]:
    """Predicted words per raw input file, plus every line-alignment error.

    Each raw file must have a ``.seg`` output with the same number of
    lines, and each output line must concatenate back to its raw line.
    """
    pred: dict[str, list[tuple[str, ...]]] = {}
    errors = []
    for raw_path in sorted(raw_dir.iterdir()):
        seg_path = pred_dir / f"{raw_path.stem}.seg"
        if not seg_path.is_file():
            errors.append(f"{seg_path.name}: missing")
            continue
        raw_lines, seg_lines = read_lines(raw_path), read_lines(seg_path)
        if len(raw_lines) != len(seg_lines):
            errors.append(f"{seg_path.name}: {len(seg_lines)} lines for {len(raw_lines)} raw lines")
            continue
        words = [tuple(line.split(" ")) if line else () for line in seg_lines]
        bad = [n for n, (r, ws) in enumerate(zip(raw_lines, words), 1) if "".join(ws) != r or "" in ws]
        if bad:
            errors.append(f"{seg_path.name}: line {bad[0]} does not rebuild its raw line")
        pred[raw_path.stem] = words
    return pred, errors
