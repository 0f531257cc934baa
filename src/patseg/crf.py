"""Linear-chain CRF over BMES labels.

Feature semantics follow the usual CRF-toolkit convention: every discrete
(template-id, value) pair observed in training is crossed with all four
output labels to form indicator weights, plus the 16 label-to-label
transition weights.  Unseen feature values score 0 at test time.

Features reach the CRF as columns.  A :class:`FeatureColumns` holds, for a
run of sentences, one value column per template; row ``r`` of every
column is one character position.  The :class:`FeatureRegistry` keeps one
value-to-slot dictionary per template (CRFsuite's attribute dictionaries),
and compiling a batch maps each column through its template's dictionary
once, giving a templates-by-rows matrix of integer slot ids in which the
sentinel id ``n_slots`` stands for every unregistered value.  No
(template-id, value) pair is formed per position when training or
decoding.  Per-position entry lists (:data:`FeatureVector`, rows of any
arity) are still accepted and converted to columns, and a FeatureColumns
iterates as :class:`FeatureRow` views that form a row's pairs only when
the row is read.

Training maximizes the L2-regularized mean log-likelihood with exact
gradients from forward-backward.  The optimizer is a batch quasi-Newton
method (L-BFGS-B) with deterministic behavior: identical data and config
reproduce bit-identical weights.

Training and decoding share one core, :class:`PackedBatch`: a batch of
sequences stored time-major with one row per position, so memory is
O(sum of lengths), not O(sequences x longest).  Over that layout run the
only forward-backward (scaled domain, renormalized at every row, so
sequences of any length cannot overflow) and the only Viterbi (additive
max-product in the log domain).  The per-sentence methods of
:class:`CrfModel` call the core with a batch of one.

Decoding scores positions by a gather-sum over the slot-id matrix: the
emission weights with a zero row appended for the sentinel, gathered
template by template.  Training, which scores the same batch once per
optimizer step, multiplies a sparse rows-by-slots matrix built from the
same ids instead; both sum the same terms in the same order.  Only
training uses ``scipy.optimize`` and ``scipy.sparse``.  The module
imports the bare ``scipy`` package, which loads submodules on first use,
so decoding loads neither.

Viterbi ties are broken toward the lexicographically smallest sequence
under the label order B < M < E < S at the earliest differing position.
"""

from __future__ import annotations

import itertools
import pickle
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy

from .char_features import FeatureEntry, FeatureVector
from .corpus import LABELS

N_LABELS = len(LABELS)
_LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
_LABEL_NAMES = np.array(LABELS, dtype=object)

_PICKLE_PROTOCOL = 4
_FORMAT_VERSION = 1


class TrainingError(RuntimeError):
    """Training produced a non-finite objective or was misconfigured."""


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 0.1
    max_iterations: int = 300
    tolerance: float = 1e-6
    feature_cutoff: int = 1


@dataclass(frozen=True)
class FeatureColumns:
    """Feature values of a run of sentences, one column per template.

    ``columns[j][r]`` is the value of template ``templates[j]`` at row
    ``r``; rows run through the sentences in order, ``lengths[s]`` rows
    for sentence ``s``.  Two templates may share one column object, and
    a ``None`` value means the row has no entry for that template.  As a
    sequence, a FeatureColumns is its rows, as :class:`FeatureRow` views.
    """

    templates: tuple[str, ...]
    columns: tuple[Sequence[str | None], ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.templates):
            raise ValueError("one column per template is needed")
        n_rows = sum(self.lengths)
        if any(len(c) != n_rows for c in self.columns):
            raise ValueError("columns not aligned to the sentence lengths")

    @classmethod
    def from_rows(cls, rows: Sequence[FeatureVector]) -> "FeatureColumns":
        """One sentence given as per-position entry lists of any arity.

        The k-th entry of template t in a row goes to the k-th column of
        t; columns are ordered by first appearance, and rows without the
        entry hold None there.
        """
        index: dict[tuple[str, int], int] = {}
        templates: list[str] = []
        columns: list[list[str | None]] = []
        for r, fv in enumerate(rows):
            occurrences: dict[str, int] = {}
            for template_id, value in fv:
                k = occurrences.get(template_id, 0)
                occurrences[template_id] = k + 1
                j = index.setdefault((template_id, k), len(columns))
                if j == len(columns):
                    templates.append(template_id)
                    columns.append([None] * len(rows))
                columns[j][r] = value
        return cls(tuple(templates), tuple(columns), (len(rows),))

    def __len__(self) -> int:
        return sum(self.lengths)

    def __getitem__(self, r: int) -> "FeatureRow":
        return FeatureRow(self.templates, tuple(c[r] for c in self.columns))

    def __iter__(self) -> Iterator["FeatureRow"]:
        if not self.columns:
            return (FeatureRow((), ()) for _ in range(len(self)))
        return (FeatureRow(self.templates, values) for values in zip(*self.columns))

    def sentences(self) -> list["FeatureColumns"]:
        """One FeatureColumns per sentence."""
        out = []
        start = 0
        for n in self.lengths:
            out.append(FeatureColumns(self.templates, tuple(c[start : start + n] for c in self.columns), (n,)))
            start += n
        return out


class FeatureRow(Sequence[FeatureEntry]):
    """One row of a FeatureColumns as a read-only feature vector: its
    (template-id, value) entries in template order, formed only when the
    row is read."""

    __slots__ = ("_templates", "_values")

    def __init__(self, templates: tuple[str, ...], values: tuple[str | None, ...]):
        self._templates = templates
        self._values = values

    def _entries(self) -> FeatureVector:
        return [(t, v) for t, v in zip(self._templates, self._values) if v is not None]

    def __len__(self) -> int:
        return len(self._values) - self._values.count(None)

    def __getitem__(self, i):
        return self._entries()[i]

    def __iter__(self) -> Iterator[FeatureEntry]:
        return iter(self._entries())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FeatureRow, list, tuple)):
            return self._entries() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FeatureRow({self._entries()!r})"


def as_columns(features: FeatureColumns | Sequence[FeatureVector]) -> FeatureColumns:
    """One sequence's features as columns holding a single sentence."""
    if not isinstance(features, FeatureColumns):
        return FeatureColumns.from_rows(features)
    if len(features.lengths) == 1:
        return features
    return FeatureColumns(features.templates, features.columns, (len(features),))


def _merge_runs(runs: Sequence[FeatureColumns]) -> list[FeatureColumns]:
    """Consecutive runs with the same templates joined into one block."""
    blocks = []
    for templates, group in itertools.groupby(runs, key=lambda run: run.templates):
        group = list(group)
        if len(group) == 1:
            blocks.append(group[0])
            continue
        columns = tuple(
            list(itertools.chain.from_iterable(run.columns[j] for run in group)) for j in range(len(templates))
        )
        blocks.append(FeatureColumns(templates, columns, tuple(n for run in group for n in run.lengths)))
    return blocks


@dataclass(frozen=True)
class TrainingInstance:
    """One sentence's features (columns, or per-position entry lists)
    plus its gold BMES labels."""

    features: FeatureColumns | Sequence[FeatureVector]
    gold: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        if len(self.features) != len(self.gold):
            raise ValueError(f"instance {self.source_id!r}: features/gold length mismatch")
        if not self.gold:
            raise ValueError(f"instance {self.source_id!r}: empty sequence")


class FeatureRegistry:
    """Dense ids for emission and transition weights.

    One dictionary per template maps a value to its slot.  Each slot owns
    a block of four consecutive emission weights, one per label; the 16
    transition weights sit after all emission blocks.  The id ``n_slots``
    stands for any unregistered value.  The registry freezes when
    training begins.
    """

    def __init__(self) -> None:
        self._slots: dict[str, dict[str, int]] = {}
        self.n_slots = 0
        self.frozen = False

    @property
    def n_weights(self) -> int:
        return self.n_slots * N_LABELS + N_LABELS * N_LABELS

    def add(self, template_id: str, value: str) -> int:
        if self.frozen:
            raise ValueError("registry is frozen")
        values = self._slots.setdefault(template_id, {})
        if value not in values:
            values[value] = self.n_slots
            self.n_slots += 1
        return values[value]

    def slot(self, template_id: str, value: str) -> int | None:
        values = self._slots.get(template_id)
        return None if values is None else values.get(value)

    def emission_index(self, template_id: str, value: str, label: str) -> int | None:
        s = self.slot(template_id, value)
        if s is None:
            return None
        return s * N_LABELS + _LABEL_INDEX[label]

    def transition_index(self, prev_label: str, label: str) -> int:
        return (
            self.n_slots * N_LABELS
            + _LABEL_INDEX[prev_label] * N_LABELS
            + _LABEL_INDEX[label]
        )

    def slot_items(self) -> list[tuple[tuple[str, str], int]]:
        """Every registered pair with its slot, in slot order."""
        items = [((t, v), s) for t, values in self._slots.items() for v, s in values.items()]
        items.sort(key=lambda item: item[1])
        return items

    def compile(self, runs: Sequence[FeatureColumns]) -> np.ndarray:
        """Slot ids of the runs' rows, one row of the result per template.

        Runs with the same templates are compiled as one block, each
        column through its template's dictionary; a block with fewer
        templates than the widest leaves the sentinel in the rest.
        """
        blocks = _merge_runs(runs)
        width = max((len(b.templates) for b in blocks), default=0)
        ids = np.full((width, sum(len(b) for b in blocks)), self.n_slots, dtype=np.intp)
        start = 0
        for block in blocks:
            n = len(block)
            for j, (template_id, column) in enumerate(zip(block.templates, block.columns)):
                values = self._slots.get(template_id)
                if values:
                    found = map(values.get, column, itertools.repeat(self.n_slots))
                    ids[j, start : start + n] = np.fromiter(found, dtype=np.intp, count=n)
            start += n
        return ids

    @classmethod
    def from_slot_list(cls, pairs: Sequence[tuple[str, str]]) -> "FeatureRegistry":
        reg = cls()
        for slot, (template_id, value) in enumerate(pairs):
            values = reg._slots.setdefault(template_id, {})
            if values.setdefault(value, slot) != slot:
                raise ValueError(f"slot list holds ({template_id!r}, {value!r}) twice")
        reg.n_slots = len(pairs)
        reg.frozen = True
        return reg


class CrfModel:
    """A trained (or zero-initialized) CRF: registry plus weight vector.

    Replace ``weights`` as a whole rather than writing into it: the
    decoding table derived from it is rebuilt on assignment.
    """

    def __init__(
        self,
        registry: FeatureRegistry,
        weights: np.ndarray,
        config: TrainConfig = TrainConfig(),
        manifest: dict | None = None,
    ):
        if len(weights) != registry.n_weights:
            raise ValueError("weight vector length does not match registry")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.registry = registry
        self.weights = weights
        self.config = config
        self.manifest = dict(manifest or {})

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @weights.setter
    def weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)
        self._table: np.ndarray | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return LABELS

    def _emission_weights(self) -> np.ndarray:
        return self.weights[: self.registry.n_slots * N_LABELS].reshape(-1, N_LABELS)

    def _transition_weights(self) -> np.ndarray:
        return self.weights[self.registry.n_slots * N_LABELS :].reshape(N_LABELS, N_LABELS)

    def _emission_table(self) -> np.ndarray:
        """Emission weights with a zero row for the sentinel slot id."""
        if self._table is None:
            self._table = np.vstack([self._emission_weights(), np.zeros((1, N_LABELS))])
        return self._table

    def _scores(self, runs: Sequence[FeatureColumns]):
        batch = PackedBatch(
            self.registry.compile(runs), [n for run in runs for n in run.lengths], self.registry.n_slots
        )
        return batch, batch.emissions(self._emission_table()), self._transition_weights()

    def _label_ids(self, runs: Sequence[FeatureColumns]) -> np.ndarray:
        batch, e, w_t = self._scores(runs)
        return batch.natural(batch.viterbi(e, w_t))

    def score_sequence(self, features: Sequence[FeatureVector], labels: Sequence[str]) -> float:
        """Linear score of one labeling: emissions plus transitions."""
        if len(features) != len(labels):
            raise ValueError("features and labels differ in length")
        _, e, w_t = self._scores([as_columns(features)])
        idx = [_LABEL_INDEX[lab] for lab in labels]
        score = float(e[np.arange(len(idx)), idx].sum())
        score += float(sum(w_t[idx[t], idx[t + 1]] for t in range(len(idx) - 1)))
        return score

    def decode(self, columns: FeatureColumns) -> list[str]:
        """Labels of every row of a run of sentences, in row order, each
        sentence decoded as by :meth:`viterbi`, all in one packed pass."""
        return _LABEL_NAMES[self._label_ids([columns])].tolist()

    def viterbi_batch(self, sentences: Sequence[Sequence[FeatureVector]]) -> list[list[str]]:
        """Highest-scoring labeling of every sentence, decoded in one
        packed pass; see :meth:`PackedBatch.viterbi` for the tie rule."""
        runs = [as_columns(s) for s in sentences]
        labels = _LABEL_NAMES[self._label_ids(runs)]
        bounds = np.cumsum([len(run) for run in runs])[:-1]
        return [seq.tolist() for seq in np.split(labels, bounds)]

    def viterbi(self, features: Sequence[FeatureVector]) -> list[str]:
        """Highest-scoring labeling; ties resolve to the lexicographically
        smallest sequence under B < M < E < S."""
        return self.viterbi_batch([features])[0]

    def log_partition(self, features: Sequence[FeatureVector]) -> float:
        batch, e, w_t = self._scores([as_columns(features)])
        return float(batch.forward_backward(e, w_t)[0][0])

    def marginals(self, features: Sequence[FeatureVector]) -> np.ndarray:
        """Per-position posterior over labels, each row summing to one."""
        batch, e, w_t = self._scores([as_columns(features)])
        # one sequence packs to its own position order
        return batch.forward_backward(e, w_t)[1]

    def save(self, path: str | Path) -> None:
        """Versioned container; round-trips bit-exactly.

        Equal strings of the slot list are written once and referenced
        after that, so the bytes depend on the registry's content alone,
        not on which of its strings happen to be one object in memory.
        """
        shared: dict[str, str] = {}
        slots = [[shared.setdefault(t, t), shared.setdefault(v, v)] for (t, v), _ in self.registry.slot_items()]
        payload = {
            "format": "patseg-crf",
            "version": _FORMAT_VERSION,
            "labels": list(LABELS),
            "slots": slots,
            "weights": self.weights,
            "config": {
                "l2": self.config.l2,
                "max_iterations": self.config.max_iterations,
                "tolerance": self.config.tolerance,
                "feature_cutoff": self.config.feature_cutoff,
            },
            "manifest": self.manifest,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=_PICKLE_PROTOCOL)

    @classmethod
    def load(cls, path: str | Path) -> "CrfModel":
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if payload.get("format") != "patseg-crf":
            raise ValueError(f"{path} is not a model file")
        if payload.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')}")
        if tuple(payload["labels"]) != LABELS:
            raise ValueError("model label set mismatch")
        registry = FeatureRegistry.from_slot_list(payload["slots"])
        config = TrainConfig(**payload["config"])
        return cls(registry, payload["weights"], config, payload.get("manifest"))


class PackedBatch:
    """Sequences packed time-major, the one layout every CRF pass runs on.

    Sequences are stably sorted longest first, so the ones still running
    at step ``t`` are a prefix of the batch.  Position ``t`` of the
    ``s``-th sorted sequence is row ``offset[t] + s``: step ``t`` owns the
    contiguous rows ``offset[t] : offset[t] + active[t]``, and row
    ``offset[t] + s`` continues row ``offset[t - 1] + s`` (the layout of
    PyTorch's PackedSequence).  Every array has one row per position, so
    memory is O(sum of lengths) however long the longest sequence is.

    ``ids`` are the compiled slot ids (templates by rows, see
    :meth:`FeatureRegistry.compile`) with the rows in packed order;
    ``rows[p]`` is the input-order row of packed row ``p``.  With
    ``gold`` labels (one per input-order row) the batch also holds the
    empirical feature counts the training objective needs.
    """

    def __init__(
        self,
        ids: np.ndarray,
        lengths: Sequence[int],
        n_slots: int,
        gold: np.ndarray | None = None,
    ):
        in_order = np.asarray(lengths, dtype=np.intp)
        if len(in_order) == 0:
            raise ValueError("cannot pack an empty batch")
        self.n = len(in_order)
        self.order = np.argsort(-in_order, kind="stable")
        self.lengths = in_order[self.order]
        if self.lengths[-1] == 0:
            raise ValueError("cannot decode an empty sequence")
        self.l_max = int(self.lengths[0])
        steps = np.arange(1, self.l_max + 1)
        self.active = np.searchsorted(-self.lengths, -steps, side="right")
        self.offset = np.concatenate(([0], np.cumsum(self.active)[:-1]))
        self.n_rows = int(self.lengths.sum())
        # row offset[t] + s (t >= 1) continues row offset[t - 1] + s
        self.prev_rows = np.arange(self.n, self.n_rows) - np.repeat(self.active[:-1], self.active[1:])
        self.seq_of_row = np.arange(self.n_rows) - np.repeat(self.offset, self.active)
        starts = np.cumsum(in_order) - in_order
        self.rows = starts[self.order][self.seq_of_row] + np.repeat(np.arange(self.l_max), self.active)
        self.n_slots = n_slots
        self.ids = ids[:, self.rows]

        if gold is not None:
            labels = gold[self.rows]
            one_hot = np.eye(N_LABELS)[labels]
            pairs = labels[self.prev_rows] * N_LABELS + labels[self.n :]
            self.empirical = np.concatenate(
                [
                    (self.features.T @ one_hot).ravel(),
                    np.bincount(pairs, minlength=N_LABELS * N_LABELS).astype(np.float64),
                ]
            )

    @cached_property
    def features(self):
        """Slot occurrences as a rows-by-slots sparse matrix, each row's
        entries in template order: emission scores are ``features @ w_e``
        and expected emission counts ``features.T @ gamma``."""
        by_row = self.ids.T
        present = by_row != self.n_slots
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
        indices = by_row[present]
        return scipy.sparse.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(self.n_rows, self.n_slots)
        )

    def natural(self, packed: np.ndarray) -> np.ndarray:
        """Packed rows back in input order, sequence after sequence."""
        out = np.empty_like(packed)
        out[self.rows] = packed
        return out

    def _step_tables(self) -> tuple[memoryview, memoryview]:
        # indexing a memoryview yields Python ints, which slice faster than
        # NumPy scalars, and unlike lists of ints they take 8 bytes a step
        return memoryview(self.offset), memoryview(self.active)

    def emissions(self, table: np.ndarray) -> np.ndarray:
        """Emission scores of every row: the ``table`` rows of its slot
        ids summed in template order, ``table`` being the emission weights
        with a zero row for the sentinel.  The sum runs over the same
        terms in the same order as ``features @ w_e``."""
        e = np.zeros((self.n_rows, N_LABELS))
        gathered = np.empty_like(e)
        for ids in self.ids:
            e += np.take(table, ids, axis=0, out=gathered)
        return e

    def forward_backward(self, e: np.ndarray, w_t: np.ndarray):
        """Scaled forward-backward over all rows.

        Works on ``exp(e - rowmax)`` and ``exp(w_t - max(w_t))``, so no
        factor exceeds one, and renormalizes every alpha and beta row to
        sum to one, so no product can overflow however long the sequence.
        ``log Z`` is recovered as the sum of the log row scales plus the
        subtracted maxima.  A row scale is at least
        ``exp(min(w_t) - max(w_t)) / 4``, so it underflows to zero only
        when transition weights span hundreds of nats, and the caller
        then reports a non-finite log Z or gradient.

        Returns log Z per sorted sequence, the posterior marginals
        (rows x labels) and the expected transition counts summed over
        the batch (labels x labels).
        """
        shift = e.max(axis=1)
        emit = np.exp(e - shift[:, None])
        t_shift = w_t.max()
        trans = np.exp(w_t - t_shift)
        alpha = np.empty_like(emit)
        scale = np.empty(self.n_rows)
        n = self.n
        # per step, np.dot beats @ and .sum on arrays this small
        ones = np.ones(N_LABELS)
        scale[:n] = emit[:n].sum(axis=1)
        alpha[:n] = emit[:n] / scale[:n, None]
        offset, active = self._step_tables()
        for t in range(1, self.l_max):
            prev_lo, lo, k = offset[t - 1], offset[t], active[t]
            a = np.dot(alpha[prev_lo : prev_lo + k], trans) * emit[lo : lo + k]
            c = np.dot(a, ones)
            scale[lo : lo + k] = c
            alpha[lo : lo + k] = a / c[:, None]
        log_z = np.bincount(self.seq_of_row, np.log(scale) + shift, minlength=n)
        log_z += (self.lengths - 1) * t_shift

        # rows that end a sequence keep beta = 1
        beta = np.ones_like(emit)
        trans_t = trans.T.copy()  # contiguous: a transposed view takes a slower matmul path
        for t in range(self.l_max - 2, -1, -1):
            lo, next_lo, k = offset[t], offset[t + 1], active[t + 1]
            b = np.dot(emit[next_lo : next_lo + k] * beta[next_lo : next_lo + k], trans_t)
            beta[lo : lo + k] = b / np.dot(b, ones)[:, None]

        gamma = alpha * beta
        norm = gamma.sum(axis=1)
        gamma /= norm[:, None]
        # xi for the pair (prev row, row) is alpha_prev(i) trans(i, j)
        # emit(j) beta(j), whose total is scale * norm at the row
        later = emit[n:] * beta[n:] / (scale[n:] * norm[n:])[:, None]
        xi = trans * (alpha[self.prev_rows].T @ later)
        return log_z, gamma, xi

    def viterbi(self, e: np.ndarray, w_t: np.ndarray) -> np.ndarray:
        """Packed label ids of each sequence's highest-scoring labeling.

        Ties resolve to the lexicographically smallest sequence under
        B < M < E < S: the max recursion runs backward and the labels are
        read out forward, each step taking the first label that still
        attains the optimum.  Breaking ties at backpointers instead would
        minimize late positions rather than early ones.
        """
        best = e.copy()
        offset, active = self._step_tables()
        for t in range(self.l_max - 2, -1, -1):
            lo, next_lo, k = offset[t], offset[t + 1], active[t + 1]
            best[lo : lo + k] += (w_t + best[next_lo : next_lo + k, None, :]).max(axis=2)
        labels = np.empty(self.n_rows, dtype=np.intp)
        labels[: self.n] = best[: self.n].argmax(axis=1)
        for t in range(1, self.l_max):
            prev_lo, lo, k = offset[t - 1], offset[t], active[t]
            labels[lo : lo + k] = (w_t[labels[prev_lo : prev_lo + k]] + best[lo : lo + k]).argmax(axis=1)
        return labels


def _training_batch(registry: FeatureRegistry, instances: Sequence[TrainingInstance]) -> PackedBatch:
    runs = [as_columns(inst.features) for inst in instances]
    gold = np.fromiter((_LABEL_INDEX[lab] for inst in instances for lab in inst.gold), dtype=np.intp)
    return PackedBatch(registry.compile(runs), [len(inst.gold) for inst in instances], registry.n_slots, gold)


def log_likelihood_and_gradient(
    model: CrfModel, instances: Sequence[TrainingInstance], batch: PackedBatch | None = None
) -> tuple[float, np.ndarray]:
    """L2-regularized mean log-likelihood of the gold labelings, with its
    exact gradient (expected minus empirical counts, plus the regularizer,
    all negated into maximization form)."""
    registry = model.registry
    if batch is None:
        batch = _training_batch(registry, instances)
    w = model.weights
    log_z, gamma, xi = batch.forward_backward(
        batch.features @ model._emission_weights(), model._transition_weights()
    )
    if not np.all(np.isfinite(log_z)):
        bad = batch.order[int(np.flatnonzero(~np.isfinite(log_z))[0])]
        raise TrainingError(f"non-finite partition function for instance {instances[bad].source_id!r}")
    expected = np.concatenate([(batch.features.T @ gamma).ravel(), xi.ravel()])

    n = batch.n
    gold_score = float(w @ batch.empirical)
    log_likelihood = (gold_score - float(log_z.sum())) / n
    l2 = model.config.l2
    objective = log_likelihood - 0.5 * l2 * float(w @ w)
    gradient = (batch.empirical - expected) / n - l2 * w
    if not (np.isfinite(objective) and np.all(np.isfinite(gradient))):
        raise TrainingError("non-finite objective or gradient")
    return objective, gradient


def build_registry(instances: Sequence[TrainingInstance], feature_cutoff: int = 1) -> FeatureRegistry:
    """Register every (template-id, value) pair seen at least
    ``feature_cutoff`` times, in first-seen order: rows in instance
    order, the entries of a row in template order.

    Works a column at a time: the first row of each value comes from one
    dictionary built over its column, keyed ``row * width + entry``.
    """
    blocks = _merge_runs([as_columns(inst.features) for inst in instances])
    width = max((len(b.templates) for b in blocks), default=0)
    first: dict[str, dict[str, int]] = {}
    counts: dict[str, Counter] = {}
    start = 0
    for block in blocks:
        n = len(block)
        for j, (template_id, column) in enumerate(zip(block.templates, block.columns)):
            keys = range(start * width + j, (start + n) * width, width)
            # built back to front, so every value keeps its first key
            seen = dict(zip(reversed(column), reversed(keys)))
            seen.pop(None, None)
            for value, key in first.get(template_id, {}).items():
                if seen.get(value, key) >= key:
                    seen[value] = key
            first[template_id] = seen
            if feature_cutoff > 1:
                counts.setdefault(template_id, Counter()).update(column)
        start += n

    if feature_cutoff > 1:
        first = {
            t: {v: key for v, key in seen.items() if counts[t][v] >= feature_cutoff}
            for t, seen in first.items()
        }
    keys = [np.fromiter(seen.values(), dtype=np.int64, count=len(seen)) for seen in first.values()]
    flat = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    slots = np.empty(len(flat), dtype=np.intp)
    slots[np.argsort(flat, kind="stable")] = np.arange(len(flat))
    registry = FeatureRegistry()
    lo = 0
    for template_id, seen in first.items():
        registry._slots[template_id] = dict(zip(seen, slots[lo : lo + len(seen)].tolist()))
        lo += len(seen)
    registry.n_slots = len(flat)
    registry.frozen = True
    return registry


def train(
    instances: Sequence[TrainingInstance],
    config: TrainConfig = TrainConfig(),
    manifest: dict | None = None,
) -> CrfModel:
    """Fit weights by maximizing the regularized mean log-likelihood.

    Deterministic: the registry is built in instance order, the start
    point is zero, and L-BFGS-B stops on relative objective change below
    ``config.tolerance`` or after ``config.max_iterations`` iterations.
    How it stopped is recorded under ``manifest["optimizer"]``.
    """
    if not instances:
        raise TrainingError("no training instances")
    registry = build_registry(instances, config.feature_cutoff)
    model = CrfModel(registry, np.zeros(registry.n_weights), config, manifest)
    batch = _training_batch(registry, instances)

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        model.weights = w
        obj, grad = log_likelihood_and_gradient(model, instances, batch)
        return -obj, -grad

    result = scipy.optimize.minimize(
        negated,
        np.zeros(registry.n_weights),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": config.max_iterations,
            "ftol": config.tolerance,
            "gtol": 1e-12,
            "maxcor": 10,
        },
    )
    weights = np.asarray(result.x, dtype=np.float64)
    if not np.all(np.isfinite(weights)):
        raise TrainingError("optimizer returned non-finite weights")
    model.weights = weights
    # no wall times here: a rerun must write a byte-identical model
    model.manifest["optimizer"] = {
        "nit": int(result.nit),
        "nfev": int(result.nfev),
        "message": str(result.message),
        "converged": bool(result.success),
    }
    return model
