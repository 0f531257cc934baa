"""Linear-chain CRF over BMES labels.

Feature semantics follow the usual CRF-toolkit convention: every discrete
(template-id, value) pair observed in training is crossed with all four
output labels to form indicator weights, plus the 16 label-to-label
transition weights.  Unseen feature values score 0 at test time.

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

Viterbi ties are broken toward the lexicographically smallest sequence
under the label order B < M < E < S at the earliest differing position.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.optimize
import scipy.sparse

from .char_features import FeatureVector
from .corpus import LABELS

N_LABELS = len(LABELS)
_LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}

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
class TrainingInstance:
    """Per-position feature vectors plus the gold BMES labels."""

    features: tuple[FeatureVector, ...]
    gold: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        if len(self.features) != len(self.gold):
            raise ValueError(f"instance {self.source_id!r}: features/gold length mismatch")
        if not self.features:
            raise ValueError(f"instance {self.source_id!r}: empty sequence")


class FeatureRegistry:
    """Dense ids for emission and transition weights.

    Each registered (template-id, value) pair owns a block of four
    consecutive emission weights, one per label; the 16 transition
    weights sit after all emission blocks.  The registry freezes when
    training begins.
    """

    def __init__(self) -> None:
        self._slots: dict[tuple[str, str], int] = {}
        self.frozen = False

    @property
    def n_slots(self) -> int:
        return len(self._slots)

    @property
    def n_weights(self) -> int:
        return self.n_slots * N_LABELS + N_LABELS * N_LABELS

    def add(self, template_id: str, value: str) -> int:
        if self.frozen:
            raise ValueError("registry is frozen")
        key = (template_id, value)
        if key not in self._slots:
            self._slots[key] = len(self._slots)
        return self._slots[key]

    def slot(self, template_id: str, value: str) -> int | None:
        return self._slots.get((template_id, value))

    def slots_of(self, fv: FeatureVector) -> list[int]:
        """Slots of a feature vector's registered entries, in entry order."""
        get = self._slots.get
        return [s for s in map(get, fv) if s is not None]

    def emission_index(self, template_id: str, value: str, label: str) -> int | None:
        s = self._slots.get((template_id, value))
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
        return list(self._slots.items())

    @classmethod
    def from_slot_list(cls, pairs: Sequence[tuple[str, str]]) -> "FeatureRegistry":
        reg = cls()
        for template_id, value in pairs:
            reg.add(template_id, value)
        reg.frozen = True
        return reg


class CrfModel:
    """A trained (or zero-initialized) CRF: registry plus weight vector."""

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
        self.weights = np.asarray(weights, dtype=np.float64)
        self.config = config
        self.manifest = dict(manifest or {})

    @property
    def labels(self) -> tuple[str, ...]:
        return LABELS

    def _emission_weights(self) -> np.ndarray:
        return self.weights[: self.registry.n_slots * N_LABELS].reshape(-1, N_LABELS)

    def _transition_weights(self) -> np.ndarray:
        return self.weights[self.registry.n_slots * N_LABELS :].reshape(N_LABELS, N_LABELS)

    def _scores(self, sentences: Sequence[Sequence[FeatureVector]]):
        batch = PackedBatch(self.registry, sentences)
        return batch, batch.emissions(self._emission_weights()), self._transition_weights()

    def score_sequence(self, features: Sequence[FeatureVector], labels: Sequence[str]) -> float:
        """Linear score of one labeling: emissions plus transitions."""
        if len(features) != len(labels):
            raise ValueError("features and labels differ in length")
        _, e, w_t = self._scores([features])
        idx = [_LABEL_INDEX[lab] for lab in labels]
        score = float(e[np.arange(len(idx)), idx].sum())
        score += float(sum(w_t[idx[t], idx[t + 1]] for t in range(len(idx) - 1)))
        return score

    def viterbi_batch(self, sentences: Sequence[Sequence[FeatureVector]]) -> list[list[str]]:
        """Highest-scoring labeling of every sentence, decoded in one
        packed pass; see :meth:`PackedBatch.viterbi` for the tie rule."""
        batch, e, w_t = self._scores(sentences)
        return [[LABELS[i] for i in seq.tolist()] for seq in batch.unpack(batch.viterbi(e, w_t))]

    def viterbi(self, features: Sequence[FeatureVector]) -> list[str]:
        """Highest-scoring labeling; ties resolve to the lexicographically
        smallest sequence under B < M < E < S."""
        return self.viterbi_batch([features])[0]

    def log_partition(self, features: Sequence[FeatureVector]) -> float:
        batch, e, w_t = self._scores([features])
        return float(batch.forward_backward(e, w_t)[0][0])

    def marginals(self, features: Sequence[FeatureVector]) -> np.ndarray:
        """Per-position posterior over labels, each row summing to one."""
        batch, e, w_t = self._scores([features])
        # one sequence packs to its own position order
        return batch.forward_backward(e, w_t)[1]

    def save(self, path: str | Path) -> None:
        """Versioned container; round-trips bit-exactly."""
        payload = {
            "format": "patseg-crf",
            "version": _FORMAT_VERSION,
            "labels": list(LABELS),
            "slots": [list(key) for key, _ in self.registry.slot_items()],
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
        registry = FeatureRegistry.from_slot_list([tuple(p) for p in payload["slots"]])
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

    Slot occurrences are a rows-by-slots sparse matrix: emission scores
    are ``features @ w_e`` and expected emission counts
    ``features.T @ gamma``.  With ``gold`` labelings the batch also
    holds the empirical feature counts the training objective needs.
    """

    def __init__(
        self,
        registry: FeatureRegistry,
        sequences: Sequence[Sequence[FeatureVector]],
        gold: Sequence[Sequence[str]] | None = None,
    ):
        if not sequences:
            raise ValueError("cannot pack an empty batch")
        self.n = len(sequences)
        self.order = sorted(range(self.n), key=lambda i: (-len(sequences[i]), i))
        self.lengths = np.array([len(sequences[i]) for i in self.order], dtype=np.intp)
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

        by_length = [sequences[i] for i in self.order]
        indices: list[int] = []
        indptr = [0]
        for t, k in enumerate(self.active.tolist()):
            for seq in by_length[:k]:
                indices.extend(registry.slots_of(seq[t]))
                indptr.append(len(indices))
        self.features = scipy.sparse.csr_matrix(
            (np.ones(len(indices)), np.asarray(indices, dtype=np.intp), np.asarray(indptr, dtype=np.intp)),
            shape=(self.n_rows, registry.n_slots),
        )

        if gold is not None:
            labels = np.empty(self.n_rows, dtype=np.intp)
            for s, i in enumerate(self.order):
                labels[self.offset[: len(gold[i])] + s] = [_LABEL_INDEX[lab] for lab in gold[i]]
            one_hot = np.eye(N_LABELS)[labels]
            pairs = labels[self.prev_rows] * N_LABELS + labels[self.n :]
            self.empirical = np.concatenate(
                [
                    (self.features.T @ one_hot).ravel(),
                    np.bincount(pairs, minlength=N_LABELS * N_LABELS).astype(np.float64),
                ]
            )

    def unpack(self, packed: np.ndarray) -> list[np.ndarray]:
        """Packed rows back to one array per sequence, in input order."""
        out: list[np.ndarray] = [np.empty(0)] * self.n
        for s, (i, length) in enumerate(zip(self.order, self.lengths.tolist())):
            out[i] = packed[self.offset[:length] + s]
        return out

    def _step_tables(self) -> tuple[memoryview, memoryview]:
        # indexing a memoryview yields Python ints, which slice faster than
        # NumPy scalars, and unlike lists of ints they take 8 bytes a step
        return memoryview(self.offset), memoryview(self.active)

    def emissions(self, w_e: np.ndarray) -> np.ndarray:
        return self.features @ w_e

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
    return PackedBatch(registry, [inst.features for inst in instances], [inst.gold for inst in instances])


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
        batch.emissions(model._emission_weights()), model._transition_weights()
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
    ``feature_cutoff`` times, in first-seen order."""
    registry = FeatureRegistry()
    if feature_cutoff <= 1:
        for inst in instances:
            for fv in inst.features:
                for template_id, value in fv:
                    registry.add(template_id, value)
    else:
        counts: dict[tuple[str, str], int] = {}
        for inst in instances:
            for fv in inst.features:
                for key in fv:
                    counts[key] = counts.get(key, 0) + 1
        for key, c in counts.items():
            if c >= feature_cutoff:
                registry.add(*key)
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
