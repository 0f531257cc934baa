"""Linear-chain CRF over BMES labels.

Feature semantics follow the usual CRF-toolkit convention: every discrete
(template-id, value) pair observed in training is crossed with all four
output labels to form indicator weights, plus the 16 label-to-label
transition weights.  Unseen feature values score 0 at test time.

Features reach the CRF in one form, :class:`FeatureColumns`: for a run of
sentences, one coded column per template, row ``r`` of every column
being one character position.  A template names one column of a run,
never two.  A coded column is a table of distinct values plus one
integer code per row; feature extraction builds one table per template
and document.  A :class:`TrainingInstance` is one document: its
columns and the gold label of every row.  The :class:`FeatureRegistry`
keeps one value-to-slot dictionary per template
(CRFsuite's attribute dictionaries), each template owning one contiguous
range of slots; it is built once from the training instances, looking
up each distinct value of a table once, and only read after that.
Compiling a batch maps each table through its template's dictionary
once and indexes the result with the codes, giving a templates-by-rows
matrix of integer slot ids in which the sentinel id ``n_slots`` stands
for every unregistered value.  No value is looked up per position when
training or decoding.

Training maximizes the L2-regularized log-likelihood, averaged over the
sentences of all instances (each sentence is labeled independently),
with exact gradients from forward-backward.  The optimizer is
:mod:`patseg.lbfgs`, a numpy L-BFGS that takes L-BFGS-B's path without
bounds (Liu and Nocedal 1989; Sha and Pereira 2003 for CRFs), with
deterministic behavior: identical data and config reproduce
bit-identical weights at a fixed BLAS thread count.  Under another
thread count the weights can differ in their last bits (ROADMAP.md
item 10).  The settings, :class:`~patseg.config.TrainConfig`,
and :class:`~patseg.config.TrainingError` live in :mod:`patseg.config`,
so that a command reads its configuration without loading this module;
both names are imported here too.

Training and decoding share one core, :class:`PackedBatch`: a batch of
sequences whose rows are the positions in input order, sequence after
sequence, so memory is O(sum of lengths), not O(sequences x longest).
Over those rows run the only forward-backward (scaled domain,
renormalized at every step, so sequences of any length cannot overflow)
and the only Viterbi (additive max-product in the log domain).
:meth:`CrfModel.viterbi`, :meth:`CrfModel.marginals` and
:meth:`CrfModel.log_partition` take the columns of a whole run and put
all of its sentences into one batch.

Each pass is a linear recursion whose steps are 4x4 matrices, and
composing steps is associative (Blelloch's prefix sums; Sarkka and
Garcia-Fernandez's parallel forward-backward).  So a pass is not run one
position at a time but as a chunked scan: every sequence is cut into
chunks of ``ceil(sqrt(l_max))`` positions, and one scan driver runs three
phases over a chunk plan built once per batch.  (1) For every in-chunk
offset, one batched step extends the prefix products of all chunks of
all sequences at once.  (2) For every chunk index, one batched step
carries the state across the chunk boundary of every sequence that
reaches it.  (3) Every row's state is its chunk's carry applied to its
prefix, in one vectorized product.  A pass thus takes about
``2 sqrt(l_max)`` Python steps, not ``l_max``.  Alpha and beta scan in
the sum-product semiring, renormalized at every step; Viterbi's best
continuation scores in max-plus; and its read-out composes the integer
maps "previous label -> label", which is exact, so ties among the best
scores break as they would step by step.  Prefixes take 16 floats per
position and carries one state per (chunk, sequence) reached, so memory
stays O(positions).

Decoding scores positions by a gather-sum over the slot-id matrix: the
emission weights with a zero row appended for the sentinel, gathered
template by template.  Training, which scores the same batch once per
optimizer step, multiplies a sparse rows-by-slots matrix built from the
same ids instead; both sum the same terms in the same order.  Only
training uses ``scipy.sparse``, for those products, and
``scipy.optimize``, whose ``minimize`` only hands the run to the numpy
loop as a custom ``method`` (benchmark tooling wraps that name to read
the iteration count).  The module imports the bare ``scipy`` package,
which loads submodules on first use, so decoding loads neither.

A model file holds data only.  One JSON header line holds the format,
version (3) and labels and, for the model and then the source model a
``transit`` model reads, each template's values in slot order, the
training config and the manifest.  After it come each model's weights as
little-endian float64.  No slot ids are stored: templates own contiguous
slot ranges in header order, so the slot of a template's ``k``-th value
is ``k`` plus the number of values listed before the template.  Loading
checks every part, so a damaged or hostile file is refused and nothing
in it runs.

Viterbi breaks ties between labelings whose scores are equal in floating
point toward the lexicographically smallest sequence under the label
order B < M < E < S at the earliest differing position.  Scores that are
equal only in exact arithmetic may differ in their last bits, depending
on the order in which the scan sums them, and the higher one wins.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy

from . import lbfgs
from .config import TrainConfig, TrainingError
from .corpus import LABELS, atomic_write

N_LABELS = len(LABELS)
_LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
_LABEL_NAMES = np.array(LABELS, dtype=object)

_FORMAT = "patseg-crf"
_FORMAT_VERSION = 3


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Feature values of a run of sentences, one coded column per template.

    Column ``j`` is a table of distinct values, ``tables[j]``, and one
    code per row, ``codes[j]``: row ``r`` holds ``tables[j][codes[j, r]]``,
    and a ``None`` entry means the row has no entry for that template.
    ``codes`` is templates by rows; rows run through the sentences in
    order, ``lengths[s]`` rows for sentence ``s``.  A template names one
    column: a run naming a template twice is refused.  Columns may share
    a table object, and the sentences cut from one run share its tables.
    Iterating yields each row as a list of (template-id, value) pairs in
    template order.
    """

    templates: tuple[str, ...]
    tables: tuple[Sequence[str | None], ...]
    codes: np.ndarray
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tables) != len(self.templates):
            raise ValueError("one table per template is needed")
        if self.codes.shape != (len(self.templates), sum(self.lengths)):
            raise ValueError("codes must be templates by rows, aligned to the sentence lengths")
        if len(set(self.templates)) != len(self.templates):
            repeated = next(t for t in self.templates if self.templates.count(t) > 1)
            raise ValueError(f"template {repeated!r} names more than one column")

    def __len__(self) -> int:
        return sum(self.lengths)

    def values(self) -> list[list[str | None]]:
        """Every column's values, row by row."""
        return [list(map(table.__getitem__, codes.tolist())) for table, codes in zip(self.tables, self.codes)]

    def __iter__(self) -> Iterator[list[tuple[str, str]]]:
        templates = self.templates
        rows = zip(*self.values()) if self.templates else itertools.repeat((), len(self))
        return ([(t, v) for t, v in zip(templates, values) if v is not None] for values in rows)

    def sentences(self) -> list["FeatureColumns"]:
        """One FeatureColumns per sentence, sharing this run's tables."""
        out = []
        start = 0
        for n in self.lengths:
            out.append(FeatureColumns(self.templates, self.tables, self.codes[:, start : start + n], (n,)))
            start += n
        return out


@dataclass(frozen=True)
class TrainingInstance:
    """One document: the columns of its run of sentences plus the gold
    BMES label of every row."""

    features: FeatureColumns
    gold: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.features, FeatureColumns):
            raise ValueError(f"instance {self.source_id!r}: features must be FeatureColumns")
        if not self.features.lengths or 0 in self.features.lengths:
            raise ValueError(f"instance {self.source_id!r}: no sentences, or an empty sentence")
        if len(self.features) != len(self.gold):
            raise ValueError(f"instance {self.source_id!r}: features/gold length mismatch")


class FeatureRegistry:
    """Dense ids for emission and transition weights, read-only once built.

    Each template owns one contiguous range of slots, the ranges following
    one another in the order the templates are given: the slot of value
    ``k`` of template ``j`` is ``offset_j + k``, and the slots of all
    templates together are ``0 .. n_slots - 1``.  Each slot owns a block of
    four consecutive emission weights, one per label; the 16 transition
    weights sit after all emission blocks.  The id ``n_slots`` stands for
    any unregistered value.
    """

    def __init__(self, values: dict[str, list[str]]) -> None:
        self._slots: dict[str, dict[str, int]] = {}
        offset = 0
        for template_id, listed in values.items():
            slots = dict(zip(listed, range(offset, offset + len(listed))))
            if len(slots) != len(listed):
                raise ValueError(f"values of template {template_id!r} are not distinct")
            self._slots[template_id] = slots
            offset += len(listed)
        self.n_slots = offset

    @property
    def n_weights(self) -> int:
        return self.n_slots * N_LABELS + N_LABELS * N_LABELS

    def compile(self, runs: Sequence[FeatureColumns]) -> np.ndarray:
        """Slot ids of the runs' rows, one row of the result per template.

        Each table of a run is mapped through its template's dictionary
        once, and the run's codes then index the resulting slot ids; a run
        with fewer templates than the widest leaves the sentinel in the
        rest.
        """
        width = max((len(run.templates) for run in runs), default=0)
        ids = np.full((width, sum(len(run) for run in runs)), self.n_slots, dtype=np.intp)
        start = 0
        for run in runs:
            n, sizes = len(run), [len(table) for table in run.tables]
            # every table's slot ids, one after another
            found = itertools.chain.from_iterable(
                map(self._slots.get(template_id, {}).get, table, itertools.repeat(self.n_slots))
                for template_id, table in zip(run.templates, run.tables)
            )
            slot_of = np.fromiter(found, dtype=np.intp, count=sum(sizes))
            offsets = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
            ids[: len(sizes), start : start + n] = slot_of[run.codes + offsets[:, None]]
            start += n
        return ids


class CrfModel:
    """A trained (or zero-initialized) CRF: registry plus weight vector.

    ``source`` is the model whose labels a ``transit`` model reads as one
    more feature; it is saved in the same file.
    """

    def __init__(
        self,
        registry: FeatureRegistry,
        weights: np.ndarray,
        config: TrainConfig = TrainConfig(),
        manifest: dict | None = None,
    ):
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != registry.n_weights:
            raise ValueError("weight vector length does not match registry")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self.registry = registry
        self.weights = weights
        self.config = config
        self.manifest = dict(manifest or {})
        self.source: CrfModel | None = None

    def _emission_weights(self) -> np.ndarray:
        return self.weights[: self.registry.n_slots * N_LABELS].reshape(-1, N_LABELS)

    def _transition_weights(self) -> np.ndarray:
        return self.weights[self.registry.n_slots * N_LABELS :].reshape(N_LABELS, N_LABELS)

    def _emission_table(self) -> np.ndarray:
        """Emission weights with a zero row for the sentinel slot id."""
        return np.vstack([self._emission_weights(), np.zeros((1, N_LABELS))])

    def _scores(self, columns: FeatureColumns):
        batch = PackedBatch(self.registry.compile([columns]), columns.lengths, self.registry.n_slots)
        return batch, batch.emissions(self._emission_table()), self._transition_weights()

    def label_ids(self, columns: FeatureColumns) -> np.ndarray:
        """Highest-scoring labeling of every sentence of the run as indices
        into ``LABELS``, in row order, all decoded in one batched pass.
        Ties between labelings whose scores are equal in floating point
        resolve to the lexicographically smallest under B < M < E < S."""
        batch, e, w_t = self._scores(columns)
        return batch.viterbi(e, w_t)

    def viterbi(self, columns: FeatureColumns) -> list[str]:
        """:meth:`label_ids` as label names."""
        return _LABEL_NAMES[self.label_ids(columns)].tolist()

    def log_partition(self, columns: FeatureColumns) -> float:
        """log Z of the run: the sum of its sentences' log partition
        functions, since sentences are labeled independently."""
        batch, e, w_t = self._scores(columns)
        return float(batch.forward_backward(e, w_t)[0].sum())

    def marginals(self, columns: FeatureColumns) -> np.ndarray:
        """Posterior over labels of every row of the run, in row order,
        each row summing to one."""
        batch, e, w_t = self._scores(columns)
        return batch.forward_backward(e, w_t)[1]

    def keep_templates(self, keep: Callable[[str], bool]) -> "CrfModel":
        """This model with only the templates ``keep`` accepts, in their
        order, each with its emission weights, and the same transition
        weights, config, manifest and source model.  Slots are renumbered
        and nothing else changes, so columns that name only kept
        templates score bit for bit as before."""
        emission = self._emission_weights()
        values: dict[str, list[str]] = {}
        rows = []
        offset = 0
        for template_id, slots in self.registry._slots.items():
            if keep(template_id):
                values[template_id] = list(slots)
                rows.append(emission[offset : offset + len(slots)].ravel())
            offset += len(slots)
        weights = np.concatenate([*rows, self._transition_weights().ravel()])
        model = CrfModel(FeatureRegistry(values), weights, self.config, self.manifest)
        model.source = self.source
        return model

    def save(self, path: str | Path) -> None:
        """Write this model and its source model, if any, to one file in
        the layout the module docstring gives.  The bytes depend on the
        content alone."""
        models = [m for m in (self, self.source) if m is not None]
        header = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "labels": list(LABELS),
            "models": [
                {
                    "templates": {t: list(values) for t, values in m.registry._slots.items()},
                    "config": asdict(m.config),
                    "manifest": m.manifest,
                }
                for m in models
            ],
        }
        parts = [json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8") + b"\n"]
        parts += [m.weights.astype("<f8").tobytes() for m in models]
        atomic_write(path, b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "CrfModel":
        """Read a file written by :meth:`save`, source models included.
        A file that is damaged or not a model raises ValueError naming it."""
        data = Path(path).read_bytes()
        try:
            return _decode_models(data)
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ValueError(f"{path} is not a readable model file ({exc}); retrain the model") from exc


def _check(ok: bool, problem: str) -> None:
    if not ok:
        raise ValueError(problem)


def _decode_models(data: bytes) -> CrfModel:
    header_end = data.find(b"\n")
    _check(header_end >= 0, "no header line")
    header = json.loads(data[:header_end])
    _check(isinstance(header, dict) and header.get("format") == _FORMAT, "not a patseg model")
    _check(header.get("version") == _FORMAT_VERSION, f"unsupported version {header.get('version')!r}")
    _check(header.get("labels") == list(LABELS), "label set mismatch")
    entries = header.get("models")
    _check(isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries), "no model entries")
    _check(len(entries) <= 2, f"{len(entries)} model entries, where a model and its source model make at most 2")
    models = []
    offset = header_end + 1
    # json.loads shares equal object keys but not equal list items
    shared: dict[str, str] = {}
    for entry in entries:
        templates, config, manifest = entry.get("templates"), entry.get("config"), entry.get("manifest")
        _check(isinstance(templates, dict) and isinstance(manifest, dict), "templates and manifest must be objects")
        for template_id, values in templates.items():
            strings = isinstance(values, list) and all(isinstance(v, str) for v in values)
            _check(strings, f"values of template {template_id!r} are not strings")
        numeric = isinstance(config, dict) and all(type(x) in (int, float) for x in config.values())
        _check(numeric and set(config) == {f.name for f in fields(TrainConfig)}, "config must have the numeric fields of TrainConfig")
        registry = FeatureRegistry({t: [shared.setdefault(v, v) for v in values] for t, values in templates.items()})
        # np.frombuffer refuses a file too short for the sizes the header gives
        weights = np.frombuffer(data, dtype="<f8", count=registry.n_weights, offset=offset).astype(np.float64)
        offset += 8 * registry.n_weights
        models.append(CrfModel(registry, weights, TrainConfig(**config), manifest))
    _check(offset == len(data), f"{len(data) - offset} bytes after the last model")
    for model, source in zip(models, models[1:]):
        model.source = source
    return models[0]


class PackedBatch:
    """Sequences one after another, the one layout every CRF pass runs on.

    Rows are the positions in input order: sequence ``s`` owns the rows
    ``starts[s] : starts[s] + lengths[s]``, and ``seq_of_row[r]`` is the
    sequence of row ``r``.  ``later`` are the rows that continue the row
    before them, every row but the sequences' first.  Every array has one
    row per position, so memory is O(sum of lengths) however long the
    longest sequence is.

    ``ids`` are the compiled slot ids (templates by rows, see
    :meth:`FeatureRegistry.compile`).  With ``gold`` labels (one per row)
    the batch also holds the empirical feature counts the training
    objective needs.

    The passes (:meth:`forward_backward`, :meth:`viterbi`) are chunked
    scans over a chunk plan built once per batch, see the module
    docstring.
    """

    def __init__(
        self,
        ids: np.ndarray,
        lengths: Sequence[int],
        n_slots: int,
        gold: np.ndarray | None = None,
    ):
        self.lengths = np.asarray(lengths, dtype=np.intp)
        if len(self.lengths) == 0:
            raise ValueError("cannot pack an empty batch")
        if self.lengths.min() == 0:
            raise ValueError("cannot decode an empty sequence")
        self.n = len(self.lengths)
        self.l_max = int(self.lengths.max())
        self.n_rows = int(self.lengths.sum())
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.seq_of_row = np.repeat(np.arange(self.n), self.lengths)
        self.later = np.flatnonzero(np.arange(self.n_rows) != self.starts[self.seq_of_row])
        self.n_slots = n_slots
        self.ids = ids

        if gold is not None:
            one_hot = np.eye(N_LABELS)[gold]
            pairs = gold[self.later - 1] * N_LABELS + gold[self.later]
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

    @cached_property
    def _plan(self) -> _ChunkPlan:
        """Where every position sits in the chunked scan, built once per batch.

        Sequences are ranked longest first by one stable sort, so those
        long enough to reach a chunk index are a prefix of the ranking.
        Position ``t`` of the sequence ranked ``s`` lies in chunk
        ``t // size`` at in-chunk offset ``t % size``.  Each chunk owns one
        carry slot, ``across_start[c] + s`` for chunk ``c``, so the slots
        of one chunk index are contiguous and those still running are a
        prefix.  Scan rows are the positions grouped by in-chunk offset,
        and within an offset by chunk, longest chunks first, so the chunks
        still running at an offset are a prefix too.  Both scan directions
        use the same rows: a backward pass counts ``t`` from the end of its
        sequence.
        """
        size = _chunk_length(self.l_max)
        order = np.argsort(-self.lengths, kind="stable")
        lengths = self.lengths[order]
        # sequences with a chunk c: those longer than c * size
        per_chunk = np.searchsorted(-lengths, -np.arange(0, self.l_max, size), side="left")
        across_start = np.cumsum(per_chunk) - per_chunk
        n_chunks = int(per_chunk.sum())
        seq = np.arange(n_chunks) - np.repeat(across_start, per_chunk)
        first = np.repeat(np.arange(len(per_chunk)) * size, per_chunk)
        chunk_length = np.minimum(size, lengths[seq] - first)
        by_length = np.argsort(-chunk_length, kind="stable")
        rank = np.empty(n_chunks, dtype=np.intp)
        rank[by_length] = np.arange(n_chunks)
        per_offset = np.searchsorted(-chunk_length[by_length], -np.arange(size), side="left")
        offset_start = np.cumsum(per_offset) - per_offset
        # every row's sequence by its rank (the inverse permutation of
        # order), and its position in the sequence
        ranked = np.argsort(order)[self.seq_of_row]
        time = np.arange(self.n_rows) - self.starts[self.seq_of_row]

        def scan_row(t: np.ndarray) -> np.ndarray:
            return offset_start[t % size] + rank[across_start[t // size] + ranked]

        forward = np.empty(self.n_rows, dtype=np.intp)
        forward[scan_row(time)] = np.arange(self.n_rows)
        backward = np.empty(self.n_rows, dtype=np.intp)
        backward[scan_row(self.lengths[self.seq_of_row] - 1 - time)] = np.arange(self.n_rows)
        return _ChunkPlan(
            forward=forward,
            backward=backward,
            starts=rank[: self.n],
            carry_slot=by_length[np.arange(self.n_rows) - np.repeat(offset_start, per_offset)],
            chunk_end=offset_start[chunk_length - 1] + rank,
            in_chunk=_slices(offset_start, per_offset),
            across=_slices(across_start, per_chunk),
        )

    def _scan(self, first: np.ndarray, steps: np.ndarray, combine, apply, start) -> np.ndarray:
        """The state at every scan row of a linear recursion, in scan order.

        Arrays are label-major: scan rows run along the last axis.  A
        prefix is the composition of the steps of a chunk up to a row;
        ``first`` holds the prefix of every chunk's first row, and
        ``combine(prefix, steps)`` extends prefixes by one row's step.
        ``apply(state, prefix)`` advances states through prefixes, and
        ``start`` is the state before every sequence.

        Three phases: the prefixes of all chunks at once, one batched
        ``combine`` per in-chunk offset; the carry into every chunk, one
        batched ``apply`` per chunk index; and every row's state, its
        chunk's carry applied to its prefix, in one call.
        """
        plan = self._plan
        prefix = np.empty(first.shape[:-1] + (self.n_rows,), dtype=first.dtype)
        prefix[..., : first.shape[-1]] = first
        for lo, prev_lo, k in plan.in_chunk:
            prefix[..., lo : lo + k] = combine(prefix[..., prev_lo : prev_lo + k], steps[..., lo : lo + k])
        ends = prefix[..., plan.chunk_end]
        carry = np.empty(ends.shape[1:], dtype=ends.dtype)
        carry[..., : self.n] = start
        for lo, prev_lo, k in plan.across:
            carry[..., lo : lo + k] = apply(carry[..., prev_lo : prev_lo + k], ends[..., prev_lo : prev_lo + k])
        return apply(carry[..., plan.carry_slot], prefix)

    def _chain(self, rows: np.ndarray, v: np.ndarray, trans: np.ndarray, max_plus: bool) -> np.ndarray:
        """States of a recursion over the batch ``rows`` in scan order,
        rows x labels in batch order.  In sum-product, ``state(j) = v(j)
        * sum_i prev(i) trans(i, j)``, renormalized to sum to one; in
        max-plus, ``state(j) = v(j) + max_i (prev(i) + trans(i, j))``.  A
        sequence's first row has ``state = v`` (renormalized)."""
        plan = self._plan
        v = np.take(v.T, rows, axis=1)  # C-contiguous, unlike v.T[:, rows]
        n_chunks = len(plan.chunk_end)
        if max_plus:
            first = trans[:, :, None] + v[:, :n_chunks]
            first[:, :, plan.starts] = v[:, plan.starts]
            combine, apply, start = functools.partial(_max_plus, trans), _max_plus_apply, 0.0
        else:
            first = trans[:, :, None] * v[:, :n_chunks]
            first[:, :, plan.starts] = v[:, plan.starts]
            combine, apply, start = functools.partial(_sum_product, trans.T.copy()), _sum_product_apply, 1.0
        out = np.empty((self.n_rows, N_LABELS))
        out[rows] = self._scan(first, v, combine, apply, start).T
        return out

    def forward_backward(self, e: np.ndarray, w_t: np.ndarray):
        """Scaled forward-backward over all rows, as two chunked scans.

        Works on ``exp(e - rowmax)`` and ``exp(w_t - max(w_t))``, so no
        factor exceeds one.  Alpha is scanned forward; backward, the scan
        yields ``emit * beta``, from which beta at a row is ``trans`` times
        that of the next row.  The scans renormalize every in-chunk product
        and every state to sum to one, so no product can overflow however
        long the sequence.  The forward row scales are recomputed from
        alpha in one batched product, and ``log Z`` is the sum of their
        logs plus the subtracted maxima.  A row scale is at least
        ``exp(min(w_t) - max(w_t)) / 4``, so it underflows to zero only
        when transition weights span hundreds of nats, and the caller
        then reports a non-finite log Z or gradient.

        Each scan holds 16 floats of prefix per row and one state per
        chunk, so memory stays O(positions).

        Returns log Z per sequence, the posterior marginals (rows x
        labels) and the expected transition counts summed over the batch
        (labels x labels).
        """
        # the row max as column operations: exact, like e.max(axis=1), and
        # far faster on an array four columns wide
        shift = np.maximum(np.maximum(e[:, 0], e[:, 1]), np.maximum(e[:, 2], e[:, 3]))
        emit = np.exp(e - shift[:, None])
        t_shift = w_t.max()
        trans = np.exp(w_t - t_shift)
        plan, starts, later = self._plan, self.starts, self.later
        prev = later - 1
        # np.take gathers rows several times faster than indexing with [...]

        alpha = self._chain(plan.forward, emit, trans, max_plus=False)
        alpha_prev = np.take(alpha, prev, axis=0)
        scale = np.empty(self.n_rows)
        scale[starts] = np.take(emit, starts, axis=0).sum(axis=1)
        scale[later] = ((alpha_prev @ trans) * np.take(emit, later, axis=0)).sum(axis=1)
        log_z = np.bincount(self.seq_of_row, np.log(scale) + shift, minlength=self.n)
        log_z += (self.lengths - 1) * t_shift

        # rows that end a sequence keep beta = 1
        beta = np.ones_like(emit)
        b = np.take(self._chain(plan.backward, emit, trans.T, max_plus=False), later, axis=0) @ trans.T
        beta[prev] = b / b.sum(axis=1)[:, None]

        gamma = alpha * beta
        norm = gamma.sum(axis=1)
        gamma /= norm[:, None]
        # xi for the pair (prev row, row) is alpha_prev(i) trans(i, j)
        # emit(j) beta(j), whose total is scale * norm at the row
        ahead = np.take(emit * beta / (scale * norm)[:, None], later, axis=0)
        xi = trans * (alpha_prev.T @ ahead)
        return log_z, gamma, xi

    def viterbi(self, e: np.ndarray, w_t: np.ndarray) -> np.ndarray:
        """Label ids of each sequence's highest-scoring labeling, one per row.

        Ties between labelings whose scores are equal in floating point
        resolve to the lexicographically smallest sequence under
        B < M < E < S; a tie that is exact only in real arithmetic goes
        to whichever score rounds higher.  The best score of every
        continuation is scanned backward (max-plus), and the labels are
        read out forward, each step taking the first label that still
        attains the optimum.  The
        read-out scans the maps ``previous label -> label`` by
        composition, which is exact, so ties among the best scores break
        as in a step-by-step read-out.  Breaking ties at backpointers
        instead would minimize late positions rather than early ones.
        """
        plan = self._plan
        best = self._chain(plan.backward, e, w_t.T, max_plus=True)[plan.forward].T
        maps = _first_argmax(w_t, best)
        maps[:, plan.starts] = best[:, plan.starts].argmax(axis=0)
        labels = np.empty(self.n_rows, dtype=np.intp)
        labels[plan.forward] = self._scan(maps[:, : len(plan.chunk_end)], maps, _compose_maps, _apply_map, 0)
        return labels


@dataclass(frozen=True)
class _ChunkPlan:
    """Index arrays of :meth:`PackedBatch._plan`, O(positions) in all.

    ``forward[i]`` and ``backward[i]`` are the batch rows of scan row
    ``i`` in either direction.  Scan rows ``0 .. len(chunk_end) - 1`` are
    the first rows of the chunks; ``starts`` are those that begin a
    sequence.  ``carry_slot[i]`` is the carry slot of the chunk of scan
    row ``i``, and ``chunk_end[slot]`` the scan row that ends that chunk.
    ``in_chunk`` and ``across`` are the steps of the first two phases,
    each ``(lo, prev_lo, count)``: rows (or slots) ``lo : lo + count``
    follow ``prev_lo : prev_lo + count``.
    """

    forward: np.ndarray
    backward: np.ndarray
    starts: np.ndarray
    carry_slot: np.ndarray
    chunk_end: np.ndarray
    in_chunk: list[tuple[int, int, int]]
    across: list[tuple[int, int, int]]


def _chunk_length(l_max: int) -> int:
    """Positions per chunk, ceil(sqrt(l_max)): a scan then takes about
    as many steps inside chunks as across them."""
    return math.isqrt(l_max - 1) + 1


def _slices(start: np.ndarray, count: np.ndarray) -> list[tuple[int, int, int]]:
    return list(zip(start[1:].tolist(), start[:-1].tolist(), count[1:].tolist()))


# The semirings of the chains, label-major: prefixes are (4, 4, rows) and
# states (4, rows).  A prefix p maps a state x to sum_i x(i) p(i, j), or
# max_i (x(i) + p(i, j)); a row's step is trans(i, j) * v(j), or
# trans(i, j) + v(j), so extending a prefix is one product with trans.


def _sum_product(trans_t: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    q = np.matmul(trans_t, p)  # q[i] = trans.T @ p[i]: one small GEMM per label
    q *= v
    q /= q.reshape(N_LABELS * N_LABELS, -1).sum(axis=0)
    return q


def _sum_product_apply(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    y = np.einsum("ir,ijr->jr", x, p)
    y /= y.sum(axis=0)
    return y


def _max_plus(trans: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    q = p[:, 0, None, :] + trans[0, :, None]
    for k in range(1, N_LABELS):
        np.maximum(q, p[:, k, None, :] + trans[k, :, None], out=q)
    q += v
    return q


def _max_plus_apply(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (x[:, None, :] + p).max(axis=0)


def _first_argmax(w_t: np.ndarray, best: np.ndarray) -> np.ndarray:
    """maps[i, r]: the first label j maximizing w_t[i, j] + best[j, r]."""
    top = w_t[:, 0, None] + best[0]
    maps = np.zeros(top.shape, dtype=np.intp)
    for j in range(1, N_LABELS):
        score = w_t[:, j, None] + best[j]
        maps[score > top] = j
        np.maximum(top, score, out=top)
    return maps


def _compose_maps(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g[f, np.arange(g.shape[1])]


def _apply_map(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    return f[x, np.arange(f.shape[1])]


def _training_batch(registry: FeatureRegistry, instances: Sequence[TrainingInstance]) -> PackedBatch:
    """Every sentence of every instance as one sequence of the batch."""
    gold = np.fromiter((_LABEL_INDEX[lab] for inst in instances for lab in inst.gold), dtype=np.intp)
    lengths = [n for inst in instances for n in inst.features.lengths]
    return PackedBatch(registry.compile([inst.features for inst in instances]), lengths, registry.n_slots, gold)


def log_likelihood_and_gradient(
    model: CrfModel, instances: Sequence[TrainingInstance], batch: PackedBatch | None = None
) -> tuple[float, np.ndarray]:
    """L2-regularized log-likelihood of the gold labelings, averaged over
    the sentences of all instances, with its exact gradient (expected
    minus empirical counts, plus the regularizer, all negated into
    maximization form)."""
    registry = model.registry
    if batch is None:
        batch = _training_batch(registry, instances)
    w = model.weights
    log_z, gamma, xi = batch.forward_backward(
        batch.features @ model._emission_weights(), model._transition_weights()
    )
    if not np.all(np.isfinite(log_z)):
        bad = int(np.flatnonzero(~np.isfinite(log_z))[0])
        counts = [len(inst.features.lengths) for inst in instances]
        i = int(np.searchsorted(np.cumsum(counts), bad, side="right"))
        sentence = bad - sum(counts[:i])
        raise TrainingError(
            f"non-finite partition function for instance {instances[i].source_id!r}, sentence {sentence}"
        )
    # (empirical - expected) / n - l2 w, built in place in one vector
    gradient = np.empty(registry.n_weights)
    n_emission = registry.n_slots * N_LABELS
    np.subtract(batch.empirical[:n_emission].reshape(-1, N_LABELS), batch.features.T @ gamma,
                out=gradient[:n_emission].reshape(-1, N_LABELS))
    np.subtract(batch.empirical[n_emission:], xi.ravel(), out=gradient[n_emission:])

    n = batch.n
    gold_score = float(w @ batch.empirical)
    log_likelihood = (gold_score - float(log_z.sum())) / n
    l2 = model.config.l2
    objective = log_likelihood - 0.5 * l2 * float(w @ w)
    gradient /= n
    gradient -= l2 * w
    if not (np.isfinite(objective) and np.all(np.isfinite(gradient))):
        raise TrainingError("non-finite objective or gradient")
    return objective, gradient


def build_registry(instances: Sequence[TrainingInstance], feature_cutoff: int = 1) -> FeatureRegistry:
    """Register every (template-id, value) pair seen at least
    ``feature_cutoff`` times, template-major in first-seen order.

    Templates take their slot ranges in the order they first occur among
    the instances' columns.  A template names one column of an instance,
    so it lists its values in the order of their first row in that
    column, instance after instance.  Works on distinct codes: one
    ``np.unique`` gives every code of a column its first row and its
    count, the codes are sorted by first row (distinct, so no ties), and
    each is then counted into its template's dictionary in that order, so
    a dictionary's insertion order is the first-seen order.
    """
    # per template: value -> count, in the order the values are met
    met: dict[str, dict[str | None, int]] = {}
    for inst in instances:
        run = inst.features
        for template_id, table, codes in zip(run.templates, run.tables, run.codes):
            present, first_row, count = np.unique(codes, return_index=True, return_counts=True)
            order = np.argsort(first_row)
            counter = met.setdefault(template_id, {})
            for value, n in zip(map(table.__getitem__, present[order].tolist()), count[order].tolist()):
                counter[value] = counter.get(value, 0) + n
    return FeatureRegistry(
        {t: [v for v, c in counter.items() if c >= feature_cutoff and v is not None] for t, counter in met.items()}
    )


def train(
    instances: Sequence[TrainingInstance],
    config: TrainConfig = TrainConfig(),
    manifest: dict | None = None,
) -> CrfModel:
    """Fit weights by maximizing the regularized log-likelihood, averaged
    over the sentences of the instances.

    Deterministic at a fixed BLAS thread count (ROADMAP.md item 10): the
    registry is built in instance order, the start point is zero, and
    :func:`patseg.lbfgs.minimize` stops on relative objective change
    below ``config.tolerance`` or after ``config.max_iterations``
    iterations, where L-BFGS-B would.  The run
    goes through ``scipy.optimize.minimize`` with the loop as a custom
    ``method`` only because benchmark tooling wraps that name to read the
    iteration count.  How it stopped is recorded under
    ``manifest["optimizer"]``.
    """
    if not instances:
        raise TrainingError("no training instances")
    registry = build_registry(instances, config.feature_cutoff)
    model = CrfModel(registry, np.zeros(registry.n_weights), config, manifest)
    batch = _training_batch(registry, instances)

    def negated(w: np.ndarray) -> tuple[float, np.ndarray]:
        model.weights = w
        obj, grad = log_likelihood_and_gradient(model, instances, batch)
        return -obj, np.negative(grad, out=grad)

    result = scipy.optimize.minimize(
        negated,
        np.zeros(registry.n_weights),
        method=lambda fun, x0, **_: lbfgs.minimize(fun, x0, config.max_iterations, config.tolerance),
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
