import functools
import itertools
import json
import math
import pickle
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patseg import corpus, crf, lbfgs
from patseg.adaptation import build_training
from patseg.corpus import LABELS, decode_bmes, encode_bmes
from patseg.char_features import cf_features, char_types
from patseg.crf import (
    CrfModel,
    FeatureColumns,
    FeatureRegistry,
    PackedBatch,
    TrainConfig,
    TrainingError,
    TrainingInstance,
    build_registry,
    log_likelihood_and_gradient,
    train,
)
from patseg.pipeline import FeatureExtractor

from _reference import (
    as_version_2,
    coded,
    columns_from_rows,
    emission_index,
    instance,
    run_of,
    sequential_forward_backward,
    sequential_viterbi,
    slot_items,
    value_registry,
    transition_index,
)
from _synth import build_benchmark


def random_instance(rng, length, n_templates=3, n_values=4):
    feats = [
        [(f"t{j}", f"v{rng.integers(n_values)}") for j in range(n_templates)]
        for _ in range(length)
    ]
    gold = tuple(str(rng.choice(LABELS)) for _ in range(length))
    return instance(feats, gold, f"rand-{length}")


def random_model(rng, instances, l2=0.0, scale=1.0):
    reg = build_registry(instances)
    weights = rng.normal(0.0, scale, reg.n_weights)
    return CrfModel(reg, weights, TrainConfig(l2=l2))


def enumerate_scores(model, features):
    """All 4^n labelings of per-position rows in lexicographic B<M<E<S
    order, with scores.

    Scores every labeling at once from the model's weight blocks, with
    the emission matrix summed slot by slot, independently of the CRF
    core.
    """
    n = len(features)
    reg = model.registry
    slots = dict(slot_items(reg))
    k = len(LABELS)
    w_e = model.weights[: reg.n_slots * k].reshape(-1, k)
    w_t = model.weights[reg.n_slots * k :].reshape(k, k)
    e = np.zeros((n, k))
    for t, fv in enumerate(features):
        for template_id, value in fv:
            slot = slots.get((template_id, value))
            if slot is not None:
                e[t] += w_e[slot]
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = e[np.arange(n), seqs].sum(axis=1) + w_t[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return [(tuple(LABELS[i] for i in seq), s) for seq, s in zip(seqs.tolist(), scores.tolist())]


def enumeration_argmax(model, features):
    """The lexicographically-first labeling among those of maximal score."""
    scored = enumerate_scores(model, features)
    best = max(s for _, s in scored)
    return next(seq for seq, s in scored if s == best)


def enumerated_marginals(model, features):
    """Per-position label posteriors summed over all 4^n labelings."""
    scored = enumerate_scores(model, features)
    scores = np.array([s for _, s in scored])
    probs = np.exp(scores - scores.max())
    probs /= probs.sum()
    brute = np.zeros((len(features), len(LABELS)))
    for (seq, _), p in zip(scored, probs):
        for t, lab in enumerate(seq):
            brute[t, LABELS.index(lab)] += p
    return brute


def enumerated_log_partition(model, features):
    scores = np.array([s for _, s in enumerate_scores(model, features)])
    m = scores.max()
    return m + math.log(np.exp(scores - m).sum())


class TestScoreSequence:
    """Hand sums of labeling scores against :func:`enumerate_scores`, the
    oracle the Viterbi, marginal and log Z tests compare with."""

    def test_all_zero_weights(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 3)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        scored = enumerate_scores(model, list(inst.features))
        assert [seq for seq, _ in scored] == list(itertools.product(LABELS, repeat=3))
        assert all(s == 0.0 for _, s in scored)

    def test_single_position_single_feature(self):
        reg = FeatureRegistry({"t": ["v"]})
        weights = np.zeros(reg.n_weights)
        weights[emission_index(reg, "t", "v", "S")] = 2.0
        model = CrfModel(reg, weights)
        assert dict(enumerate_scores(model, [[("t", "v")]]))[("S",)] == 2.0

    def test_length_two_hand_sum(self):
        reg = FeatureRegistry({"t": ["a", "b"]})
        weights = np.zeros(reg.n_weights)
        weights[emission_index(reg, "t", "a", "B")] = 1.5
        weights[emission_index(reg, "t", "b", "E")] = -0.25
        weights[transition_index(reg, "B", "E")] = 3.0
        model = CrfModel(reg, weights)
        got = dict(enumerate_scores(model, [[("t", "a")], [("t", "b")]]))[("B", "E")]
        assert got == pytest.approx(1.5 - 0.25 + 3.0)

    def test_unregistered_features_contribute_zero(self):
        reg = FeatureRegistry({"t": ["a"]})
        model = CrfModel(reg, np.ones(reg.n_weights))
        known, with_unknown = [[("t", "a")]], [[("t", "a"), ("u", "zzz")]]
        assert enumerate_scores(model, known) == enumerate_scores(model, with_unknown)
        # the CRF core scores them alike too
        known, with_unknown = columns_from_rows(known), columns_from_rows(with_unknown)
        assert model.log_partition(known) == model.log_partition(with_unknown)
        assert np.array_equal(model.marginals(known), model.marginals(with_unknown))


class TestViterbi:
    def test_zero_weights_tie_break_to_all_b(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 5)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        assert model.viterbi(inst.features) == ["B"] * 5

    def test_weights_written_in_place_are_decoded(self):
        reg = FeatureRegistry({"t": ["v"]})
        model = CrfModel(reg, np.zeros(reg.n_weights))
        feats = columns_from_rows([[("t", "v")]])
        assert model.viterbi(feats) == ["B"]
        model.weights[emission_index(reg, "t", "v", "S")] = 1.0
        assert model.viterbi(feats) == ["S"]

    def test_transition_dominance(self):
        reg = FeatureRegistry({"t": ["v"]})
        weights = np.zeros(reg.n_weights)
        weights[transition_index(reg, "S", "S")] = 10.0
        model = CrfModel(reg, weights)
        feats = columns_from_rows([[("t", "v")]] * 3)
        assert model.viterbi(feats) == ["S", "S", "S"]

    def test_matches_enumeration_on_random_models(self):
        """Viterbi equals the lexicographically-first exhaustive argmax."""
        rng = np.random.default_rng(2)
        for _ in range(60):
            length = int(rng.integers(1, 8))
            inst = random_instance(rng, length)
            model = random_model(rng, [inst])
            scored = enumerate_scores(model, list(inst.features))
            best = max(s for _, s in scored)
            expected = next(seq for seq, s in scored if s == best)
            assert tuple(model.viterbi(inst.features)) == expected

    def test_tie_break_with_integer_weights(self):
        """Exact ties resolve to the earliest sequence in B<M<E<S order."""
        rng = np.random.default_rng(3)
        for _ in range(40):
            length = int(rng.integers(1, 6))
            inst = random_instance(rng, length, n_templates=1, n_values=2)
            reg = build_registry([inst])
            weights = rng.integers(-2, 3, reg.n_weights).astype(float)
            model = CrfModel(reg, weights)
            scored = enumerate_scores(model, list(inst.features))
            best = max(s for _, s in scored)
            expected = next(seq for seq, s in scored if s == best)
            assert tuple(model.viterbi(inst.features)) == expected


    def test_batched_viterbi_matches_enumeration_on_ragged_batches(self):
        """One packed pass over a run of mixed lengths decodes every
        sentence as the per-sentence exhaustive argmax, ties included."""
        rng = np.random.default_rng(14)
        for trial in range(30):
            lengths = rng.permutation([1, 2, 3, 5, 6, 6, 4])[: int(rng.integers(2, 8))]
            if trial % 2:
                instances = [random_instance(rng, int(n), n_templates=1, n_values=2) for n in lengths]
                reg = build_registry(instances)
                model = CrfModel(reg, rng.integers(-2, 3, reg.n_weights).astype(float))
            else:
                instances = [random_instance(rng, int(n)) for n in lengths]
                model = random_model(rng, instances)
            sentences = [list(inst.features) for inst in instances]
            expected = [lab for feats in sentences for lab in enumeration_argmax(model, feats)]
            assert model.viterbi(run_of(sentences)) == expected


    def test_rows_of_ragged_arity_decode_as_the_enumeration(self):
        """Rows with different templates in any order, unregistered
        templates and values, and no entries at all decode like the
        exhaustive argmax."""
        rng = np.random.default_rng(17)
        pool = {"t0": ["a", "b"], "t1": ["a", "zzz"], "t2": ["c"], "t3": ["a"]}
        for _ in range(30):
            length = int(rng.integers(1, 7))
            feats = [
                [(str(t), str(rng.choice(pool[t]))) for t in rng.choice(list(pool), int(rng.integers(0, 4)), replace=False)]
                for _ in range(length)
            ]
            reg = FeatureRegistry({"t0": ["a", "b"], "t1": ["a"], "t2": ["c"]})
            model = CrfModel(reg, rng.normal(0.0, 1.0, reg.n_weights))
            assert tuple(model.viterbi(columns_from_rows(feats))) == enumeration_argmax(model, feats)
            assert model.viterbi(run_of([feats, feats[:1]])) == [
                *enumeration_argmax(model, feats), *enumeration_argmax(model, feats[:1])
            ]


class TestColumns:
    def test_rows_round_trip_through_columns(self):
        rows = [[("t", "a"), ("u", "b")], [], [("u", "c"), ("v", "e"), ("t", "d")]]
        columns = columns_from_rows(rows)
        assert columns.templates == ("t", "u", "v")
        assert list(columns) == [[("t", "a"), ("u", "b")], [], [("t", "d"), ("u", "c"), ("v", "e")]]
        assert list(columns_from_rows([[], []])) == [[], []]
        with pytest.raises(ValueError, match="row 1"):
            columns_from_rows([[("t", "a")], [("t", "b"), ("t", "c")]])

    def test_a_template_names_one_column(self):
        FeatureColumns(("t", "u"), (("a",), ("a",)), np.zeros((2, 1), dtype=np.intp), (1,))
        with pytest.raises(ValueError, match="'u'"):
            FeatureColumns(("t", "u", "u"), (("a",), ("a",), ("b",)), np.zeros((3, 1), dtype=np.intp), (1,))

    def test_training_instance_holds_the_columns_of_one_document(self):
        rows = [[("t", "a")], [("t", "b")], [("t", "c")]]
        TrainingInstance(columns_from_rows(rows), ("B", "E", "S"))
        TrainingInstance(columns_from_rows(rows, (2, 1)), ("B", "E", "S"))
        no_sentence = FeatureColumns((), (), np.zeros((0, 0), dtype=np.intp), ())
        for empty in (columns_from_rows(rows, (2, 0, 1)), columns_from_rows([], (0,)), no_sentence):
            with pytest.raises(ValueError, match="empty sentence"):
                TrainingInstance(empty, ("B", "E", "S")[: len(empty)])
        with pytest.raises(ValueError):
            TrainingInstance(rows, ("B", "E", "S"))
        with pytest.raises(ValueError, match="mismatch"):
            TrainingInstance(columns_from_rows(rows, (2, 1)), ("B", "E"))

    def test_sentences_split_by_length(self):
        columns = coded(("t",), (["a", "b", "c"],), (2, 1))
        assert [list(s) for s in columns.sentences()] == [[[("t", "a")], [("t", "b")]], [[("t", "c")]]]
        assert all(s.tables is columns.tables for s in columns.sentences())
        with pytest.raises(ValueError):
            FeatureColumns(("t",), (("a", "b"),), np.array([[0, 1]]), (3,))

    def test_iteration_reads_values_not_codes(self):
        columns = coded(("t", "u"), (["x", "y", "x"], ["p", None, "p"]), (3,))
        recoded = FeatureColumns(("t", "u"), (("y", "z", "x"), (None, "p")), np.array([[2, 0, 2], [1, 0, 1]]), (3,))
        assert list(columns) == list(recoded) == [[("t", "x"), ("u", "p")], [("t", "y")], [("t", "x"), ("u", "p")]]

    def test_runs_with_different_tables_compile_as_each_alone(self):
        """Sentences of two documents, each document with its own tables
        and one of them wider, compile in one call to the ids of
        compiling the documents one at a time."""
        rng = np.random.default_rng(26)
        narrow, wide = (
            run_of([list(random_instance(rng, int(n), k, n_values=8).features) for n in (3, 1, 4)]) for k in (3, 4)
        )
        registry = build_registry([instance(list(run), ("S",) * len(run)) for run in (narrow, wide)][:1])
        both = registry.compile(narrow.sentences() + wide.sentences())
        alone = np.hstack([np.vstack([registry.compile([narrow]), np.full((1, len(narrow)), registry.n_slots)]), registry.compile([wide])])
        assert np.array_equal(both, alone)
        assert (both == registry.n_slots).any() and (both < registry.n_slots).any()

    def test_registry_from_columns_numbers_slots_as_from_rows(self):
        """Template-major first-seen order over columns equals that of
        registering the rendered rows entry by entry, each template's
        values after those of the templates met before it, for every
        cutoff."""
        rng = np.random.default_rng(18)
        sentences = [list(random_instance(rng, int(n), n_templates=4, n_values=5).features) for n in (3, 6, 1, 4)]
        # rows of any arity, listing templates in another order than the columns
        sentences.append([[("t", "b"), ("u", "a")], [("u", "b"), ("w", "c"), ("t", "a")]])
        instances = [instance(rows, ("S",) * len(rows)) for rows in sentences]
        counts = Counter(key for rows in sentences for fv in rows for key in fv)
        for cutoff in (1, 2, 3):
            by_template: dict[str, list[str]] = {}
            for rows in sentences:
                for fv in rows:
                    for template_id, value in fv:
                        listed = by_template.setdefault(template_id, [])
                        if counts[template_id, value] >= cutoff and value not in listed:
                            listed.append(value)
            expected = [(t, v) for t, listed in by_template.items() for v in listed]
            assert slot_items(build_registry(instances, cutoff)) == list(zip(expected, itertools.count()))
            assert value_registry(instances, cutoff) == by_template

    def test_registry_dictionaries_equal_the_value_list_oracle(self):
        """Each template's slot range and the order of its values (the
        order a model file stores) equal those built over value lists, for
        runs cut from documents with their own tables, template sets that
        change, tables not in first-seen order, and every cutoff; and for
        the easy instances of a small world, where the two namespaces of a
        template share one table and one code row."""
        rng = np.random.default_rng(25)
        worlds = []
        for _ in range(20):
            instances = []
            for _ in range(rng.integers(1, 5)):
                n_templates = int(rng.integers(1, 4))
                document = [random_instance(rng, int(n), n_templates, n_values=6) for n in rng.integers(1, 6, rng.integers(1, 4))]
                instances += [TrainingInstance(s, inst.gold) for s, inst in zip(run_of([list(i.features) for i in document]).sentences(), document)]
            instances.append(instance([[("t0", "v1"), ("t2", "v9")], [("t2", "v9"), ("t1", "v1"), ("t0", "v2")]], "SS"))
            # first seen by row, not by code: t lists x, y; u lists p
            recoded = FeatureColumns(("t", "u"), (("y", "z", "x"), (None, "p")), np.array([[2, 0, 2], [1, 0, 1]]), (3,))
            instances.append(TrainingInstance(recoded, ("S",) * 3))
            worlds.append(instances)
        source, target, _ = build_benchmark(7, source_words=1_600, target_words=1_600, dev_words=300)
        easy, _ = build_training("easy", [t.doc for t in source], target, FeatureExtractor(("CF", "LNG")))
        assert easy[0].features.tables[0] is easy[0].features.tables[1]
        assert np.array_equal(easy[0].features.codes[0], easy[0].features.codes[1])
        for instances in [*worlds, easy]:
            for cutoff in (1, 2, 3):
                got, expected = build_registry(instances, cutoff), value_registry(instances, cutoff)
                assert [(t, list(v)) for t, v in got._slots.items()] == list(expected.items())
                assert slot_items(got) == slot_items(FeatureRegistry(expected))

    def test_registry_refuses_a_repeated_value(self):
        FeatureRegistry({"t": ["a"], "u": ["a", "b"]})
        with pytest.raises(ValueError, match="'u'"):
            FeatureRegistry({"t": ["a"], "u": ["a", "b", "a"]})

    def test_gather_sum_equals_the_sparse_product_exactly(self):
        """Decoding's gather-sum and training's sparse product give the
        same floats, unregistered values included."""
        rng = np.random.default_rng(19)
        for _ in range(10):
            instances = [random_instance(rng, int(n), n_templates=5, n_values=30) for n in rng.integers(1, 9, 6)]
            reg = build_registry(instances[:3])
            model = CrfModel(reg, rng.normal(0.0, 3.0, reg.n_weights))
            runs = [inst.features for inst in instances]
            batch = PackedBatch(reg.compile(runs), [len(r) for r in runs], reg.n_slots)
            sparse = batch.features @ model._emission_weights()
            assert np.array_equal(batch.emissions(model._emission_table()), sparse)


class TestMarginalsAndPartition:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 4)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        np.testing.assert_allclose(model.marginals(inst.features), 0.25)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            length = int(rng.integers(1, 7))
            inst = random_instance(rng, length)
            model = random_model(rng, [inst])
            brute = enumerated_marginals(model, list(inst.features))
            np.testing.assert_allclose(model.marginals(inst.features), brute, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 9)
        model = random_model(rng, [inst], scale=3.0)
        marg = model.marginals(inst.features)
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)

    def test_log_partition_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = int(rng.integers(1, 7))
            inst = random_instance(rng, length)
            model = random_model(rng, [inst])
            expected = enumerated_log_partition(model, list(inst.features))
            assert model.log_partition(inst.features) == pytest.approx(expected, abs=1e-9)

    def test_a_run_of_sentences_answers_for_each_sentence(self):
        """Over a run, marginals are each sentence's own, in row order, and
        log Z is the sum of the sentences' log Z."""
        rng = np.random.default_rng(20)
        for _ in range(10):
            instances = [random_instance(rng, int(n)) for n in rng.integers(1, 6, int(rng.integers(2, 5)))]
            model = random_model(rng, instances)
            sentences = [list(inst.features) for inst in instances]
            run = run_of(sentences)
            brute = np.vstack([enumerated_marginals(model, feats) for feats in sentences])
            np.testing.assert_allclose(model.marginals(run), brute, atol=1e-9)
            expected = sum(enumerated_log_partition(model, feats) for feats in sentences)
            assert model.log_partition(run) == pytest.approx(expected, abs=1e-9)

    def test_no_overflow_on_long_sequences(self):
        """Log-domain arithmetic survives 10,000 positions with big weights."""
        rng = np.random.default_rng(8)
        inst = random_instance(rng, 10_000, n_templates=2, n_values=2)
        model = random_model(rng, [inst], scale=10.0)
        obj, grad = log_likelihood_and_gradient(model, [inst])
        assert np.isfinite(obj)
        assert np.all(np.isfinite(grad))


class TestGradient:
    def test_uniform_log_likelihood(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 1)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights), TrainConfig(l2=0.0))
        obj, _ = log_likelihood_and_gradient(model, [inst])
        assert obj == pytest.approx(-math.log(4.0), abs=1e-12)

    def test_matches_finite_differences(self):
        """Analytic gradient vs central differences, eps=1e-5."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            instances = [random_instance(rng, 5) for _ in range(2)]
            reg = build_registry(instances)
            w0 = rng.normal(0.0, 0.5, reg.n_weights)
            cfg = TrainConfig(l2=0.1)
            model = CrfModel(reg, w0.copy(), cfg)
            _, grad = log_likelihood_and_gradient(model, instances)
            eps = 1e-5
            for j in range(reg.n_weights):
                wp, wm = w0.copy(), w0.copy()
                wp[j] += eps
                wm[j] -= eps
                op, _ = log_likelihood_and_gradient(CrfModel(reg, wp, cfg), instances)
                om, _ = log_likelihood_and_gradient(CrfModel(reg, wm, cfg), instances)
                assert abs((op - om) / (2 * eps) - grad[j]) < 1e-4

    def test_matches_finite_differences_on_a_ragged_batch(self):
        """Lengths {1, 2, 3, 5, 7} in one batch, in no particular order, so
        the number of running sequences changes at every step."""
        rng = np.random.default_rng(15)
        for _ in range(3):
            instances = [random_instance(rng, n) for n in (3, 7, 1, 5, 2)]
            reg = build_registry(instances)
            w0 = rng.normal(0.0, 0.5, reg.n_weights)
            cfg = TrainConfig(l2=0.1)
            _, grad = log_likelihood_and_gradient(CrfModel(reg, w0.copy(), cfg), instances)
            eps = 1e-5
            for j in range(reg.n_weights):
                wp, wm = w0.copy(), w0.copy()
                wp[j] += eps
                wm[j] -= eps
                op, _ = log_likelihood_and_gradient(CrfModel(reg, wp, cfg), instances)
                om, _ = log_likelihood_and_gradient(CrfModel(reg, wm, cfg), instances)
                assert abs((op - om) / (2 * eps) - grad[j]) < 1e-4

    def test_memory_follows_positions_not_the_longest_sentence(self):
        """Adding one 2,000-position sentence to 50 short ones raises the
        objective's peak memory at most in proportion to the positions."""
        rng = np.random.default_rng(16)
        short = [random_instance(rng, 10) for _ in range(50)]
        long = random_instance(rng, 2000)
        reg = build_registry(short + [long])
        model = CrfModel(reg, rng.normal(0.0, 0.5, reg.n_weights))

        def peak(instances):
            tracemalloc.start()
            try:
                log_likelihood_and_gradient(model, instances)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        positions = 10 * len(short)
        ratio = (positions + len(long.gold)) / positions
        assert peak(short + [long]) <= 1.2 * peak(short) * ratio

    def test_regularizer_terms(self):
        """Objective carries -(l2/2)||w||^2 and gradient carries -l2*w."""
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 3)
        reg = build_registry([inst])
        w = rng.normal(0.0, 1.0, reg.n_weights)
        obj0, grad0 = log_likelihood_and_gradient(
            CrfModel(reg, w.copy(), TrainConfig(l2=0.0)), [inst]
        )
        lam = 0.7
        obj1, grad1 = log_likelihood_and_gradient(
            CrfModel(reg, w.copy(), TrainConfig(l2=lam)), [inst]
        )
        assert obj1 == pytest.approx(obj0 - 0.5 * lam * float(w @ w), abs=1e-9)
        np.testing.assert_allclose(grad1, grad0 - lam * w, atol=1e-9)


class TestChunkedScan:
    """The chunked scans against their step-by-step forms in
    ``_reference``, on batches too long to enumerate."""

    @staticmethod
    def ragged_batch(rng, lengths):
        lengths = rng.permutation(lengths)
        return PackedBatch(np.zeros((0, int(lengths.sum())), dtype=np.intp), lengths, 0)

    def test_long_ragged_batches_match_the_sequential_passes(self):
        """Lengths 1-3,000 in one batch: log Z, marginals and expected
        transition counts to 1e-12 relative, Viterbi labels equal, with
        real and with integer weights (exact ties)."""
        rng = np.random.default_rng(21)
        for trial in range(4):
            lengths = np.concatenate([[3000, 1, 2], rng.integers(1, 3001, 5), rng.integers(1, 40, 30)])
            batch = self.ragged_batch(rng, lengths)
            if trial % 2:
                e = rng.integers(-2, 3, (batch.n_rows, len(LABELS))).astype(float)
                w_t = rng.integers(-2, 3, (len(LABELS), len(LABELS))).astype(float)
            else:
                e = rng.normal(0.0, 3.0, (batch.n_rows, len(LABELS)))
                w_t = rng.normal(0.0, 3.0, (len(LABELS), len(LABELS)))
            for got, expected in zip(batch.forward_backward(e, w_t), sequential_forward_backward(batch, e, w_t)):
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
            assert np.array_equal(batch.viterbi(e, w_t), sequential_viterbi(batch, e, w_t))

    def test_decoding_memory_follows_positions_not_the_longest_sentence(self):
        """Adding one 20,000-position sentence to 200 short ones raises
        Viterbi's peak memory at most in proportion to the positions: no
        chunks x sequences array is formed."""
        rng = np.random.default_rng(22)
        short = [random_instance(rng, 10) for _ in range(200)]
        long = random_instance(rng, 20_000)
        reg = build_registry(short + [long])
        model = CrfModel(reg, rng.normal(0.0, 0.5, reg.n_weights))
        short_run = run_of([list(inst.features) for inst in short])
        both_run = coded(
            short_run.templates,
            [s + lv for s, lv in zip(short_run.values(), long.features.values())],
            short_run.lengths + long.features.lengths,
        )

        def peak(columns):
            tracemalloc.start()
            try:
                model.viterbi(columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        positions = len(short_run)
        ratio = (positions + len(long.gold)) / positions
        assert peak(both_run) <= 1.2 * peak(short_run) * ratio


# the enumeration oracles, run again with chunks of 1, 2 and 3 positions, so
# that chunk boundaries and sequences ending mid-chunk occur at lengths <= 8
ENUMERATION_ORACLES = [
    (TestViterbi, "test_matches_enumeration_on_random_models"),
    (TestViterbi, "test_tie_break_with_integer_weights"),
    (TestViterbi, "test_batched_viterbi_matches_enumeration_on_ragged_batches"),
    (TestViterbi, "test_rows_of_ragged_arity_decode_as_the_enumeration"),
    (TestMarginalsAndPartition, "test_matches_enumeration"),
    (TestMarginalsAndPartition, "test_log_partition_matches_enumeration"),
    (TestMarginalsAndPartition, "test_a_run_of_sentences_answers_for_each_sentence"),
    (TestGradient, "test_matches_finite_differences"),
    (TestGradient, "test_matches_finite_differences_on_a_ragged_batch"),
]


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("oracle", ENUMERATION_ORACLES, ids=lambda o: f"{o[0].__name__}.{o[1]}")
def test_enumeration_oracles_with_short_chunks(monkeypatch, size, oracle):
    monkeypatch.setattr(crf, "_chunk_length", lambda l_max: size)
    batch = PackedBatch(np.zeros((0, 7), dtype=np.intp), [7], 0)
    assert len(batch._plan.in_chunk) == size - 1  # the patch is in effect
    cls, name = oracle
    getattr(cls(), name)()


def toy_training_instances(n_copies=20):
    sent, words = "地板很好", ["地板", "很", "好"]
    types = char_types(sent)
    feats = [cf_features(sent, types, i) for i in range(len(sent))]
    gold = tuple(encode_bmes(words))
    return [instance(feats, gold, f"toy#{i}") for i in range(n_copies)]


# optimum of the toy problem at l2 = 0.1
TOY_OPTIMUM = -0.33031632514511156


class TestTrain:
    def test_overfits_repeated_sentence(self):
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=1e-4, max_iterations=200))
        assert model.viterbi(instances[0].features) == list(instances[0].gold)

    def test_converges_to_the_stored_optimum(self):
        """Trained to convergence, the objective reaches the optimum of
        this strictly convex problem, recorded with scipy's L-BFGS-B;
        any convergent optimizer must reach it too."""
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=0.1, max_iterations=1000, tolerance=1e-12))
        assert model.manifest["optimizer"]["converged"]
        objective, _ = log_likelihood_and_gradient(model, instances)
        assert objective == pytest.approx(TOY_OPTIMUM, rel=1e-9)

    def test_huge_regularization_flattens_weights(self):
        # the tie-break fallback itself is asserted on an exactly-zero model
        # in TestViterbi; the optimizer only drives weights near zero
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=1e6, max_iterations=50))
        assert np.abs(model.weights).max() < 1e-4

    def test_deterministic(self):
        instances = toy_training_instances()
        cfg = TrainConfig(l2=0.01, max_iterations=100)
        m1 = train(instances, cfg)
        m2 = train(instances, cfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_rejects_empty_training_set(self):
        with pytest.raises(TrainingError):
            train([], TrainConfig())

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", 0), ("max_iterations", -1),
        ("l2", -1.0), ("l2", math.inf), ("l2", math.nan),
        ("tolerance", -1e-6), ("tolerance", math.inf), ("tolerance", math.nan),
        ("feature_cutoff", 0),
    ])
    def test_settings_that_cannot_train_are_refused(self, key, value):
        """Every caller of train gets the checks the CLI makes: zero
        iterations, a negative or non-finite l2 or tolerance and a cutoff
        below one never reach the optimizer."""
        with pytest.raises(ValueError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    def test_objective_monotone_over_accepted_steps(self):
        """The regularized objective never decreases across the iterates
        of patseg's L-BFGS loop."""
        instances = toy_training_instances(5)
        cfg = TrainConfig(l2=0.1, max_iterations=60)
        reg = build_registry(instances)

        values = []

        def f(w):
            model = CrfModel(reg, w, cfg)
            obj, grad = log_likelihood_and_gradient(model, instances)
            return -obj, -grad

        lbfgs.minimize(f, np.zeros(reg.n_weights), cfg.max_iterations, cfg.tolerance,
                       callback=lambda w, value: values.append(value))
        assert len(values) > 1
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_feature_cutoff_prunes_registry(self):
        instances = toy_training_instances(1)
        full = build_registry(instances, feature_cutoff=1)
        pruned = build_registry(instances, feature_cutoff=2)
        assert pruned.n_slots < full.n_slots

    def test_non_finite_objective_names_instance(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 3)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        # two co-occurring slots at 1e308 overflow the emission sum
        model.weights[: 2 * len(LABELS)] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError) as err:
                log_likelihood_and_gradient(model, [inst])
        assert "rand-3" in str(err.value)

    def test_non_finite_objective_names_instance_and_sentence(self):
        healthy = instance([[("t", "a")]], "S", "doc-0")
        doc = TrainingInstance(run_of([[[("t", "a")], [("t", "a")]], [[("t", "b"), ("u", "c")]]]), ("B", "E", "S"), "doc-1")
        reg = build_registry([healthy, doc])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        # the two slots that co-occur only in sentence 1 overflow its emission sum
        model.weights[len(LABELS) : 3 * len(LABELS)] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="'doc-1', sentence 1"):
                log_likelihood_and_gradient(model, [healthy, doc])


def transit_pair():
    """A model whose source model is set, as ``transit`` training leaves it."""
    source = train(toy_training_instances(3), TrainConfig(l2=0.1, max_iterations=30))
    model = train(toy_training_instances(2), TrainConfig(l2=0.5, max_iterations=20), {"mode": "transit"})
    model.source = source
    return model


@functools.cache
def transit_pair_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.crf"
        transit_pair().save(path)
        return path.read_bytes()


class TestModelFile:
    def test_round_trip_identical_predictions(self, tmp_path):
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=0.01, max_iterations=80))
        path = tmp_path / "model.crf"
        model.save(path)
        loaded = CrfModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        feats = instances[0].features
        assert loaded.viterbi(feats) == model.viterbi(feats)
        assert loaded.config == model.config

    def test_save_is_byte_stable(self, tmp_path):
        instances = toy_training_instances(3)
        model = train(instances, TrainConfig(l2=0.1, max_iterations=30))
        model.save(tmp_path / "a.crf")
        model.save(tmp_path / "b.crf")
        assert (tmp_path / "a.crf").read_bytes() == (tmp_path / "b.crf").read_bytes()

    @pytest.mark.parametrize("failing", ["serializing", "renaming"])
    def test_interrupted_save_keeps_the_previous_file(self, tmp_path, monkeypatch, failing):
        model = train(toy_training_instances(3), TrainConfig(l2=0.1, max_iterations=30))
        path = tmp_path / "model.crf"
        model.save(path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        if failing == "serializing":
            monkeypatch.setattr(json, "dumps", fail)
        else:
            monkeypatch.setattr(corpus.os, "replace", fail)
        with pytest.raises(OSError):
            model.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_rejects_foreign_files(self, tmp_path):
        with open(tmp_path / "bad.crf", "wb") as fh:
            pickle.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError):
            CrfModel.load(tmp_path / "bad.crf")

    def test_transit_pair_round_trips_in_one_file(self, tmp_path):
        model = transit_pair()
        path = tmp_path / "model.crf"
        model.save(path)
        assert list(tmp_path.iterdir()) == [path]
        loaded = CrfModel.load(path)
        for original, copy in ((model, loaded), (model.source, loaded.source)):
            assert slot_items(copy.registry) == slot_items(original.registry)
            assert np.array_equal(copy.weights, original.weights)
            assert copy.config == original.config and copy.manifest == original.manifest
        assert loaded.source.source is None
        loaded.save(tmp_path / "again.crf")
        assert (tmp_path / "again.crf").read_bytes() == path.read_bytes()

    def test_kept_templates_keep_their_order_and_weight_rows(self):
        weights = np.arange(5 * 4 + 16, dtype=np.float64)
        model = CrfModel(FeatureRegistry({"a": ["x", "y"], "b": ["z"], "c": ["x", "w"]}), weights, manifest={"m": 1})
        model.source = CrfModel(FeatureRegistry({}), np.zeros(16))
        kept = model.keep_templates(lambda t: t != "b")
        assert slot_items(kept.registry) == [(("a", "x"), 0), (("a", "y"), 1), (("c", "x"), 2), (("c", "w"), 3)]
        assert np.array_equal(kept.weights, np.concatenate([weights[:8], weights[12:]]))
        assert kept.config == model.config and kept.manifest == model.manifest and kept.source is model.source

    def test_equal_values_are_one_object_after_load(self, tmp_path):
        """A value registered under two templates, and again in the source
        model, is one string object once loaded; the bytes do not change."""
        value = "".join(["共", "享"])  # built at run time, so not interned
        model = CrfModel(FeatureRegistry({"a": [value], "b": ["x", "共享"]}), np.zeros(28))
        model.source = CrfModel(FeatureRegistry({"c": ["".join(["共", "享"])]}), np.zeros(20))
        path = tmp_path / "model.crf"
        model.save(path)
        loaded = CrfModel.load(path)
        (a,), (_, b), (c,) = (list(m.registry._slots[t]) for m, t in ((loaded, "a"), (loaded, "b"), (loaded.source, "c")))
        assert a == "共享" and a is b and a is c
        loaded.save(tmp_path / "again.crf")
        assert (tmp_path / "again.crf").read_bytes() == path.read_bytes()

    def test_loading_a_pickle_runs_nothing(self, pickled_model):
        path, marker = pickled_model
        with pytest.raises(ValueError) as err:
            CrfModel.load(path)
        assert str(path) in str(err.value) and "retrain" in str(err.value)
        assert not marker.exists()
        pickle.loads(path.read_bytes())  # the file is hostile: unpickling it does run
        assert marker.exists()

    @pytest.mark.parametrize(
        "damage, reason",
        [
            ("version", "version"),
            ("repeated value", "not distinct"),
            ("version 2 file", "unsupported version 2"),
            ("config", "numeric fields"),
            ("untrainable config", "l2 must be"),
            ("non-finite weight", "finite"),
            ("missing byte", ""),  # refused by np.frombuffer, in numpy's words
            ("trailing byte", "after the last model"),
            ("third model", "3 model entries"),
        ],
    )
    def test_each_load_check_refuses_its_damage(self, tmp_path, damage, reason):
        path = tmp_path / "model.crf"
        transit_pair().save(path)
        data = path.read_bytes()
        if damage == "version 2 file":
            data = as_version_2(data)
        end = data.index(b"\n")
        header = json.loads(data[:end])
        body = bytearray(data[end + 1 :])
        entry = header["models"][0]
        if damage == "version":
            header["version"] = 1
        elif damage == "repeated value":
            values = next(iter(entry["templates"].values()))
            values[1] = values[0]
        elif damage == "config":
            entry["config"]["l2"] = "0.1"
        elif damage == "untrainable config":
            entry["config"]["l2"] = -1
        elif damage == "non-finite weight":
            body[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        elif damage == "missing byte":
            body = body[:-1]
        elif damage == "trailing byte":
            body += b"\0"
        elif damage == "third model":
            header["models"].append(header["models"][1])
            n_weights = sum(map(len, header["models"][1]["templates"].values())) * len(LABELS) + len(LABELS) ** 2
            body += body[-8 * n_weights :]
        path.write_bytes(json.dumps(header, ensure_ascii=False).encode() + b"\n" + bytes(body))
        with pytest.raises(ValueError) as err:
            CrfModel.load(path)
        assert str(path) in str(err.value) and reason in str(err.value) and "retrain" in str(err.value)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_file_loads_or_is_refused(self, data):
        """Any truncation or single-byte change of a saved transit pair
        either still loads or raises ValueError naming the file."""
        original = transit_pair_bytes()
        if data.draw(st.booleans(), label="truncate"):
            damaged = original[: data.draw(st.integers(0, len(original) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(original) - 1), label="at")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[at]), label="byte")
            damaged = original[:at] + bytes([byte]) + original[at + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.crf"
            path.write_bytes(damaged)
            try:
                CrfModel.load(path)
            except ValueError as exc:
                assert str(path) in str(exc)


class TestLabelClosure:
    def test_decoding_composes_with_bmes_repair(self):
        """Any decoded label sequence segments back without character loss."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            sent = "".join(rng.choice(list("地板很好大肠杆菌"), size=int(rng.integers(1, 12))))
            types = char_types(sent)
            feats = [cf_features(sent, types, i) for i in range(len(sent))]
            inst = instance(feats, "S" * len(sent))
            model = random_model(rng, [inst], scale=2.0)
            labels = model.viterbi(inst.features)
            assert "".join(decode_bmes(sent, labels)) == sent
