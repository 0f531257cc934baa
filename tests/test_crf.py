import itertools
import math
import tracemalloc

import numpy as np
import pytest

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


def random_instance(rng, length, n_templates=3, n_values=4):
    feats = tuple(
        [(f"t{j}", f"v{rng.integers(n_values)}") for j in range(n_templates)]
        for _ in range(length)
    )
    gold = tuple(str(rng.choice(LABELS)) for _ in range(length))
    return TrainingInstance(feats, gold, source_id=f"rand-{length}")


def random_model(rng, instances, l2=0.0, scale=1.0):
    reg = build_registry(instances)
    weights = rng.normal(0.0, scale, reg.n_weights)
    return CrfModel(reg, weights, TrainConfig(l2=l2))


def enumerate_scores(model, features):
    """All 4^n labelings in lexicographic B<M<E<S order, with scores.

    Scores every labeling at once from the model's weight blocks, with
    the emission matrix summed slot by slot, independently of the CRF
    core.
    """
    n = len(features)
    reg = model.registry
    k = len(LABELS)
    w_e = model.weights[: reg.n_slots * k].reshape(-1, k)
    w_t = model.weights[reg.n_slots * k :].reshape(k, k)
    e = np.zeros((n, k))
    for t, fv in enumerate(features):
        for template_id, value in fv:
            slot = reg.slot(template_id, value)
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


class TestScoreSequence:
    def test_all_zero_weights(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 3)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        for seq in itertools.product(LABELS, repeat=3):
            assert model.score_sequence(list(inst.features), seq) == 0.0

    def test_single_position_single_feature(self):
        reg = FeatureRegistry()
        reg.add("t", "v")
        reg.frozen = True
        weights = np.zeros(reg.n_weights)
        weights[reg.emission_index("t", "v", "S")] = 2.0
        model = CrfModel(reg, weights)
        assert model.score_sequence([[("t", "v")]], ["S"]) == 2.0

    def test_length_two_hand_sum(self):
        reg = FeatureRegistry()
        reg.add("t", "a")
        reg.add("t", "b")
        reg.frozen = True
        weights = np.zeros(reg.n_weights)
        weights[reg.emission_index("t", "a", "B")] = 1.5
        weights[reg.emission_index("t", "b", "E")] = -0.25
        weights[reg.transition_index("B", "E")] = 3.0
        model = CrfModel(reg, weights)
        got = model.score_sequence([[("t", "a")], [("t", "b")]], ["B", "E"])
        assert got == pytest.approx(1.5 - 0.25 + 3.0)

    def test_unregistered_features_contribute_zero(self):
        reg = FeatureRegistry()
        reg.add("t", "a")
        reg.frozen = True
        model = CrfModel(reg, np.ones(reg.n_weights))
        known = model.score_sequence([[("t", "a")]], ["B"])
        with_unknown = model.score_sequence([[("t", "a"), ("t", "zzz")]], ["B"])
        assert known == with_unknown


class TestViterbi:
    def test_zero_weights_tie_break_to_all_b(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 5)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        assert model.viterbi(list(inst.features)) == ["B"] * 5

    def test_transition_dominance(self):
        reg = FeatureRegistry()
        reg.add("t", "v")
        reg.frozen = True
        weights = np.zeros(reg.n_weights)
        weights[reg.transition_index("S", "S")] = 10.0
        model = CrfModel(reg, weights)
        feats = [[("t", "v")]] * 3
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
            assert tuple(model.viterbi(list(inst.features))) == expected

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
            assert tuple(model.viterbi(list(inst.features))) == expected


    def test_batched_viterbi_matches_enumeration_on_ragged_batches(self):
        """One packed pass over mixed lengths decodes every sentence as the
        per-sentence exhaustive argmax, ties included."""
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
            expected = [list(enumeration_argmax(model, feats)) for feats in sentences]
            assert model.viterbi_batch(sentences) == expected


    def test_rows_of_ragged_arity_decode_as_the_enumeration(self):
        """Rows with different templates, repeated templates and no entries
        at all decode like the exhaustive argmax."""
        rng = np.random.default_rng(17)
        pool = [("t0", "a"), ("t0", "b"), ("t1", "a"), ("t2", "c"), ("t1", "zzz")]
        for _ in range(30):
            length = int(rng.integers(1, 7))
            feats = [
                [pool[int(j)] for j in rng.integers(0, len(pool), int(rng.integers(0, 4)))]
                for _ in range(length)
            ]
            reg = FeatureRegistry()
            for template_id, value in pool[:4]:
                reg.add(template_id, value)
            reg.frozen = True
            model = CrfModel(reg, rng.normal(0.0, 1.0, reg.n_weights))
            assert tuple(model.viterbi(feats)) == enumeration_argmax(model, feats)
            assert model.viterbi_batch([feats, feats[:1]]) == [
                list(enumeration_argmax(model, feats)), list(enumeration_argmax(model, feats[:1]))
            ]


class TestColumns:
    def test_rows_round_trip_through_columns(self):
        rows = [[("t", "a"), ("u", "b")], [], [("u", "c"), ("t", "d"), ("t", "e")]]
        columns = FeatureColumns.from_rows(rows)
        assert columns.templates == ("t", "u", "t")
        assert list(columns) == [[("t", "a"), ("u", "b")], [], [("t", "d"), ("u", "c"), ("t", "e")]]
        assert columns[2] == [("t", "d"), ("u", "c"), ("t", "e")]

    def test_sentences_split_by_length(self):
        columns = FeatureColumns(("t",), (["a", "b", "c"],), (2, 1))
        assert [list(s) for s in columns.sentences()] == [[[("t", "a")], [("t", "b")]], [[("t", "c")]]]
        with pytest.raises(ValueError):
            FeatureColumns(("t",), (["a", "b"],), (3,))

    def test_registry_from_columns_numbers_slots_as_from_rows(self):
        """First-seen order over columns equals the order of registering
        the rendered rows entry by entry, for every cutoff."""
        rng = np.random.default_rng(18)
        instances = [random_instance(rng, int(n), n_templates=4, n_values=5) for n in (3, 6, 1, 4)]
        # rows of any arity, one template repeated within a row
        instances.append(TrainingInstance(([("t", "b"), ("t", "a")], [("t", "a"), ("t", "b"), ("u", "c")]), ("S", "S")))
        columnar = [
            TrainingInstance(FeatureColumns.from_rows(inst.features), inst.gold, inst.source_id)
            for inst in instances
        ]
        for cutoff in (1, 2, 3):
            expected = FeatureRegistry()
            counts = {}
            for inst in instances:
                for fv in inst.features:
                    for key in fv:
                        counts[key] = counts.get(key, 0) + 1
            for key, c in counts.items():
                if c >= cutoff:
                    expected.add(*key)
            assert build_registry(columnar, cutoff).slot_items() == expected.slot_items()
            assert build_registry(instances, cutoff).slot_items() == expected.slot_items()

    def test_gather_sum_equals_the_sparse_product_exactly(self):
        """Decoding's gather-sum and training's sparse product give the
        same floats, unregistered values included."""
        rng = np.random.default_rng(19)
        for _ in range(10):
            instances = [random_instance(rng, int(n), n_templates=5, n_values=30) for n in rng.integers(1, 9, 6)]
            reg = build_registry(instances[:3])
            model = CrfModel(reg, rng.normal(0.0, 3.0, reg.n_weights))
            runs = [FeatureColumns.from_rows(inst.features) for inst in instances]
            batch = PackedBatch(reg.compile(runs), [len(r) for r in runs], reg.n_slots)
            sparse = batch.features @ model._emission_weights()
            assert np.array_equal(batch.emissions(model._emission_table()), sparse)


class TestMarginalsAndPartition:
    def test_zero_weights_uniform(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, 4)
        reg = build_registry([inst])
        model = CrfModel(reg, np.zeros(reg.n_weights))
        np.testing.assert_allclose(model.marginals(list(inst.features)), 0.25)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            length = int(rng.integers(1, 7))
            inst = random_instance(rng, length)
            model = random_model(rng, [inst])
            feats = list(inst.features)
            scored = enumerate_scores(model, feats)
            scores = np.array([s for _, s in scored])
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            brute = np.zeros((length, len(LABELS)))
            for (seq, _), p in zip(scored, probs):
                for t, lab in enumerate(seq):
                    brute[t, LABELS.index(lab)] += p
            np.testing.assert_allclose(model.marginals(feats), brute, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 9)
        model = random_model(rng, [inst], scale=3.0)
        marg = model.marginals(list(inst.features))
        np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)

    def test_log_partition_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            length = int(rng.integers(1, 7))
            inst = random_instance(rng, length)
            model = random_model(rng, [inst])
            feats = list(inst.features)
            scores = np.array([s for _, s in enumerate_scores(model, feats)])
            m = scores.max()
            expected = m + math.log(np.exp(scores - m).sum())
            assert model.log_partition(feats) == pytest.approx(expected, abs=1e-9)

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


def toy_training_instances(n_copies=20):
    sent, words = "地板很好", ["地板", "很", "好"]
    types = char_types(sent)
    feats = tuple(cf_features(sent, types, i) for i in range(len(sent)))
    gold = tuple(encode_bmes(words))
    return [TrainingInstance(feats, gold, f"toy#{i}") for i in range(n_copies)]


class TestTrain:
    def test_overfits_repeated_sentence(self):
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=1e-4, max_iterations=200))
        assert model.viterbi(list(instances[0].features)) == list(instances[0].gold)

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

    def test_objective_monotone_over_accepted_steps(self):
        """The regularized objective never decreases across iterates."""
        instances = toy_training_instances(5)
        cfg = TrainConfig(l2=0.1, max_iterations=60)
        reg = build_registry(instances)
        import scipy.optimize

        values = []

        def f(w):
            model = CrfModel(reg, w, cfg)
            obj, grad = log_likelihood_and_gradient(model, instances)
            return -obj, -grad

        def record(w):
            values.append(f(w)[0])

        scipy.optimize.minimize(
            f,
            np.zeros(reg.n_weights),
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={"maxiter": cfg.max_iterations, "ftol": cfg.tolerance},
        )
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


class TestModelFile:
    def test_round_trip_identical_predictions(self, tmp_path):
        instances = toy_training_instances()
        model = train(instances, TrainConfig(l2=0.01, max_iterations=80))
        path = tmp_path / "model.crf"
        model.save(path)
        loaded = CrfModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        feats = list(instances[0].features)
        assert loaded.viterbi(feats) == model.viterbi(feats)
        assert loaded.config == model.config

    def test_save_is_byte_stable(self, tmp_path):
        instances = toy_training_instances(3)
        model = train(instances, TrainConfig(l2=0.1, max_iterations=30))
        model.save(tmp_path / "a.crf")
        model.save(tmp_path / "b.crf")
        assert (tmp_path / "a.crf").read_bytes() == (tmp_path / "b.crf").read_bytes()

    def test_rejects_foreign_files(self, tmp_path):
        import pickle

        with open(tmp_path / "bad.crf", "wb") as fh:
            pickle.dump({"format": "something-else"}, fh)
        with pytest.raises(ValueError):
            CrfModel.load(tmp_path / "bad.crf")


class TestLabelClosure:
    def test_decoding_composes_with_bmes_repair(self):
        """Any decoded label sequence segments back without character loss."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            sent = "".join(rng.choice(list("地板很好大肠杆菌"), size=int(rng.integers(1, 12))))
            types = char_types(sent)
            feats = [cf_features(sent, types, i) for i in range(len(sent))]
            inst = TrainingInstance(tuple(feats), tuple("S" * len(sent)))
            model = random_model(rng, [inst], scale=2.0)
            labels = model.viterbi(feats)
            assert "".join(decode_bmes(sent, labels)) == sent
