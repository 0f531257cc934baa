import numpy as np
import pytest

from patseg.adaptation import (
    ConfigError,
    MODES,
    TRANSIT_TEMPLATE,
    augment,
    build_training,
    corpus_instances,
    decoding_features,
    decoding_model,
    segment_document,
    slice_target,
)
from patseg.corpus import Document, LABELS
from patseg.crf import TrainConfig, TrainingInstance, train
from patseg.pipeline import FeatureExtractor

from _reference import slot_items


def dense_augmentation(values, domain):
    """The augmented vector materialized over the tripled feature space.

    Layout is <common block, source block, target block> with "0" in the
    block the domain does not own: the dense semantics the sparse
    ``augment`` output is checked against.
    """
    if domain not in ("source", "target"):
        raise ValueError(f"unknown domain {domain!r}")
    zeros = ["0"] * len(values)
    if domain == "source":
        return list(values) + list(values) + zeros
    return list(values) + zeros + list(values)


def sentence_rows(columns):
    """A run's rows, sentence by sentence."""
    return [list(s) for s in columns.sentences()]


def make_doc(doc_id, sentences_words):
    sentences = tuple("".join(ws) for ws in sentences_words)
    return Document(doc_id, sentences, tuple(tuple(ws) for ws in sentences_words))


def toy_corpora():
    source = [
        make_doc("s1", [["地板", "很", "好"], ["很", "好"]]),
        make_doc("s2", [["大肠", "杆菌"], ["地板", "好"]]),
    ]
    target = [
        make_doc("t1", [["干扰素", "好"], ["地板", "干扰素"]]),
        make_doc("t2", [["杆菌", "很", "好"]]),
        make_doc("t3", [["好", "地板"]]),
    ]
    return source, target


FAST = TrainConfig(l2=0.1, max_iterations=30)


class TestAugment:
    def test_worked_example_source(self):
        fv = [("LNG", "F"), ("Dict", "1")]
        assert augment(fv, "source") == [
            ("COM:LNG", "F"),
            ("source:LNG", "F"),
            ("COM:Dict", "1"),
            ("source:Dict", "1"),
        ]
        assert dense_augmentation(["F", "1"], "source") == ["F", "1", "F", "1", "0", "0"]

    def test_worked_example_target(self):
        assert dense_augmentation(["S", "0"], "target") == ["S", "0", "0", "0", "S", "0"]

    def test_empty_vector(self):
        assert augment([], "target") == []
        assert dense_augmentation([], "target") == []

    def test_unknown_domain(self):
        with pytest.raises(ValueError):
            augment([("a", "b")], "both")

    def test_entry_count_doubles(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            fv = [(f"t{j}", str(rng.integers(5))) for j in range(int(rng.integers(0, 9)))]
            assert len(augment(fv, "source")) == 2 * len(fv)

    def test_dense_equivalence(self):
        """Sparse output materialized densely equals <x,x,0> / <x,0,x>."""
        rng = np.random.default_rng(31)
        for domain in ("source", "target"):
            values = [str(rng.integers(9)) for _ in range(6)]
            fv = [(f"t{j}", v) for j, v in enumerate(values)]
            sparse = augment(fv, domain)
            n = len(values)
            dense = ["0"] * (3 * n)
            for template_id, value in sparse:
                block, _, name = template_id.partition(":")
                j = int(name[1:])
                offset = {"COM": 0, "source": n, "target": 2 * n}[block]
                dense[offset + j] = value
            assert dense == dense_augmentation(values, domain)


class TestBuildTraining:
    def test_target_mode_counts(self):
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        instances, aux = build_training("target", source, target, extractor)
        assert aux is None
        assert [i.source_id for i in instances] == [d.doc_id for d in target]
        assert [i.features.lengths for i in instances] == [tuple(map(len, d.sentences)) for d in target]
        total_positions = sum(len(i.gold) for i in instances)
        assert total_positions == sum(len(s) for d in target for s in d.sentences)

    def test_all_mode_concatenates(self):
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        instances, _ = build_training("all", source, target, extractor)
        n_sentences = sum(len(d.sentences) for d in source) + sum(
            len(d.sentences) for d in target
        )
        assert sum(len(i.features.lengths) for i in instances) == n_sentences
        # source instances come first, one per document
        assert [i.source_id for i in instances] == [d.doc_id for d in source + target]

    def test_transit_adds_one_label_valued_template(self):
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF", "LNG"))
        instances, aux = build_training("transit", source, target, extractor, FAST)
        assert aux is not None
        base = 15  # 14 CF entries + LNG
        for inst in instances:
            for fv in inst.features:
                transits = [v for t, v in fv if t == TRANSIT_TEMPLATE]
                assert len(transits) == 1
                assert transits[0] in LABELS
                assert len(fv) == base + 1

    def test_easy_mode_augments_both_sides(self):
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        instances, _ = build_training("easy", source, target, extractor)
        assert len(instances) == len(source) + len(target)
        n_source = len(source)
        for idx, inst in enumerate(instances):
            domain = "source" if idx < n_source else "target"
            for fv in inst.features:
                assert len(fv) == 28
                assert all(
                    t.startswith(("COM:", f"{domain}:")) for t, _ in fv
                )

    def test_missing_source_is_a_config_error(self):
        _, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        for mode in ("all", "transit", "easy"):
            with pytest.raises(ConfigError):
                build_training(mode, None, target, extractor)

    def test_unknown_mode(self):
        source, target = toy_corpora()
        with pytest.raises(ConfigError):
            build_training("blend", source, target, FeatureExtractor(("CF",)))

    def test_modes_constant_is_exhaustive(self):
        assert set(MODES) == {"target", "all", "transit", "easy"}


class TestDocumentInstances:
    @pytest.mark.parametrize("mode", ["all", "easy"])
    def test_per_sentence_instances_train_the_same_model(self, mode, tmp_path):
        """The objective averages over sentences, so cutting every document
        into one instance per sentence writes the same model file."""
        source, target = toy_corpora()
        instances, _ = build_training(mode, source, target, FeatureExtractor(("CF", "LNG")))
        per_sentence = []
        for inst in instances:
            starts = np.cumsum((0,) + inst.features.lengths)
            per_sentence += [
                TrainingInstance(features, inst.gold[start : start + len(features)], f"{inst.source_id}#{si}")
                for si, (features, start) in enumerate(zip(inst.features.sentences(), starts))
            ]
        assert len(instances) == 5 and len(per_sentence) == 8
        train(instances, FAST).save(tmp_path / "documents.crf")
        train(per_sentence, FAST).save(tmp_path / "sentences.crf")
        assert (tmp_path / "documents.crf").read_bytes() == (tmp_path / "sentences.crf").read_bytes()


class TestTargetModeIsPlainPath:
    def test_byte_identical_to_direct_training(self, tmp_path):
        """Mode=target is exactly the plain extraction + training path."""
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF", "LNG"))
        instances, _ = build_training("target", source, target, extractor, FAST)
        direct = corpus_instances(target, extractor)
        assert [(sentence_rows(i.features), i.gold, i.source_id) for i in instances] == [
            (sentence_rows(i.features), i.gold, i.source_id) for i in direct
        ]
        m1 = train(instances, FAST)
        m2 = train(direct, FAST)
        m1.save(tmp_path / "a.crf")
        m2.save(tmp_path / "b.crf")
        assert (tmp_path / "a.crf").read_bytes() == (tmp_path / "b.crf").read_bytes()


class TestOneFeatureSpace:
    @pytest.mark.parametrize("mode", MODES)
    def test_decoding_rows_equal_the_training_rows_of_a_target_document(self, mode):
        """Decoding puts a target document in the feature space that its
        training instance was built in, in every mode; for transit, with
        the source model that training returned."""
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF", "LNG"))
        instances, source_model = build_training(mode, source, target, extractor, FAST)
        assert (source_model is not None) == (mode == "transit")
        for doc, inst in zip(target, instances[-len(target):], strict=True):
            assert inst.source_id == doc.doc_id
            decoded = decoding_features(doc, extractor, mode, source_model)
            assert [list(s) for s in decoded] == sentence_rows(inst.features)


class TestEasyIsolation:
    def test_source_block_unreachable_from_target_data(self):
        """Decoding augmented target data never touches source-block weights."""
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        instances, _ = build_training("easy", source, target, extractor, FAST)
        model = train(instances, FAST)
        source_slots = {
            slot
            for (template_id, _), slot in slot_items(model.registry)
            if template_id.startswith("source:")
        }
        assert source_slots
        slots = dict(slot_items(model.registry))
        for doc in target:
            for rows in decoding_features(doc, extractor, "easy"):
                for fv in rows:
                    touched = {slots[key] for key in fv if key in slots}
                    assert touched.isdisjoint(source_slots)


class TestDecodingModel:
    def test_an_easy_model_drops_the_source_namespace_and_scores_bitwise_as_before(self):
        """What :class:`TestEasyIsolation` shows decoding never reads is
        dropped, and every decoded sentence, of either corpus, gets the
        same emission and transition scores to the last bit."""
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF", "LNG"))
        instances, _ = build_training("easy", source, target, extractor, FAST)
        model = train(instances, FAST, {"mode": "easy"})
        kept = decoding_model(model)
        templates = [t for (t, _), _ in slot_items(model.registry)]
        assert {t for (t, _), _ in slot_items(kept.registry)} == {t for t in templates if not t.startswith("source:")}
        assert any(t.startswith("source:") for t in templates)
        assert kept.manifest == {**model.manifest, "dropped_namespace": "source"}
        assert "dropped_namespace" not in model.manifest
        for doc in source + target:
            for columns in decoding_features(doc, extractor, "easy"):
                _, emissions, transitions = model._scores(columns)
                _, kept_emissions, kept_transitions = kept._scores(columns)
                assert kept_emissions.tobytes() == emissions.tobytes()
                assert kept_transitions.tobytes() == transitions.tobytes()

    @pytest.mark.parametrize("mode", ["target", "all", "transit"])
    def test_other_modes_keep_the_model_as_it_is(self, mode):
        source, target = toy_corpora()
        instances, _ = build_training(mode, source, target, FeatureExtractor(("CF",)), FAST)
        model = train(instances, FAST, {"mode": mode})
        assert decoding_model(model) is model


class TestDecodingFeatures:
    def test_target_mode_matches_extractor(self):
        _, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        doc = target[0]
        assert [list(s) for s in decoding_features(doc, extractor, "target")] == [
            list(s) for s in extractor.document_features(doc)
        ]

    def test_easy_mode_augments_with_target_tag(self):
        _, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        rows = decoding_features(target[0], extractor, "easy")
        assert all(
            t.startswith(("COM:", "target:"))
            for sentence in rows
            for fv in sentence
            for t, _ in fv
        )

    def test_transit_mode_requires_source_model(self):
        _, target = toy_corpora()
        with pytest.raises(ConfigError):
            decoding_features(target[0], FeatureExtractor(("CF",)), "transit")

    def test_segment_document_covers_characters(self):
        source, target = toy_corpora()
        extractor = FeatureExtractor(("CF",))
        instances, _ = build_training("target", source, target, extractor, FAST)
        model = train(instances, FAST)
        raw = Document("r", ("地板很好", "干扰素"))
        segmented = segment_document(model, raw, extractor)
        for sent, words in zip(raw.sentences, segmented.words):
            assert "".join(words) == sent


class TestSliceTarget:
    def docs(self, counts):
        return [
            make_doc(f"d{i}", [[("x" * 1)] * c])  # c single-char words
            for i, c in enumerate(counts)
        ]

    def test_full_corpus(self):
        docs = self.docs([10, 10, 10])
        assert slice_target(docs, [30]) == [docs]

    def test_first_reach_rule(self):
        docs = self.docs([10, 10, 10])
        assert slice_target(docs, [15]) == [docs[:2]]

    def test_nested(self):
        docs = self.docs([10, 10, 10])
        subsets = slice_target(docs, [5, 15])
        assert subsets == [docs[:1], docs[:2]]

    def test_rejects_descending_sizes(self):
        with pytest.raises(ValueError):
            slice_target(self.docs([10, 10]), [15, 5])

    @pytest.mark.parametrize("sizes", [[5, 8], [10, 10], [0, 0]])
    def test_rejects_sizes_selecting_the_same_prefix(self, sizes):
        with pytest.raises(ValueError, match=f"^sizes {sizes[0]} and {sizes[1]} both select"):
            slice_target(self.docs([10, 10]), sizes)

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            slice_target(self.docs([10]), [11])
