import pytest

from patseg.corpus import Document
from patseg.crf import TrainConfig
from patseg.evaluation import (
    CurvePoint,
    SegScore,
    run_curve,
    score,
    score_documents,
    word_types,
    write_curve_report,
    write_plot_data,
)
from patseg.pipeline import FeatureExtractor

import io


def make_doc(doc_id, sentences_words):
    sentences = tuple("".join(ws) for ws in sentences_words)
    return Document(doc_id, sentences, tuple(tuple(ws) for ws in sentences_words))


class TestScore:
    def test_identity(self):
        gold = [["地板", "好"], ["很", "好"]]
        s = score(gold, gold)
        assert s.precision == s.recall == s.f1 == 1.0

    def test_hand_case(self):
        s = score([["地板", "好"]], [["地", "板", "好"]])
        assert s.correct_words == 1
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)
        assert s.f1 == pytest.approx(0.4)

    def test_swapping_gold_and_pred_swaps_p_and_r(self):
        gold = [["地板", "好"], ["干扰素"]]
        pred = [["地", "板好"], ["干", "扰素"]]
        a = score(gold, pred)
        b = score(pred, gold)
        assert a.precision == b.recall and a.recall == b.precision

    def test_oov_undefined_when_vocab_covers_gold(self):
        gold = [["地板", "好"]]
        s = score(gold, gold, ref_vocab={"地板", "好"})
        assert s.oov_recall is None
        assert s.gold_oov == 0

    def test_oov_recall_counts(self):
        gold = [["地板", "干扰素", "好"]]
        pred = [["地板", "干", "扰素", "好"]]
        s = score(gold, pred, ref_vocab={"地板", "好"})
        assert s.gold_oov == 1
        assert s.correct_oov == 0
        assert s.oov_recall == 0.0
        hit = score(gold, gold, ref_vocab={"地板", "好"})
        assert hit.oov_recall == 1.0

    def test_oov_count_invariants(self):
        s = score([["地板", "好", "干扰素"]], [["地板", "好干", "扰素"]], ref_vocab={"好"})
        assert s.correct_oov <= s.gold_oov
        assert s.correct_oov <= s.correct_words

    def test_character_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            score([["地板"]], [["地", "好"]])

    def test_no_ref_vocab_means_no_oov(self):
        s = score([["地板"]], [["地板"]])
        assert s.oov_recall is None

    def test_formatted_percentages(self):
        s = SegScore(0.9666, 0.9652, 0.9659, 0.9249, 1, 1, 1, 1, 1)
        cells = s.formatted()
        assert cells == {
            "precision": "96.66",
            "recall": "96.52",
            "f1": "96.59",
            "oov_recall": "92.49",
        }


class TestScoreDocuments:
    def test_alignment_by_doc_id(self):
        gold = [make_doc("a", [["地板", "好"]]), make_doc("b", [["很", "好"]])]
        pred = [make_doc("b", [["很", "好"]]), make_doc("a", [["地板", "好"]])]
        assert score_documents(gold, pred).f1 == 1.0

    def test_missing_document(self):
        gold = [make_doc("a", [["好"]])]
        with pytest.raises(ValueError) as err:
            score_documents(gold, [])
        assert "a" in str(err.value)

    def test_a_prediction_without_gold_is_refused(self):
        gold = [make_doc("a", [["好"]])]
        pred = [make_doc("a", [["好"]]), make_doc("zz", [["好"]])]
        with pytest.raises(ValueError, match="'zz' missing from the gold corpus"):
            score_documents(gold, pred)

    def test_duplicate_document_ids_are_rejected(self):
        gold = [make_doc("a", [["好"]])]
        twice = [make_doc("a", [["好"]]), make_doc("a", [["好"]])]
        for g, p in ((gold, twice), (twice, gold)):
            with pytest.raises(ValueError) as err:
                score_documents(g, p)
            assert "'a'" in str(err.value)

    def test_character_mismatch_names_document_and_line(self):
        gold = [make_doc("a", [["地板"], ["很", "好"]])]
        pred = [make_doc("a", [["地板"], ["好", "很"]])]
        with pytest.raises(ValueError) as err:
            score_documents(gold, pred)
        assert "'a'" in str(err.value) and "line 2" in str(err.value)


class TestRunCurve:
    def corpora(self):
        source = [make_doc("s1", [["地板", "很", "好"], ["很", "好", "好"]])]
        target = [
            make_doc("t1", [["干扰素", "好"], ["地板", "好"]]),
            make_doc("t2", [["杆菌", "很", "好"], ["好", "很"]]),
        ]
        dev = [make_doc("d1", [["干扰素", "很", "好"]])]
        return source, target, dev

    def test_degenerate_curve_equals_direct_run(self):
        from patseg import adaptation
        from patseg.crf import train

        source, target, dev = self.corpora()
        extractor = FeatureExtractor(("CF",))
        cfg = TrainConfig(l2=0.1, max_iterations=30)
        total = sum(d.word_count() for d in target)
        points = run_curve(source, target, dev, [total], ["target"], extractor, cfg)
        assert len(points) == 1

        instances, _ = adaptation.build_training("target", source, target, extractor, cfg)
        model = train(instances, cfg)
        predicted = [adaptation.segment_document(model, d, extractor) for d in dev]
        direct = score_documents(dev, predicted, word_types(source))
        assert points[0].score == direct

    def test_a_transit_curve_trains_its_source_model_once(self, monkeypatch):
        """Every cell of a transit curve reads the same source model, so it
        is trained once, and the cells score as curves of one size each."""
        from patseg import adaptation

        source, target, dev = self.corpora()
        extractor = FeatureExtractor(("CF",))
        cfg = TrainConfig(l2=0.1, max_iterations=15)
        separate = [p for size in (4, 5) for p in run_curve(source, target, dev, [size], ["transit"], extractor, cfg)]
        trained = []
        source_train = adaptation.train
        monkeypatch.setattr(adaptation, "train", lambda *args: trained.append(args) or source_train(*args))
        points = run_curve(source, target, dev, [4, 5], ["target", "transit"], extractor, cfg)
        assert len(trained) == 1
        assert [p for p in points if p.mode == "transit"] == separate

    def test_cartesian_product_of_cells(self):
        source, target, dev = self.corpora()
        extractor = FeatureExtractor(("CF",))
        cfg = TrainConfig(l2=0.1, max_iterations=15)
        # 4 words are t1, 5 are t1 and t2
        points = run_curve(source, target, dev, [5, 4], ["target", "easy"], extractor, cfg)
        assert [(p.mode, p.size) for p in points] == [
            ("easy", 4), ("easy", 5), ("target", 4), ("target", 5),
        ]

    def test_sizes_selecting_the_same_documents_are_refused(self):
        """5 and 9 words both select t1 and t2: one cell under two labels."""
        source, target, dev = self.corpora()
        with pytest.raises(ValueError, match=r"^sizes 5 and 9 both select the first 2 document\(s\) \(9 words\)"):
            run_curve(source, target, dev, [2, 5, 9], ["target"], FeatureExtractor(("CF",)), TrainConfig())

    def test_failed_cell_names_mode_and_size(self):
        source, target, dev = self.corpora()
        extractor = FeatureExtractor(("CF",))
        with pytest.raises(RuntimeError) as err:
            # transit needs a source corpus; pass an empty one through
            run_curve([], target, dev, [2], ["transit"], extractor, TrainConfig())
        assert "mode=transit" in str(err.value) and "size=2" in str(err.value)

    def test_determinism(self):
        source, target, dev = self.corpora()
        extractor = FeatureExtractor(("CF",))
        cfg = TrainConfig(l2=0.1, max_iterations=15)
        a = run_curve(source, target, dev, [5], ["target", "all"], extractor, cfg)
        b = run_curve(source, target, dev, [5], ["target", "all"], extractor, cfg)
        assert a == b


class TestReports:
    def points(self):
        s1 = SegScore(0.5, 0.25, 1 / 3, None, 4, 2, 1, 0, 0)
        s2 = SegScore(1.0, 1.0, 1.0, 0.5, 2, 2, 2, 2, 1)
        return [CurvePoint("target", 20, s2), CurvePoint("easy", 10, s1)]

    def test_report_rows_sorted_and_formatted(self):
        out = io.StringIO()
        write_curve_report(self.points(), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "mode,size,precision,recall,f1,oov_recall"
        assert lines[1] == "easy,10,50.00,25.00,33.33,n/a"
        assert lines[2] == "target,20,100.00,100.00,100.00,50.00"

    def test_plot_data_layout(self):
        out = io.StringIO()
        write_plot_data(self.points(), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "size\teasy\ttarget"
        assert lines[1].startswith("10\t33.33\t")
        assert lines[2].endswith("\t100.00")
