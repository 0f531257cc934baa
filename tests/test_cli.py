import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from patseg import adaptation, corpus, crf
from patseg.cli import main
from patseg.corpus import read_corpus
from patseg.crf import CrfModel, TrainConfig
from patseg.external_features import KnowledgeBase, read_tagged_corpus
from patseg.pipeline import FeatureExtractor

from _reference import as_version_2


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def cfg_path(workspace):
    return str(workspace / "run.cfg")


class TestExtractKnowledge:
    def test_writes_three_files(self, workspace):
        result = run("extract-knowledge", "--config", cfg_path(workspace))
        assert result.exit_code == 0, result.output
        for name in ("cpos.tsv", "dict.txt", "sim.tsv"):
            assert (workspace / "kb" / name).exists()

    def test_rerun_is_byte_identical(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        first = {
            p.name: p.read_bytes() for p in (workspace / "kb").iterdir()
        }
        run("extract-knowledge", "--config", cfg_path(workspace))
        second = {
            p.name: p.read_bytes() for p in (workspace / "kb").iterdir()
        }
        assert first == second

    def test_tab_character_in_the_source_round_trips(self, workspace):
        """A tab is a one-character word like any other: the archive it
        lands in loads again, and a model trained with it segments."""
        (workspace / "source" / "s3.pos").write_text("\t_PU 中_NN 国_NN\n", encoding="utf-8")
        result = run("extract-knowledge", "--config", cfg_path(workspace))
        assert result.exit_code == 0, result.output
        kb = KnowledgeBase.load(workspace / "kb")
        assert kb.pos_lexicon["\t"] == "PU" and "\t" in kb.similarity
        all_groups = ["--set", "features.groups=CF,C_POS,DICT,SIM"]
        result = run("train", "--config", cfg_path(workspace), *all_groups)
        assert result.exit_code == 0, result.output
        (workspace / "raw" / "r1.txt").write_text("干扰素\t很好\n", encoding="utf-8")
        result = run(
            "segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
            "--output", str(workspace / "pred"), "--knowledge", str(workspace / "kb"),
        )
        assert result.exit_code == 0, result.output
        assert (workspace / "pred" / "r1.seg").read_text(encoding="utf-8").replace(" ", "") == "干扰素\t很好\n"

    def test_oversized_k_rejected_naming_inventory(self, workspace):
        result = CliRunner().invoke(
            main,
            ["extract-knowledge", "--config", cfg_path(workspace), "--set", "knowledge.sim_k=999"],
        )
        assert result.exit_code == 1
        assert "error:config:" in result.stderr
        assert "n=" in result.stderr


class TestTrain:
    def test_baseline_train_writes_model(self, workspace):
        result = run("train", "--config", cfg_path(workspace))
        assert result.exit_code == 0, result.output
        assert (workspace / "out" / "model.crf").exists()

    def test_rerun_identical_model(self, workspace):
        run("train", "--config", cfg_path(workspace))
        first = (workspace / "out" / "model.crf").read_bytes()
        run("train", "--config", cfg_path(workspace))
        assert (workspace / "out" / "model.crf").read_bytes() == first

    def test_optimizer_stop_is_recorded_and_cap_warned(self, workspace):
        result = run("train", "--config", cfg_path(workspace))
        assert "warning:" not in result.stderr
        optimizer = CrfModel.load(workspace / "out" / "model.crf").manifest["optimizer"]
        assert optimizer["converged"] and optimizer["nit"] < 150
        assert optimizer["nfev"] >= optimizer["nit"]

        result = run("train", "--config", cfg_path(workspace), "--set", "train.max_iterations=2")
        assert result.exit_code == 0, result.output
        assert "warning:training: stopped at max_iterations=2 before convergence" in result.stderr
        optimizer = CrfModel.load(workspace / "out" / "model.crf").manifest["optimizer"]
        assert optimizer["nit"] == 2 and not optimizer["converged"]
        assert optimizer["message"]

    def test_other_stops_before_convergence_are_warned(self, workspace, monkeypatch):
        objective = crf.log_likelihood_and_gradient

        def gradient_points_downhill(*args):
            value, gradient = objective(*args)
            return value, -gradient

        monkeypatch.setattr(crf, "log_likelihood_and_gradient", gradient_points_downhill)
        result = run("train", "--config", cfg_path(workspace))
        assert result.exit_code == 0, result.output
        optimizer = CrfModel.load(workspace / "out" / "model.crf").manifest["optimizer"]
        assert not optimizer["converged"] and optimizer["message"].startswith("ABNORMAL")
        warning = f"warning:training: optimizer stopped before convergence: {optimizer['message']}"
        assert result.stderr.strip() == warning.strip()

    def test_untrainable_settings_are_config_errors(self, workspace):
        for setting in ("train.l2=-1", "train.l2=nan", "train.tolerance=nan", "train.feature_cutoff=0"):
            result = CliRunner().invoke(main, ["train", "--config", cfg_path(workspace), "--set", setting])
            assert result.exit_code == 1, setting
            key = setting.split(".")[1].split("=")[0]
            assert result.stderr.startswith(f"error:config: {key} must be"), result.stderr
        assert not (workspace / "out" / "model.crf").exists()

    def test_full_feature_easy_pipeline(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        result = run(
            "train",
            "--config",
            cfg_path(workspace),
            "--set",
            "features.groups=CF,LNG,PKL,PMI,C_POS,DICT,SIM",
            "--set",
            "train.mode=easy",
        )
        assert result.exit_code == 0, result.output

    def test_transit_persists_auxiliary_model(self, workspace):
        result = run(
            "train", "--config", cfg_path(workspace), "--set", "train.mode=transit"
        )
        assert result.exit_code == 0, result.output
        assert [p.name for p in (workspace / "out").iterdir()] == ["model.crf"]
        source_docs = [t.doc for t in read_tagged_corpus(workspace / "source")]
        _, source_model = adaptation.build_training(
            "transit", source_docs, read_corpus(workspace / "train"), FeatureExtractor(("CF",)),
            TrainConfig(l2=0.01, max_iterations=150),
        )
        loaded = CrfModel.load(workspace / "out" / "model.crf").source
        assert loaded.registry.slot_items() == source_model.registry.slot_items()
        assert np.array_equal(loaded.weights, source_model.weights)

    def test_model_bytes_do_not_depend_on_where_the_corpora_live(self, workspace, tmp_path_factory):
        other = tmp_path_factory.mktemp("elsewhere") / "world"
        shutil.copytree(workspace, other)
        config = (other / "run.cfg").read_text(encoding="utf-8").replace(str(workspace), str(other))
        (other / "run.cfg").write_text(config, encoding="utf-8")
        for root in (workspace, other):
            result = run("train", "--config", cfg_path(root), "--set", "train.mode=transit")
            assert result.exit_code == 0, result.output
        assert (other / "out" / "model.crf").read_bytes() == (workspace / "out" / "model.crf").read_bytes()

    def test_missing_source_named_explicitly(self, workspace):
        result = CliRunner().invoke(
            main,
            [
                "train",
                "--config",
                cfg_path(workspace),
                "--set",
                "train.mode=all",
                "--set",
                "data.source=",
            ],
        )
        assert result.exit_code == 1
        assert "error:config:" in result.stderr
        assert "source" in result.stderr


class TestSegment:
    def test_overfit_model_reproduces_training_segmentation(self, workspace):
        run("train", "--config", cfg_path(workspace))
        raw_train = workspace / "raw_train"
        raw_train.mkdir()
        for doc in read_corpus(workspace / "train", "segmented"):
            (raw_train / f"{doc.doc_id}.txt").write_text(
                "".join(s + "\n" for s in doc.sentences), encoding="utf-8"
            )
        result = run(
            "segment",
            "--model",
            str(workspace / "out" / "model.crf"),
            "--input",
            str(raw_train),
            "--output",
            str(workspace / "pred"),
        )
        assert result.exit_code == 0, result.output
        gold = read_corpus(workspace / "train", "segmented")
        pred = read_corpus(workspace / "pred", "segmented")
        assert [d.words for d in pred] == [d.words for d in gold]

    def test_failed_write_leaves_no_partial_segmentation(self, workspace, monkeypatch):
        run("train", "--config", cfg_path(workspace))
        args = ["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw")]
        assert run(*args, "--output", str(workspace / "pred")).exit_code == 0
        before = (workspace / "pred" / "r1.seg").read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(corpus.os, "replace", fail)
        for out in ("pred", "fresh"):
            result = CliRunner().invoke(main, [*args, "--output", str(workspace / out)])
            assert result.exit_code == 1 and result.stderr.startswith("error:io: ")
        assert [p.name for p in (workspace / "pred").iterdir()] == ["r1.seg"]
        assert (workspace / "pred" / "r1.seg").read_bytes() == before
        assert list((workspace / "fresh").iterdir()) == []

    def test_blank_lines_preserved_and_coverage(self, workspace):
        run("train", "--config", cfg_path(workspace))
        result = run(
            "segment",
            "--model",
            str(workspace / "out" / "model.crf"),
            "--input",
            str(workspace / "raw"),
            "--output",
            str(workspace / "pred"),
        )
        assert result.exit_code == 0, result.output
        out_lines = (workspace / "pred" / "r1.seg").read_text(encoding="utf-8").splitlines()
        in_lines = (workspace / "raw" / "r1.txt").read_text(encoding="utf-8").splitlines()
        assert len(out_lines) == len(in_lines)
        for src, out in zip(in_lines, out_lines):
            assert out.replace(" ", "") == src

    def test_unicode_line_separators_stay_inside_their_line(self, workspace):
        """Form feed, U+0085 and U+2028 are characters, not line breaks, on
        both the segment and the eval side."""
        run("train", "--config", cfg_path(workspace))
        gold_lines = ["干扰素 \x0c 很 好", "地板\u2028 好", "很 \x85大", "杆菌 大"]
        raw, gold = workspace / "raw_sep", workspace / "gold_sep"
        raw.mkdir()
        gold.mkdir()
        (raw / "a.txt").write_text(
            "".join(ln.replace(" ", "") + "\n" for ln in gold_lines), encoding="utf-8"
        )
        (gold / "a.seg").write_text("".join(ln + "\n" for ln in gold_lines), encoding="utf-8")
        result = run(
            "segment",
            "--model",
            str(workspace / "out" / "model.crf"),
            "--input",
            str(raw),
            "--output",
            str(workspace / "pred_sep"),
        )
        assert result.exit_code == 0, result.output
        out = (workspace / "pred_sep" / "a.seg").read_text(encoding="utf-8").split("\n")
        assert out[-1] == "" and len(out) - 1 == len(gold_lines)
        for line, ref in zip(out, gold_lines):
            assert line.replace(" ", "") == ref.replace(" ", "")
        result = run("eval", "--gold", str(gold), "--pred", str(workspace / "pred_sep"))
        assert result.exit_code == 0, result.output
        assert "f1 " in result.output

    def test_a_space_in_a_raw_line_is_refused(self, workspace):
        """Words are separated by U+0020 in segmented output, so a raw line
        holding one has no output line; tab, U+3000 and U+00A0 are
        ordinary characters."""
        run("train", "--config", cfg_path(workspace))
        raw_lines = ["干扰素\t很好", "地板\u3000好", "很\xa0大"]
        raw = workspace / "raw_ws"
        raw.mkdir()
        (raw / "a.txt").write_text("".join(ln + "\n" for ln in raw_lines), encoding="utf-8")
        args = ["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(raw),
                "--output", str(workspace / "pred_ws")]
        result = run(*args)
        assert result.exit_code == 0, result.output
        out = (workspace / "pred_ws" / "a.seg").read_text(encoding="utf-8").split("\n")
        assert [ln.replace(" ", "") for ln in out] == raw_lines + [""]

        (raw / "b.txt").write_text("地板好\nab cd专利\n", encoding="utf-8")
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ")
        assert f"{raw / 'b.txt'}:2:" in result.stderr and "U+0020" in result.stderr
        assert not (workspace / "pred_ws" / "b.seg").exists()

    def test_arbitrary_unicode_lines_round_trip(self, workspace):
        """raw -> segment -> eval over lines drawn from Hanzi, Latin,
        digits, full-width forms and Unicode separators other than line
        ends and U+0020: every output line rebuilds its raw line, and eval
        reads the output back."""
        run("train", "--config", cfg_path(workspace))
        model = str(workspace / "out" / "model.crf")
        chars = st.one_of(
            st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),  # CJK ideographs
            st.characters(min_codepoint=0x21, max_codepoint=0x7E),  # printable ASCII but space
            st.characters(min_codepoint=0xC0, max_codepoint=0x17F),  # Latin-1 and Latin Extended-A letters
            st.characters(min_codepoint=0xFF01, max_codepoint=0xFF5E),  # full-width forms
            st.sampled_from("\t\x0c\x85\u2028\u3000"),
        )

        @settings(max_examples=50, deadline=None)
        @given(st.lists(st.text(chars, max_size=20), min_size=1, max_size=5).filter(any))
        def round_trip(lines):
            with tempfile.TemporaryDirectory() as tmp:
                raw, gold, pred = Path(tmp, "raw"), Path(tmp, "gold"), Path(tmp, "pred")
                raw.mkdir()
                gold.mkdir()
                text = "".join(ln + "\n" for ln in lines)
                (raw / "a.txt").write_text(text, encoding="utf-8")
                (gold / "a.seg").write_text(text, encoding="utf-8")  # each line one word
                result = run("segment", "--model", model, "--input", str(raw), "--output", str(pred))
                assert result.exit_code == 0, result.output
                out = (pred / "a.seg").read_text(encoding="utf-8").split("\n")
                assert [ln.replace(" ", "") for ln in out] == lines + [""]
                result = run("eval", "--gold", str(gold), "--pred", str(pred))
                assert result.exit_code == 0, result.output

        round_trip()

    def test_two_files_with_one_document_id_are_refused(self, workspace):
        run("train", "--config", cfg_path(workspace))
        (workspace / "raw" / "r1.md").write_text("地板好\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
             "--output", str(workspace / "pred")],
        )
        assert result.exit_code == 1
        assert "error:invalid:" in result.stderr
        assert "r1.md" in result.stderr and "r1.txt" in result.stderr
        assert not (workspace / "pred" / "r1.seg").exists()

    @pytest.mark.parametrize("damage", ["truncated", "empty", "list", "version 2"])
    def test_bad_model_file_is_an_invalid_error(self, workspace, damage):
        """A damaged file, or a well-formed one of the previous format, is
        refused with a message to retrain."""
        run("train", "--config", cfg_path(workspace))
        model = workspace / "out" / "model.crf"
        data = model.read_bytes()
        damaged = {"truncated": data[: len(data) // 2], "empty": b"", "list": pickle.dumps([1, 2])}
        model.write_bytes(damaged[damage] if damage in damaged else as_version_2(data))
        result = CliRunner().invoke(
            main, ["segment", "--model", str(model), "--input", str(workspace / "raw"),
                   "--output", str(workspace / "pred")],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ") and str(model) in result.stderr
        assert "retrain" in result.stderr

    def test_pickled_model_is_refused_without_running_it(self, workspace, pickled_model):
        model, marker = pickled_model
        result = CliRunner().invoke(
            main, ["segment", "--model", str(model), "--input", str(workspace / "raw"),
                   "--output", str(workspace / "pred")],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ") and str(model) in result.stderr
        assert "retrain" in result.stderr
        assert not marker.exists()

    def test_transit_model_without_its_source_is_refused(self, workspace):
        run("train", "--config", cfg_path(workspace), "--set", "train.mode=transit")
        model_path = workspace / "out" / "model.crf"
        args = ["segment", "--model", str(model_path), "--input", str(workspace / "raw"),
                "--output", str(workspace / "pred")]
        assert run(*args).exit_code == 0  # the one file is all segment needs
        model = CrfModel.load(model_path)
        model.source = None
        model.save(model_path)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ") and str(model_path) in result.stderr

    def test_feature_group_mismatch_refused(self, workspace):
        run("train", "--config", cfg_path(workspace))
        result = CliRunner().invoke(
            main,
            [
                "segment",
                "--model",
                str(workspace / "out" / "model.crf"),
                "--input",
                str(workspace / "raw"),
                "--output",
                str(workspace / "pred"),
                "--set",
                "features.groups=CF,LNG",
            ],
        )
        assert result.exit_code == 1
        assert "error:mismatch:" in result.stderr

    def test_knowledge_checksum_mismatch_refused(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        run(
            "train",
            "--config",
            cfg_path(workspace),
            "--set",
            "features.groups=CF,DICT",
        )
        # corrupt the archive after training
        (workspace / "kb" / "dict.txt").write_text("тампер\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            [
                "segment",
                "--model",
                str(workspace / "out" / "model.crf"),
                "--input",
                str(workspace / "raw"),
                "--output",
                str(workspace / "pred"),
                "--knowledge",
                str(workspace / "kb"),
            ],
        )
        assert result.exit_code == 1
        assert "error:mismatch:" in result.stderr


class TestEval:
    def test_identical_files_score_100(self, workspace):
        result = run(
            "eval",
            "--gold",
            str(workspace / "train"),
            "--pred",
            str(workspace / "train"),
            "--ref-vocab",
            str(workspace / "source"),
        )
        assert result.exit_code == 0, result.output
        assert "f1 100.00" in result.output
        assert "oov_recall 100.00" in result.output

    def test_missing_ref_vocab_reports_na(self, workspace):
        result = run(
            "eval", "--gold", str(workspace / "train"), "--pred", str(workspace / "train")
        )
        assert "oov_recall n/a" in result.output

    def test_report_file(self, workspace):
        run(
            "eval",
            "--gold",
            str(workspace / "train"),
            "--pred",
            str(workspace / "train"),
            "--report",
            str(workspace / "out" / "eval.csv"),
        )
        text = (workspace / "out" / "eval.csv").read_text(encoding="utf-8")
        assert text.splitlines()[0] == "precision,recall,f1,oov_recall"
        assert text.splitlines()[1] == "100.00,100.00,100.00,n/a"

    def test_report_file_gets_the_mode_open_gives(self, workspace):
        """The report is created under the umask, like any file the
        process makes with open, not with a private 0600 mode."""
        out = workspace / "out"
        out.mkdir()
        old_umask = os.umask(0o022)
        try:
            result = run("eval", "--gold", str(workspace / "train"), "--pred", str(workspace / "train"),
                         "--report", str(out / "eval.csv"))
            with open(out / "plain.txt", "w", encoding="utf-8"):
                pass
        finally:
            os.umask(old_umask)
        assert result.exit_code == 0, result.output
        assert (out / "eval.csv").stat().st_mode == (out / "plain.txt").stat().st_mode

    def test_misalignment_is_an_error(self, workspace):
        bad = workspace / "bad"
        bad.mkdir()
        (bad / "t1.seg").write_text("干扰 素很 好\n", encoding="utf-8")
        result = CliRunner().invoke(
            main,
            ["eval", "--gold", str(workspace / "train"), "--pred", str(bad)],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr


    def test_two_files_with_one_document_id_are_refused(self, workspace):
        pred = workspace / "pred_dup"
        pred.mkdir()
        for name in ("t1.seg", "t1.txt", "t2.seg"):
            (pred / name).write_bytes((workspace / "train" / name.replace(".txt", ".seg")).read_bytes())
        result = CliRunner().invoke(main, ["eval", "--gold", str(workspace / "train"), "--pred", str(pred)])
        assert result.exit_code == 1
        assert "error:invalid:" in result.stderr
        assert "t1.seg" in result.stderr and "t1.txt" in result.stderr


class TestImports:
    """Decoding and knowledge extraction never load the optimizer or the
    sparse matrices, which only training uses."""

    def modules_after(self, *args):
        code = (
            "import json, sys\n"
            "from patseg.cli import main\n"
            f"main({list(args)!r}, standalone_mode=False)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    def test_segment_and_extract_knowledge_load_no_optimizer(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        all_groups = ["--set", "features.groups=CF,LNG,PKL,PMI,C_POS,DICT,SIM"]
        assert run("train", "--config", cfg_path(workspace), *all_groups).exit_code == 0
        for args in (
            ["extract-knowledge", "--config", cfg_path(workspace)],
            ["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
             "--output", str(workspace / "pred"), "--knowledge", str(workspace / "kb")],
        ):
            loaded = self.modules_after(*args)
            assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded, args[0]
        assert (workspace / "pred" / "r1.seg").exists()

    def test_train_loads_the_optimizer(self, workspace):
        loaded = self.modules_after("train", "--config", cfg_path(workspace))
        assert "scipy.optimize" in loaded and "scipy.sparse" in loaded
        assert callable(crf.scipy.optimize.minimize)


class TestCurve:
    def test_two_by_two_report(self, workspace):
        result = run(
            "curve",
            "--config",
            cfg_path(workspace),
            "--set",
            "curve.sizes=4,11",
            "--set",
            "curve.modes=target,all",
            "--set",
            "train.max_iterations=40",
        )
        assert result.exit_code == 0, result.output
        lines = (workspace / "out" / "report.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mode,size,precision,recall,f1,oov_recall"
        assert len(lines) == 5
        assert [ln.split(",")[0] for ln in lines[1:]] == ["all", "all", "target", "target"]
        plot = (workspace / "out" / "report.plot.tsv").read_text(encoding="utf-8").splitlines()
        assert plot[0] == "size\tall\ttarget"
        assert len(plot) == 3

    def test_no_partial_report_on_failure(self, workspace):
        result = CliRunner().invoke(
            main,
            [
                "curve",
                "--config",
                cfg_path(workspace),
                "--set",
                "curve.sizes=4,9999",
            ],
        )
        assert result.exit_code == 1
        assert not (workspace / "out" / "report.csv").exists()


class TestConfigErrors:
    def test_bad_override_format(self, workspace):
        result = CliRunner().invoke(
            main, ["train", "--config", cfg_path(workspace), "--set", "nonsense"]
        )
        assert result.exit_code == 1
        assert "error:config:" in result.stderr


class TestInputNotUtf8:
    """Bytes that are not UTF-8 in any file a command reads are a parse
    error naming the file and line."""

    @staticmethod
    def spoil(path, lineno):
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] += b"\xff"
        path.write_bytes(b"\n".join(lines))

    @staticmethod
    def assert_parse_error(args, path, lineno):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert f"error:parse: {path}:{lineno}: not UTF-8" in result.stderr

    def test_extract_knowledge_names_the_source_file(self, workspace):
        bad = workspace / "source" / "s1.pos"
        self.spoil(bad, 2)
        self.assert_parse_error(["extract-knowledge", "--config", cfg_path(workspace)], bad, 2)

    def test_train_names_the_knowledge_archive_file(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        bad = workspace / "kb" / "dict.txt"
        self.spoil(bad, 2)
        args = ["train", "--config", cfg_path(workspace), "--set", "features.groups=CF,DICT"]
        self.assert_parse_error(args, bad, 2)

    def test_segment_names_the_raw_file(self, workspace):
        run("train", "--config", cfg_path(workspace))
        bad = workspace / "raw" / "r1.txt"
        self.spoil(bad, 3)
        args = ["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
                "--output", str(workspace / "pred")]
        self.assert_parse_error(args, bad, 3)

    def test_eval_names_the_gold_file(self, workspace):
        bad = workspace / "train" / "t2.seg"
        self.spoil(bad, 2)
        self.assert_parse_error(["eval", "--gold", str(workspace / "train"), "--pred", str(workspace / "train")], bad, 2)
