import contextlib
import gc
import importlib.util
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patseg import adaptation, cli, corpus, crf
from patseg.cli import main
from patseg.corpus import read_corpus
from patseg.crf import CrfModel, TrainConfig
from patseg.external_features import KnowledgeBase, read_tagged_corpus
from patseg.pipeline import FeatureExtractor

from _reference import as_version_2, slot_items


def invoke(args):
    """Run ``main(args)`` in this process with its stdout and stderr captured.

    A usage error or ``--help`` ends in argparse's ``SystemExit``, whose code
    becomes ``exit_code``; any other exception propagates to the test.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            exit_code = main(list(args))
        except SystemExit as exc:
            exit_code, exception = exc.code, exc
    out, err = stdout.getvalue(), stderr.getvalue()
    return SimpleNamespace(exit_code=exit_code, stdout=out, stderr=err, output=out + err, exception=exception)


def run(*args):
    return invoke(args)


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
        assert kb.pos_lexicon["\t"] == "PU" and "\t" in kb.similarity.vocab
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

    def test_plain_source_is_refused_naming_the_tagged_format(self, workspace):
        result = invoke(
            ["extract-knowledge", "--config", cfg_path(workspace), "--set", "data.source_format=plain"]
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:config: ") and result.stderr.count("\n") == 1
        assert "tagged" in result.stderr
        assert not (workspace / "kb").exists()

    def test_oversized_k_rejected_naming_inventory(self, workspace):
        result = invoke(
            ["extract-knowledge", "--config", cfg_path(workspace), "--set", "knowledge.sim_k=999"],
        )
        assert result.exit_code == 1
        assert "error:config:" in result.stderr
        assert "n=" in result.stderr

    def test_similarity_matrices_too_large_for_memory_are_a_config_error(self, workspace, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "eigh", no_memory)
        result = invoke(["extract-knowledge", "--config", cfg_path(workspace)])
        assert result.exit_code == 1
        # 地板很好大肠杆菌: the source corpus's distinct characters
        assert result.stderr.startswith("error:config: the similarity model of 8 distinct characters")
        assert result.stderr.count("\n") == 1
        assert not (workspace / "kb").exists()


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

    def test_transit_source_model_stop_is_warned(self, workspace):
        result = run("train", "--config", cfg_path(workspace), "--set", "train.mode=transit",
                     "--set", "train.max_iterations=2")
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == [
            "warning:training: stopped at max_iterations=2 before convergence",
            "warning:training: source model stopped at max_iterations=2 before convergence",
        ]

    def test_oversized_sim_header_is_a_parse_error(self, workspace):
        run("extract-knowledge", "--config", cfg_path(workspace))
        sim = workspace / "kb" / "sim.tsv"
        lines = sim.read_text(encoding="utf-8").splitlines(keepends=True)
        sim.write_text("".join(["100000000 100000\n", *lines[1:]]), encoding="utf-8")
        result = invoke(["train", "--config", cfg_path(workspace), "--set", "features.groups=CF,SIM"])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error:parse: {sim}:2:"), result.stderr

    def test_untrainable_settings_are_config_errors(self, workspace):
        for setting in ("train.l2=-1", "train.l2=nan", "train.tolerance=nan", "train.feature_cutoff=0"):
            result = invoke(["train", "--config", cfg_path(workspace), "--set", setting])
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

    def test_easy_mode_trains_from_a_plain_segmented_source(self, workspace):
        plain = workspace / "plain_source"
        plain.mkdir()
        for t in read_tagged_corpus(workspace / "source"):
            (plain / f"{t.doc.doc_id}.seg").write_text(
                "".join(" ".join(words) + "\n" for words in t.doc.words), encoding="utf-8"
            )
        result = run(
            "train", "--config", cfg_path(workspace), "--set", "train.mode=easy",
            "--set", f"data.source={plain}", "--set", "data.source_format=plain",
        )
        assert result.exit_code == 0, result.output
        model = CrfModel.load(workspace / "out" / "model.crf")
        assert model.manifest["mode"] == "easy" and model.manifest["dropped_namespace"] == "source"
        assert not any(t.startswith("source:") for (t, _), _ in slot_items(model.registry))
        assert any(t.startswith("target:") for (t, _), _ in slot_items(model.registry))

    def test_an_easy_model_saved_whole_segments_as_the_file_train_writes(self, workspace, monkeypatch):
        """An easy model file that still holds the source namespace, as
        ``train`` wrote before dropping it, loads and segments byte for
        byte as the file ``train`` writes now."""
        run("extract-knowledge", "--config", cfg_path(workspace))
        whole = workspace / "whole.crf"
        drop = adaptation.decoding_model

        def save_whole_first(model):
            model.save(whole)
            return drop(model)

        monkeypatch.setattr(adaptation, "decoding_model", save_whole_first)
        groups = "features.groups=CF,LNG,PKL,PMI,C_POS,DICT,SIM"
        result = run("train", "--config", cfg_path(workspace), "--set", "train.mode=easy", "--set", groups)
        assert result.exit_code == 0, result.output
        written = workspace / "out" / "model.crf"
        assert any(t.startswith("source:") for (t, _), _ in slot_items(CrfModel.load(whole).registry))
        assert written.stat().st_size < whole.stat().st_size
        (workspace / "raw" / "r2.txt").write_text("大肠杆菌很大\n地板干扰素\n", encoding="utf-8")
        outputs = []
        for model in (whole, written):
            pred = workspace / f"pred-{model.stem}"
            result = run(
                "segment", "--model", str(model), "--input", str(workspace / "raw"), "--output", str(pred),
                "--knowledge", str(workspace / "kb"),
            )
            assert result.exit_code == 0, result.output
            outputs.append({p.name: p.read_bytes() for p in pred.iterdir()})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 2

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
        assert slot_items(loaded.registry) == slot_items(source_model.registry)
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

    def test_percent_signs_in_config_values_are_literal(self, workspace):
        """A "%" starts no interpolation: a "100%" directory and a "%(x)s"
        file name are used as written."""
        train = workspace / "100%" / "train"
        shutil.copytree(workspace / "train", train)
        model = workspace / "out" / "%(x)s.crf"
        config = workspace / "percent.cfg"
        config.write_text(f"[data]\ntarget_train = {train}\n\n[output]\nmodel = {model}\n", encoding="utf-8")
        result = run("train", "--config", str(config))
        assert result.exit_code == 0, result.output
        assert result.stdout == f"model written to {model}\n"
        assert CrfModel.load(model).manifest["corpus_checksums"]["target_train"] == corpus.checksum(str(train))

    def test_missing_source_named_explicitly(self, workspace):
        result = invoke(
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
            result = invoke([*args, "--output", str(workspace / out)])
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

    def test_a_file_of_blank_lines_gives_as_many_blank_lines(self, workspace):
        run("train", "--config", cfg_path(workspace))
        (workspace / "raw" / "r2.txt").write_text("\n\n\n", encoding="utf-8")
        result = run("segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
                     "--output", str(workspace / "pred"))
        assert result.exit_code == 0, result.output
        assert (workspace / "pred" / "r2.seg").read_bytes() == b"\n\n\n"

    def test_a_model_that_needs_knowledge_is_refused_without_it(self, workspace):
        assert run("extract-knowledge", "--config", cfg_path(workspace)).exit_code == 0
        result = run("train", "--config", cfg_path(workspace), "--set", "features.groups=CF,DICT,SIM")
        assert result.exit_code == 0, result.output
        result = invoke(["segment", "--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
                         "--output", str(workspace / "pred")])
        assert result.exit_code == 1
        assert result.stderr == "error:config: model needs feature groups ['DICT', 'SIM']; pass --knowledge\n"
        assert not (workspace / "pred").exists()

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
        result = invoke(args)
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
        result = invoke(
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
        result = invoke(
            ["segment", "--model", str(model), "--input", str(workspace / "raw"),
             "--output", str(workspace / "pred")],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ") and str(model) in result.stderr
        assert "retrain" in result.stderr

    def test_pickled_model_is_refused_without_running_it(self, workspace, pickled_model):
        model, marker = pickled_model
        result = invoke(
            ["segment", "--model", str(model), "--input", str(workspace / "raw"),
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
        result = invoke(args)
        assert result.exit_code == 1
        assert result.stderr.startswith("error:invalid: ") and str(model_path) in result.stderr

    @pytest.mark.parametrize("field, value", [
        ("feature_groups", 5), ("feature_groups", [[1]]), ("feature_groups", "CF"), ("feature_groups", ["CF", "XYZ"]),
        ("mode", 5), ("mode", "sideways"),
    ])
    def test_a_manifest_of_the_wrong_type_is_an_invalid_error(self, workspace, field, value):
        """Feature groups that are not a list of known groups, or a mode
        that is not one of the modes, are the model file's fault: refused
        with a message to retrain, not a traceback or a config error."""
        run("train", "--config", cfg_path(workspace))
        model_path = workspace / "out" / "model.crf"
        model = CrfModel.load(model_path)
        model.manifest[field] = value
        model.save(model_path)
        result = invoke(
            ["segment", "--model", str(model_path), "--input", str(workspace / "raw"),
             "--output", str(workspace / "pred")],
        )
        assert result.exit_code == 1, result.exception
        assert result.stderr.startswith("error:invalid: ") and str(model_path) in result.stderr
        assert "retrain" in result.stderr

    def test_feature_group_mismatch_refused(self, workspace):
        run("train", "--config", cfg_path(workspace))
        result = invoke(
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
        result = invoke(
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
        result = invoke(
            ["eval", "--gold", str(workspace / "train"), "--pred", str(bad)],
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr


    def test_two_files_with_one_document_id_are_refused(self, workspace):
        pred = workspace / "pred_dup"
        pred.mkdir()
        for name in ("t1.seg", "t1.txt", "t2.seg"):
            (pred / name).write_bytes((workspace / "train" / name.replace(".txt", ".seg")).read_bytes())
        result = invoke(["eval", "--gold", str(workspace / "train"), "--pred", str(pred)])
        assert result.exit_code == 1
        assert "error:invalid:" in result.stderr
        assert "t1.seg" in result.stderr and "t1.txt" in result.stderr


class TestImports:
    """What each command loads, as the ``cli`` module docstring says: only
    ``train`` and ``curve`` load the optimizer and the sparse matrices;
    ``segment`` loads the CRF and bare ``scipy``; ``extract-knowledge``
    and ``eval`` load neither the CRF nor any ``scipy`` module."""

    WATCHED = ("patseg.crf", "patseg.lbfgs", "patseg.adaptation", "patseg.pipeline",
               "scipy", "scipy.optimize", "scipy.sparse")

    def modules_after(self, *args):
        code = (
            "import json, sys\n"
            "from patseg.cli import main\n"
            f"assert main({list(args)!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'patseg'))))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    @pytest.mark.parametrize("command, loads", [
        ("extract-knowledge", set()),
        ("train", set(WATCHED)),
        ("segment", {"patseg.crf", "patseg.lbfgs", "patseg.adaptation", "patseg.pipeline", "scipy"}),
        ("eval", set()),
        ("curve", set(WATCHED)),
    ])
    def test_each_command_loads_only_its_modules(self, workspace, command, loads):
        config = ["--config", cfg_path(workspace)]
        if command == "segment":
            assert run("extract-knowledge", *config).exit_code == 0
            all_groups = ["--set", "features.groups=CF,LNG,PKL,PMI,C_POS,DICT,SIM"]
            assert run("train", *config, *all_groups).exit_code == 0
        args = {
            "segment": ["--model", str(workspace / "out" / "model.crf"), "--input", str(workspace / "raw"),
                        "--output", str(workspace / "pred"), "--knowledge", str(workspace / "kb")],
            "eval": ["--gold", str(workspace / "train"), "--pred", str(workspace / "train")],
            "curve": [*config, "--set", "curve.sizes=4", "--set", "train.max_iterations=5"],
        }.get(command, config)
        loaded = self.modules_after(command, *args)
        assert {m for m in self.WATCHED if m in loaded} == loads, sorted(loaded)
        if "scipy" not in loads:
            assert not [m for m in loaded if m.split(".")[0] == "scipy"], sorted(loaded)
        # bench/layers.py wraps this name
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
        result = invoke(
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

    def test_sizes_selecting_the_same_documents_are_invalid(self, workspace):
        """4 and 9 words both fall in t1, the first training document."""
        result = invoke(["curve", "--config", cfg_path(workspace), "--set", "curve.sizes=4,9"])
        assert result.exit_code == 1, result.exception
        assert result.stderr.startswith("error:invalid: sizes 4 and 9 both select the first 1 document(s)")
        assert result.stderr.count("\n") == 1
        assert not (workspace / "out" / "report.csv").exists()

    def test_a_failing_cell_prints_the_category_of_its_cause(self, workspace):
        """A cell that fails prints one error line with its cause's
        category and a message naming the cell, not a traceback."""
        for path in (workspace / "source").iterdir():
            path.unlink()
        (workspace / "source" / "s1.pos").write_text("\n", encoding="utf-8")
        result = invoke(
            ["curve", "--config", cfg_path(workspace), "--set", "curve.modes=all", "--set", "curve.sizes=1"],
        )
        assert result.exit_code == 1, result.exception
        assert result.stderr.startswith("error:config: ") and result.stderr.count("\n") == 1
        assert "(mode=all, size=1)" in result.stderr and "needs a source corpus" in result.stderr


class TestConfigErrors:
    def test_bad_override_format(self, workspace):
        result = invoke(
            ["train", "--config", cfg_path(workspace), "--set", "nonsense"]
        )
        assert result.exit_code == 1
        assert "error:config:" in result.stderr

    def test_a_line_before_any_section_header(self, workspace):
        path = workspace / "run.cfg"
        path.write_text("mode = easy\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        result = invoke(["train", "--config", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:config: File contains no section headers.")
        assert result.stderr.count("\n") == 1 and repr(str(path)) in result.stderr, result.stderr
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("tail", ["[curve]\nmodes\n", "[curve]\nmodes = easy\nmodes = target\n"])
    def test_unreadable_lines_are_one_error_line_naming_the_file(self, workspace, tail):
        """A line with no value, or a key given twice in one section."""
        path = workspace / "run.cfg"
        path.write_text(path.read_text(encoding="utf-8") + tail, encoding="utf-8")
        result = invoke(["train", "--config", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error:config: ") and result.stderr.count("\n") == 1, result.stderr
        assert repr(str(path)) in result.stderr


class TestEntryPoint:
    """``python -m patseg.cli`` in a fresh process, as the benchmark runs it."""

    @staticmethod
    def python(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True)

    def cli(self, *args):
        return self.python("-m", "patseg.cli", *args)

    def test_eval_prints_its_four_lines(self, workspace):
        proc = self.cli("eval", "--gold", workspace / "train", "--pred", workspace / "train")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["precision 100.00", "recall 100.00", "f1 100.00", "oov_recall n/a"]
        assert proc.stderr == ""

    def test_a_missing_model_is_one_io_error_line(self, workspace):
        model = workspace / "out" / "missing.crf"
        proc = self.cli("segment", "--model", model, "--input", workspace / "raw", "--output", workspace / "pred")
        assert proc.returncode == 1
        assert proc.stderr == f"error:io: model file {str(model)!r} does not exist\n"
        assert proc.stdout == ""

    def test_main_in_process_never_freezes(self, workspace):
        frozen = gc.get_freeze_count()
        assert run("extract-knowledge", "--config", cfg_path(workspace)).exit_code == 0
        assert run("eval", "--gold", str(workspace / "train"), "--pred", str(workspace / "missing")).exit_code == 1
        assert gc.get_freeze_count() == frozen

    def test_console_main_freezes_before_it_exits_with_the_status(self, workspace, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        for pred, status in (("train", 0), ("missing", 1)):
            monkeypatch.setattr(sys, "argv", ["patseg", "eval", "--gold", str(workspace / "train"),
                                              "--pred", str(workspace / pred)])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with pytest.raises(SystemExit) as exited:
                    cli.console_main()
            assert exited.value.code == status
        assert calls == ["freeze", "freeze"]

    @pytest.mark.parametrize("args", [
        ["eval", "--gold", "g", "--pred", "p", "--bogus", "x"],
        ["segment", "--mod", "m.crf", "--input", "raw", "--output", "pred"],
        ["eval", "--gold", "g", "--pred", "p", "--ref", "r"],
        ["segment", "--model", "m.crf", "--input", "raw"],
        ["bogus"],
        [],
    ])
    def test_usage_errors_exit_2_without_an_error_line(self, args):
        """An unknown, abbreviated or missing option or command is argparse's
        usage error, not a categorized failure."""
        proc = self.cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: patseg") and "\nerror:" not in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_segment_imports_only_the_declared_dependencies(self, workspace):
        """Beyond the standard library and what interpreter start-up loads,
        ``segment`` imports only patseg, numpy and scipy."""
        assert run("train", "--config", cfg_path(workspace)).exit_code == 0
        segment = ["-m", "patseg.cli", "segment", "--model", workspace / "out" / "model.crf",
                   "--input", workspace / "raw", "--output", workspace / "pred"]
        imported = []
        for args in (["-c", "pass"], segment):
            proc = self.python("-X", "importtime", *args)
            assert proc.returncode == 0, proc.stderr
            imported.append({ln.rsplit("|", 1)[1].strip().split(".")[0]
                             for ln in proc.stderr.splitlines() if ln.startswith("import time:")})
        paths = sysconfig.get_paths()
        stdlib = Path(paths["stdlib"]).resolve()
        site_packages = {Path(paths["purelib"]).resolve(), Path(paths["platlib"]).resolve()}
        outside = set()
        for name in imported[1] - imported[0]:
            spec = importlib.util.find_spec(name) if name.isidentifier() else None
            if spec is None or name in sys.stdlib_module_names:
                continue  # an import that failed, such as pickle's probe for Jython, or a built-in
            parents = set(Path(spec.origin or next(iter(spec.submodule_search_locations))).resolve().parents)
            if stdlib not in parents or site_packages & parents:
                outside.add(name)
        assert "patseg" in outside and outside <= {"patseg", "numpy", "scipy"}
        assert (workspace / "pred" / "r1.seg").exists()


def _insert_in_line(data: bytes, lineno: int, text: str, middle: bool) -> bytes:
    lines = data.decode("utf-8").split("\n")
    line = lines[lineno - 1]
    at = len(line) // 2 if middle else 0
    lines[lineno - 1] = line[:at] + text + line[at:]
    return "\n".join(lines).encode("utf-8")


def _repeat_line(data: bytes, lineno: int) -> bytes:
    lines = data.split(b"\n")
    return b"\n".join(lines[:lineno] + lines[lineno - 1 :])


def _shift_row_count(data: bytes, by: int) -> bytes:
    header, rest = data.split(b"\n", 1)
    rows, dimension = header.split()
    return b"%d %s\n" % (int(rows) + by, dimension) + rest


def _change_byte(data: bytes, at: float, value: bytes) -> bytes:
    k = int(len(data) * at)
    return data[:k] + value + data[k + 1 :]


_ARCHIVE_DAMAGE = {
    "truncated to half": lambda d: d[: len(d) // 2],
    "the last three bytes cut": lambda d: d[:-3],
    "truncated inside a character": lambda d: d[: d.index(b"\t") - 1],
    "a byte made 0xff": lambda d: _change_byte(d, 0.5, b"\xff"),
    "a byte made x": lambda d: _change_byte(d, 0.6, b"x"),
    "a byte made a space": lambda d: _change_byte(d, 0.7, b" "),
    "a tab at a line start": lambda d: _insert_in_line(d, 2, "\t", middle=False),
    "a tab inside a line": lambda d: _insert_in_line(d, 2, "\t", middle=True),
    "a CR at a line start": lambda d: _insert_in_line(d, 2, "\r", middle=False),
    "a CR inside a line": lambda d: _insert_in_line(d, 2, "\r", middle=True),
    "U+2028 at a line start": lambda d: _insert_in_line(d, 2, "\u2028", middle=False),
    "U+2028 inside a line": lambda d: _insert_in_line(d, 2, "\u2028", middle=True),
    "a row repeated": lambda d: _repeat_line(d, 2),
    "the last row repeated": lambda d: d + d[d.rindex(b"\n", 0, -1) + 1 :],
}
_SIM_HEADER_DAMAGE = {
    "one row more in the header": lambda d: _shift_row_count(d, 1),
    "one row less in the header": lambda d: _shift_row_count(d, -1),
}


class TestDamagedArchiveThroughTrain:
    """``train`` records the knowledge archive's checksum without comparing
    it, so a damaged archive reaches the archive parser.  Every damage
    trains, or is one ``error:`` line; none is a traceback."""

    @pytest.mark.parametrize("name, damage", [
        *((name, damage) for name in ("cpos.tsv", "sim.tsv") for damage in _ARCHIVE_DAMAGE),
        *(("sim.tsv", damage) for damage in _SIM_HEADER_DAMAGE),
    ])
    def test_trains_or_prints_one_error_line(self, workspace, name, damage):
        assert run("extract-knowledge", "--config", cfg_path(workspace)).exit_code == 0
        path = workspace / "kb" / name
        before = path.read_bytes()
        path.write_bytes({**_ARCHIVE_DAMAGE, **_SIM_HEADER_DAMAGE}[damage](before))
        assert path.read_bytes() != before
        result = invoke(["train", "--config", cfg_path(workspace), "--set", "features.groups=CF,C_POS,SIM",
                         "--set", "train.max_iterations=5"])
        if result.exit_code == 0:
            assert "error:" not in result.stderr
        else:
            assert result.exit_code == 1
            assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr


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
        result = invoke(args)
        assert result.exit_code == 1
        assert f"error:parse: {path}:{lineno}: not UTF-8" in result.stderr

    def test_a_config_file_names_itself(self, workspace):
        bad = workspace / "run.cfg"
        self.spoil(bad, 2)
        result = invoke(["train", "--config", str(bad)])
        assert result.stderr.startswith(f"error:parse: {bad}:2: not UTF-8 (") and result.stderr.count("\n") == 1

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
