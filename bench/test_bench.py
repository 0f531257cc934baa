"""Self-tests of the benchmark's world writer, parser and checks.

They compare the benchmark's own reader and scorer with the generated
documents and with ``patseg`` on small inputs, and run the traced path of
every workload on a small world, in a few seconds together.
"""

import gc
import json
import time
from dataclasses import replace

import checks
import layers
import pytest
import worlds
from patseg import adaptation, crf
from patseg.corpus import Document
from patseg.evaluation import score_documents
from patseg.external_features import read_tagged_corpus

SMALL = replace(worlds.WORKLOADS["long-sentence"], source_docs=2, train_docs=2, test_docs=2,
                words_per_doc=60, long_train=1, long_test=1, long_chars=200)


def test_world_round_trips_through_files(tmp_path):
    world = worlds.generate(SMALL, 7)
    worlds.write_world(world, tmp_path)
    assert worlds.round_trip_errors(world, tmp_path) == []
    assert worlds.generate(SMALL, 7) == world
    # the program reads the tagged source as the same words and tags
    tagged = read_tagged_corpus(tmp_path / "source")
    assert [list(t.tagged_words()) for t in tagged] == [
        [(w, t) for s in sentences for w, t in zip(s.words, s.tags)] for sentences in world.source.values()
    ]


def test_round_trip_notices_a_changed_file(tmp_path):
    world = worlds.generate(SMALL, 7)
    worlds.write_world(world, tmp_path)
    path = sorted((tmp_path / "train").iterdir())[0]
    path.write_text(path.read_text(encoding="utf-8").replace(" ", "", 1), encoding="utf-8")
    assert worlds.round_trip_errors(world, tmp_path) == ["train: files differ from the generated corpus"]


def test_long_sentences_have_their_length():
    world = worlds.generate(SMALL, 3)
    (long_test,) = world.test["dl000"]
    assert 200 <= len(long_test.text) < 200 + 4


def test_span_score_matches_the_program_scorer():
    world = worlds.generate(SMALL, 5)
    vocab = checks.vocabulary(world.train)
    ref = checks.vocabulary(world.source)
    pred = {d: [checks.fmm_segment(s.text, vocab, 4) for s in ss] for d, ss in world.test.items()}
    own = checks.span_score(world.test, pred, ref)
    program = score_documents(
        [Document(d, tuple(s.text for s in ss), tuple(s.words for s in ss)) for d, ss in world.test.items()],
        [Document(d, tuple("".join(ws) for ws in p), tuple(p)) for d, p in pred.items()],
        ref,
    )
    assert abs(own.f1 - 100 * program.f1) < 1e-9
    assert abs(own.oov_recall - 100 * program.oov_recall) < 1e-9


def test_forward_maximum_matching():
    vocab = {"ab", "abc", "cd", "d"}
    assert checks.fmm_segment("abcdx", vocab, 3) == ("abc", "d", "x")
    assert checks.fmm_segment("abd", vocab, 3) == ("ab", "d")


def test_line_check_flags_split_and_changed_lines(tmp_path):
    raw, pred = tmp_path / "raw", tmp_path / "pred"
    raw.mkdir()
    pred.mkdir()
    (raw / "a.txt").write_text("abc\n\nde\n", encoding="utf-8")
    (pred / "a.seg").write_text("ab c\n\nd e\n", encoding="utf-8")
    words, errors = checks.read_segmented(pred, raw)
    assert errors == [] and words == {"a": [("ab", "c"), (), ("d", "e")]}
    (pred / "a.seg").write_text("ab c\n\nd\ne\n", encoding="utf-8")
    assert checks.read_segmented(pred, raw)[1] == ["a.seg: 4 lines for 3 raw lines"]
    (pred / "a.seg").write_text("ab c\n\nd f\n", encoding="utf-8")
    assert checks.read_segmented(pred, raw)[1] == ["a.seg: line 3 does not rebuild its raw line"]


@pytest.mark.parametrize("name", sorted(worlds.WORKLOADS))
def test_traced_run_measures_every_declared_per_layer_metric(name, tmp_path, monkeypatch):
    w = replace(worlds.WORKLOADS[name], source_docs=2, train_docs=2, test_docs=2, words_per_doc=60,
                long_train=min(1, worlds.WORKLOADS[name].long_train),
                long_test=min(1, worlds.WORKLOADS[name].long_test), long_chars=200)
    worlds.write_world(worlds.generate(w, 7), tmp_path)
    # the tracer replaces these attributes; the fixture puts the originals back
    for module, attr in ((crf, "build_registry"), (crf, "log_likelihood_and_gradient"),
                         (adaptation, "train"), (crf.scipy.optimize, "minimize")):
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tr = layers.Tracer(True)
    tr.install()
    try:
        start = time.perf_counter()
        state = layers.pipeline(tr, tmp_path, w)
        end = time.perf_counter()
        layers.probes(tr, tmp_path, w, state)
    finally:
        gc.callbacks.remove(tr._on_gc)
    measured = layers.layer_metrics(tr, (start, end), 1)
    declared = json.loads((worlds.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # run.py adds the two metrics measured outside this process
    assert set(measured) == {m["name"] for m in declared} - {"cli.startup_s", "trace.overhead_pct"}
