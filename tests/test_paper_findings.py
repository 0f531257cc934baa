"""The paper's findings, gated on the seeded synthetic two-domain world.

Every cell trains and scores through :func:`patseg.evaluation.run_curve`,
with ``TrainConfig(l2=0.1, max_iterations=100, tolerance=1e-5)`` and, where
the knowledge groups are on, ``build_knowledge(tagged, k=50)``.

(a) Document features (CF+LNG+PKL+PMI) beat character features (CF)
    alone on F1.
(b) With all seven feature groups, a model trained on the target domain
    beats one trained on the source domain on target F1.
(c) Easy adaptation (Daumé III 2007) gains more over target-only training
    at a small target size than with all target data: the mean over seeds
    0-2 of (gap at 2,000 target words - gap at all 20,000), where gap is
    F1(easy) - F1(target), is above 0.
(d) The knowledge mined from the source corpus helps: all seven feature
    groups beat the document features (CF+LNG+PKL+PMI) on target F1 and
    on OOV recall, seed by seed.

(a), (b) and (d) run on small worlds, 4,000 source and 4,000 target
words: about 2.5 s per test.  Their margins on seeds 0-2 are at least 13
F1 points for (a) and 7 for (b); for (d), +10.29, +18.01 and +11.06 F1
points and +10.97, +22.85 and +14.02 points of OOV recall.  So the gates
ask only that the winner wins.  The form of (d) was chosen after those
numbers were known, so it guards against regressions and is no
independent evidence for (d).  It gates the three knowledge groups
together: C_POS alone leads by +0.48 F1 on seed 2 and trails by 0.90
points of OOV recall.
(c) needs full-size worlds, 20,000 source and 20,000 target words, and
takes about 40 s for the three seeds, so it is marked ``slow``.  Its
per-seed differences read +0.70, +2.86 and -0.20 F1 points, a mean of
+1.12; seed 2 alone would fail a per-seed form.  The form was chosen
after those numbers were known, so the gate guards against regressions
and is no independent evidence for (c).
"""

from __future__ import annotations

import functools

import pytest

from patseg.crf import TrainConfig
from patseg.evaluation import SegScore, run_curve
from patseg.external_features import build_knowledge
from patseg.pipeline import FeatureExtractor

from _synth import build_benchmark

SEEDS = (0, 1, 2)
CONFIG = TrainConfig(l2=0.1, max_iterations=100, tolerance=1e-5)
DOC_GROUPS = ("CF", "LNG", "PKL", "PMI")
ALL_GROUPS = DOC_GROUPS + ("C_POS", "DICT", "SIM")
SMALL_TARGET_WORDS = 2000


def word_count(docs) -> int:
    return sum(d.word_count() for d in docs)


@functools.cache
def world(seed: int):
    """(tagged source documents, target training documents, target dev documents)."""
    return build_benchmark(seed, source_words=4000, target_words=4000)


@functools.cache
def knowledge(seed: int):
    return build_knowledge(world(seed)[0], k=50)


def dev_score(seed: int, training_docs, extractor: FeatureExtractor) -> SegScore:
    """The score on the target dev documents of a model trained on
    ``training_docs``, OOV recall against the source vocabulary."""
    tagged, _, dev = world(seed)
    source = [t.doc for t in tagged]
    [point] = run_curve(source, training_docs, dev, [word_count(training_docs)], ["target"], extractor, CONFIG)
    return point.score


@pytest.mark.parametrize("seed", SEEDS)
def test_document_features_beat_character_features_alone(seed):
    target = world(seed)[1]
    cf = dev_score(seed, target, FeatureExtractor(("CF",))).f1
    doc = dev_score(seed, target, FeatureExtractor(DOC_GROUPS)).f1
    assert doc > cf, f"seed {seed}: CF+LNG+PKL+PMI {doc:.4f} vs CF {cf:.4f}"


@pytest.mark.parametrize("seed", SEEDS)
def test_target_training_beats_source_training(seed):
    tagged, target, _ = world(seed)
    extractor = FeatureExtractor(ALL_GROUPS, knowledge(seed))
    source = dev_score(seed, [t.doc for t in tagged], extractor).f1
    in_domain = dev_score(seed, target, extractor).f1
    assert in_domain > source, f"seed {seed}: target-trained {in_domain:.4f} vs source-trained {source:.4f}"


@pytest.mark.parametrize("seed", SEEDS)
def test_knowledge_groups_beat_document_features_on_f1_and_oov_recall(seed):
    target = world(seed)[1]
    doc = dev_score(seed, target, FeatureExtractor(DOC_GROUPS))
    full = dev_score(seed, target, FeatureExtractor(ALL_GROUPS, knowledge(seed)))
    assert full.f1 > doc.f1, f"seed {seed}: F1 of all seven groups {full.f1:.4f} vs CF+LNG+PKL+PMI {doc.f1:.4f}"
    assert full.oov_recall > doc.oov_recall, (
        f"seed {seed}: OOV recall of all seven groups {full.oov_recall:.4f} vs CF+LNG+PKL+PMI {doc.oov_recall:.4f}"
    )


@pytest.mark.slow
def test_easy_adaptation_gains_most_at_small_target_size():
    differences = {}
    for seed in SEEDS:
        tagged, target, dev = build_benchmark(seed)
        extractor = FeatureExtractor(ALL_GROUPS, build_knowledge(tagged, k=50))
        sizes = (SMALL_TARGET_WORDS, word_count(target))
        points = run_curve([t.doc for t in tagged], target, dev, sizes, ["target", "easy"], extractor, CONFIG)
        f1 = {(p.mode, p.size): p.score.f1 for p in points}
        small_gap, full_gap = (f1["easy", size] - f1["target", size] for size in sizes)
        differences[seed] = small_gap - full_gap
    assert sum(differences.values()) / len(SEEDS) > 0, f"gap at 2,000 - gap at full size: {differences}"
