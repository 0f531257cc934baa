"""The paper's findings, gated on the seeded synthetic two-domain world.

(a) Document features (CF+LNG+PKL+PMI) beat character features (CF)
    alone on F1.
(b) With all seven feature groups, a model trained on the target domain
    beats one trained on the source domain on target F1.

Both run on small worlds, 4,000 source and 4,000 target words, with at
most 100 L-BFGS iterations: about 2.5 s per test.  The margins on seeds
0-2 are at least 13 F1 points for (a) and 7 for (b), so the gates ask only
that the winner wins.  Finding (c), that easy adaptation gains more over
target-only training at small target sizes, needs full-size worlds.
"""

from __future__ import annotations

import functools

import pytest

from patseg import adaptation
from patseg.crf import TrainConfig, train
from patseg.evaluation import score_documents
from patseg.external_features import build_knowledge
from patseg.pipeline import FeatureExtractor

from _synth import build_benchmark

SEEDS = (0, 1, 2)
CONFIG = TrainConfig(l2=0.1, max_iterations=100, tolerance=1e-5)
DOC_GROUPS = ("CF", "LNG", "PKL", "PMI")
ALL_GROUPS = DOC_GROUPS + ("C_POS", "DICT", "SIM")


@functools.cache
def world(seed: int):
    """(tagged source documents, target training documents, target dev documents)."""
    return build_benchmark(seed, source_words=4000, target_words=4000)


def dev_f1(seed: int, training_docs, extractor: FeatureExtractor) -> float:
    """F1 on the target dev documents of a model trained on ``training_docs``."""
    dev = world(seed)[2]
    instances, _ = adaptation.build_training("target", None, training_docs, extractor, CONFIG)
    model = train(instances, CONFIG)
    predicted = [adaptation.segment_document(model, doc, extractor) for doc in dev]
    return score_documents(dev, predicted).f1


@pytest.mark.parametrize("seed", SEEDS)
def test_document_features_beat_character_features_alone(seed):
    target = world(seed)[1]
    cf = dev_f1(seed, target, FeatureExtractor(("CF",)))
    doc = dev_f1(seed, target, FeatureExtractor(DOC_GROUPS))
    assert doc > cf, f"seed {seed}: CF+LNG+PKL+PMI {doc:.4f} vs CF {cf:.4f}"


@pytest.mark.parametrize("seed", SEEDS)
def test_target_training_beats_source_training(seed):
    tagged, target, _ = world(seed)
    extractor = FeatureExtractor(ALL_GROUPS, build_knowledge(tagged, k=50))
    source = dev_f1(seed, [t.doc for t in tagged], extractor)
    in_domain = dev_f1(seed, target, extractor)
    assert in_domain > source, f"seed {seed}: target-trained {in_domain:.4f} vs source-trained {source:.4f}"
