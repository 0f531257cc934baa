import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from patseg.corpus import Document
from patseg.doc_features import (
    TrigramTable,
    bin_scores,
    compute_pkl,
    compute_pmi,
    extract_lng,
    lng_label,
)

from _reference import levelwise_lng, string_bins, string_trigram_scores


def doc(*sentences):
    return Document("d", tuple(sentences))


def lng_oracle(document):
    """Brute force: enumerate every substring, count, filter, de-nest."""
    counts = Counter()
    for sent in document.sentences:
        for n in range(2, len(sent) + 1):
            for i in range(len(sent) - n + 1):
                counts[sent[i : i + n]] += 1
    survivors = [g for g, c in counts.items() if c >= 2]
    return {
        g
        for g in survivors
        if not any(len(h) > len(g) and g in h for h in survivors)
    }


class TestExtractLng:
    def test_repeated_sentence(self):
        assert extract_lng(doc("abcd", "abcd")).sequences == {"abcd"}

    def test_only_shared_prefix_repeats(self):
        assert extract_lng(doc("abx", "aby", "ab")).sequences == {"ab"}

    def test_all_distinct_characters(self):
        assert extract_lng(doc("abcdefg")).sequences == frozenset()

    def test_matches_oracle_on_random_documents(self):
        """Level-wise extraction equals the brute-force substring oracle."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            alphabet = "abcdefghijklmnopqrst"[: rng.integers(3, 21)]
            n_sentences = int(rng.integers(1, 6))
            sentences = []
            budget = int(rng.integers(10, 301))
            for _ in range(n_sentences):
                n = int(rng.integers(1, max(2, budget // n_sentences)))
                sentences.append("".join(rng.choice(list(alphabet), size=n)))
            d = doc(*sentences)
            assert extract_lng(d).sequences == lng_oracle(d)

    def test_antichain(self):
        """No listed sequence is a substring of another."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            sentences = [
                "".join(rng.choice(list("abcd"), size=int(rng.integers(5, 60))))
                for _ in range(3)
            ]
            seqs = sorted(extract_lng(doc(*sentences)).sequences)
            for a, b in itertools.permutations(seqs, 2):
                assert not (a != b and a in b)

    def test_document_independence(self):
        """A document's list does not depend on other documents."""
        d = doc("abcabc", "xyz")
        before = extract_lng(d).sequences
        # extraction takes only the document, so this is trivially true;
        # assert the result is stable across repeated calls too
        assert extract_lng(d).sequences == before


class TestLngLabel:
    def test_paper_style_sequence(self):
        d = doc("wa—干扰素w")
        lng = extract_lng(doc("a—干扰素x", "a—干扰素y"))
        # target 'a' followed by '—' opens the listed sequence
        assert lng_label(d, lng, 0, 1) == "S"

    def test_non_matching_next_char(self):
        d = doc("wab")
        lng = extract_lng(doc("a—干扰素x", "a—干扰素y"))
        assert lng_label(d, lng, 0, 1) == "O"

    def test_start_and_finish_labels(self):
        d = doc("aab")
        lng = extract_lng(doc("abab"))
        assert lng.sequences == {"ab"}
        assert lng_label(d, lng, 0, 1) == "S"  # middle 'a', next is 'b'
        assert lng_label(d, lng, 0, 2) == "F"  # 'b', previous is 'a'
        assert lng_label(d, lng, 0, 0) == "O"

    def test_both_conditions_give_t(self):
        d = doc("cab")
        lng = extract_lng(doc("ab", "ab", "ca", "ca"))
        assert lng.sequences == {"ab", "ca"}
        assert lng_label(d, lng, 0, 1) == "T"

    def test_edges_never_match(self):
        d = doc("ab")
        lng = extract_lng(doc("abab"))
        assert lng_label(d, lng, 0, 1) == "F"  # S needs i+1 inside the sentence

    def test_matches_the_levelwise_reference_on_long_repeats(self):
        rng = np.random.default_rng(12)
        noise = "".join(rng.choice(list("abc"), size=300))
        d = doc("x" * 400, "ab" * 150, noise, noise[100:250] + "y" * 50)
        assert extract_lng(d).sequences == levelwise_lng(d)

    def test_long_runs_take_linear_time_per_level(self):
        """A run of one character repeats at every length up to its own,
        the worst case; string slicing made it cubic (26 s at 4,000)."""
        run, periodic = "a" * 4000, "abc" * 1334
        start = time.perf_counter()
        assert extract_lng(doc(run)).sequences == {run[:-1]}
        assert extract_lng(doc(periodic)).sequences == {periodic[:-3]}
        assert time.perf_counter() - start < 10.0


def table_of(*sentences):
    return TrigramTable.from_document(doc(*sentences))


class TestTrigramTable:
    def test_frequency_filter(self):
        t = table_of("abc", "abc", "xyz")
        assert t.counts == {"abc": 2}

    def test_marginals_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sentences = [
                "".join(rng.choice(list("abcde"), size=int(rng.integers(3, 40))))
                for _ in range(3)
            ]
            t = table_of(*sentences)
            if t.total:
                for marg in (t.p1, t.p2, t.p3):
                    assert math.isclose(sum(marg.values()), 1.0, abs_tol=1e-9)


class TestPkl:
    def test_zero_under_equal_marginals(self):
        """A document whose only surviving trigram is one type gives 0."""
        d = doc("abc", "abc")
        pkl1, pkl2 = compute_pkl(d)
        assert pkl1 == {(0, 0): 0.0, (1, 0): 0.0}
        assert pkl2 == {(0, 0): 0.0, (1, 0): 0.0}

    def test_half_log_two_case(self):
        """Four trigram types built so p(x@1)=0.5 and p(y@2)=0.25."""
        d = doc("xya", "xya", "xzb", "xzb", "uzc", "uzc", "vzd", "vzd")
        pkl1, _ = compute_pkl(d)
        assert math.isclose(pkl1[(0, 0)], 0.5 * math.log(2.0), abs_tol=1e-9)

    def test_no_surviving_trigram_means_no_score(self):
        pkl1, pkl2 = compute_pkl(doc("abcdef"))
        assert pkl1 == {} and pkl2 == {}

    def test_sign_structure(self):
        """pkl1 > 0 iff p(C_i@1) > p(C_{i+1}@2)."""
        rng = np.random.default_rng(14)
        for _ in range(40):
            sentences = [
                "".join(rng.choice(list("abcd"), size=int(rng.integers(3, 25))))
                for _ in range(4)
            ]
            d = doc(*sentences)
            t = TrigramTable.from_document(d)
            pkl1, _ = compute_pkl(d, t)
            for (si, i), value in pkl1.items():
                x = d.sentences[si][i]
                y = d.sentences[si][i + 1]
                if t.p1[x] > t.p2[y]:
                    assert value > 0
                elif t.p1[x] == t.p2[y]:
                    assert value == 0
                else:
                    assert value < 0


class TestPmi:
    def test_single_type_gives_zero(self):
        pmi1, pmi2 = compute_pmi(doc("abc", "abc"))
        assert pmi1[(0, 0)] == pytest.approx(0.0, abs=1e-9)
        assert pmi2[(0, 0)] == pytest.approx(0.0, abs=1e-9)

    def test_independence_gives_zero(self):
        """Types abc and dbc equally frequent: joint equals product."""
        pmi1, _ = compute_pmi(doc("abc", "abc", "dbc", "dbc"))
        assert pmi1[(0, 0)] == pytest.approx(0.0, abs=1e-9)

    def test_perfect_association_gives_log_two(self):
        pmi1, _ = compute_pmi(doc("abc", "abc", "dec", "dec"))
        assert pmi1[(0, 0)] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_independence_property(self):
        """Whenever joint = product of marginals, the score is ~0."""
        rng = np.random.default_rng(15)
        for _ in range(40):
            sentences = [
                "".join(rng.choice(list("abc"), size=int(rng.integers(3, 20))))
                for _ in range(4)
            ]
            d = doc(*sentences)
            t = TrigramTable.from_document(d)
            pmi1, _ = compute_pmi(d, t)
            for (si, i), value in pmi1.items():
                x = d.sentences[si][i]
                y = d.sentences[si][i + 1]
                if abs(t.joint12(x, y) - t.p1[x] * t.p2[y]) < 1e-12:
                    assert abs(value) < 1e-9


class TestAgainstStringReference:
    def test_scores_and_bins_are_bit_identical(self):
        """Small alphabets make many equal scores, so the tie rule shows."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            alphabet = list("abcdef"[: rng.integers(2, 7)])
            d = doc(*("".join(rng.choice(alphabet, size=int(rng.integers(1, 30)))) for _ in range(rng.integers(1, 6))))
            expected = string_trigram_scores(d)
            (pkl1, pkl2), (pmi1, pmi2) = compute_pkl(d), compute_pmi(d)
            for name, got in (("pkl1", pkl1), ("pkl2", pkl2), ("pmi1", pmi1), ("pmi2", pmi2)):
                assert got == expected[name]
                direction = "ascending" if name.startswith("pkl") else "descending"
                assert bin_scores(got, direction) == string_bins(expected[name], direction)


class TestBinScores:
    def test_even_split(self):
        scores = {(0, i): float(i) for i in range(10)}
        bins = bin_scores(scores, "ascending")
        assert [bins[(0, i)] for i in range(10)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_uneven_split_earlier_bins_take_extras(self):
        scores = {(0, i): float(i) for i in range(7)}
        bins = bin_scores(scores, "ascending")
        sizes = Counter(bins.values())
        assert [sizes[b] for b in (1, 2, 3, 4, 5)] == [2, 2, 1, 1, 1]

    def test_three_equal_values_stable_by_position(self):
        scores = {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}
        bins = bin_scores(scores, "ascending")
        assert bins == {(0, 0): 1, (0, 1): 2, (0, 2): 3}

    def test_descending_direction(self):
        scores = {(0, i): float(i) for i in range(5)}
        bins = bin_scores(scores, "descending")
        assert bins[(0, 4)] == 1 and bins[(0, 0)] == 5

    def test_partition_property(self):
        """Every scored position gets one bin; populations differ by <= 1."""
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            scores = {(0, i): float(rng.normal()) for i in range(n)}
            bins = bin_scores(scores, "ascending")
            assert set(bins) == set(scores)
            counts = Counter(bins.values())
            sizes = [counts.get(b, 0) for b in (1, 2, 3, 4, 5)]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            bin_scores({(0, 0): 1.0}, "sideways")
