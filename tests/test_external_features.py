import math
import os
from pathlib import Path

import numpy as np
import pytest

from patseg import corpus, external_features
from patseg.corpus import Document, ParseError
from patseg.external_features import (
    KnowledgeBase,
    SimilarityModel,
    archive_checksum,
    build_dictionary,
    build_pos_lexicon,
    build_similarity,
    cooccurrence_matrix,
    cpos_feature,
    dict_feature,
    discretize_similarity,
    ppmi,
    read_tagged_corpus,
    sim_features,
    NO_TAG,
    SIM_TABLE,
    ZERO_SIM,
    similarity_codes,
)

from _reference import pairwise_cooccurrence, svd_similarity


def tagged_corpus(tmp_path, lines, name="s1.pos"):
    (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return read_tagged_corpus(tmp_path)


class TestTaggedCorpus:
    def test_reads_words_and_tags(self, tmp_path):
        docs = tagged_corpus(tmp_path, ["地板_NN 很_AD 好_VA"])
        assert docs[0].doc.words == (("地板", "很", "好"),)
        assert docs[0].tags == (("NN", "AD", "VA"),)
        assert docs[0].doc.sentences == ("地板很好",)

    def test_tag_follows_last_underscore(self, tmp_path):
        docs = tagged_corpus(tmp_path, ["a_b_NN"])
        assert docs[0].doc.words == (("a_b",),)
        assert docs[0].tags == (("NN",),)

    def test_missing_tag_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            tagged_corpus(tmp_path, ["地板 很_AD"])


class TestPosLexicon:
    def test_majority_tag_wins(self, tmp_path):
        docs = tagged_corpus(
            tmp_path,
            ["地_NN 好_VA", "地_NN 好_VA", "地_NN 好_VA", "地_AD 好_VA"],
        )
        assert build_pos_lexicon(docs)["地"] == "NN"

    def test_characters_inside_longer_words_are_absent(self, tmp_path):
        docs = tagged_corpus(tmp_path, ["地板_NN 很_AD"])
        lex = build_pos_lexicon(docs)
        assert "地" not in lex and "板" not in lex and lex["很"] == "AD"

    def test_tie_breaks_lexicographically(self, tmp_path):
        docs = tagged_corpus(tmp_path, ["地_NN 地_VV", "地_VV 地_NN"])
        assert build_pos_lexicon(docs)["地"] == "NN"

    def test_rebuild_is_identical(self, tmp_path):
        docs = tagged_corpus(tmp_path, ["地_NN 很_AD 好_VA", "地_VV 好_VA"])
        assert build_pos_lexicon(docs) == build_pos_lexicon(docs)


class TestDictionary:
    def test_length_filter(self):
        doc = Document(
            "d",
            ("地板很好干扰素大肠杆菌",),
            (("地板", "很", "好", "干扰素", "大肠杆菌"),),
        )
        assert build_dictionary([doc]) == {"地板", "干扰素"}

    def test_empty_source(self):
        assert build_dictionary([]) == set()


class TestCooccurrence:
    def test_pair_instance_counting(self):
        """One x and two y in a sentence add 2 to M[x][y]."""
        vocab, m = cooccurrence_matrix(["xyy"])
        ix, iy = vocab.index("x"), vocab.index("y")
        assert m[ix, iy] == 2 and m[iy, ix] == 2

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(20)
        sentences = [
            "".join(rng.choice(list("abcde"), size=int(rng.integers(2, 12))))
            for _ in range(20)
        ]
        _, m = cooccurrence_matrix(sentences)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0)


    def test_equals_the_pairwise_loop_across_blocks(self):
        """The block product equals the pair loop exactly, on sentences
        spanning more than one block of the count table, with an empty
        sentence, a tab and a character outside the Basic Multilingual
        Plane."""
        rng = np.random.default_rng(23)
        alphabet = list("abcdefghij地板很好大\t") + ["\U00020000", "\U0001F600"]
        sentences = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 12)))) for _ in range(2600)]
        sentences[1500] = ""
        vocab, m = cooccurrence_matrix(sentences)
        expected_vocab, expected = pairwise_cooccurrence(sentences)
        assert vocab == expected_vocab and "\t" in vocab and "\U00020000" in vocab
        assert np.array_equal(m, expected)
        for edge in ([], [""], ["x"], ["xyy", "\U00020000\t\U00020000"]):
            got, expected = cooccurrence_matrix(edge), pairwise_cooccurrence(edge)
            assert got[0] == expected[0] and np.array_equal(got[1], expected[1])


class TestPpmi:
    def test_non_negative(self):
        rng = np.random.default_rng(21)
        sentences = [
            "".join(rng.choice(list("abcdefgh"), size=int(rng.integers(2, 15))))
            for _ in range(30)
        ]
        _, m = cooccurrence_matrix(sentences)
        assert np.all(ppmi(m) >= 0.0)

    def test_negative_pmi_clipped_to_zero(self):
        # two heavy blocks and one rare cross pair: the cross pair's PMI < 0
        m = np.array(
            [
                [0.0, 10.0, 1.0],
                [10.0, 0.0, 10.0],
                [1.0, 10.0, 0.0],
            ]
        )
        p = ppmi(m)
        total = m.sum()
        raw = math.log(m[0, 2] * total / (m[0].sum() * m[:, 2].sum()))
        assert raw < 0
        assert p[0, 2] == 0.0


class TestSimilarityModel:
    def test_full_rank_cosine_fidelity(self):
        """With k = n, cosines of F match cosines of the PPMI rows."""
        rng = np.random.default_rng(22)
        sentences = [
            "".join(rng.choice(list("abcdefghijklmnop"), size=int(rng.integers(2, 20))))
            for _ in range(40)
        ]
        vocab, m = cooccurrence_matrix(sentences)
        p = ppmi(m)
        model = build_similarity(sentences, k=len(vocab))

        def cos(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0 or nv == 0:
                return 0.0
            return float(u @ v / (nu * nv))

        for i in range(len(vocab)):
            for j in range(len(vocab)):
                assert abs(model.similarity(vocab[i], vocab[j]) - cos(p[i], p[j])) < 1e-6

    def test_identical_rows_have_cosine_one(self):
        # x and y always co-occur with z the same way and never together
        sentences = ["xz", "yz", "xz", "yz"]
        model = build_similarity(sentences, k=2)
        assert model.similarity("x", "y") == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_vocabulary_rejected(self):
        with pytest.raises(ValueError) as err:
            build_similarity(["ab"], k=3)
        assert "n=2" in str(err.value)

    @pytest.mark.parametrize("owner, name", [(external_features, "cooccurrence_matrix"), (np.linalg, "eigh")],
                             ids=["cooccurrence", "eigh"])
    def test_matrices_too_large_for_memory_are_a_value_error(self, monkeypatch, owner, name):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, name, no_memory)
        with pytest.raises(ValueError) as err:
            build_similarity(["xyz", "zyw"], k=2)
        assert "4 distinct characters" in str(err.value) and "4 x 4" in str(err.value)
        assert isinstance(err.value.__cause__, MemoryError)

    def test_colinear_vectors(self):
        model = SimilarityModel(["x", "y"], np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert model.similarity("x", "y") == pytest.approx(1.0)

    def test_missing_character_gives_zero(self):
        model = SimilarityModel(["x"], np.array([[1.0]]))
        assert model.similarity("x", "q") == 0.0

    def test_similarity_range(self):
        rng = np.random.default_rng(23)
        sentences = [
            "".join(rng.choice(list("abcdef"), size=int(rng.integers(2, 10))))
            for _ in range(15)
        ]
        model = build_similarity(sentences, k=3)
        for a in "abcdef":
            for b in "abcdef":
                assert -1.0 <= model.similarity(a, b) <= 1.0


class TestSimilaritySolver:
    """The eigendecomposition gives the cosines of the rank-k SVD, the
    oracle in ``_reference``."""

    def test_cosines_equal_the_svd_path(self):
        rng = np.random.default_rng(31)
        alphabet = list("abcdefghijklmnopqrstuvwxyz地板很好大肠杆菌")
        sentences = ["".join(rng.choice(alphabet, size=int(rng.integers(2, 25)))) for _ in range(120)]
        vocab, m = cooccurrence_matrix(sentences)
        eigenvalues = np.linalg.eigvalsh(ppmi(m))
        by_size = eigenvalues[np.argsort(-np.abs(eigenvalues), kind="stable")]
        # the smallest k whose top k by |eigenvalue| hold a negative one
        with_negative = int(np.flatnonzero(by_size < 0)[0]) + 1
        n = len(vocab)
        assert 1 < with_negative < n
        rows = np.arange(n)
        a, b = np.repeat(rows, n), np.tile(rows, n)
        for k in (1, with_negative, 10, n):
            got = build_similarity(sentences, k).cosines(a, b)
            want = svd_similarity(sentences, k).cosines(a, b)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"k={k}")


class TestSimilarityBatch:
    """The gate for discretizing many pairs at once: the batch bins equal
    the per-pair ones on every pair of a test knowledge base."""

    def model(self):
        rng = np.random.default_rng(24)
        sentences = [
            "".join(rng.choice(list("地板很好大肠杆菌abcXYZ01"), size=int(rng.integers(2, 15))))
            for _ in range(60)
        ]
        built = build_similarity(sentences, k=5)
        # one character with a zero vector
        return SimilarityModel(built.vocab + ["零"], np.vstack([built.vectors, np.zeros(5)]))

    def test_batch_bins_equal_per_pair_bins_on_every_pair(self):
        model = self.model()
        chars = model.vocab + ["未"]  # and one without a vector
        a, b = (np.array(x) for x in zip(*[(x, y) for x in chars for y in chars]))
        codes = similarity_codes(model.cosines(model.indices(a), model.indices(b)))
        expected = [discretize_similarity(model.similarity(x, y)) for x, y in zip(a, b)]
        assert [SIM_TABLE[c] for c in codes] == expected
        for x, y, value in zip(a, b, expected):
            if "零" in (x, y) or "未" in (x, y):
                assert value == ZERO_SIM

    def test_cosines_match_a_dot_product_per_pair(self):
        model = self.model()
        rows = np.arange(len(model.vocab))
        a, b = np.repeat(rows, len(rows)), np.tile(rows, len(rows))
        got = model.cosines(a, b)
        norms = np.linalg.norm(model.vectors, axis=1)
        for i, j, value in zip(a, b, got):
            if norms[i] == 0.0 or norms[j] == 0.0:
                assert value == 0.0
            else:
                expected = np.dot(model.vectors[i], model.vectors[j]) / (norms[i] * norms[j])
                assert value == pytest.approx(max(-1.0, min(1.0, expected)), abs=1e-12)
        assert np.array_equal(got, model.cosines(b, a))


class TestSimFeatures:
    def test_unknown_center_gives_zeros(self):
        model = SimilarityModel(["x", "y"], np.eye(2))
        assert sim_features(model, "qxy", 0) == (0.0, 0.0, 0.0, 0.0)

    def test_edges_give_zero(self):
        model = SimilarityModel(["x", "y"], np.array([[1.0, 0.0], [1.0, 0.0]]))
        sims = sim_features(model, "xy", 0)
        assert sims[0] == 0.0 and sims[1] == 0.0  # offsets -2 and -1
        assert sims[2] == pytest.approx(1.0)      # offset +1

    def test_discretization(self):
        assert discretize_similarity(0.0) == ZERO_SIM
        assert discretize_similarity(1.0) == "9"
        assert discretize_similarity(-1.0) == "0"
        assert discretize_similarity(0.05) == "5"
        assert discretize_similarity(-0.05) == "4"


class TestLookupFeatures:
    def test_cpos_lookup(self):
        assert cpos_feature({"地": "NN"}, "地") == "NN"
        assert cpos_feature({"地": "NN"}, "好") == NO_TAG
        assert cpos_feature({}, "地") == NO_TAG

    def test_dict_feature_windows(self):
        d = {"地板"}
        assert dict_feature(d, "地板好", 0) == 1
        assert dict_feature(d, "地板好", 1) == 1
        assert dict_feature(d, "地板好", 2) == 0
        assert dict_feature(set(), "地板好", 0) == 0

    def test_dict_feature_trigram_window(self):
        assert dict_feature({"干扰素"}, "x干扰素y", 2) == 1

    def test_monotone_in_dictionary(self):
        sent = "地板很好干扰素"
        small = {"地板"}
        large = {"地板", "很好", "干扰素", "好干"}
        for i in range(len(sent)):
            assert dict_feature(small, sent, i) <= dict_feature(large, sent, i)


class TestKnowledgeArchive:
    def make_kb(self):
        sentences = ["xyz", "xzy", "yzx", "zxy"]
        return KnowledgeBase(
            pos_lexicon={"x": "NN", "y": "VV"},
            dictionary={"xy", "xyz"},
            similarity=build_similarity(sentences, k=2),
        )

    def test_round_trip(self, tmp_path):
        kb = self.make_kb()
        kb.save(tmp_path / "kb")
        loaded = KnowledgeBase.load(tmp_path / "kb")
        assert loaded.pos_lexicon == kb.pos_lexicon
        assert loaded.dictionary == kb.dictionary
        assert loaded.similarity.vocab == kb.similarity.vocab
        np.testing.assert_allclose(
            loaded.similarity.vectors, kb.similarity.vectors, rtol=1e-8, atol=1e-12
        )

    def test_round_trip_with_separator_characters(self, tmp_path):
        """Tab, form feed and U+2028 are one-character keys like any other."""
        odd = "\t\x0c\u2028"
        kb = KnowledgeBase(
            pos_lexicon={c: "PU" for c in odd} | {"x": "NN"},
            dictionary={"x\t", "\x0cy", "x\u2028z"},
            similarity=build_similarity(["x\ty", "\x0cyz", "z\u2028x", "\tz\x0c"], k=3),
        )
        kb.save(tmp_path / "kb")
        loaded = KnowledgeBase.load(tmp_path / "kb")
        assert loaded.pos_lexicon == kb.pos_lexicon
        assert loaded.dictionary == kb.dictionary
        assert loaded.similarity.vocab == kb.similarity.vocab
        np.testing.assert_allclose(
            loaded.similarity.vectors, kb.similarity.vectors, rtol=1e-8, atol=1e-12
        )

    def test_sim_rows_are_the_bytes_of_a_format_per_cell(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 1.7e308], [0.1, -2.5e-7, 1 / 3], [0.0, -1.7e308, -5e-324]])
        vocab = ["x", "\t", "\u2028"]
        with np.errstate(over="ignore"):  # the norms of these rows overflow
            model = SimilarityModel(vocab, vectors)
        KnowledgeBase({}, set(), model).save(tmp_path / "kb")
        rows = "".join(f"{c}\t" + " ".join(f"{x:.9g}" for x in row) + "\n" for c, row in zip(vocab, vectors))
        assert (tmp_path / "kb" / "sim.tsv").read_bytes() == ("3 3\n" + rows).encode("utf-8")

    def test_malformed_lines_are_parse_errors_naming_file_and_line(self, tmp_path):
        self.make_kb().save(tmp_path / "kb")
        cpos = tmp_path / "kb" / "cpos.tsv"
        cpos.write_text("x\tNN\nxy\tVV\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert f"{cpos}:2" in str(err.value)

    def test_sim_rows_must_match_the_header(self, tmp_path):
        self.make_kb().save(tmp_path / "kb")
        sim = tmp_path / "kb" / "sim.tsv"
        lines = sim.read_text(encoding="utf-8").splitlines(keepends=True)
        sim.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert str(sim) in str(err.value) and "header" in str(err.value)
        sim.write_text("".join(lines + lines[-1:]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert f"{sim}:{len(lines) + 1}" in str(err.value)
        sim.write_text("".join(lines + ["w" + lines[-1][1:]]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert f"{sim}:{len(lines) + 1}: more rows than the 3" in str(err.value)

    @pytest.mark.parametrize("name, damage, where", [
        ("cpos.tsv", lambda lines: lines + lines[:1], "cpos.tsv:3: character 'x' repeats line 1"),
        # y's row replaced by a copy of x's, the header count unchanged
        ("sim.tsv", lambda lines: [lines[0], lines[1], lines[1], lines[3]], "sim.tsv:3: character 'x' repeats line 2"),
    ])
    def test_a_character_on_two_rows_is_a_parse_error(self, tmp_path, name, damage, where):
        self.make_kb().save(tmp_path / "kb")
        path = tmp_path / "kb" / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(damage(lines)), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert str(tmp_path / "kb" / where) in str(err.value)

    def test_sim_header_is_not_an_allocation_size(self, tmp_path):
        """A header declaring far more rows and columns than the file
        holds is a parse error, not an attempt to allocate its product."""
        self.make_kb().save(tmp_path / "kb")
        sim = tmp_path / "kb" / "sim.tsv"
        lines = sim.read_text(encoding="utf-8").splitlines(keepends=True)
        sim.write_text("".join(["100000000 100000\n", *lines[1:]]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert f"{sim}:2" in str(err.value) and "100000 numbers" in str(err.value)
        sim.write_text("".join(["100000000 " + lines[0].split()[1] + "\n", *lines[1:]]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            KnowledgeBase.load(tmp_path / "kb")
        assert "header declares 100000000" in str(err.value)

    @pytest.mark.parametrize("name", ["cpos.tsv", "dict.txt", "sim.tsv"])
    def test_interrupted_save_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        root = tmp_path / "kb"
        self.make_kb().save(root)
        before = (root / name).read_bytes()
        replace = os.replace

        def fail_on_name(src, dst):
            if Path(dst).name == name:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(corpus.os, "replace", fail_on_name)
        changed = KnowledgeBase({"z": "VV"}, {"zz"}, build_similarity(["zyx", "yxz"], k=2))
        with pytest.raises(OSError):
            changed.save(root)
        assert (root / name).read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == ["cpos.tsv", "dict.txt", "sim.tsv"]

    def test_archive_files_and_checksum_stability(self, tmp_path):
        kb = self.make_kb()
        kb.save(tmp_path / "a")
        kb.save(tmp_path / "b")
        for name in ("cpos.tsv", "dict.txt", "sim.tsv"):
            assert (tmp_path / "a" / name).exists()
        assert archive_checksum(tmp_path / "a") == archive_checksum(tmp_path / "b")
