import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patseg import corpus
from patseg.corpus import (
    CharType,
    Document,
    ParseError,
    atomic_write,
    checksum,
    classify_char,
    corpus_files,
    decode_bmes,
    encode_bmes,
    read_corpus,
)


class TestClassifyChar:
    @pytest.mark.parametrize(
        "char,expected",
        [
            ("7", CharType.NUMBER),
            ("0", CharType.NUMBER),
            ("９", CharType.NUMBER),  # full-width digit
            ("三", CharType.NUMBER),
            ("〇", CharType.NUMBER),
            ("萬", CharType.NUMBER),
            ("板", CharType.HANZI),
            ("地", CharType.HANZI),
            ("a", CharType.LETTER),
            ("Z", CharType.LETTER),
            ("ｂ", CharType.LETTER),  # full-width letter
            ("-", CharType.OTHER),
            ("—", CharType.OTHER),
            (" ", CharType.OTHER),
            ("。", CharType.OTHER),
        ],
    )
    def test_examples(self, char, expected):
        assert classify_char(char) == expected

    def test_total_over_inventory(self):
        """Every tested character falls in exactly one of the four classes."""
        inventory = "7８三〇板地aZｂ-—。，xyz干扰素12壹"
        for c in inventory:
            t = classify_char(c)
            assert t in CharType

    def test_rejects_non_single_character(self):
        with pytest.raises(ValueError):
            classify_char("ab")


class TestBmesCodec:
    def test_encode_two_char_word(self):
        assert encode_bmes(["地板"]) == ["B", "E"]

    def test_encode_four_char_word(self):
        assert encode_bmes(["大肠杆菌"]) == ["B", "M", "M", "E"]

    def test_encode_mixed(self):
        assert encode_bmes(["a", "—", "干扰素"]) == ["S", "S", "B", "M", "E"]

    def test_encode_rejects_empty_word(self):
        with pytest.raises(ValueError):
            encode_bmes(["地板", ""])

    def test_decode_well_formed(self):
        assert decode_bmes("地板", ["B", "E"]) == ["地板"]
        assert decode_bmes("地板", ["S", "S"]) == ["地", "板"]

    def test_decode_repairs_initial_m(self):
        assert decode_bmes("地板", ["M", "E"]) == ["地板"]

    def test_decode_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            decode_bmes("地板", ["B"])

    def test_decode_repair_all_pairs(self):
        """All 16 label pairs decode to words covering both characters."""
        for labels in itertools.product("BMES", repeat=2):
            words = decode_bmes("地板", list(labels))
            assert "".join(words) == "地板"

    @given(
        st.lists(
            st.text(alphabet="ab地板很好干扰素7", min_size=1, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    def test_round_trip(self, words):
        sentence = "".join(words)
        assert decode_bmes(sentence, encode_bmes(words)) == words

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_decode_coverage_any_labels(self, n, data):
        """decode never drops or duplicates characters, even on garbage labels."""
        labels = data.draw(st.lists(st.sampled_from("BMES"), min_size=n, max_size=n))
        sentence = "abcdef"[:n]
        assert "".join(decode_bmes(sentence, labels)) == sentence


class TestDocument:
    def test_rejects_empty_document(self):
        with pytest.raises(ValueError):
            Document("d", ())

    def test_rejects_misaligned_words(self):
        with pytest.raises(ValueError):
            Document("d", ("地板",), (("地", "好"),))

    def test_word_count(self):
        doc = Document("d", ("地板很好",), (("地板", "很", "好"),))
        assert doc.word_count() == 3


class TestReadCorpus:
    def test_segmented_file(self, tmp_path):
        (tmp_path / "p1.seg").write_text("地板 很 好\n", encoding="utf-8")
        docs = read_corpus(tmp_path, "segmented")
        assert len(docs) == 1
        assert docs[0].doc_id == "p1"
        assert docs[0].words == (("地板", "很", "好"),)
        assert docs[0].sentences == ("地板很好",)

    def test_raw_file(self, tmp_path):
        (tmp_path / "p1.txt").write_text("地板很好\n", encoding="utf-8")
        docs = read_corpus(tmp_path, "raw")
        assert docs[0].sentences == ("地板很好",)
        assert len(docs[0].sentences[0]) == 4
        assert docs[0].words is None

    def test_a_single_file_is_a_corpus_of_one_document(self, tmp_path):
        (tmp_path / "p2.seg").write_text("好\n", encoding="utf-8")
        path = tmp_path / "p1.seg"
        path.write_text("地板 很 好\n", encoding="utf-8")
        assert read_corpus(path, "segmented") == read_corpus(tmp_path, "segmented")[:1]

    def test_document_order_is_lexicographic(self, tmp_path):
        (tmp_path / "p2.seg").write_text("好\n", encoding="utf-8")
        (tmp_path / "p1.seg").write_text("好\n", encoding="utf-8")
        docs = read_corpus(tmp_path, "segmented")
        assert [d.doc_id for d in docs] == ["p1", "p2"]

    def test_blank_lines_ignored(self, tmp_path):
        (tmp_path / "p1.seg").write_text("地板 好\n\n很 好\n", encoding="utf-8")
        docs = read_corpus(tmp_path, "segmented")
        assert len(docs[0].sentences) == 2

    def test_doubled_space_is_a_parse_error(self, tmp_path):
        (tmp_path / "p1.seg").write_text("地板  好\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_corpus(tmp_path, "segmented")
        assert "p1.seg" in str(err.value)
        assert ":1" in str(err.value)

    def test_bytes_not_utf8_are_a_parse_error_naming_the_line(self, tmp_path):
        """Lines end at \\n, \\r\\n or \\r when counting, as when reading."""
        path = tmp_path / "p1.txt"
        path.write_bytes("地板\r\n很\r好\n".encode("utf-8") + b"\xe5\xa5")
        with pytest.raises(ParseError, match=r"p1\.txt:4: not UTF-8"):
            read_corpus(tmp_path, "raw")
        path.write_bytes("地板\r\n很\r好\n大".encode("utf-8"))
        assert read_corpus(tmp_path, "raw")[0].sentences == ("地板", "很", "好", "大")

    def test_missing_location(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_corpus(tmp_path / "nope", "raw")

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            read_corpus(tmp_path, "conll")

    def test_same_document_id_twice_is_rejected_naming_both(self, tmp_path):
        (tmp_path / "a.txt").write_text("地板\n", encoding="utf-8")
        (tmp_path / "a.md").write_text("很好\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("好\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            corpus_files(tmp_path)
        assert "a.md" in str(err.value) and "a.txt" in str(err.value)
        with pytest.raises(ValueError):
            read_corpus(tmp_path, "raw")
        # the checksum of a directory of files needs no document ids
        assert len(checksum(tmp_path)) == 64


class TestAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "sub" / "f.bin"
        atomic_write(path, b"one")
        atomic_write(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(path.parent.iterdir()) == [path]

    def test_failed_replace_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        atomic_write(path, b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(corpus.os, "replace", fail)
        with pytest.raises(OSError):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]
