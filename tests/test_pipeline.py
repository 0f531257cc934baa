import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patseg.adaptation import augment, build_training, decoding_features
from patseg.corpus import Document
from patseg.crf import CrfModel, build_registry
from patseg.external_features import KnowledgeBase, build_similarity
from patseg.pipeline import (
    EXTERNAL_GROUPS,
    FEATURE_GROUPS,
    FeatureExtractor,
    normalize_groups,
)

from _reference import columns_from_rows, instance, write_feature_dump

# Hand-checked dump for the document ["abab"] with CF+LNG+PKL+PMI:
# "ab" is the only maximal repeated n-gram (labels S,F,S,F) and no trigram
# reaches frequency 2, so every PKL/PMI cell is none.
GOLDEN_ABAB = """\
U[-2]=_B-2\tU[-1]=_B-1\tU[0]=a\tU[1]=b\tU[2]=a\tB[-2,-1]=_B-2_B-1\tB[-1,0]=_B-1a\tB[0,1]=ab\tB[1,2]=ba\tS[-1,1]=_B-1b\tTU[0]=Letter\tTB[-1,0]=_B-1·Letter\tTB[0,1]=Letter·Letter\tTS[-1,1]=_B-1·Letter\tLNG=S\tPKL1=none\tPKL2=none\tPMI1=none\tPMI2=none
U[-2]=_B-1\tU[-1]=a\tU[0]=b\tU[1]=a\tU[2]=b\tB[-2,-1]=_B-1a\tB[-1,0]=ab\tB[0,1]=ba\tB[1,2]=ab\tS[-1,1]=aa\tTU[0]=Letter\tTB[-1,0]=Letter·Letter\tTB[0,1]=Letter·Letter\tTS[-1,1]=Letter·Letter\tLNG=F\tPKL1=none\tPKL2=none\tPMI1=none\tPMI2=none
U[-2]=a\tU[-1]=b\tU[0]=a\tU[1]=b\tU[2]=_B+1\tB[-2,-1]=ab\tB[-1,0]=ba\tB[0,1]=ab\tB[1,2]=b_B+1\tS[-1,1]=bb\tTU[0]=Letter\tTB[-1,0]=Letter·Letter\tTB[0,1]=Letter·Letter\tTS[-1,1]=Letter·Letter\tLNG=S\tPKL1=none\tPKL2=none\tPMI1=none\tPMI2=none
U[-2]=b\tU[-1]=a\tU[0]=b\tU[1]=_B+1\tU[2]=_B+2\tB[-2,-1]=ba\tB[-1,0]=ab\tB[0,1]=b_B+1\tB[1,2]=_B+1_B+2\tS[-1,1]=a_B+1\tTU[0]=Letter\tTB[-1,0]=Letter·Letter\tTB[0,1]=Letter·_B+1\tTS[-1,1]=Letter·_B+1\tLNG=F\tPKL1=none\tPKL2=none\tPMI1=none\tPMI2=none
"""


def toy_knowledge():
    return KnowledgeBase(
        pos_lexicon={"a": "NN", "好": "VA"},
        dictionary={"ab", "好ab"},
        similarity=build_similarity(["ab好", "ba好", "ab好"], k=2),
    )


class TestNormalizeGroups:
    def test_cf_always_enabled(self):
        assert normalize_groups(["LNG"]) == ("CF", "LNG")

    def test_spec_order(self):
        assert normalize_groups(["SIM", "CF", "PKL"]) == ("CF", "PKL", "SIM")

    def test_all_groups(self):
        assert normalize_groups(FEATURE_GROUPS) == FEATURE_GROUPS

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            normalize_groups(["CF", "WORD2VEC"])


class TestFeatureExtractor:
    def test_external_groups_need_knowledge(self):
        with pytest.raises(ValueError):
            FeatureExtractor(("CF", "DICT"))
        FeatureExtractor(("CF", "DICT"), toy_knowledge())

    def test_golden_dump(self):
        doc = Document("d", ("abab",))
        extractor = FeatureExtractor(("CF", "LNG", "PKL", "PMI"))
        out = io.StringIO()
        write_feature_dump(out, extractor.document_features(doc))
        assert out.getvalue() == GOLDEN_ABAB

    def test_blank_line_between_sentences(self):
        doc = Document("d", ("ab", "ba"))
        extractor = FeatureExtractor(("CF",))
        out = io.StringIO()
        write_feature_dump(out, extractor.document_features(doc))
        blocks = out.getvalue().split("\n\n")
        assert len(blocks) == 2

    def test_entry_order_and_arity_with_all_groups(self):
        doc = Document("d", ("ab好ab好",))
        extractor = FeatureExtractor(FEATURE_GROUPS, toy_knowledge())
        rows = extractor.document_features(doc)
        expected_tail = [
            "LNG", "PKL1", "PKL2", "PMI1", "PMI2",
            "C_POS", "DICT", "SIM[-2]", "SIM[-1]", "SIM[+1]", "SIM[+2]",
        ]
        for fv in rows[0]:
            assert len(fv) == 14 + len(expected_tail)
            assert [t for t, _ in fv[14:]] == expected_tail

    def test_doc_stats_depend_only_on_their_document(self):
        """Adding other documents never changes a document's features."""
        doc = Document("d", ("abab", "xy"))
        extractor = FeatureExtractor(("CF", "LNG", "PKL", "PMI"))
        alone = [list(s) for s in extractor.document_features(doc)]
        # feature extraction is per document by construction; a second
        # extraction of the same document must be identical
        assert [list(s) for s in extractor.document_features(doc)] == alone

    def test_sim_values_are_discrete(self):
        doc = Document("d", ("ab好",))
        extractor = FeatureExtractor(("CF", "SIM"), toy_knowledge())
        legal = {"zero"} | {str(i) for i in range(10)}
        for rows in extractor.document_features(doc):
            for fv in rows:
                for template_id, value in fv:
                    if template_id.startswith("SIM["):
                        assert value in legal

    def test_dict_and_cpos_values(self):
        doc = Document("d", ("abq",))
        extractor = FeatureExtractor(("CF", "C_POS", "DICT"), toy_knowledge())
        rows = extractor.document_features(doc)[0]
        by_template = [dict(fv) for fv in rows]
        assert by_template[0]["C_POS"] == "NN"
        assert by_template[2]["C_POS"] == "<none>"
        assert by_template[0]["DICT"] == "1"
        assert by_template[2]["DICT"] == "0"

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(40)
        sentences = tuple(
            "".join(rng.choice(list("ab好xy"), size=int(rng.integers(2, 15))))
            for _ in range(4)
        )
        doc = Document("d", sentences)
        extractor = FeatureExtractor(FEATURE_GROUPS, toy_knowledge())
        assert [list(s) for s in extractor.document_features(doc)] == [
            list(s) for s in extractor.document_features(doc)
        ]


# Characters of every class the classifier knows, plus the separators a
# real corpus line can hold: tab, form feed and U+2028.
ALPHABET = "地板很好大肠杆菌" + "0７一" + "abX" + "ＡｂＣ" + "\t\x0c\u2028"


def reference_rows(extractor, doc):
    """Per-position feature vectors built entry by entry from the
    per-position feature functions: the oracle for the columns."""
    from patseg import doc_features
    from patseg.char_features import cf_features, char_types
    from patseg.external_features import (
        SIM_OFFSETS, cpos_feature, dict_feature, discretize_similarity, sim_features,
    )

    groups = set(extractor.groups)
    kb = extractor.knowledge
    lng = doc_features.extract_lng(doc)
    table = doc_features.TrigramTable.from_document(doc)
    pkl = [doc_features.bin_scores(s, "ascending") for s in doc_features.compute_pkl(doc, table)]
    pmi = [doc_features.bin_scores(s, "descending") for s in doc_features.compute_pmi(doc, table)]

    def bin_value(bins, si, i):
        return str(bins[(si, i)]) if (si, i) in bins else doc_features.NO_SCORE

    out = []
    for si, sent in enumerate(doc.sentences):
        types = char_types(sent)
        rows = []
        for i in range(len(sent)):
            fv = cf_features(sent, types, i)
            if "LNG" in groups:
                fv.append(("LNG", doc_features.lng_label(doc, lng, si, i)))
            if "PKL" in groups:
                fv += [("PKL1", bin_value(pkl[0], si, i)), ("PKL2", bin_value(pkl[1], si, i))]
            if "PMI" in groups:
                fv += [("PMI1", bin_value(pmi[0], si, i)), ("PMI2", bin_value(pmi[1], si, i))]
            if "C_POS" in groups:
                fv.append(("C_POS", cpos_feature(kb.pos_lexicon, sent[i])))
            if "DICT" in groups:
                fv.append(("DICT", str(dict_feature(kb.dictionary, sent, i))))
            if "SIM" in groups:
                for off, sim in zip(SIM_OFFSETS, sim_features(kb.similarity, sent, i)):
                    fv.append((f"SIM[{off:+d}]", discretize_similarity(sim)))
            rows.append(fv)
        out.append(rows)
    return out


def alphabet_knowledge():
    return KnowledgeBase(
        pos_lexicon={"地": "NN", "好": "VA", "0": "CD", "\t": "PU", "\u2028": "PU", "ｂ": "NN"},
        dictionary={"地板", "大肠杆", "很好", "a\tb", "\x0c一", "ＡｂＣ"},
        similarity=build_similarity(
            ["地板很好", "大肠杆菌很大", "0７一ab", "X\tＡ\x0cｂ\u2028Ｃ", "好地ab0", "菌ｂ\t大"], k=4
        ),
    )


words_strategy = st.text(alphabet=ALPHABET, min_size=1, max_size=4)
sentence_strategy = st.lists(words_strategy, min_size=1, max_size=8)
document_strategy = st.lists(sentence_strategy, min_size=1, max_size=5)


def segmented(doc_id, sentences):
    return Document(doc_id, tuple("".join(ws) for ws in sentences), tuple(tuple(ws) for ws in sentences))


# the source model of the transit check is registered over this document
TRANSIT_DOC = segmented("src", [["地板", "很", "好"], ["a", "\tb", "ＡｂＣ"], ["0７", "\u2028", "一\x0c"]])


class TestColumnsOracle:
    """Columns, the easy namespaces and the transit column against the
    per-position feature functions."""

    extractor = FeatureExtractor(FEATURE_GROUPS, alphabet_knowledge())

    @settings(max_examples=60, deadline=None)
    @given(document_strategy)
    def test_every_row_equals_the_per_position_reference(self, sentences):
        doc = segmented("d", sentences)
        columns = self.extractor.document_columns(doc)
        expected = reference_rows(self.extractor, doc)
        assert columns.lengths == tuple(len(s) for s in doc.sentences)
        assert list(columns) == [fv for rows in expected for fv in rows]
        assert [list(s) for s in self.extractor.document_features(doc)] == expected

    @settings(max_examples=30, deadline=None)
    @given(document_strategy, document_strategy)
    def test_easy_namespaces_render_as_augment(self, source, target):
        source_doc, target_doc = segmented("s", source), segmented("t", target)
        instances, _ = build_training("easy", [source_doc], [target_doc], self.extractor)
        expected = [
            [augment(fv, domain) for fv in rows]
            for doc, domain in ((source_doc, "source"), (target_doc, "target"))
            for rows in reference_rows(self.extractor, doc)
        ]
        assert [len(inst.features.lengths) for inst in instances] == [len(source), len(target)]
        assert [list(s) for inst in instances for s in inst.features.sentences()] == expected
        decoded = decoding_features(target_doc, self.extractor, "easy")
        assert [list(s) for s in decoded] == expected[len(source):]

    @settings(max_examples=30, deadline=None)
    @given(document_strategy)
    def test_transit_column_renders_as_an_appended_label(self, sentences):
        doc = segmented("d", sentences)
        expected = reference_rows(self.extractor, doc)
        registry = build_registry(
            [instance(rows, ("S",) * len(rows)) for rows in reference_rows(self.extractor, TRANSIT_DOC)]
        )
        weights = np.random.default_rng(len(doc.sentences)).normal(0.0, 1.0, registry.n_weights)
        source_model = CrfModel(registry, weights)
        # labels decoded from the per-position rows, independently of the columns
        labels = [source_model.viterbi(columns_from_rows(rows)) for rows in expected]
        got = decoding_features(doc, self.extractor, "transit", source_model)
        assert [list(s) for s in got] == [
            [fv + [("TRANSIT", lab)] for fv, lab in zip(rows, labs)] for rows, labs in zip(expected, labels)
        ]
