import json
import re
from dataclasses import fields

import pytest

from corefrank import pronouns
from corefrank.corpus import (
    CorpusError,
    Mention,
    doc_to_record,
    doc_from_record,
    head_of,
    key_partition_doc,
    load_corpus,
    load_partition_file,
    partition_doc_to_record,
    save_corpus,
    surface_vocab,
    unseen_test,
    unseen_train,
)
from corefrank.synth import synth_common_corpus

from conftest import make_doc


class TestLoadCorpus:
    def test_single_document_roundtrip(self, fig1, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([fig1], str(path))
        docs = load_corpus(str(path))
        assert len(docs) == 1
        assert doc_to_record(docs[0]) == doc_to_record(fig1)

    def test_fig1_gold_partition(self, fig1, tmp_path):
        # ids 0-based; the original numbering of the example is 1-based
        path = tmp_path / "corpus.jsonl"
        save_corpus([fig1], str(path))
        (doc,) = load_corpus(str(path))
        assert doc.gold_partition.as_sets() == {
            frozenset({0, 2, 5}),
            frozenset({1}),
            frozenset({3}),
            frozenset({4}),
        }

    def test_overlapping_clusters_rejected(self, fig1, tmp_path):
        rec = doc_to_record(fig1)
        rec["clusters"] = [[0, 2, 5], [1, 2], [3], [4]]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match="clusters pairwise disjoint"):
            load_corpus(str(path))

    def test_parse_error_reports_line(self, fig1, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\nnot json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(str(path))

    def test_uncovered_mention_rejected(self, fig1, tmp_path):
        rec = doc_to_record(fig1)
        rec["clusters"] = [[0, 2, 5], [1], [3]]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match="cover the mention universe"):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [("sent", "0"), ("head_start", "1"), ("appositive_with", "1"), ("start", False), ("id", True),
         ("subject", "yes"), ("nested", 1), ("head_end", 5.0)],
        ids=["sent", "head_start", "appositive_with", "start-false", "id-true", "subject-str", "nested-int",
             "head_end-float"],
    )
    def test_mistyped_mention_field_reports_line(self, fig1, tmp_path, field, value):
        rec = doc_to_record(fig1)
        mention = rec["mentions"][1]
        mention["head_start"], mention["head_end"] = mention["start"], mention["end"]
        mention[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=rf"line 2.*'{field} is an? (integer|boolean)' violated at mention 1"):
            load_corpus(str(path))

    @pytest.mark.parametrize("field", [f.name for f in fields(Mention)])
    def test_every_mention_field_is_checked(self, fig1, tmp_path, field):
        # each field is checked by exact type or by value set; a list fits neither
        rec = doc_to_record(fig1)
        rec["mentions"][1][field] = [field]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(
            CorpusError, match=rf"line 2.*'{field} is (an integer|a boolean|a known value)' violated at mention 1"
        ):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "sentence, token, value, invariant",
        [(0, 0, 7, "token is a string"), (1, 2, None, "token is a string"),
         (0, None, "abc", "sentence is a list"), (1, None, {}, "sentence is a list")],
        ids=["token-int", "token-null", "sentence-str", "sentence-object"],
    )
    def test_mistyped_sentence_reports_line(self, fig1, tmp_path, sentence, token, value, invariant):
        rec = doc_to_record(fig1)
        rec["sentences"] = [list(s) for s in rec["sentences"]]
        if token is None:
            rec["sentences"][sentence] = value
        else:
            rec["sentences"][sentence][token] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=rf"line 2.*'{invariant}' violated at sentence {sentence}: "
                                              rf"{re.escape(repr(value))}$"):
            load_corpus(str(path))

    @pytest.mark.parametrize("value", ["abc", {"0": ["a"]}, 5])
    def test_sentences_not_a_list_reports_line(self, fig1, tmp_path, value):
        rec = {**doc_to_record(fig1), "sentences": value}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=rf"line 2.*'sentences is a list' violated: {re.escape(repr(value))}$"):
            load_corpus(str(path))

    @pytest.mark.parametrize("loader", [load_corpus, load_partition_file])
    def test_non_object_record_reports_line(self, fig1, tmp_path, loader):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc_to_record(fig1)) + "\n" + json.dumps([doc_to_record(fig1)]) + "\n")
        with pytest.raises(CorpusError, match="line 2"):
            loader(str(path))

    @pytest.mark.parametrize("loader", [load_corpus, load_partition_file])
    def test_non_string_doc_id_reports_line(self, fig1, tmp_path, loader):
        if loader is load_corpus:
            good = doc_to_record(fig1)
        else:
            good = partition_doc_to_record(key_partition_doc(fig1))
        rec = dict(good)
        rec["doc_id"] = [1]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=r"line 2.*doc_id is a string"):
            loader(str(path))

    @pytest.mark.parametrize(
        "field, value", [("sent", "0"), ("start", "0"), ("end", 1.0), ("sent", False), ("id", "1")]
    )
    def test_mistyped_partition_span_reports_line(self, fig1, tmp_path, field, value):
        good = partition_doc_to_record(key_partition_doc(fig1))
        rec = partition_doc_to_record(key_partition_doc(fig1))
        rec["mentions"][1][field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(CorpusError, match=r"line 2.*are integers"):
            load_partition_file(str(path))

    def test_out_of_order_mentions_rejected(self, fig1):
        rec = doc_to_record(fig1)
        rec["mentions"][0], rec["mentions"][1] = rec["mentions"][1], rec["mentions"][0]
        rec["mentions"][0]["id"], rec["mentions"][1]["id"] = 0, 1
        with pytest.raises(CorpusError, match="document order"):
            doc_from_record(rec)

    def test_span_outside_sentence_rejected(self, fig1):
        rec = doc_to_record(fig1)
        rec["mentions"][-1]["end"] = 99
        with pytest.raises(CorpusError, match="span within sentence"):
            doc_from_record(rec)

    def test_two_determiner_flags_rejected(self, fig1):
        rec = doc_to_record(fig1)
        rec["mentions"][3]["definite"] = True
        rec["mentions"][3]["indefinite"] = True
        with pytest.raises(CorpusError, match="at most one determiner flag"):
            doc_from_record(rec)

    def test_roundtrip_over_generated_corpus(self, tmp_path):
        from corefrank.synth import synth_corpus

        docs = unseen_train(synth_corpus(20, seed=5), 0.2, seed=9)
        path = tmp_path / "synth.jsonl"
        save_corpus(docs, str(path))
        loaded = load_corpus(str(path))
        assert [doc_to_record(d) for d in loaded] == [doc_to_record(d) for d in docs]
        path2 = tmp_path / "synth2.jsonl"
        save_corpus(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()


class TestHeadOf:
    def test_proper_uses_full_span(self, fig1):
        assert head_of(fig1, fig1.mentions[1]) == "hillary rodham clinton"

    def test_common_uses_last_word(self, fig1):
        assert head_of(fig1, fig1.mentions[3]) == "state"

    def test_pronoun(self, fig1):
        assert head_of(fig1, fig1.mentions[5]) == "he"

    def test_explicit_head_span_wins(self):
        doc = make_doc(
            "d", [("the tall man outside", "COMMON", {"head_start": 2, "head_end": 3})]
        )
        assert head_of(doc, doc.mentions[0]) == "man"

    def test_never_empty(self, fig1):
        for m in fig1.mentions:
            assert head_of(fig1, m)


class TestUnseenProtocol:
    def test_rate_zero_marks_nothing(self):
        docs = synth_common_corpus(200, seed=1)
        out = unseen_train(docs, 0.0, seed=5)
        assert not any(m.unseen for d in out for m in d.mentions)

    def test_string_closure(self):
        doc = make_doc(
            "d",
            [
                ("the airline", "COMMON", {}),
                ("the carrier", "COMMON", {}),
                ("the airline", "COMMON", {}),
            ],
        )
        out = unseen_train([doc], 0.34, seed=0)
        marked = [m.unseen for m in out[0].mentions]
        # whichever string was drawn, its twin got marked with it
        assert marked[0] == marked[2]
        assert any(marked)

    def test_closure_spans_mention_types(self):
        doc = make_doc(
            "d",
            [("Acme", "COMMON", {}), ("Acme", "PROPER", {"ne_tag": "ORGANIZATION"})],
        )
        out = unseen_train([doc], 1.0, seed=0)
        assert all(m.unseen for m in out[0].mentions)

    def test_rate_and_determinism(self):
        docs = synth_common_corpus(2000, seed=3)
        out1 = unseen_train(docs, 0.10, seed=7)
        out2 = unseen_train(docs, 0.10, seed=7)
        marks1 = [m.unseen for d in out1 for m in d.mentions]
        marks2 = [m.unseen for d in out2 for m in d.mentions]
        assert marks1 == marks2
        frac = sum(marks1) / len(marks1)
        assert 0.08 <= frac <= 0.12

    def test_inputs_not_mutated(self):
        docs = synth_common_corpus(100, seed=2)
        unseen_train(docs, 0.5, seed=1)
        assert not any(m.unseen for d in docs for m in d.mentions)

    def test_unseen_test_membership(self):
        train = make_doc("t", [("he", "PRONOUN", {}), ("Obama", "PROPER", {})])
        vocab = surface_vocab([train])
        test = make_doc("x", [("he", "PRONOUN", {}), ("carrier", "COMMON", {})])
        (out,) = unseen_test([test], vocab)
        assert [m.unseen for m in out.mentions] == [False, True]

    def test_unseen_test_empty_vocab_marks_all(self):
        test = make_doc("x", [("he", "PRONOUN", {}), ("carrier", "COMMON", {})])
        (out,) = unseen_test([test], set())
        assert all(m.unseen for m in out.mentions)

    def test_unseen_test_full_vocab_marks_none(self):
        test = make_doc("x", [("he", "PRONOUN", {}), ("carrier", "COMMON", {})])
        (out,) = unseen_test([test], surface_vocab([test]))
        assert not any(m.unseen for m in out.mentions)


class TestPronounLexicon:
    def test_nominative_forms_are_keys(self):
        for entry in pronouns.PRONOUNS.values():
            assert entry.nominative in pronouns.PRONOUNS

    def test_case_normalization(self):
        assert pronouns.lookup("HIM").nominative == "he"

    def test_wh_pronouns_absent(self):
        assert pronouns.lookup("who") is None
