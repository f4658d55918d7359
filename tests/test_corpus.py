import json

import pytest
from hypothesis import given, strategies as st

from reldistill.corpus import (
    CorpusFormatError,
    Sentence,
    Token,
    chunk_sentence,
    detect_coordinate_lists,
    ingest_corpus,
    write_corpus,
)
from reldistill.norm import normalize


def toks(*pairs):
    return [Token(surface, pos) for surface, pos in pairs]


class TestChunker:
    def test_single_noun_compound(self):
        assert chunk_sentence(toks(("stomach", "NOUN"), ("upset", "NOUN"))) == [(0, 2)]

    def test_verb_and_det_excluded(self):
        tokens = toks(("take", "VERB"), ("this", "DET"), ("drug", "NOUN"))
        assert chunk_sentence(tokens) == [(2, 3)]

    def test_adjective_noun_runs(self):
        # hand-enumerated against the greedy (ADJ|NOUN)* NOUN rule
        tokens = toks(
            ("severe", "ADJ"), ("stomach", "NOUN"), ("pain", "NOUN"),
            ("or", "CONJ"), ("nausea", "NOUN"),
        )
        assert chunk_sentence(tokens) == [(0, 3), (4, 5)]

    def test_trailing_adjective_trimmed(self):
        tokens = toks(("red", "ADJ"), ("car", "NOUN"), ("shiny", "ADJ"))
        assert chunk_sentence(tokens) == [(0, 2)]

    def test_missing_pos_raises(self):
        with pytest.raises(CorpusFormatError, match="precomputed"):
            chunk_sentence([Token("drug")])

    @given(
        st.lists(
            st.sampled_from(["NOUN", "PROPN", "ADJ", "VERB", "DET", "CONJ", "PUNCT", "OTHER"]),
            max_size=30,
        )
    )
    def test_spans_disjoint_and_sorted(self, tags):
        tokens = [Token(f"w{i}", pos) for i, pos in enumerate(tags)]
        spans = chunk_sentence(tokens)
        assert spans == sorted(spans)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for s, e in spans:
            assert 0 <= s < e <= len(tokens)
            assert tokens[e - 1].pos in ("NOUN", "PROPN")


class TestCoordinateLists:
    def test_three_item_list(self):
        tokens = toks(
            ("stomach", "NOUN"), ("upset", "NOUN"), (",", "PUNCT"),
            ("nausea", "NOUN"), (",", "PUNCT"), ("and", "CONJ"),
            ("dizziness", "NOUN"),
        )
        sent = Sentence(tokens, np_chunks=chunk_sentence(tokens))
        lists = detect_coordinate_lists(sent)
        assert len(lists) == 1
        assert lists[0].item_spans == ((0, 2), (3, 4), (6, 7))
        assert lists[0].head_span == (6, 7)

    def test_single_chunk_no_list(self):
        tokens = toks(("nausea", "NOUN"))
        sent = Sentence(tokens, np_chunks=[(0, 1)])
        assert detect_coordinate_lists(sent) == []

    def test_run_stops_at_non_separator(self):
        tokens = toks(
            ("fever", "NOUN"), ("or", "CONJ"), ("chills", "NOUN"),
            ("in", "OTHER"), ("adults", "NOUN"),
        )
        sent = Sentence(tokens, np_chunks=chunk_sentence(tokens))
        lists = detect_coordinate_lists(sent)
        assert len(lists) == 1
        assert lists[0].item_spans == ((0, 1), (2, 3))

    def test_items_are_np_chunks(self, structured_docs):
        for doc in structured_docs:
            for sec in doc.sections:
                for sent in sec.sentences:
                    chunk_set = set(sent.np_chunks)
                    for cl in sent.coordinate_lists:
                        assert set(cl.item_spans) <= chunk_set


class TestIngest:
    def test_minimal_document(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(
                {
                    "doc_id": "d1",
                    "title_entity": "meloxicam",
                    "sections": [{"title": "Side Effects", "sentences": []}],
                }
            )
            + "\n"
        )
        docs = ingest_corpus(str(path), "structured")
        assert len(docs) == 1
        assert docs[0].doc_id == "d1"
        assert docs[0].corpus_tag == "structured"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert ingest_corpus(str(path), "target") == []

    def test_missing_section_title(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"doc_id": "d1", "title_entity": "x", "sections": [{}]}) + "\n"
        )
        with pytest.raises(CorpusFormatError, match="line 1"):
            ingest_corpus(str(path), "target")

    def test_duplicate_doc_id(self, tmp_path):
        row = json.dumps({"doc_id": "d1", "title_entity": "x", "sections": []})
        path = tmp_path / "c.jsonl"
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            ingest_corpus(str(path), "target")

    @pytest.mark.parametrize(
        "token, message",
        [
            ({"surface": "pain", "pos": 7}, "token 1 field 'pos' must be a string, got 7"),
            ({"surface": 3}, "token 1 field 'surface' must be a string, got 3"),
            ({"surface": "pain", "dep_label": ["nsubj"]},
             "token 1 field 'dep_label' must be a string, got ['nsubj']"),
            ({"surface": "pain", "dep_head": 0.0},
             "token 1 field 'dep_head' must be an integer, got 0.0"),
            ({"surface": "pain", "dep_head": True},
             "token 1 field 'dep_head' must be an integer, got True"),
            ({"surface": "pain", "dep_head": "0"},
             "token 1 field 'dep_head' must be an integer, got '0'"),
        ],
    )
    def test_ill_typed_token_field_named(self, tmp_path, token, message):
        sentence = {"tokens": [{"surface": "severe", "pos": "ADJ"}, token]}
        doc = {"doc_id": "d1", "title_entity": "x",
               "sections": [{"title": "Uses", "sentences": [sentence]}]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "d0", "title_entity": "y", "sections": []})
                        + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(CorpusFormatError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == f"line 2: {message}"

    def test_roundtrip(self, tmp_path, structured_docs):
        path = tmp_path / "rt.jsonl"
        write_corpus(structured_docs, str(path))
        again = ingest_corpus(str(path), "structured")
        assert again == structured_docs

    def test_title_entity_normalized(self, structured_docs):
        assert structured_docs[0].title_entity == "meloxicam"


@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    assert normalize(normalize(s)) == normalize(s)
