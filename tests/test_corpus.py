import gc
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from reldistill.corpus import (
    POS_TAGS,
    CoordinateList,
    Document,
    Section,
    Sentence,
    TOKEN_FIELDS,
    chunk_sentence,
    detect_coordinate_lists,
    document_to_dict,
    ingest_corpus,
    map_pos,
    write_corpus,
)
from reldistill.decode import InputError
from reldistill.norm import normalize


def token(surface, pos=None, dep_head=None, dep_label=None):
    """A token as ingest builds it, for tests that build sentences by hand."""
    return (surface, pos, dep_head, dep_label)


def toks(*pairs):
    return tuple(token(surface, pos) for surface, pos in pairs)


def parsed_tokens(tmp_path, *raw_tokens):
    """The tokens ingest makes of one sentence of `raw_tokens`."""
    doc = {"doc_id": "d1", "title_entity": "x", "sections": [
        {"title": "Uses", "sentences": [{"tokens": list(raw_tokens), "np_chunks": []}]}]}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    (sent,) = ingest_corpus(str(path), "target")[0].sections[0].sentences
    return sent.tokens


class TestToken:
    def test_fields_and_defaults(self, tmp_path):
        assert TOKEN_FIELDS == ("surface", "pos", "dep_head", "dep_label")
        bare, full = parsed_tokens(
            tmp_path,
            {"surface": "nausea"},
            {"surface": "pain", "pos": "NN", "dep_head": 0, "dep_label": "conj"},
        )
        assert bare == ("nausea", None, None, None)
        assert full == ("pain", "NOUN", 0, "conj")

    def test_keyword_construction(self, tmp_path):
        # the object's keys may come in any order; the tuple has TOKEN_FIELDS order
        (tok,) = parsed_tokens(
            tmp_path, {"dep_label": "dobj", "pos": "NOUN", "surface": "pain"}
        )
        assert tok == token(surface="pain", dep_label="dobj", pos="NOUN")
        assert dict(zip(TOKEN_FIELDS, tok)) == {
            "surface": "pain", "pos": "NOUN", "dep_head": None, "dep_label": "dobj"
        }

    def test_equality_and_hash(self, tmp_path):
        a, b, c = parsed_tokens(
            tmp_path, {"surface": "pain", "pos": "NOUN"}, {"surface": "pain", "pos": "NN"},
            {"surface": "pain", "pos": "VERB"},
        )
        assert a == b == token("pain", "NOUN")
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_attributes_cannot_be_assigned(self, tmp_path):
        (tok,) = parsed_tokens(tmp_path, {"surface": "pain", "pos": "NOUN"})
        assert type(tok) is tuple  # exact, so the collector can untrack it
        with pytest.raises(TypeError):
            tok[1] = "VERB"
        assert tok[1] == "NOUN"


def test_parsed_corpus_is_untracked_by_the_collector(data_dir):
    """Tokens, `Sentence.tokens` and `Sentence.np_chunks` are exact tuples
    of atoms, which the cyclic collector untracks, so a corpus held in
    memory adds nothing to each later collection."""
    docs = ingest_corpus(str(data_dir / "structured.jsonl"), "structured")
    docs += ingest_corpus(str(data_dir / "target.jsonl"), "target")
    gc.collect()
    gc.collect()
    sentences = [sent for doc in docs for sec in doc.sections for sent in sec.sentences]
    assert sentences and any(sent.np_chunks for sent in sentences)
    tracked = [
        obj
        for sent in sentences
        for obj in (sent.tokens, sent.np_chunks, *sent.tokens)
        if gc.is_tracked(obj)
    ]
    assert tracked == []


# Penn and coarse tags with case and whitespace variants, punctuation-only
# tags, and tags that are neither
_TAG_PARTS = st.sampled_from(
    ["NN", "nnp", "NNS", "JJ", "vbd", "MD", "DT", "CC", "IN", "PRP", "noun", "Verb",
     "PROPN", "PUNCT", ",", ".", "-LRB-", "``", "$", "''", "x1", "", " ", "\t"]
)


@given(st.lists(_TAG_PARTS, max_size=3).map("".join))
def test_map_pos_returns_a_coarse_tag(tag):
    assert map_pos(tag) in POS_TAGS
    assert map_pos(tag) == map_pos(f" {tag.lower()}\t")


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
        with pytest.raises(InputError, match="precomputed"):
            chunk_sentence([token("drug")])

    @given(
        st.lists(
            st.sampled_from(["NOUN", "PROPN", "ADJ", "VERB", "DET", "CONJ", "PUNCT", "OTHER"]),
            max_size=30,
        )
    )
    def test_spans_disjoint_and_sorted(self, tags):
        tokens = [token(f"w{i}", pos) for i, pos in enumerate(tags)]
        spans = chunk_sentence(tokens)
        assert spans == sorted(spans)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for s, e in spans:
            assert 0 <= s < e <= len(tokens)
            assert tokens[e - 1][1] in ("NOUN", "PROPN")


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
        sent = Sentence(tokens, np_chunks=((0, 1),))
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


def second_line_corpus(tmp_path, where, value):
    """A two-document corpus whose second document has `value` at the
    key/index path `where` (the whole document when `where` is empty)."""
    sentence = {
        "tokens": [{"surface": "severe", "pos": "ADJ"}, {"surface": "pain", "pos": "NOUN"},
                   {"surface": "relief", "pos": "NOUN"}],
        "np_chunks": [[0, 2], [2, 3]],
        "coordinate_lists": [{"items": [[0, 2], [2, 3]]}],
    }
    doc = {"doc_id": "d1", "title_entity": "x",
           "sections": [{"title": "Uses", "sentences": [sentence]}]}
    if where:
        owner = doc
        for key in where[:-1]:
            owner = owner[key]
        owner[where[-1]] = value
    else:
        doc = value
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"doc_id": "d0", "title_entity": "y", "sections": []})
                    + "\n" + json.dumps(doc) + "\n")
    return path


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
        with pytest.raises(InputError, match="line 1"):
            ingest_corpus(str(path), "target")

    def test_invalid_json_line_named_with_its_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1", "title_entity": "x", "sections": []}\n{"doc_id": \n')
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value).startswith(f"{path}: line 2: invalid JSON (")

    def test_duplicate_doc_id(self, tmp_path):
        row = json.dumps({"doc_id": "d1", "title_entity": "x", "sections": []})
        path = tmp_path / "c.jsonl"
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(InputError, match="duplicate"):
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
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "where, value, message",
        [
            pytest.param((), 5, "a document must be an object, got 5", id="document"),
            pytest.param(("doc_id",), 5, "field 'doc_id' must be a string, got 5",
                         id="doc_id"),
            pytest.param(("title_entity",), 5, "field 'title_entity' must be a string, got 5",
                         id="title_entity"),
            pytest.param(("sections",), "Uses", "field 'sections' must be a list, got 'Uses'",
                         id="sections"),
            pytest.param(("sections", 0), "Uses", "section 0 must be an object, got 'Uses'",
                         id="section"),
            pytest.param(("sections", 0, "title"), 5,
                         "section 0 field 'title' must be a string, got 5", id="section-title"),
            pytest.param(("sections", 0, "sentences"), {"tokens": []},
                         "section 0 field 'sentences' must be a list, got {'tokens': []}",
                         id="sentences"),
            pytest.param(("sections", 0, "sentences", 0), "severe pain",
                         "section 0 sentence 0 must be an object, got 'severe pain'",
                         id="sentence"),
            pytest.param(("sections", 0, "sentences", 0, "tokens"), "severe pain",
                         "sentence field 'tokens' must be a list, got 'severe pain'",
                         id="tokens"),
            pytest.param(("sections", 0, "sentences", 0, "tokens", 1), "pain",
                         "token 1 must be an object, got 'pain'", id="token"),
        ],
    )
    def test_ill_shaped_document_named(self, tmp_path, where, value, message):
        path = second_line_corpus(tmp_path, where, value)
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "where, value, message",
        [
            pytest.param(("np_chunks",), [["0", "1"]],
                         "np_chunk 0 must be a pair of integers, got ['0', '1']", id="str-ends"),
            pytest.param(("np_chunks",), [[0, 2], [0, 1, 2]],
                         "np_chunk 1 must be a pair of integers, got [0, 1, 2]", id="triple"),
            pytest.param(("np_chunks",), [[False, 1]],
                         "np_chunk 0 must be a pair of integers, got [False, 1]", id="bool"),
            pytest.param(("np_chunks",), 5, "sentence field 'np_chunks' must be a list, got 5",
                         id="chunks-not-list"),
            pytest.param(("coordinate_lists",), {"items": []},
                         "sentence field 'coordinate_lists' must be a list, got {'items': []}",
                         id="lists-not-list"),
            pytest.param(("coordinate_lists", 0), "x",
                         "coordinate list 0 must be an object, got 'x'", id="list-not-object"),
            pytest.param(("coordinate_lists", 0), {"head": [2, 3]},
                         "coordinate list 0 field 'items' must be a list of at least 2 "
                         "np_chunks, got None", id="no-items"),
            pytest.param(("coordinate_lists", 0, "items"), [],
                         "coordinate list 0 field 'items' must be a list of at least 2 "
                         "np_chunks, got []", id="empty-items"),
            pytest.param(("coordinate_lists", 0, "items"), [[0, 2]],
                         "coordinate list 0 field 'items' must be a list of at least 2 "
                         "np_chunks, got [[0, 2]]", id="one-item"),
            pytest.param(("coordinate_lists", 0, "items"), [[0, 1], [2, 3]],
                         "coordinate list 0 item [0, 1] not an np_chunk", id="item-not-chunk"),
            pytest.param(("coordinate_lists", 0, "head"), [5, 9],
                         "coordinate list 0 field 'head' must be a span inside the 3-token "
                         "sentence, got [5, 9]", id="head-outside"),
            pytest.param(("coordinate_lists", 0, "head"), [True, 3],
                         "coordinate list 0 field 'head' must be a span inside the 3-token "
                         "sentence, got [True, 3]", id="head-bool"),
            # both would be mentions with the one mention_id d1|s0|t0|0-3
            pytest.param(("np_chunks",), [[0, 2], [2, 3], [0, 3]],
                         "duplicate mention span (0,3)", id="chunk-is-list-span"),
            pytest.param(("coordinate_lists",), [{"items": [[0, 2], [2, 3]]}] * 2,
                         "duplicate mention span (0,3)", id="list-twice"),
            # the list mention d1|s0|t0|2-2 would have an inverted span
            pytest.param(("coordinate_lists", 0, "items"), [[2, 3], [0, 2]],
                         "coordinate list 0 field 'items' must be ascending np_chunks that "
                         "do not overlap, got [[2, 3], [0, 2]]", id="items-descending"),
            # the list mention would have the surfaces ('severe pain', 'severe pain')
            pytest.param(("coordinate_lists", 0, "items"), [[0, 2], [0, 2]],
                         "coordinate list 0 field 'items' must be ascending np_chunks that "
                         "do not overlap, got [[0, 2], [0, 2]]", id="item-twice"),
            # two list mentions over the same tokens
            pytest.param(("coordinate_lists",),
                         [{"items": [[0, 2], [2, 3]]}, {"items": [[2, 3], [0, 2]]}],
                         "coordinate list 1 field 'items' must be ascending np_chunks that "
                         "do not overlap, got [[2, 3], [0, 2]]", id="list-reversed"),
        ],
    )
    def test_ill_shaped_chunk_or_list_named(self, tmp_path, where, value, message):
        path = second_line_corpus(tmp_path, ("sections", 0, "sentences", 0, *where), value)
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == f"{path}: line 2: {message}"

    def test_duplicate_np_chunk_refused(self, tmp_path):
        # both would become singleton mentions with the one mention_id d1|s0|t0|1-3
        sentence = {
            "tokens": [{"surface": "severe"}, {"surface": "joint"}, {"surface": "pain"}],
            "np_chunks": [[1, 3], [1, 3]],
        }
        path = second_line_corpus(tmp_path, ("sections", 0, "sentences", 0), sentence)
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == f"{path}: line 2: duplicate np_chunk (1,3)"

    def test_overlapping_list_items_refused(self, tmp_path):
        sentence = {
            "tokens": [{"surface": "severe"}, {"surface": "joint"}, {"surface": "pain"}],
            "np_chunks": [[0, 2], [1, 3]],
            "coordinate_lists": [{"items": [[0, 2], [1, 3]], "head": [1, 3]}],
        }
        path = second_line_corpus(tmp_path, ("sections", 0, "sentences", 0), sentence)
        with pytest.raises(InputError) as err:
            ingest_corpus(str(path), "target")
        assert str(err.value) == (
            f"{path}: line 2: coordinate list 0 field 'items' must be ascending np_chunks "
            "that do not overlap, got [[0, 2], [1, 3]]"
        )

    def test_well_shaped_lists_accepted(self, tmp_path):
        docs = ingest_corpus(str(second_line_corpus(tmp_path, ("doc_id",), "d1")), "target")
        (sent,) = docs[1].sections[0].sentences
        assert sent.np_chunks == ((0, 2), (2, 3))
        assert [(cl.item_spans, cl.head_span) for cl in sent.coordinate_lists] == [
            (((0, 2), (2, 3)), (2, 3))
        ]

    def test_roundtrip(self, tmp_path, structured_docs):
        path = tmp_path / "rt.jsonl"
        write_corpus(structured_docs, str(path))
        again = ingest_corpus(str(path), "structured")
        assert again == structured_docs

    def test_title_entity_normalized(self, structured_docs):
        assert structured_docs[0].title_entity == "meloxicam"


# lone surrogates, non-BMP characters, quotes, backslashes and control
# characters, each of which `json.dumps` escapes in its own way
_awkward_text = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(['"', "\\", "\x00\t\x1f\x7f", "\ud800", "a\udfff", "\U0001f48a", "\u2028"]),
)
_spans = st.tuples(st.integers(0, 12), st.integers(0, 12))


@st.composite
def documents(draw):
    """Hand-built documents, not only what ingest accepts: any strings,
    `pos` None or not, `dep_head` 0, `dep_label` without a head, empty
    sections and sentences, and list heads that are not the last item."""
    optional_text = st.one_of(st.none(), _awkward_text)

    def sentence():
        n = draw(st.integers(0, 4))
        tokens = tuple(
            token(
                draw(_awkward_text),
                draw(optional_text),
                draw(st.one_of(st.none(), st.integers(0, n))),
                draw(optional_text),
            )
            for _ in range(n)
        )
        lists = tuple(
            CoordinateList(tuple(draw(st.lists(_spans, min_size=2, max_size=3))), draw(_spans))
            for _ in range(draw(st.integers(0, 2)))
        )
        return Sentence(tokens, tuple(draw(st.lists(_spans, max_size=3))), lists)

    sections = [
        Section(draw(_awkward_text), [sentence() for _ in range(draw(st.integers(0, 3)))])
        for _ in range(draw(st.integers(0, 3)))
    ]
    return Document(draw(_awkward_text), draw(_awkward_text), sections, "target")


@given(st.lists(documents(), max_size=3))
@example([
    Document("d\ud83d", "t\\\"", [], "target"),  # no sections
    Document("d1", "x", [Section("Uses", [])], "structured"),  # a section without sentences
    Document("d2", "y", [Section("\U0001f48a", [
        Sentence(()),
        Sentence(
            (token("a", None, 0, None), token("b\x00", "NOUN", None, "amod"), token("c")),
            ((0, 1), (2, 3)),
            (CoordinateList(((0, 1), (2, 3)), (0, 1)),),  # the head is the first item
        ),
    ])], "target"),
])
@settings(max_examples=200, deadline=None)
def test_write_corpus_matches_json_dumps(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    write_corpus(docs, str(path))
    want = "".join(json.dumps(document_to_dict(doc), sort_keys=True) + "\n" for doc in docs)
    assert path.read_bytes() == want.encode()


@given(st.text(max_size=60))
def test_normalize_idempotent(s):
    assert normalize(normalize(s)) == normalize(s)
