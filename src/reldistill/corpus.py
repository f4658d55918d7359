"""Document data model and JSONL corpus ingestion.

Documents are entity-centric: each carries a title entity and a list of
named sections. Input files may ship precomputed NP chunks, coordinate
lists, and dependency annotations; when chunks are missing and POS tags
are available, a POS-pattern chunker and a conjunction-run list detector
fill them in. A malformed line raises `decode.InputError` naming the
field; `decode.jsonl` reads the lines and puts the file and the line in
front of that message.

A token is the exact tuple (surface, pos, dep_head, dep_label), the order
of `TOKEN_FIELDS`; the last three may be None. A sentence's tokens, NP
chunks and coordinate lists are exact tuples too. The cyclic garbage
collector stops tracking an exact tuple whose items are all untracked
(strings, ints, None, such tuples), but not a named tuple or a list, so a
corpus held in memory costs the collector nothing on each later pass.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _str

from .decode import InputError, jsonl
from .norm import normalize

POS_TAGS = {"NOUN", "PROPN", "ADJ", "VERB", "DET", "CONJ", "PUNCT", "OTHER"}

NOUN_LIKE = {"NOUN", "PROPN"}

TOKEN_FIELDS = ("surface", "pos", "dep_head", "dep_label")

# coarse mapping for common Penn-style tags; unknown tags fall through to OTHER
_DEFAULT_POS_PREFIXES = [
    ("NNP", "PROPN"),
    ("NN", "NOUN"),
    ("JJ", "ADJ"),
    ("VB", "VERB"),
    ("MD", "VERB"),
    ("DT", "DET"),
    ("CC", "CONJ"),
    ("IN", "OTHER"),
]


def map_pos(tag: str) -> str:
    upper = tag.strip().upper()
    if upper in POS_TAGS:
        return upper
    for prefix, coarse in _DEFAULT_POS_PREFIXES:
        if upper.startswith(prefix):
            return coarse
    if upper and all(not c.isalnum() for c in upper):
        return "PUNCT"
    return "OTHER"


@dataclass(frozen=True)
class CoordinateList:
    item_spans: tuple[tuple[int, int], ...]
    head_span: tuple[int, int]

    @property
    def span(self) -> tuple[int, int]:
        """The list mention's span: its first item's start to its last item's end."""
        return self.item_spans[0][0], self.item_spans[-1][1]


@dataclass
class Sentence:
    tokens: tuple[tuple, ...]  # each in TOKEN_FIELDS order
    np_chunks: tuple[tuple[int, int], ...] = ()
    coordinate_lists: tuple[CoordinateList, ...] = ()

    def mention_targets(self) -> list[tuple]:
        """(feature target, kind, span, item spans) of each list, then each chunk in no list."""
        in_list = {s for cl in self.coordinate_lists for s in cl.item_spans}
        lists = [(cl, "list", cl.span, cl.item_spans) for cl in self.coordinate_lists]
        return lists + [(s, "singleton", s, (s,)) for s in self.np_chunks if s not in in_list]

    def surface(self, span) -> str:
        """The text of `span`: its tokens' surfaces joined by spaces."""
        return " ".join([surface for surface, _, _, _ in self.tokens[span[0] : span[1]]])


@dataclass
class Section:
    title: str
    sentences: list[Sentence]


@dataclass
class Document:
    doc_id: str
    title_entity: str
    sections: list[Section]
    corpus_tag: str  # "structured" or "target"


def chunk_sentence(tokens) -> list[tuple[int, int]]:
    """Greedy left-to-right maximal (ADJ|NOUN)* NOUN spans.

    Fallback for corpora without precomputed chunks; requires POS on
    every token.
    """
    tags = [pos for _, pos, _, _ in tokens]
    for i, (surface, pos, _, _) in enumerate(tokens):
        if pos is None:
            raise InputError(
                f"token {i} ({surface!r}) has no POS tag; "
                "supply precomputed np_chunks instead"
            )
    spans = []
    i = 0
    n = len(tokens)
    while i < n:
        if tags[i] in NOUN_LIKE or tags[i] == "ADJ":
            j = i
            last_noun = -1
            while j < n and (tags[j] in NOUN_LIKE or tags[j] == "ADJ"):
                if tags[j] in NOUN_LIKE:
                    last_noun = j
                j += 1
            if last_noun >= 0:
                spans.append((i, last_noun + 1))
            i = j
        else:
            i += 1
    return spans


def detect_coordinate_lists(sentence: Sentence) -> list[CoordinateList]:
    """Group runs of >=2 NP chunks separated only by commas/conjunctions.

    The last item of a run is taken as the list head.
    """
    chunks = sorted(sentence.np_chunks)
    lists = []
    run: list[tuple[int, int]] = []
    for chunk in chunks:
        if run:
            gap = sentence.tokens[run[-1][1] : chunk[0]]
            if gap and all(pos == "CONJ" or surface == "," for surface, pos, _, _ in gap):
                run.append(chunk)
                continue
            if len(run) >= 2:
                lists.append(CoordinateList(tuple(run), run[-1]))
            run = []
        run.append(chunk)
    if len(run) >= 2:
        lists.append(CoordinateList(tuple(run), run[-1]))
    return lists


def _shape_error(where: str, kind: str, value) -> InputError:
    return InputError(f"{where} must be {kind}, got {reprlib.repr(value)}")


def _span(value) -> tuple[int, int] | None:
    """`value` as a (start, end) pair if it is a list of two integers,
    else None (a JSON true is a Python int, not an index)."""
    if isinstance(value, list) and len(value) == 2:
        s, e = value
        if type(s) is int and type(e) is int:
            return s, e
    return None


def _parse_sentence(obj: dict) -> Sentence:
    if "tokens" not in obj:
        raise InputError("sentence missing 'tokens'")
    raw_tokens = obj["tokens"]
    if not isinstance(raw_tokens, list):
        raise _shape_error("sentence field 'tokens'", "a list", raw_tokens)
    n = len(raw_tokens)
    tokens = []
    for ti, t in enumerate(raw_tokens):
        if not isinstance(t, dict):
            raise _shape_error(f"token {ti}", "an object", t)
        surface = t.get("surface")
        if not surface:
            raise InputError(f"token {ti} missing 'surface'")
        if not isinstance(surface, str):
            raise _shape_error(f"token {ti} field 'surface'", "a string", surface)
        pos = t.get("pos")
        if pos is not None:
            if not isinstance(pos, str):
                raise _shape_error(f"token {ti} field 'pos'", "a string", pos)
            pos = map_pos(pos)
        dep_head = t.get("dep_head")
        if dep_head is not None:
            if type(dep_head) is not int:  # a JSON true is a Python int, not an index
                raise _shape_error(f"token {ti} field 'dep_head'", "an integer", dep_head)
            if not (0 <= dep_head < n) or dep_head == ti:
                raise InputError(f"token {ti} has invalid dep_head {dep_head}")
        dep_label = t.get("dep_label")
        if dep_label is not None and not isinstance(dep_label, str):
            raise _shape_error(f"token {ti} field 'dep_label'", "a string", dep_label)
        tokens.append((surface, pos, dep_head, dep_label))

    if "np_chunks" in obj:
        raw_chunks = obj["np_chunks"]
        if not isinstance(raw_chunks, list):
            raise _shape_error("sentence field 'np_chunks'", "a list", raw_chunks)
        chunks, seen = [], set()
        for ci, value in enumerate(raw_chunks):
            span = _span(value)
            if span is None:
                raise _shape_error(f"np_chunk {ci}", "a pair of integers", value)
            s, e = span
            if not (0 <= s < e <= n):
                raise InputError(f"np_chunk ({s},{e}) out of range")
            if span in seen:
                raise InputError(f"duplicate np_chunk ({s},{e})")
            seen.add(span)
            chunks.append(span)
    elif all(pos is not None for _, pos, _, _ in tokens):
        chunks = chunk_sentence(tokens)
    else:
        chunks = []

    sent = Sentence(tuple(tokens), tuple(chunks))

    if "coordinate_lists" in obj:
        raw_lists = obj["coordinate_lists"]
        if not isinstance(raw_lists, list):
            raise _shape_error("sentence field 'coordinate_lists'", "a list", raw_lists)
        chunk_set = set(chunks)
        lists = []
        for li, cl in enumerate(raw_lists):
            where = f"coordinate list {li}"
            if not isinstance(cl, dict):
                raise _shape_error(where, "an object", cl)
            raw_items = cl.get("items")
            # detect_coordinate_lists never builds a list of fewer than 2 items
            if not isinstance(raw_items, list) or len(raw_items) < 2:
                raise _shape_error(
                    f"{where} field 'items'", "a list of at least 2 np_chunks", raw_items
                )
            items = tuple(map(_span, raw_items))
            for value, span in zip(raw_items, items):
                if span not in chunk_set:
                    raise InputError(f"{where} item {reprlib.repr(value)} not an np_chunk")
            if "head" in cl:
                head = _span(cl["head"])
                if head is None or not (0 <= head[0] < head[1] <= n):
                    raise _shape_error(
                        f"{where} field 'head'", f"a span inside the {n}-token sentence", cl["head"]
                    )
            else:
                head = items[-1]
            # as detect_coordinate_lists builds them: each item starts
            # at or after the end of the one before
            if any(b[0] < a[1] for a, b in zip(items, items[1:])):
                raise _shape_error(
                    f"{where} field 'items'", "ascending np_chunks that do not overlap", raw_items
                )
            lists.append(CoordinateList(items, head))
        sent.coordinate_lists = tuple(lists)
        # a mention's id ends in its span, so no two mentions may share one
        spans = set()
        for _, _, (s, e), _ in sent.mention_targets():
            if (s, e) in spans:
                raise InputError(f"duplicate mention span ({s},{e})")
            spans.add((s, e))
    else:
        sent.coordinate_lists = tuple(detect_coordinate_lists(sent))
    return sent


_DOCUMENT_FIELDS = (
    ("doc_id", str, "a string"),
    ("title_entity", str, "a string"),
    ("sections", list, "a list"),
)


def ingest_corpus(path: str, corpus_tag: str) -> list[Document]:
    """Load one Document per JSONL line, preserving order."""
    if corpus_tag not in ("structured", "target"):
        raise ValueError(f"corpus_tag must be 'structured' or 'target', got {corpus_tag!r}")
    seen_ids = set()

    def document(obj) -> Document:
        if not isinstance(obj, dict):
            raise _shape_error("a document", "an object", obj)
        for key, cls, kind in _DOCUMENT_FIELDS:
            if key not in obj:
                raise InputError(f"missing '{key}'")
            if not isinstance(obj[key], cls):
                raise _shape_error(f"field {key!r}", kind, obj[key])
        doc_id = obj["doc_id"]
        if doc_id in seen_ids:
            raise InputError(f"duplicate doc_id {doc_id!r}")
        seen_ids.add(doc_id)
        title = normalize(obj["title_entity"])
        if not title:
            raise InputError("empty title_entity")
        sections = []
        for sec_i, sec in enumerate(obj["sections"]):
            where = f"section {sec_i}"
            if not isinstance(sec, dict):
                raise _shape_error(where, "an object", sec)
            if "title" not in sec:
                raise InputError("section missing 'title'")
            sec_title = sec["title"]
            if not isinstance(sec_title, str):
                raise _shape_error(f"{where} field 'title'", "a string", sec_title)
            if not normalize(sec_title):
                raise InputError("empty section title")
            sents = sec.get("sentences", [])
            if not isinstance(sents, list):
                raise _shape_error(f"{where} field 'sentences'", "a list", sents)
            sentences = []
            for sent_i, s in enumerate(sents):
                if not isinstance(s, dict):
                    raise _shape_error(f"{where} sentence {sent_i}", "an object", s)
                sentences.append(_parse_sentence(s))
            sections.append(Section(title=sec_title, sentences=sentences))
        return Document(doc_id, title, sections, corpus_tag)

    return jsonl(path, document)


def document_to_dict(doc: Document) -> dict:
    """Serializable form accepted back by ingest_corpus (round-trip safe)."""
    return {
        "doc_id": doc.doc_id,
        "title_entity": doc.title_entity,
        "sections": [
            {
                "title": sec.title,
                "sentences": [
                    {
                        "tokens": [
                            {k: v for k, v in zip(TOKEN_FIELDS, t) if v is not None}
                            for t in sent.tokens
                        ],
                        "np_chunks": [list(span) for span in sent.np_chunks],
                        "coordinate_lists": [
                            {
                                "items": [list(s) for s in cl.item_spans],
                                "head": list(cl.head_span),
                            }
                            for cl in sent.coordinate_lists
                        ],
                    }
                    for sent in sec.sentences
                ],
            }
            for sec in doc.sections
        ],
    }


def _span_json(span: tuple[int, int]) -> str:
    return f"[{span[0]}, {span[1]}]"


def _token_json(t: tuple) -> str:
    surface, pos, dep_head, dep_label = t
    head = "" if dep_head is None else f'"dep_head": {dep_head}, '
    label = "" if dep_label is None else f'"dep_label": {_str(dep_label)}, '
    tag = "" if pos is None else f'"pos": {_str(pos)}, '
    return f'{{{head}{label}{tag}"surface": {_str(surface)}}}'


def _sentence_json(sent: Sentence) -> str:
    lists = ", ".join([
        f'{{"head": {_span_json(cl.head_span)}, '
        f'"items": [{", ".join(map(_span_json, cl.item_spans))}]}}'
        for cl in sent.coordinate_lists
    ])
    return (
        f'{{"coordinate_lists": [{lists}], '
        f'"np_chunks": [{", ".join(map(_span_json, sent.np_chunks))}], '
        f'"tokens": [{", ".join(map(_token_json, sent.tokens))}]}}'
    )


def _document_line(doc: Document) -> str:
    """`json.dumps(document_to_dict(doc), sort_keys=True)` and a newline,
    encoded field by field in sorted key order."""
    sections = ", ".join([
        f'{{"sentences": [{", ".join(map(_sentence_json, sec.sentences))}], '
        f'"title": {_str(sec.title)}}}'
        for sec in doc.sections
    ])
    return (
        f'{{"doc_id": {_str(doc.doc_id)}, "sections": [{sections}], '
        f'"title_entity": {_str(doc.title_entity)}}}\n'
    )


def write_corpus(docs: list[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_document_line, docs))
