"""Document data model and JSONL corpus ingestion.

Documents are entity-centric: each carries a title entity and a list of
named sections. Input files may ship precomputed NP chunks, coordinate
lists, and dependency annotations; when chunks are missing and POS tags
are available, a POS-pattern chunker and a conjunction-run list detector
fill them in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .norm import normalize

POS_TAGS = {"NOUN", "PROPN", "ADJ", "VERB", "DET", "CONJ", "PUNCT", "OTHER"}

NOUN_LIKE = {"NOUN", "PROPN"}

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


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; message names line and field."""


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
class Token:
    surface: str
    pos: str | None = None
    dep_head: int | None = None
    dep_label: str | None = None


@dataclass(frozen=True)
class CoordinateList:
    item_spans: tuple[tuple[int, int], ...]
    head_span: tuple[int, int]


@dataclass
class Sentence:
    tokens: list[Token]
    np_chunks: list[tuple[int, int]] = field(default_factory=list)
    coordinate_lists: list[CoordinateList] = field(default_factory=list)


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


def chunk_sentence(tokens: list[Token]) -> list[tuple[int, int]]:
    """Greedy left-to-right maximal (ADJ|NOUN)* NOUN spans.

    Fallback for corpora without precomputed chunks; requires POS on
    every token.
    """
    for i, tok in enumerate(tokens):
        if tok.pos is None:
            raise CorpusFormatError(
                f"token {i} ({tok.surface!r}) has no POS tag; "
                "supply precomputed np_chunks instead"
            )
    spans = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].pos in NOUN_LIKE or tokens[i].pos == "ADJ":
            j = i
            last_noun = -1
            while j < n and (tokens[j].pos in NOUN_LIKE or tokens[j].pos == "ADJ"):
                if tokens[j].pos in NOUN_LIKE:
                    last_noun = j
                j += 1
            if last_noun >= 0:
                spans.append((i, last_noun + 1))
            i = j
        else:
            i += 1
    return spans


def _is_separator(tok: Token) -> bool:
    return tok.pos == "CONJ" or tok.surface == ","


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
            if gap and all(_is_separator(t) for t in gap):
                run.append(chunk)
                continue
            if len(run) >= 2:
                lists.append(CoordinateList(tuple(run), run[-1]))
            run = []
        run.append(chunk)
    if len(run) >= 2:
        lists.append(CoordinateList(tuple(run), run[-1]))
    return lists


def _field_error(line_no: int, ti: int, key: str, value) -> CorpusFormatError:
    kind = "an integer" if key == "dep_head" else "a string"
    return CorpusFormatError(
        f"line {line_no}: token {ti} field {key!r} must be {kind}, got {value!r}"
    )


def _parse_sentence(obj: dict, line_no: int) -> Sentence:
    if "tokens" not in obj:
        raise CorpusFormatError(f"line {line_no}: sentence missing 'tokens'")
    tokens = []
    for ti, t in enumerate(obj["tokens"]):
        surface = t.get("surface")
        if not surface:
            raise CorpusFormatError(f"line {line_no}: token {ti} missing 'surface'")
        if not isinstance(surface, str):
            raise _field_error(line_no, ti, "surface", surface)
        pos = t.get("pos")
        if pos is not None:
            if not isinstance(pos, str):
                raise _field_error(line_no, ti, "pos", pos)
            pos = map_pos(pos)
        dep_head = t.get("dep_head")
        if dep_head is not None:
            if type(dep_head) is not int:  # a JSON true is a Python int, not an index
                raise _field_error(line_no, ti, "dep_head", dep_head)
            if not (0 <= dep_head < len(obj["tokens"])) or dep_head == ti:
                raise CorpusFormatError(
                    f"line {line_no}: token {ti} has invalid dep_head {dep_head}"
                )
        dep_label = t.get("dep_label")
        if dep_label is not None and not isinstance(dep_label, str):
            raise _field_error(line_no, ti, "dep_label", dep_label)
        tokens.append(Token(surface, pos, dep_head, dep_label))

    if "np_chunks" in obj:
        chunks = [tuple(span) for span in obj["np_chunks"]]
        for s, e in chunks:
            if not (0 <= s < e <= len(tokens)):
                raise CorpusFormatError(f"line {line_no}: np_chunk ({s},{e}) out of range")
    elif all(t.pos is not None for t in tokens):
        chunks = chunk_sentence(tokens)
    else:
        chunks = []

    sent = Sentence(tokens=tokens, np_chunks=chunks)

    if "coordinate_lists" in obj:
        chunk_set = set(chunks)
        for cl in obj["coordinate_lists"]:
            items = tuple(tuple(span) for span in cl["items"])
            for span in items:
                if span not in chunk_set:
                    raise CorpusFormatError(
                        f"line {line_no}: coordinate-list item {span} not an np_chunk"
                    )
            head = tuple(cl["head"]) if "head" in cl else items[-1]
            sent.coordinate_lists.append(CoordinateList(items, head))
    else:
        sent.coordinate_lists = detect_coordinate_lists(sent)
    return sent


def ingest_corpus(path: str, corpus_tag: str) -> list[Document]:
    """Load one Document per JSONL line, preserving order."""
    if corpus_tag not in ("structured", "target"):
        raise ValueError(f"corpus_tag must be 'structured' or 'target', got {corpus_tag!r}")
    docs = []
    seen_ids = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc})") from exc
            for key in ("doc_id", "title_entity", "sections"):
                if key not in obj:
                    raise CorpusFormatError(f"line {line_no}: missing '{key}'")
            doc_id = obj["doc_id"]
            if doc_id in seen_ids:
                raise CorpusFormatError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen_ids.add(doc_id)
            title = normalize(obj["title_entity"])
            if not title:
                raise CorpusFormatError(f"line {line_no}: empty title_entity")
            sections = []
            for sec in obj["sections"]:
                if "title" not in sec:
                    raise CorpusFormatError(f"line {line_no}: section missing 'title'")
                sec_title = sec["title"]
                if not normalize(sec_title):
                    raise CorpusFormatError(f"line {line_no}: empty section title")
                sentences = [_parse_sentence(s, line_no) for s in sec.get("sentences", [])]
                sections.append(Section(title=sec_title, sentences=sentences))
            docs.append(Document(doc_id, title, sections, corpus_tag))
    return docs


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
                            {
                                k: v
                                for k, v in (
                                    ("surface", t.surface),
                                    ("pos", t.pos),
                                    ("dep_head", t.dep_head),
                                    ("dep_label", t.dep_label),
                                )
                                if v is not None
                            }
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


def write_corpus(docs: list[Document], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_dict(doc), sort_keys=True) + "\n")
