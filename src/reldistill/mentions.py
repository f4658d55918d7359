"""Mention enumeration, distant labeling, concept expansion, graph variants.

Produces the four labeled sets: section-constrained relation mentions
from the structured corpus (Rs), unconstrained relation mentions from
the target corpus (Rt), and concept mentions from both corpora (Cs, Ct)
obtained by propagating concept seeds over the mention-feature graph.

Each enumerated or read mention's features are a new row of the
`FeatureTable` its caller hands in.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from json.encoder import encode_basestring_ascii as _str

from .corpus import Document
from .decode import InputError, jsonl
from .features import FeatureConfig, FeatureRow, FeatureTable, Mention, extract_features
from .kb import ConceptSeed, RelationSchema, Triple
from .norm import normalize
from .propagation import build_graph_from_mentions, multirankwalk

# the four labeled sets, in the order a graph variant's name spells them
SET_NAMES = ("Rs", "Cs", "Rt", "Ct")

# a graph holds Rs, the seeds of relation propagation, and at least one other set
LEGAL_VARIANTS = [
    frozenset(("Rs", *others))
    for k in range(1, len(SET_NAMES))
    for others in combinations(SET_NAMES[1:], k)
]


@dataclass(frozen=True)
class VariantSpec:
    include: frozenset[str]

    def __post_init__(self):
        if self.include not in LEGAL_VARIANTS:
            raise ValueError(
                f"variant {sorted(self.include)} is not one of the {len(LEGAL_VARIANTS)} "
                "legal combinations (Rs plus at least one other set)"
            )

    @classmethod
    def parse(cls, names) -> "VariantSpec":
        return cls(frozenset(names))

    @property
    def name(self) -> str:
        return "".join(s for s in SET_NAMES if s in self.include)

    @property
    def strategies(self) -> tuple[str, ...]:
        """The distillation strategies this graph can feed: Target needs a target set."""
        return ("Both", "Target") if self.include & {"Rt", "Ct"} else ("Both",)


@dataclass(frozen=True)
class LabeledMention:
    mention: Mention
    label: str
    source_set: str  # one of SET_NAMES


@dataclass
class MentionSets:
    Rs: list[LabeledMention] = field(default_factory=list)
    Rt: list[LabeledMention] = field(default_factory=list)
    Cs: list[LabeledMention] = field(default_factory=list)
    Ct: list[LabeledMention] = field(default_factory=list)

    def get(self, name: str) -> list[LabeledMention]:
        return getattr(self, name)

    def by_id(self, names) -> dict[str, Mention]:
        """mention_id -> mention of the sets `names`, the first in `SET_NAMES` order."""
        out: dict[str, Mention] = {}
        for name in SET_NAMES:
            if name in names:
                for lm in self.get(name):
                    out.setdefault(lm.mention.mention_id, lm.mention)
        return out

    def labeled_ids(self) -> set[str]:
        """Ids of the relation-labeled mentions (Rs, Rt): never sampled as negatives."""
        return {lm.mention.mention_id for lm in self.Rs + self.Rt}


def enumerate_mentions(doc: Document, config: FeatureConfig, table: FeatureTable) -> list[Mention]:
    """All coordinate lists plus NP chunks not inside any list, each one's
    features a new row of `table`."""
    out = []
    for sec_i, sec in enumerate(doc.sections):
        section_title = normalize(sec.title)
        for sent_i, sent in enumerate(sec.sentences):
            for target, kind, span, item_spans in sent.mention_targets():
                out.append(
                    Mention(
                        mention_id=f"{doc.doc_id}|s{sec_i}|t{sent_i}|{span[0]}-{span[1]}",
                        doc_id=doc.doc_id,
                        title_entity=doc.title_entity,
                        section_title=section_title,
                        kind=kind,
                        item_surfaces=tuple(map(sent.surface, item_spans)),
                        features=table.add(extract_features(sent, target, config)),
                        corpus_tag=doc.corpus_tag,
                    )
                )
    return out


def corpus_mentions(
    docs: list[Document], config: FeatureConfig, table: FeatureTable
) -> list[Mention]:
    """The mentions of `docs` sorted by id, their features rows of `table`.
    Every structure downstream is keyed on `mention_id`, so two mentions
    may not share one."""
    out = [m for doc in docs for m in enumerate_mentions(doc, config, table)]
    out.sort(key=lambda m: m.mention_id)
    for a, b in zip(out, out[1:]):
        if a.mention_id == b.mention_id:
            raise ValueError(f"two mentions share mention_id {a.mention_id!r}")
    return out


def build_relation_mentions(
    mentions: list[Mention],
    triples: list[Triple],
    schema: RelationSchema,
    enforce_sections: bool,
) -> list[LabeledMention]:
    """Distant labeling: title entity matches the subject and some item
    surface matches the object; with enforce_sections, the mention must
    also sit in a section mapped to the relation."""
    by_subject: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)

    out = []
    seen = set()
    for m in sorted(mentions, key=lambda m: m.mention_id):
        surfaces = {normalize(s) for s in m.item_surfaces}
        for t in by_subject.get(m.title_entity, ()):
            if t.object not in surfaces:
                continue
            if enforce_sections:
                if m.section_title not in schema.relation(t.relation).section_titles:
                    continue
            key = (m.mention_id, t.relation)
            if key in seen:
                continue
            seen.add(key)
            source_set = "Rs" if m.corpus_tag == "structured" else "Rt"
            out.append(LabeledMention(m, t.relation, source_set))
    return out


def expand_concept_mentions(
    mentions: list[Mention],
    concept_seeds: list[ConceptSeed],
    prop_config,
    source_set: str,
) -> list[LabeledMention]:
    """Grow each concept's seed set by label propagation; the labels
    belong to `source_set` ("Cs" or "Ct").

    Seed mentions (surface matches a seed instance) are always kept; a
    non-seed mention is labeled with its argmax concept when its score
    clears the floor, capped at top_k per concept.
    """
    instances_by_concept: dict[str, set[str]] = {}
    for seed in concept_seeds:
        instances_by_concept.setdefault(seed.concept, set()).add(seed.instance)

    seed_ids: dict[str, set[str]] = {}
    for m in mentions:
        surfaces = {normalize(s) for s in m.item_surfaces}
        for concept, instances in instances_by_concept.items():
            if surfaces & instances:
                seed_ids.setdefault(concept, set()).add(m.mention_id)
    if not seed_ids:
        return []

    ranking = multirankwalk(build_graph_from_mentions(mentions), seed_ids, prop_config)
    by_id = {m.mention_id: m for m in mentions}
    kept_by_concept: dict[str, set[str]] = {}
    for concept, ranked in ranking.per_class.items():
        kept = kept_by_concept[concept] = set()
        for mention_id, score in ranked:
            if len(kept) >= prop_config.concept_top_k:
                break
            seed = mention_id in seed_ids[concept]
            if seed or score >= prop_config.concept_score_floor:
                kept.add(mention_id)
    # every concept keeps all its seeds, those outside the graph included
    for concept, ids in seed_ids.items():
        kept_by_concept.setdefault(concept, set()).update(ids)
    return [
        LabeledMention(by_id[mention_id], concept, source_set)
        for concept, ids in sorted(kept_by_concept.items())
        for mention_id in sorted(ids)
    ]


def filter_concept_sections(
    cs_raw: list[LabeledMention], schema: RelationSchema
) -> list[LabeledMention]:
    """Keep a concept mention only if its section maps to some relation
    whose range is that concept."""
    sections_for = schema.sections_for_concept
    return [lm for lm in cs_raw if lm.mention.section_title in sections_for(lm.label)]


def build_mention_sets(
    structured_mentions: list[Mention],
    target_mentions: list[Mention],
    triples: list[Triple],
    concept_seeds: list[ConceptSeed],
    schema: RelationSchema,
    prop_config,
) -> MentionSets:
    rs = build_relation_mentions(structured_mentions, triples, schema, enforce_sections=True)
    rt = build_relation_mentions(target_mentions, triples, schema, enforce_sections=False)
    cs_raw = expand_concept_mentions(structured_mentions, concept_seeds, prop_config, "Cs")
    cs = filter_concept_sections(cs_raw, schema)
    ct = expand_concept_mentions(target_mentions, concept_seeds, prop_config, "Ct")
    return MentionSets(Rs=rs, Rt=rt, Cs=cs, Ct=ct)


def mention_to_dict(m: Mention) -> dict:
    return {
        "mention_id": m.mention_id,
        "doc_id": m.doc_id,
        "title_entity": m.title_entity,
        "section": m.section_title,
        "kind": m.kind,
        "surfaces": list(m.item_surfaces),
        "corpus_tag": m.corpus_tag,
        "features": dict(m.features),
    }


# the keys of a mention line whose values are strings
_STRING_KEYS = ("corpus_tag", "doc_id", "kind", "mention_id", "section", "title_entity")


def _refuse(obj: dict, key: str, kind: str) -> InputError:
    if key not in obj:
        return InputError(f"missing key {key!r}")
    return InputError(f"key {key!r} must be {kind}, got {reprlib.repr(obj[key])}")


def _check_strings(obj: dict, keys) -> None:
    for key in keys:
        if not isinstance(obj.get(key), str):
            raise _refuse(obj, key, "a string")


def mention_from_dict(obj: dict, table: FeatureTable) -> Mention:
    """The mention of `obj`, its features a new row of `table`. A line
    that is not an object, or a key that is missing or of the wrong JSON
    type, raises InputError naming the key."""
    if not isinstance(obj, dict):
        raise InputError(f"a mention must be an object, got {reprlib.repr(obj)}")
    _check_strings(obj, _STRING_KEYS)
    surfaces = obj.get("surfaces")
    if not (isinstance(surfaces, list) and {str}.issuperset(map(type, surfaces))):
        raise _refuse(obj, "surfaces", "a list of strings")
    features = obj.get("features")
    # the counts' types, not isinstance: a JSON true is an int too; a feature
    # table holds int64 counts
    if not (isinstance(features, dict) and {int}.issuperset(map(type, features.values()))
            and max(map(abs, features.values()), default=0) < 2**63):
        raise _refuse(obj, "features", "an object of integer counts")
    return Mention(
        mention_id=obj["mention_id"],
        doc_id=obj["doc_id"],
        title_entity=obj["title_entity"],
        section_title=obj["section"],
        kind=obj["kind"],
        item_surfaces=tuple(surfaces),
        features=table.add_counts(features),
        corpus_tag=obj["corpus_tag"],
    )


def labeled_mention_to_dict(lm: LabeledMention) -> dict:
    return {**mention_to_dict(lm.mention), "label": lm.label, "source_set": lm.source_set}


def labeled_mention_from_dict(obj: dict, table: FeatureTable) -> LabeledMention:
    mention = mention_from_dict(obj, table)
    _check_strings(obj, ("label", "source_set"))
    return LabeledMention(mention, obj["label"], obj["source_set"])


class _EntryText(dict):
    """(column, count) -> the JSON text `"name": count` of that entry of a
    table whose columns are `names`, made on first lookup."""

    def __init__(self, names: list[str]):
        self.names = names

    def __missing__(self, entry: tuple[int, int]) -> str:
        text = self[entry] = f"{_str(self.names[entry[0]])}: {entry[1]}"
        return text


class MentionEncoder:
    """Lines equal to `json.dumps(mention_to_dict(m), sort_keys=True)` and its
    labeled form, spliced from three fragments per mention object, cut where
    `label` and `source_set` go.

    Two memos live as long as the encoder, which is one stage's:
    - the fragments, keyed on the mention object and not on `mention_id`.
      The mention stage never hands it two mentions with one id, but the
      writers accept any lists, and a structured and a target mention that
      share an id differ in `corpus_tag`, so each must keep its own lines.
    - the text of every entry of each feature table it meets, made for the
      whole table at once, each distinct (column, count) entry encoded once."""

    def __init__(self):
        self._parts: dict[int, tuple[Mention, str, str, str]] = {}
        self._texts: dict[FeatureTable, tuple[list[str], list[int]]] = {}

    def _features(self, row: FeatureRow) -> str:
        if row.table not in self._texts:
            names, x = row.table.matrix
            entries = zip(x.indices.tolist(), x.data.tolist())
            texts = list(map(_EntryText(names).__getitem__, entries))
            self._texts[row.table] = texts, x.indptr.tolist()
        texts, bounds = self._texts[row.table]
        return ", ".join(texts[bounds[row.row] : bounds[row.row + 1]])

    def _fragments(self, m: Mention) -> tuple[Mention, str, str, str]:
        # an entry holds its mention, so no other live object can have that id
        parts = self._parts.get(id(m))
        if parts is None or parts[0] is not m:
            parts = self._parts[id(m)] = (
                m,
                f'{{"corpus_tag": {_str(m.corpus_tag)}, "doc_id": {_str(m.doc_id)}, '
                f'"features": {{{self._features(m.features)}}}, "kind": {_str(m.kind)}',
                f', "mention_id": {_str(m.mention_id)}, "section": {_str(m.section_title)}',
                f', "surfaces": [{", ".join(map(_str, m.item_surfaces))}], '
                f'"title_entity": {_str(m.title_entity)}}}\n',
            )
        return parts

    def line(self, m: Mention) -> str:
        return "".join(self._fragments(m)[1:])

    def labeled_line(self, lm: LabeledMention) -> str:
        _, head, middle, tail = self._fragments(lm.mention)
        label, source_set = _str(lm.label), _str(lm.source_set)
        return f'{head}, "label": {label}{middle}, "source_set": {source_set}{tail}'


def write_mentions(mentions: list[Mention], path: str, encoder: MentionEncoder) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(encoder.line, mentions))


def read_mentions(path: str, table: FeatureTable) -> list[Mention]:
    """The mentions of a JSONL file, their features new rows of `table`."""
    return jsonl(path, partial(mention_from_dict, table=table))


def write_labeled_mentions(
    lms: list[LabeledMention], path: str, encoder: MentionEncoder
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(encoder.labeled_line, lms))


def read_labeled_mentions(path: str, table: FeatureTable) -> list[LabeledMention]:
    return jsonl(path, partial(labeled_mention_from_dict, table=table))
