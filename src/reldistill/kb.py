"""Relation schema and seed knowledge: triples and concept instances."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .norm import normalize

MAX_SURFACE_LEN = 60  # longer KB objects and seed instances are dropped as noise


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class RelationDef:
    name: str
    range_concept: str
    section_titles: frozenset[str]  # normalized


@dataclass
class RelationSchema:
    relations: list[RelationDef]
    concepts: list[str]
    _by_name: dict[str, RelationDef] = field(init=False, repr=False)

    def __post_init__(self):
        self._by_name = {r.name: r for r in self.relations}

    def relation(self, name: str) -> RelationDef:
        return self._by_name[name]

    def relation_names(self) -> list[str]:
        return sorted(self._by_name)

    def has_relation(self, name: str) -> bool:
        return name in self._by_name

    def sections_for_concept(self, concept: str) -> set[str]:
        """Union of section titles over relations whose range is `concept`."""
        out: set[str] = set()
        for r in self.relations:
            if r.range_concept == concept:
                out |= r.section_titles
        return out


@dataclass(frozen=True)
class Triple:
    relation: str
    subject: str
    object: str


@dataclass(frozen=True)
class ConceptSeed:
    concept: str
    instance: str


def _list_of(obj: dict, key: str, kind: type, where: str) -> list:
    """`obj[key]` (an empty list when absent), checked to be a list of `kind`."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        noun = {str: "strings", dict: "objects"}[kind]
        raise SchemaError(f"{where}: {key!r} must be a list of {noun}")
    return value


def _string(rel: dict, key: str, where: str) -> str:
    value = rel.get(key)
    if not isinstance(value, str):
        raise SchemaError(f"{where}: {key!r} must be a string, got {value!r}")
    return value


def load_schema(path: str) -> RelationSchema:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise SchemaError(f"schema must be a JSON object, got a {type(obj).__name__}")
    concepts = list(_list_of(obj, "concepts", str, "schema"))
    relations = []
    names = set()
    claimed_sections: dict[str, str] = {}
    for i, rel in enumerate(_list_of(obj, "relations", dict, "schema")):
        name = _string(rel, "name", f"relation {i}")
        if name in names:
            raise SchemaError(f"duplicate relation {name!r}")
        names.add(name)
        rng = _string(rel, "range_concept", f"relation {name!r}")
        if rng not in concepts:
            raise SchemaError(f"relation {name!r} references unknown concept {rng!r}")
        titles = frozenset(
            normalize(t) for t in _list_of(rel, "section_titles", str, f"relation {name!r}")
        )
        for t in titles:
            if t in claimed_sections:
                raise SchemaError(
                    f"section title {t!r} claimed by both "
                    f"{claimed_sections[t]!r} and {name!r}"
                )
            claimed_sections[t] = name
        relations.append(RelationDef(name, rng, titles))
    return RelationSchema(relations=relations, concepts=concepts)


def load_triples(path: str, schema: RelationSchema) -> list[Triple]:
    """Load TSV triples; normalized, deduplicated, noise-filtered.

    Objects longer than `MAX_SURFACE_LEN` characters or containing a
    comma are dropped (KB noise heuristics).
    """
    out: list[Triple] = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaError(f"line {line_no}: expected 3 tab-separated fields")
            rel, subj, obj = parts
            if not schema.has_relation(rel):
                raise SchemaError(f"line {line_no}: unknown relation {rel!r}")
            subj, obj = normalize(subj), normalize(obj)
            if not subj or not obj:
                raise SchemaError(f"line {line_no}: empty subject or object")
            if len(obj) > MAX_SURFACE_LEN or "," in obj:
                continue
            t = Triple(rel, subj, obj)
            if t not in seen:
                seen.add(t)
                out.append(t)
    return sorted(out, key=lambda t: (t.relation, t.subject, t.object))


def load_concept_seeds(path: str, schema: RelationSchema) -> list[ConceptSeed]:
    """Load TSV concept seeds; normalized, deduplicated, and noise-filtered
    as `load_triples` filters objects."""
    out: list[ConceptSeed] = []
    seen = set()
    known = set(schema.concepts)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaError(f"line {line_no}: expected 2 tab-separated fields")
            concept, instance = parts
            if concept not in known:
                raise SchemaError(f"line {line_no}: unknown concept {concept!r}")
            instance = normalize(instance)
            if not instance:
                raise SchemaError(f"line {line_no}: empty instance")
            if len(instance) > MAX_SURFACE_LEN or "," in instance:
                continue
            s = ConceptSeed(concept, instance)
            if s not in seen:
                seen.add(s)
                out.append(s)
    return sorted(out, key=lambda s: (s.concept, s.instance))

