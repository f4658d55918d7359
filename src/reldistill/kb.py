"""Relation schema and seed knowledge: triples and concept instances."""

from __future__ import annotations

from dataclasses import dataclass, field

from .decode import InputError, decode, json_file, tsv
from .norm import normalize

MAX_SURFACE_LEN = 60  # longer KB objects and seed instances are dropped as noise


def _is_noise(surface: str) -> bool:
    """Whether a KB object or seed instance is dropped as noise."""
    return len(surface) > MAX_SURFACE_LEN or "," in surface


@dataclass(frozen=True)
class RelationDef:
    name: str
    range_concept: str
    section_titles: frozenset[str] = frozenset()  # normalized

    def __post_init__(self):
        object.__setattr__(self, "section_titles", frozenset(map(normalize, self.section_titles)))


@dataclass
class RelationSchema:
    """Relations of distinct names over known concepts, no section title shared."""

    relations: list[RelationDef] = field(default_factory=list)
    concepts: list[str] = field(default_factory=list)
    _by_name: dict[str, RelationDef] = field(init=False, repr=False)

    def __post_init__(self):
        self._by_name = {}
        claimed_sections: dict[str, str] = {}
        for i, rel in enumerate(self.relations):
            at = f"schema: 'relations[{i}]"
            if rel.name in self._by_name:
                raise InputError(f"{at}.name': duplicate relation {rel.name!r}")
            self._by_name[rel.name] = rel
            if rel.range_concept not in self.concepts:
                raise InputError(f"{at}.range_concept': unknown concept {rel.range_concept!r}")
            for t in sorted(rel.section_titles):
                if claimed_sections.setdefault(t, rel.name) != rel.name:
                    raise InputError(
                        f"{at}.section_titles': section title {t!r} claimed by both "
                        f"{claimed_sections[t]!r} and {rel.name!r}"
                    )

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


# ordered by field, so a loaded list sorts by (relation, subject, object)
@dataclass(frozen=True, order=True)
class Triple:
    relation: str
    subject: str
    object: str


@dataclass(frozen=True, order=True)
class ConceptSeed:
    concept: str
    instance: str


def load_schema(path: str) -> RelationSchema:
    return decode(RelationSchema, json_file(path, "schema"), "schema")


def load_triples(path: str, schema: RelationSchema) -> list[Triple]:
    """Load TSV triples; normalized, deduplicated, and without the
    triples whose object `_is_noise`."""

    def triple(rel: str, subj: str, obj: str) -> Triple | None:
        if not schema.has_relation(rel):
            raise InputError(f"unknown relation {rel!r}")
        subj, obj = normalize(subj), normalize(obj)
        if not subj or not obj:
            raise InputError("empty subject or object")
        return None if _is_noise(obj) else Triple(rel, subj, obj)

    return sorted(set(tsv(path, 3, triple)) - {None})


def load_concept_seeds(path: str, schema: RelationSchema) -> list[ConceptSeed]:
    """Load TSV concept seeds; normalized, deduplicated, and without the
    seeds whose instance `_is_noise`."""
    known = set(schema.concepts)

    def seed(concept: str, instance: str) -> ConceptSeed | None:
        if concept not in known:
            raise InputError(f"unknown concept {concept!r}")
        instance = normalize(instance)
        if not instance:
            raise InputError("empty instance")
        return None if _is_noise(instance) else ConceptSeed(concept, instance)

    return sorted(set(tsv(path, 2, seed)) - {None})

