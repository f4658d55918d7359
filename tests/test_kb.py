import json
import random

import pytest

from reldistill.decode import InputError
from reldistill.features import Mention
from reldistill.kb import (
    ConceptSeed,
    RelationDef,
    RelationSchema,
    Triple,
    load_concept_seeds,
    load_schema,
    load_triples,
)
from reldistill.mentions import build_relation_mentions


def test_schema_loaded(schema):
    assert schema.relation_names() == [
        "conditionsThisMayPrevent",
        "sideEffect",
        "usedToTreat",
    ]
    assert schema.relation("sideEffect").range_concept == "Symptom"
    assert schema.relation("sideEffect").section_titles == frozenset({"side effects"})
    assert sorted(schema.concepts) == ["DiseaseOrMedicalCondition", "Symptom"]


def test_disease_style_schema(tmp_path):
    obj = {
        "concepts": ["MedicalTreatment", "Symptom", "RiskFactor", "DiseaseCause",
                     "ConditionPreventionFactor"],
        "relations": [
            {"name": "hasTreatment", "range_concept": "MedicalTreatment",
             "section_titles": ["Treatments/Drugs", "Treatments and drugs"]},
            {"name": "hasSymptom", "range_concept": "Symptom", "section_titles": ["Symptoms"]},
            {"name": "riskFactor", "range_concept": "RiskFactor", "section_titles": ["Risk Factors"]},
            {"name": "hasCause", "range_concept": "DiseaseCause", "section_titles": ["Causes"]},
            {"name": "preventionFactor", "range_concept": "ConditionPreventionFactor",
             "section_titles": ["Prevention"]},
        ],
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    schema = load_schema(str(path))
    assert len(schema.relations) == 5
    # alias titles both map to hasTreatment
    assert "treatments/drugs" in schema.relation("hasTreatment").section_titles
    assert "treatments and drugs" in schema.relation("hasTreatment").section_titles


def test_overlapping_sections_rejected(tmp_path):
    obj = {
        "concepts": ["C"],
        "relations": [
            {"name": "a", "range_concept": "C", "section_titles": ["Uses"]},
            {"name": "b", "range_concept": "C", "section_titles": ["uses"]},
        ],
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError, match="uses"):
        load_schema(str(path))


def test_unknown_concept_rejected(tmp_path):
    obj = {"concepts": [], "relations": [{"name": "a", "range_concept": "X"}]}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError, match="unknown concept"):
        load_schema(str(path))


@pytest.mark.parametrize(
    "relations, concepts, message",
    [
        ([RelationDef("a", "C"), RelationDef("a", "C")], ["C"],
         "schema: 'relations[1].name': duplicate relation 'a'"),
        ([RelationDef("a", "C"), RelationDef("b", "X")], ["C"],
         "schema: 'relations[1].range_concept': unknown concept 'X'"),
        ([RelationDef("a", "C", frozenset({"Uses"})), RelationDef("b", "C", frozenset({"uses"}))],
         ["C"], "schema: 'relations[1].section_titles': section title 'uses' claimed by "
         "both 'a' and 'b'"),
    ],
)
def test_schema_built_in_code_obeys_the_schema_rules(relations, concepts, message):
    with pytest.raises(InputError) as err:
        RelationSchema(relations, concepts)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "obj, message",
    [
        ([{"name": "a", "range_concept": "C"}], "schema must be a JSON object, got a list"),
        ({"concepts": ["C"], "relations": [{"name": "a"}]},
         "schema: missing required key 'relations[0].range_concept'"),
        ({"concepts": ["C"], "relations": [{"range_concept": "C"}]},
         "schema: missing required key 'relations[0].name'"),
        ({"concepts": ["C"], "relations": [{"name": "a", "range_concept": 1}]},
         "schema: 'relations[0].range_concept' must be a string, got 1"),
        ({"concepts": ["C"], "relations": [{"name": "a", "range_concept": "C",
                                            "section_titles": "Uses"}]},
         "schema: 'relations[0].section_titles' must be a list of strings, got 'Uses'"),
        ({"concepts": "C", "relations": []}, "schema: 'concepts' must be a list of strings"),
        ({"concepts": ["C"], "relations": {"a": "C"}},
         "schema: 'relations' must be a list of objects"),
        ({"concepts": ["C"], "relations": ["a"]},
         "schema: 'relations' must be a list of objects"),
        ({"concepts": ["C"], "relations": [{"name": "a", "range_concept": "C",
                                            "section_title": ["Uses"]}]},
         "schema: unknown key 'relations[0].section_title'"),
        ({"concepts": ["C"], "relation": []}, "schema: unknown key 'relation'"),
        # the second relation of a name is the one refused
        ({"concepts": ["C"], "relations": [{"name": "a", "range_concept": "C"},
                                           {"name": "b", "range_concept": "C"},
                                           {"name": "a", "range_concept": "C"}]},
         "schema: 'relations[2].name': duplicate relation 'a'"),
    ],
)
def test_malformed_schema_names_relation_and_key(tmp_path, obj, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError) as err:
        load_schema(str(path))
    assert str(err.value).startswith(message)


def test_schema_that_is_a_directory_refused(tmp_path):
    with pytest.raises(InputError) as err:
        load_schema(str(tmp_path))
    assert str(err.value) == f"schema {str(tmp_path)!r} is a directory, not a JSON file"


@pytest.mark.parametrize(
    "load, rows, want",
    [
        pytest.param(
            load_triples,
            ["sideEffect\tmeloxicam\tNausea", "usedToTreat\tmeloxicam\tarthritis",
             "sideEffect\tibuprofen\theadache", "sideEffect\t Meloxicam\t nausea",
             "usedToTreat\tmeloxicam\tArthritis  ", "sideEffect\tmeloxicam\tnausea"],
            [Triple("sideEffect", "ibuprofen", "headache"),
             Triple("sideEffect", "meloxicam", "nausea"),
             Triple("usedToTreat", "meloxicam", "arthritis")],
            id="triples",
        ),
        pytest.param(
            load_concept_seeds,
            ["Symptom\tNausea", "DiseaseOrMedicalCondition\tarthritis", "Symptom\t nausea",
             "Symptom\theadache", "DiseaseOrMedicalCondition\tArthritis ", "Symptom\tnausea"],
            [ConceptSeed("DiseaseOrMedicalCondition", "arthritis"),
             ConceptSeed("Symptom", "headache"), ConceptSeed("Symptom", "nausea")],
            id="concept_seeds",
        ),
    ],
)
def test_kb_rows_sorted_and_unique_after_normalization(tmp_path, schema, load, rows, want):
    # rows that only normalization makes equal load as one, in any row order
    path = tmp_path / "kb.tsv"
    for seed in range(4):
        path.write_text("\n".join(random.Random(seed).sample(rows, len(rows))) + "\n")
        assert load(str(path), schema) == want


class TestTriples:
    def test_example_triple(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        path.write_text("sideEffect\tmeloxicam\tnausea\n")
        assert load_triples(str(path), schema) == [
            Triple("sideEffect", "meloxicam", "nausea")
        ]

    def test_dedup(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        path.write_text("sideEffect\tmeloxicam\tnausea\n" * 3)
        assert len(load_triples(str(path), schema)) == 1

    def test_unknown_relation(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        path.write_text("notARelation\ta\tb\n")
        with pytest.raises(InputError, match="line 1"):
            load_triples(str(path), schema)

    def test_order_independent(self, tmp_path, schema):
        lines = [
            "sideEffect\tmeloxicam\tnausea",
            "usedToTreat\tmeloxicam\tarthritis",
            "sideEffect\tibuprofen\theadache",
        ]
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        p1.write_text("\n".join(lines) + "\n")
        p2.write_text("\n".join(reversed(lines)) + "\n")
        assert load_triples(str(p1), schema) == load_triples(str(p2), schema)

    def test_noise_filters(self, tmp_path, schema):
        path = tmp_path / "t.tsv"
        path.write_text(
            "sideEffect\tmeloxicam\tnausea, vomiting\n"
            f"sideEffect\tmeloxicam\t{'x' * 61}\n"
            "sideEffect\tmeloxicam\tnausea\n"
        )
        assert load_triples(str(path), schema) == [
            Triple("sideEffect", "meloxicam", "nausea")
        ]


def test_concept_seed_unknown_concept(tmp_path, schema):
    path = tmp_path / "s.tsv"
    path.write_text("NotAConcept\tnausea\n")
    with pytest.raises(InputError, match="line 1"):
        load_concept_seeds(str(path), schema)


def test_concept_seeds_loaded(concept_seeds):
    assert {(s.concept, s.instance) for s in concept_seeds} == {
        ("Symptom", "nausea"),
        ("Symptom", "headache"),
        ("DiseaseOrMedicalCondition", "arthritis"),
        ("DiseaseOrMedicalCondition", "pain"),
    }


class TestMatchValue:
    """A KB value matches a mention surface the way distant labeling
    applies it: after normalization, and only as the whole surface."""

    @staticmethod
    def labels(surface, value):
        mention = Mention(
            mention_id="d|s0|t0|0-1",
            doc_id="d",
            title_entity="aspirin",
            section_title="side effects",
            kind="singleton",
            item_surfaces=(surface,),
            features=(),
            corpus_tag="target",
        )
        triples = [Triple("sideEffect", "aspirin", value)]
        return build_relation_mentions([mention], triples, None, enforce_sections=False)

    def test_case_normalization(self):
        assert [lm.label for lm in self.labels("Nausea", "nausea")] == ["sideEffect"]

    def test_exact_match_only(self):
        assert self.labels("nausea and vomiting", "nausea") == []

    def test_whitespace_collapse(self):
        assert len(self.labels("stomach  upset", "stomach upset")) == 1
