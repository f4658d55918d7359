"""Synthetic drug-domain benchmark generator.

Plants a knowledge base of true triples across a small structured corpus
(fixed sections mapped to relations) and a larger target corpus (one
generic section), then injects spurious triples so that a configurable
fraction of the target corpus's distant labels carry the wrong relation.
Section filtering keeps the structured corpus's labels clean, which is
exactly the asymmetry the pipeline is meant to exploit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

RELATIONS = {
    "usedToTreat": {"range": "DiseaseOrMedicalCondition", "sections": ["Uses"]},
    "conditionsThisMayPrevent": {
        "range": "DiseaseOrMedicalCondition",
        "sections": ["Prevention"],
    },
    "sideEffect": {"range": "Symptom", "sections": ["Side Effects"]},
}

N_VALUES = 40  # distinct conditions and distinct symptoms the KB draws values from

_TEMPLATES = {
    "usedToTreat": [
        [("it", "OTHER"), ("is", "VERB"), ("commonly", "OTHER"),
         ("prescribed", "VERB"), ("to", "OTHER"), ("treat", "VERB")],
        [("doctors", "NOUN"), ("recommend", "VERB"), ("it", "OTHER"),
         ("to", "OTHER"), ("treat", "VERB")],
    ],
    "conditionsThisMayPrevent": [
        [("taken", "VERB"), ("daily", "OTHER"), ("it", "OTHER"),
         ("helps", "VERB"), ("prevent", "VERB")],
        [("regular", "ADJ"), ("use", "NOUN"), ("may", "VERB"),
         ("prevent", "VERB")],
    ],
    "sideEffect": [
        [("some", "DET"), ("patients", "NOUN"), ("report", "VERB")],
        [("adverse", "ADJ"), ("reactions", "NOUN"), ("include", "VERB")],
    ],
}

_DISTRACTORS = [
    [("store", "VERB"), ("the", "DET"), ("bottle", "NOUN"), ("in", "OTHER"),
     ("a", "DET"), ("cool", "ADJ"), ("container", "NOUN"), (".", "PUNCT")],
    [("ask", "VERB"), ("your", "DET"), ("pharmacist", "NOUN"),
     ("about", "OTHER"), ("proper", "ADJ"), ("storage", "NOUN"), (".", "PUNCT")],
    [("keep", "VERB"), ("this", "DET"), ("medication", "NOUN"),
     ("away", "OTHER"), ("from", "OTHER"), ("children", "NOUN"), (".", "PUNCT")],
    [("read", "VERB"), ("the", "DET"), ("label", "NOUN"), ("before", "OTHER"),
     ("each", "DET"), ("dose", "NOUN"), (".", "PUNCT")],
]


@dataclass
class BenchmarkPaths:
    structured_corpus: str
    target_corpus: str
    eval_corpus: str
    schema: str
    triples: str
    concept_seeds: str
    gold: str
    n_true_triples: int
    n_spurious_triples: int


def _value_tokens(values: list[str]) -> list[tuple[str, str]]:
    if len(values) == 1:
        return [(values[0], "NOUN")]
    toks: list[tuple[str, str]] = []
    for i, v in enumerate(values):
        if i == len(values) - 1:
            toks.append(("and", "CONJ"))
        elif i > 0:
            toks.append((",", "PUNCT"))
        toks.append((v, "NOUN"))
    return toks


def _sentence(tokens: list[tuple[str, str]]) -> dict:
    return {"tokens": [{"surface": s, "pos": p} for s, p in tokens]}


def _relation_sentence(rng: random.Random, relation: str, values: list[str]) -> dict:
    stem = rng.choice(_TEMPLATES[relation])
    return _sentence(stem + _value_tokens(values) + [(".", "PUNCT")])


def _doc(rng, doc_id: str, entity: str, facts: dict[str, list[str]], structured: bool) -> dict:
    sections = []
    if structured:
        for relation, spec in RELATIONS.items():
            values = facts.get(relation)
            if values:
                sections.append(
                    {
                        "title": spec["sections"][0],
                        "sentences": [_relation_sentence(rng, relation, values)],
                    }
                )
        sections.append(
            {"title": "Storage", "sentences": [_sentence(rng.choice(_DISTRACTORS))]}
        )
    else:
        sentences = [
            _relation_sentence(rng, relation, values)
            for relation, values in facts.items()
            if values
        ]
        for _ in range(rng.randint(1, 2)):
            sentences.append(_sentence(rng.choice(_DISTRACTORS)))
        rng.shuffle(sentences)
        sections.append({"title": "Overview", "sentences": sentences})
    return {"doc_id": doc_id, "title_entity": entity, "sections": sections}


def generate_benchmark(
    out_dir: str,
    seed: int,
    n_target: int = 300,
    n_structured: int = 30,
    k_true: int = 200,
    spurious_rate: float = 0.3,
    n_eval: int = 30,
) -> BenchmarkPaths:
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    conditions = [f"cond{i:02d}" for i in range(N_VALUES)]
    symptoms = [f"sym{i:02d}" for i in range(N_VALUES)]
    value_pool = {
        "usedToTreat": conditions,
        "conditionsThisMayPrevent": conditions,
        "sideEffect": symptoms,
    }
    relations = sorted(RELATIONS)

    # plant K true triples; the first n_structured drugs get extra facts so
    # the structured corpus yields a usable seed set for every relation
    drugs = [f"drug{i:03d}" for i in range(n_target)]
    facts: dict[str, dict[str, list[str]]] = {d: {} for d in drugs}
    true_triples: set[tuple[str, str, str]] = set()

    def plant(drug: str, relation: str) -> bool:
        pool = [v for v in value_pool[relation] if (relation, drug, v) not in true_triples]
        if not pool:
            return False
        v = rng.choice(pool)
        true_triples.add((relation, drug, v))
        facts[drug].setdefault(relation, []).append(v)
        return True

    planted = 0
    for i, drug in enumerate(drugs[:n_structured]):
        for relation in relations:
            if planted < k_true and plant(drug, relation):
                planted += 1
    while planted < k_true:
        drug = rng.choice(drugs)
        relation = rng.choice(relations)
        if len(facts[drug].get(relation, [])) < 3 and plant(drug, relation):
            planted += 1

    # spurious triples: a value that truly occurs under one relation in the
    # target corpus, asserted under a different relation
    n_spurious = round(spurious_rate * len(true_triples))
    spurious: set[tuple[str, str, str]] = set()
    occurrences = sorted(true_triples)
    attempts = 0
    while len(spurious) < n_spurious and attempts < 100 * n_spurious:
        attempts += 1
        r_true, drug, value = rng.choice(occurrences)
        r_fake = rng.choice([r for r in relations if r != r_true])
        cand = (r_fake, drug, value)
        if cand not in true_triples and cand not in spurious:
            spurious.add(cand)

    structured_docs = [
        _doc(rng, f"s-{d}", d, facts[d], structured=True) for d in drugs[:n_structured]
    ]
    target_docs = [_doc(rng, f"t-{d}", d, facts[d], structured=False) for d in drugs]

    # evaluation corpus: fresh drugs, values drawn from the same vocabulary
    eval_docs = []
    gold_rows = []
    for i in range(n_eval):
        entity = f"evaldrug{i:03d}"
        doc_id = f"e-{entity}"
        efacts: dict[str, list[str]] = {}
        for relation in rng.sample(relations, rng.randint(2, 3)):
            values = rng.sample(value_pool[relation], rng.randint(1, 3))
            efacts[relation] = values
            for v in values:
                gold_rows.append((doc_id, relation, v))
        eval_docs.append(_doc(rng, doc_id, entity, efacts, structured=False))

    paths = BenchmarkPaths(
        structured_corpus=str(out / "structured.jsonl"),
        target_corpus=str(out / "target.jsonl"),
        eval_corpus=str(out / "eval.jsonl"),
        schema=str(out / "schema.json"),
        triples=str(out / "triples.tsv"),
        concept_seeds=str(out / "concept_seeds.tsv"),
        gold=str(out / "gold.tsv"),
        n_true_triples=len(true_triples),
        n_spurious_triples=len(spurious),
    )

    for path, docs in (
        (paths.structured_corpus, structured_docs),
        (paths.target_corpus, target_docs),
        (paths.eval_corpus, eval_docs),
    ):
        with open(path, "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")

    schema = {
        "concepts": sorted({spec["range"] for spec in RELATIONS.values()}),
        "relations": [
            {
                "name": name,
                "range_concept": spec["range"],
                "section_titles": spec["sections"],
            }
            for name, spec in sorted(RELATIONS.items())
        ],
    }
    with open(paths.schema, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, sort_keys=True, indent=1)
        fh.write("\n")

    with open(paths.triples, "w", encoding="utf-8") as fh:
        for relation, subject, obj in sorted(true_triples | spurious):
            fh.write(f"{relation}\t{subject}\t{obj}\n")

    with open(paths.concept_seeds, "w", encoding="utf-8") as fh:
        for v in conditions[: max(5, N_VALUES // 4)]:
            fh.write(f"DiseaseOrMedicalCondition\t{v}\n")
        for v in symptoms[: max(5, N_VALUES // 4)]:
            fh.write(f"Symptom\t{v}\n")

    with open(paths.gold, "w", encoding="utf-8") as fh:
        for doc_id, relation, value in sorted(gold_rows):
            fh.write(f"{doc_id}\t{relation}\t{value}\n")

    return paths
