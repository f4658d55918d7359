"""In-process harness for the synthetic benchmark: build the mention sets
once, then score the propagation-distilled pipeline and the plain
distant-supervision baselines against the generated gold annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Document
from .evaluation import EvalReport, GoldAnnotation, evaluate, load_gold, run_baseline
from .features import FeatureConfig, Mention
from .kb import RelationSchema, load_concept_seeds, load_schema, load_triples
from .mentions import MentionSets, build_mention_sets, corpus_mentions
from .pipeline import extract_all, fit_model, ingest_corpora
from .propagation import (
    PropagationConfig,
    RankedLabeling,
    VariantSpec,
    build_graph,
    multirankwalk,
    relation_seeds,
)
from .synthetic import BenchmarkPaths
from .training import TrainConfig


@dataclass
class BenchmarkArtifacts:
    """Everything derived from one generated benchmark that is shared
    across methods and train configs."""

    schema: RelationSchema
    sets: MentionSets
    pool: list[Mention]
    labeled_ids: set[str]
    eval_docs: list[Document]
    gold: list[GoldAnnotation]
    feature_config: FeatureConfig
    prop_config: PropagationConfig
    rankings: dict[str, RankedLabeling] = field(default_factory=dict)


def prepare(paths: BenchmarkPaths) -> BenchmarkArtifacts:
    feature_config = FeatureConfig()
    prop_config = PropagationConfig()
    schema = load_schema(paths.schema)
    triples = load_triples(paths.triples, schema)
    seeds = load_concept_seeds(paths.concept_seeds, schema)
    docs = ingest_corpora(paths)
    structured = corpus_mentions(docs.pop("structured"), feature_config)
    target = corpus_mentions(docs.pop("target"), feature_config)
    sets = build_mention_sets(structured, target, triples, seeds, schema, prop_config)
    return BenchmarkArtifacts(
        schema=schema,
        sets=sets,
        pool=structured + target,
        labeled_ids={lm.mention.mention_id for lm in sets.Rs + sets.Rt},
        eval_docs=docs["eval"],
        gold=load_gold(paths.gold, schema),
        feature_config=feature_config,
        prop_config=prop_config,
    )


def ranking_for(art: BenchmarkArtifacts, variant: list[str]) -> RankedLabeling:
    """Propagation ranking for a graph variant, memoized per artifact set."""
    spec = VariantSpec.parse(variant)
    if spec.name not in art.rankings:
        graph = build_graph(art.sets, spec)
        art.rankings[spec.name] = multirankwalk(
            graph, relation_seeds(graph, art.sets.Rs), art.prop_config
        )
    return art.rankings[spec.name]


def _score(art: BenchmarkArtifacts, model) -> EvalReport:
    return evaluate(extract_all(art.eval_docs, model, art.feature_config), art.gold)


def distilled_report(
    art: BenchmarkArtifacts, variant: list[str], config: TrainConfig
) -> EvalReport:
    """Full propagate-distill-train-extract-evaluate run for one variant
    and train config."""
    ranking = ranking_for(art, variant)
    return _score(art, fit_model(ranking, art.sets, art.pool, config, art.feature_config))


def baseline_report(art: BenchmarkArtifacts, kind: str, config: TrainConfig) -> EvalReport:
    """DS_Struct / DS_Target / DS_Both scored on the same evaluation set."""
    model = run_baseline(
        kind, art.sets, art.pool, art.labeled_ids, config, art.feature_config, art.schema
    )
    return _score(art, model)
