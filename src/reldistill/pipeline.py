"""Staged pipeline orchestration with checkpointed artifacts and a
provenance manifest. Each stage reads the previous stage's files, writes
its own, and records input/output hashes plus the run-config hash so
incompatible artifacts cannot be mixed.

`fit_model` and `extract_all` are the in-process core of the method
(distill, train, extract). They do no I/O; the stages wrap them with
artifact reads and writes, and `benchmark` calls them directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from .corpus import Document, ingest_corpus, write_corpus
from .evaluation import (
    Prediction,
    evaluate,
    extract_document,
    load_gold,
    pr_curve,
    read_predictions,
    write_pr_curve,
    write_predictions,
    write_report,
)
from .features import FeatureConfig, Mention
from .kb import load_concept_seeds, load_schema, load_triples
from .mentions import (
    MentionSets,
    build_mention_sets,
    corpus_mentions,
    read_labeled_mentions,
    read_mentions,
    write_labeled_mentions,
    write_mentions,
)
from .propagation import (
    PropagationConfig,
    RankedLabeling,
    VariantSpec,
    build_graph,
    multirankwalk,
    read_ranking,
    relation_seeds,
    write_graph_dump,
    write_ranking,
)
from .training import (
    LinearModel,
    TrainConfig,
    build_training_set,
    distill,
    load_model,
    save_model,
    train,
)


class StageError(ValueError):
    """Missing upstream artifact or config mismatch between stages."""


_PATH_KEYS = (
    "structured_corpus",
    "target_corpus",
    "eval_corpus",
    "schema",
    "triples",
    "concept_seeds",
    "gold",
)


def _check_keys(obj, cls, prefix: str) -> None:
    """Reject a run-config object that is not a JSON object or that has a
    key `cls` has no field for; `prefix` names the enclosing section."""
    if not isinstance(obj, dict):
        where = prefix.rstrip(".") or "the config"
        raise StageError(f"run config: {where} must be a JSON object")
    known = {f.name for f in fields(cls)}
    for key in sorted(obj):
        if key not in known:
            raise StageError(f"run config: unknown key {prefix + key!r}")


_JSON_KINDS = {
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    str: "a string",
    type(None): "null",
}


def _is_kind(value, kind) -> bool:
    if kind in (int, float) and isinstance(value, bool):
        return False  # JSON true/false are not numbers
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _section(obj: dict, key: str, cls):
    """Build a config section, checking each value against the type
    annotation of its field."""
    section = obj.get(key, {})
    _check_keys(section, cls, key + ".")
    hints = get_type_hints(cls)
    for name, value in sorted(section.items()):
        kinds = get_args(hints[name]) or (hints[name],)
        if not any(_is_kind(value, k) for k in kinds):
            raise StageError(
                f"run config: {key + '.' + name!r} must be "
                f"{' or '.join(_JSON_KINDS[k] for k in kinds)}, got {value!r}"
            )
    return cls.from_dict(section)


def _list_of(obj: dict, key: str, default: list, item_ok, items: str) -> list:
    value = obj.get(key, default)
    if not isinstance(value, list) or not all(item_ok(v) for v in value):
        raise StageError(f"run config: {key!r} must be a list of {items}, got {value!r}")
    return value


@dataclass
class RunConfig:
    structured_corpus: str
    target_corpus: str
    eval_corpus: str
    schema: str
    triples: str
    concept_seeds: str
    gold: str
    variant: list[str] = field(default_factory=lambda: ["Rs", "Rt"])
    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    sweep_n: list[int] = field(default_factory=lambda: [5, 10, 20])

    def to_dict(self) -> dict:
        return {
            **{key: getattr(self, key) for key in _PATH_KEYS},
            "variant": list(self.variant),
            "propagation": self.propagation.to_dict(),
            "features": self.features.to_dict(),
            "training": self.training.to_dict(),
            "sweep_n": list(self.sweep_n),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        _check_keys(obj, cls, "")
        for key in _PATH_KEYS:
            if key not in obj:
                raise StageError(f"run config: missing required key {key!r}")
            if not isinstance(obj[key], str):
                raise StageError(f"run config: {key!r} must be a string, got {obj[key]!r}")
        return cls(
            **{key: obj[key] for key in _PATH_KEYS},
            variant=_list_of(
                obj, "variant", ["Rs", "Rt"], lambda v: isinstance(v, str), "strings"
            ),
            propagation=_section(obj, "propagation", PropagationConfig),
            features=_section(obj, "features", FeatureConfig),
            training=_section(obj, "training", TrainConfig),
            sweep_n=_list_of(
                obj, "sweep_n", [5, 10, 20],
                lambda v: _is_kind(v, int) and v > 0, "positive integers",
            ),
        )

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def validate_paths(self) -> None:
        for name in _PATH_KEYS:
            path = getattr(self, name)
            if not Path(path).is_file():
                raise StageError(f"config path {name} does not exist: {path}")
        VariantSpec.parse(self.variant)


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workspace:
    """Output directory plus the provenance manifest."""

    MENTION_SET_FILES = {
        "Rs": "mentions_Rs.jsonl",
        "Rt": "mentions_Rt.jsonl",
        "Cs": "mentions_Cs.jsonl",
        "Ct": "mentions_Ct.jsonl",
    }
    POOL_FILES = ("pool_structured.jsonl", "pool_target.jsonl")

    def __init__(self, out_dir: str, config: RunConfig):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.manifest_path = self.out / "manifest.json"

    def _load_manifest(self) -> dict:
        if self.manifest_path.is_file():
            return json.loads(self.manifest_path.read_text())
        return {"config_hash": self.config.config_hash(), "stages": {}}

    def record_stage(self, stage: str, inputs: list[Path], outputs: list[Path]) -> None:
        manifest = self._load_manifest()
        manifest["config_hash"] = self.config.config_hash()
        manifest["stages"][stage] = {
            "config_hash": self.config.config_hash(),
            "inputs": {p.name: _sha256(p) for p in sorted(inputs)},
            "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
        }
        self.manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        )

    def require(self, filename: str, produced_by: str) -> Path:
        path = self.out / filename
        if not path.is_file():
            raise StageError(
                f"artifact {filename!r} missing; run the {produced_by!r} command first"
            )
        manifest = self._load_manifest()
        stage = manifest["stages"].get(produced_by)
        if stage and stage["config_hash"] != self.config.config_hash():
            raise StageError(
                f"artifact {filename!r} was produced with a different config; "
                f"re-run {produced_by!r}"
            )
        return path


def fit_model(
    ranking: RankedLabeling,
    sets: MentionSets,
    pool: list[Mention],
    train_config: TrainConfig,
    feature_config: FeatureConfig,
) -> LinearModel:
    """Distill the top-N positives from a propagation ranking, sample
    negatives from the mentions no Rs/Rt label touches, and train."""
    positives, shortfalls = distill(ranking, sets, train_config)
    labeled_ids = {lm.mention.mention_id for lm in sets.Rs + sets.Rt}
    training_set = build_training_set(
        positives, pool, labeled_ids, train_config, shortfalls
    )
    return train(training_set, train_config, feature_config)


def extract_all(
    docs: list[Document], model: LinearModel, feature_config: FeatureConfig
) -> list[Prediction]:
    predictions = []
    for doc in docs:
        predictions.extend(extract_document(doc, model, feature_config))
    return predictions


def stage_ingest(ws: Workspace) -> None:
    cfg = ws.config
    cfg.validate_paths()
    inputs, outputs = [], []
    for name, tag in (
        ("structured_corpus", "structured"),
        ("target_corpus", "target"),
        ("eval_corpus", "target"),
    ):
        src = Path(getattr(cfg, name))
        docs = ingest_corpus(str(src), tag)
        dst = ws.out / f"documents_{name.removesuffix('_corpus')}.jsonl"
        write_corpus(docs, str(dst))
        inputs.append(src)
        outputs.append(dst)
    ws.record_stage("ingest", inputs, outputs)


def stage_mentions(ws: Workspace) -> None:
    cfg = ws.config
    structured_path = ws.require("documents_structured.jsonl", "ingest")
    target_path = ws.require("documents_target.jsonl", "ingest")
    schema = load_schema(cfg.schema)
    triples = load_triples(cfg.triples, schema)
    seeds = load_concept_seeds(cfg.concept_seeds, schema)

    structured = corpus_mentions(ingest_corpus(str(structured_path), "structured"), cfg.features)
    target = corpus_mentions(ingest_corpus(str(target_path), "target"), cfg.features)
    sets = build_mention_sets(structured, target, triples, seeds, schema, cfg.propagation)

    outputs = []
    for name, filename in Workspace.MENTION_SET_FILES.items():
        path = ws.out / filename
        write_labeled_mentions(sets.get(name), str(path))
        outputs.append(path)
    for pool, filename in zip((structured, target), Workspace.POOL_FILES):
        path = ws.out / filename
        write_mentions(pool, str(path))
        outputs.append(path)
    ws.record_stage(
        "mentions",
        [structured_path, target_path, Path(cfg.schema), Path(cfg.triples), Path(cfg.concept_seeds)],
        outputs,
    )


def _load_sets(ws: Workspace) -> MentionSets:
    sets = MentionSets()
    for name, filename in Workspace.MENTION_SET_FILES.items():
        path = ws.require(filename, "mentions")
        setattr(sets, name, read_labeled_mentions(str(path)))
    return sets


def _load_pool(ws: Workspace) -> list[Mention]:
    pool = []
    for filename in Workspace.POOL_FILES:
        pool += read_mentions(str(ws.require(filename, "mentions")))
    return pool


def _mention_artifacts(ws: Workspace) -> list[Path]:
    """The files `_load_sets` and `_load_pool` read."""
    names = [*Workspace.MENTION_SET_FILES.values(), *Workspace.POOL_FILES]
    return [ws.out / name for name in names]


def stage_propagate(ws: Workspace) -> None:
    cfg = ws.config
    sets = _load_sets(ws)
    graph = build_graph(sets, VariantSpec.parse(cfg.variant))
    ranking = multirankwalk(graph, relation_seeds(graph, sets.Rs), cfg.propagation)

    ranking_path = ws.out / "ranking.tsv"
    graph_path = ws.out / "graph.tsv"
    write_ranking(ranking, str(ranking_path))
    write_graph_dump(graph, str(graph_path))
    ws.record_stage(
        "propagate",
        [ws.out / f for f in Workspace.MENTION_SET_FILES.values()],
        [ranking_path, graph_path],
    )


def stage_train(ws: Workspace) -> None:
    cfg = ws.config
    ranking_path = ws.require("ranking.tsv", "propagate")
    ranking = read_ranking(str(ranking_path))
    model = fit_model(ranking, _load_sets(ws), _load_pool(ws), cfg.training, cfg.features)
    model_path = ws.out / "model.json"
    save_model(model, str(model_path))
    ws.record_stage("train", [ranking_path, *_mention_artifacts(ws)], [model_path])


def stage_extract(ws: Workspace) -> None:
    cfg = ws.config
    model_path = ws.require("model.json", "train")
    eval_path = ws.require("documents_eval.jsonl", "ingest")
    docs = ingest_corpus(str(eval_path), "target")
    predictions = extract_all(docs, load_model(str(model_path)), cfg.features)
    pred_path = ws.out / "predictions.tsv"
    write_predictions(predictions, str(pred_path))
    ws.record_stage("extract", [model_path, eval_path], [pred_path])


def stage_eval(ws: Workspace) -> None:
    cfg = ws.config
    pred_path = ws.require("predictions.tsv", "extract")
    schema = load_schema(cfg.schema)
    gold = load_gold(cfg.gold, schema)
    predictions = read_predictions(str(pred_path))
    report = evaluate(predictions, gold)
    points = pr_curve(predictions, gold)

    report_path = ws.out / "report.json"
    curve_path = ws.out / "pr_curve.csv"
    write_report(report, str(report_path))
    write_pr_curve(points, str(curve_path))
    ws.record_stage("eval", [pred_path, Path(cfg.gold)], [report_path, curve_path])


def stage_sweep(ws: Workspace) -> None:
    """Re-run distill+train+extract+eval across N values and both
    strategies; emits F1-vs-N rows for the configured variant. The CSV is
    written only after every cell has succeeded."""
    cfg = ws.config
    ranking_path = ws.require("ranking.tsv", "propagate")
    ranking = read_ranking(str(ranking_path))
    sets = _load_sets(ws)
    pool = _load_pool(ws)
    eval_path = ws.require("documents_eval.jsonl", "ingest")
    eval_docs = ingest_corpus(str(eval_path), "target")
    gold = load_gold(cfg.gold, load_schema(cfg.schema))
    variant_name = VariantSpec.parse(cfg.variant).name

    rows = []
    for strategy in ("Both", "Target"):
        for n in cfg.sweep_n:
            tc = replace(cfg.training, n=n, strategy=strategy)
            model = fit_model(ranking, sets, pool, tc, cfg.features)
            micro = evaluate(extract_all(eval_docs, model, cfg.features), gold).micro
            rows.append((strategy, n, micro.precision, micro.recall, micro.f1))

    sweep_path = ws.out / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("variant,strategy,n,precision,recall,f1\n")
        for strategy, n, p, r, f1 in rows:
            fh.write(f"{variant_name},{strategy},{n},{p:.12g},{r:.12g},{f1:.12g}\n")
    ws.record_stage(
        "sweep",
        [ranking_path, *_mention_artifacts(ws), eval_path, Path(cfg.gold)],
        [sweep_path],
    )


STAGES = {
    "ingest": stage_ingest,
    "mentions": stage_mentions,
    "propagate": stage_propagate,
    "train": stage_train,
    "extract": stage_extract,
    "eval": stage_eval,
    "sweep": stage_sweep,
}


def run_all(ws: Workspace) -> None:
    for stage in ("ingest", "mentions", "propagate", "train", "extract", "eval"):
        STAGES[stage](ws)
