"""Staged pipeline orchestration with checkpointed artifacts and a
provenance manifest. Each stage reads the previous stage's files, writes
its own, and records input/output hashes plus the run-config hash so
incompatible artifacts cannot be mixed. A stage refuses an artifact
whose sha256 is not the one its producing stage recorded. Every artifact
is written through a temp file and `os.replace`, so a failed write
leaves the previous file whole.

The `Workspace` records what a stage did: each artifact it verified or
wrote and each run-config file handed to `input`. It also holds the
records it wrote for the documents, mention sets and pools; a later
stage on the same workspace whose verified file hash equals the held one
takes those records instead of decoding the file.

`ingest_corpora`, `fit_model` and `extract_all` are the in-process core
of the method (ingest, distill, train, extract). They write nothing; the
stages wrap them with artifact reads and writes, and `benchmark` calls
them directly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .corpus import Document, ingest_corpus, write_corpus
from .decode import decode, required
from .evaluation import (
    GoldAnnotation,
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
    MentionEncoder,
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


@dataclass
class RunConfig:
    # the input paths: every field without a default
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

    def __post_init__(self):
        if not all(n > 0 for n in self.sweep_n):
            raise StageError(
                f"run config: 'sweep_n' must be a list of positive integers, got {self.sweep_n!r}"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        return decode(cls, obj, StageError, "run config")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def validate_paths(self) -> None:
        for name in (f.name for f in fields(self) if required(f)):
            if not Path(getattr(self, name)).is_file():
                raise StageError(f"config path {name} does not exist: {getattr(self, name)}")
        VariantSpec.parse(self.variant)


def load_run_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path: Path, write) -> None:
    """Let `write(tmp)` fill a temp file beside `path`, then move it into
    place: a reader sees the old file or the whole new one. A failed
    write removes the temp file and leaves `path` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(str(tmp))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Workspace:
    """Output directory plus the provenance manifest, the files the
    running stage read and wrote with their sha256 (a stage that raises
    leaves them: go on with a new workspace), and the records written
    with `write`, keyed on filename with the sha256 of the bytes."""

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
        self._held: dict[str, tuple[str, list]] = {}
        # path -> sha256 of the files the running stage read and wrote
        self._inputs: dict[Path, str] = {}
        self._outputs: dict[Path, str] = {}

    def _load_manifest(self) -> dict:
        if self.manifest_path.is_file():
            return json.loads(self.manifest_path.read_text())
        return {"config_hash": self.config.config_hash(), "stages": {}}

    def record_stage(self, stage: str) -> None:
        """Record the files the stage read and wrote, with the sha256
        this workspace took of each, and start gathering afresh."""
        manifest = self._load_manifest()
        manifest["config_hash"] = self.config.config_hash()
        manifest["stages"][stage] = {
            "config_hash": self.config.config_hash(),
            "inputs": {p.name: digest for p, digest in sorted(self._inputs.items())},
            "outputs": {p.name: digest for p, digest in sorted(self._outputs.items())},
        }
        self._inputs, self._outputs = {}, {}
        text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
        _write_atomic(self.manifest_path, lambda tmp: Path(tmp).write_text(text))

    def input(self, path: str) -> str:
        """`path`, a file the run config names, recorded as read."""
        self._inputs[Path(path)] = _sha256(Path(path))
        return path

    def emit(self, filename: str, write) -> str:
        """Write one artifact atomically; `write(path)` fills the file.
        Returns its sha256."""
        path = self.out / filename
        _write_atomic(path, write)
        self._outputs[path] = digest = _sha256(path)
        return digest

    def write(self, filename: str, records, writer) -> None:
        """`writer(records, path)` writes the artifact atomically; the
        records are held for `read` under the sha256 of the bytes."""
        records = list(records)
        self._held[filename] = (self.emit(filename, lambda tmp: writer(records, tmp)), records)

    def read(self, filename: str, produced_by: str, reader):
        """The records of an artifact that exists, was produced under this
        config and has the hash its stage recorded: those `write` held when
        the file still has the bytes written, else `reader(path)`."""
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
        recorded = stage["outputs"].get(filename) if stage else None
        if recorded is None:
            raise StageError(
                f"artifact {filename!r} is not recorded as an output of the "
                f"{produced_by!r} stage in manifest.json; re-run {produced_by!r}"
            )
        digest = _sha256(path)
        if digest != recorded:
            raise StageError(
                f"artifact {filename!r} has changed since the {produced_by!r} stage "
                f"wrote it (sha256 differs from manifest.json); re-run {produced_by!r}"
            )
        self._inputs[path] = digest
        held = self._held.get(filename)
        if held is not None and held[0] == digest:
            return list(held[1])
        return reader(str(path))


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


def ingest_corpora(paths) -> dict[str, list[Document]]:
    """The documents of the structured, target and eval corpora of a
    `RunConfig` or `BenchmarkPaths`, keyed on corpus name. A mention id
    starts with its doc_id, so the two corpora of the graph may not share
    one; the eval corpus never enters the graph."""
    tags = {"structured": "structured", "target": "target", "eval": "target"}
    docs = {
        name: ingest_corpus(getattr(paths, f"{name}_corpus"), tag) for name, tag in tags.items()
    }
    shared = {d.doc_id for d in docs["structured"]} & {d.doc_id for d in docs["target"]}
    if shared:
        raise StageError(
            f"doc_id {min(shared)!r} is in both {paths.structured_corpus} "
            f"and {paths.target_corpus}"
        )
    return docs


def stage_ingest(ws: Workspace) -> None:
    cfg = ws.config
    cfg.validate_paths()
    for name, docs in ingest_corpora(cfg).items():
        ws.input(getattr(cfg, f"{name}_corpus"))
        ws.write(f"documents_{name}.jsonl", docs, write_corpus)
    ws.record_stage("ingest")


def _load_documents(ws: Workspace, filename: str, tag: str) -> list[Document]:
    return ws.read(filename, "ingest", lambda path: ingest_corpus(path, tag))


def stage_mentions(ws: Workspace) -> None:
    cfg = ws.config
    structured_docs = _load_documents(ws, "documents_structured.jsonl", "structured")
    target_docs = _load_documents(ws, "documents_target.jsonl", "target")
    schema = load_schema(ws.input(cfg.schema))
    triples = load_triples(ws.input(cfg.triples), schema)
    seeds = load_concept_seeds(ws.input(cfg.concept_seeds), schema)

    structured = corpus_mentions(structured_docs, cfg.features)
    target = corpus_mentions(target_docs, cfg.features)
    sets = build_mention_sets(structured, target, triples, seeds, schema, cfg.propagation)

    encoder = MentionEncoder()  # encodes each mention once for the six files
    for name, filename in Workspace.MENTION_SET_FILES.items():
        ws.write(filename, sets.get(name), partial(write_labeled_mentions, encoder=encoder))
    for pool, filename in zip((structured, target), Workspace.POOL_FILES):
        ws.write(filename, pool, partial(write_mentions, encoder=encoder))
    ws.record_stage("mentions")


def _load_sets(ws: Workspace) -> MentionSets:
    sets = MentionSets()
    for name, filename in Workspace.MENTION_SET_FILES.items():
        setattr(sets, name, ws.read(filename, "mentions", read_labeled_mentions))
    return sets


def _load_pool(ws: Workspace) -> list[Mention]:
    pool = []
    for filename in Workspace.POOL_FILES:
        pool += ws.read(filename, "mentions", read_mentions)
    return pool


def _load_gold(ws: Workspace) -> list[GoldAnnotation]:
    schema = load_schema(ws.input(ws.config.schema))
    return load_gold(ws.input(ws.config.gold), schema)


def stage_propagate(ws: Workspace) -> None:
    cfg = ws.config
    sets = _load_sets(ws)
    graph = build_graph(sets, VariantSpec.parse(cfg.variant))
    ranking = multirankwalk(graph, relation_seeds(graph, sets.Rs), cfg.propagation)
    ws.emit("ranking.tsv", lambda path: write_ranking(ranking, path))
    ws.emit("graph.tsv", lambda path: write_graph_dump(graph, path))
    ws.record_stage("propagate")


def stage_train(ws: Workspace) -> None:
    cfg = ws.config
    ranking = ws.read("ranking.tsv", "propagate", read_ranking)
    model = fit_model(ranking, _load_sets(ws), _load_pool(ws), cfg.training, cfg.features)
    ws.emit("model.json", lambda path: save_model(model, path))
    ws.record_stage("train")


def stage_extract(ws: Workspace) -> None:
    cfg = ws.config
    model = ws.read("model.json", "train", load_model)
    docs = _load_documents(ws, "documents_eval.jsonl", "target")
    predictions = extract_all(docs, model, cfg.features)
    ws.emit("predictions.tsv", lambda path: write_predictions(predictions, path))
    ws.record_stage("extract")


def stage_eval(ws: Workspace) -> None:
    predictions = ws.read("predictions.tsv", "extract", read_predictions)
    gold = _load_gold(ws)
    report = evaluate(predictions, gold)
    points = pr_curve(predictions, gold)
    ws.emit("report.json", lambda path: write_report(report, path))
    ws.emit("pr_curve.csv", lambda path: write_pr_curve(points, path))
    ws.record_stage("eval")


def stage_sweep(ws: Workspace) -> None:
    """Re-run distill+train+extract+eval across N values and both
    strategies; emits F1-vs-N rows for the configured variant. The CSV is
    written only after every cell has succeeded."""
    cfg = ws.config
    ranking = ws.read("ranking.tsv", "propagate", read_ranking)
    sets = _load_sets(ws)
    pool = _load_pool(ws)
    eval_docs = _load_documents(ws, "documents_eval.jsonl", "target")
    gold = _load_gold(ws)
    variant_name = VariantSpec.parse(cfg.variant).name

    rows = []
    for strategy in ("Both", "Target"):
        for n in cfg.sweep_n:
            tc = replace(cfg.training, n=n, strategy=strategy)
            model = fit_model(ranking, sets, pool, tc, cfg.features)
            micro = evaluate(extract_all(eval_docs, model, cfg.features), gold).micro
            rows.append((strategy, n, micro.precision, micro.recall, micro.f1))

    def write_sweep(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("variant,strategy,n,precision,recall,f1\n")
            for strategy, n, p, r, f1 in rows:
                fh.write(f"{variant_name},{strategy},{n},{p:.12g},{r:.12g},{f1:.12g}\n")

    ws.emit("sweep.csv", write_sweep)
    ws.record_stage("sweep")


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
