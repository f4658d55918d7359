"""Staged pipeline orchestration with checkpointed artifacts and a
provenance manifest. Each stage reads the previous stage's files, writes
its own, and records input/output hashes plus the run-config hash so
incompatible artifacts cannot be mixed. A stage refuses an artifact
whose sha256 is not the one its producing stage recorded, or made from
files a re-run replaced (`Workspace.stage`). Every artifact is written
through a temp file and `os.replace`: a failed write keeps the old one.

The `Workspace` decodes `manifest.json` once, when it is made, and
builds the running stage's record as the stage verifies or writes each
artifact and hands each run-config input, by name, to `input`; the
record enters the manifest once the stage completes. It also holds the
records it wrote for the documents, mention sets and pools; a later
stage on the same workspace whose verified file hash equals the held
one takes those records instead of decoding the file.

`ingest_corpora`, `label_mentions`, `propagate`, `fit_model`, `extract_all`
and `sweep_cells` are the in-process core of the method (ingest, distant
labeling, propagation, distill and train, extract, the strategy × top-N
grid). They write nothing: the stages wrap them with artifact reads and
writes, and `benchmark` and `scripts/run_sweep.py` call them alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .corpus import Document, ingest_corpus, write_corpus
from .decode import InputError, decode, json_file, required
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
    write_sweep,
)
from .features import FeatureConfig, FeatureTable, Mention
from .kb import ConceptSeed, RelationSchema, Triple, load_concept_seeds, load_schema, load_triples
from .mentions import (
    LEGAL_VARIANTS,
    SET_NAMES,
    MentionEncoder,
    MentionSets,
    VariantSpec,
    build_mention_sets,
    corpus_mentions,
    read_labeled_mentions,
    read_mentions,
    write_labeled_mentions,
    write_mentions,
)
from .propagation import (
    BipartiteGraph,
    PropagationConfig,
    RankedLabeling,
    build_graph,
    multirankwalk,
    read_ranking,
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


# corpus name -> the corpus_tag of its documents; the eval corpus is
# held-out target text, and the other two build the graph
CORPUS_TAGS = {"structured": "structured", "target": "target", "eval": "target"}
_GRAPH_CORPORA = ("structured", "target")


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
        # min's default refuses an empty grid, which would write a header-only sweep.csv
        if min(self.sweep_n, default=0) < 1 or len(set(self.sweep_n)) < len(self.sweep_n):
            raise InputError(
                "run config: 'sweep_n' must be a list of distinct positive integers, "
                f"got {self.sweep_n!r}"
            )
        variant = frozenset(self.variant)
        if len(variant) < len(self.variant) or variant not in LEGAL_VARIANTS:
            raise InputError(
                "run config: 'variant' must be a list of distinct set names, Rs plus "
                f"at least one of {', '.join(SET_NAMES[1:])}, got {self.variant!r}"
            )

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        return decode(cls, obj, "run config")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def input_path(self, name: str) -> str:
        """The path of the input field `name`, refused unless it is a file."""
        if not Path(path := getattr(self, name)).is_file():
            raise InputError(f"config path {name} does not exist: {path}")
        return path

    def validate_paths(self) -> None:
        for name in (f.name for f in fields(self) if required(f)):
            self.input_path(name)


def load_run_config(path: str) -> RunConfig:
    return RunConfig.from_dict(json_file(path, "run config"))


_HASH_BLOCK = 1 << 20  # bytes read at a time to hash a file


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


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


@dataclass
class StageRecord:
    config_hash: str
    inputs: dict[str, str]  # filename -> sha256
    outputs: dict[str, str]


# the shape of manifest.json: the run-config hash of the last stage run
# and each stage's record
@dataclass
class Manifest:
    config_hash: str
    stages: dict[str, StageRecord]


class Workspace:
    """Output directory plus the provenance manifest, decoded once when the
    workspace is made, the running stage's record of the files it read and
    wrote with their sha256, and the records written with `write`, keyed
    on filename with the sha256 of the bytes. A workspace owns its
    directory for its lifetime: only its own stages change the manifest."""

    MENTION_SET_FILES = {name: f"mentions_{name}.jsonl" for name in SET_NAMES}
    POOL_FILES = tuple(f"pool_{name}.jsonl" for name in _GRAPH_CORPORA)

    def __init__(self, out_dir: str, config: RunConfig):
        self.out = Path(out_dir)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:  # a file in the way
            raise InputError(
                f"output directory {out_dir!r} cannot be made: {exc.strerror}"
            ) from None
        self.config = config
        self.config_hash = config.config_hash()
        self.manifest_path = self.out / "manifest.json"
        self.manifest = Manifest(self.config_hash, {})
        if self.manifest_path.is_file():
            path = str(self.manifest_path)
            self.manifest = decode(Manifest, json_file(path, "manifest"), f"manifest {path!r}")
        self._held: dict[str, tuple[str, list]] = {}
        self._record = StageRecord(self.config_hash, {}, {})

    @contextmanager
    def stage(self, stage: str):
        """Record the files the body reads and writes, with their sha256, as
        `stage`'s; a body that raises records nothing. A completed stage
        retires each record that read another version of a file it wrote,
        and so on downstream; one that writes the same bytes retires none."""
        record = self._record = StageRecord(self.config_hash, {}, {})
        yield
        # a read after the stage, outside any, must not change its record
        self._record = StageRecord(self.config_hash, {}, {})
        # a record is stale once it read a file in a version other than the
        # current one: this stage's files have the digests just taken, and
        # a retired stage's files have none
        stages, current = {**self.manifest.stages, stage: record}, dict(record.outputs)
        while stale := [name for name, other in stages.items()
                        if any(current.get(f, d) != d for f, d in other.inputs.items())]:
            current.update((f, None) for name in stale for f in stages.pop(name).outputs)
        manifest = Manifest(self.config_hash, stages)
        text = json.dumps(asdict(manifest), sort_keys=True, indent=1) + "\n"
        _write_atomic(self.manifest_path, lambda tmp: Path(tmp).write_text(text))
        self.manifest = manifest

    def _record_input(self, name: str, digest: str) -> None:
        """Record the file `name` with sha256 `digest` as read by the running
        stage. The record keys its inputs by file name, so a second file
        of that name with other bytes is refused rather than lost."""
        if self._record.inputs.setdefault(name, digest) != digest:
            raise InputError(f"two different inputs of one stage are named {name!r}; rename one")

    def input(self, name: str) -> str:
        """The path of the run-config input `name`, checked, then recorded as read."""
        path = self.config.input_path(name)
        self._record_input(Path(path).name, _sha256(Path(path)))
        return path

    def emit(self, filename: str, writer, obj) -> str:
        """Write one artifact atomically, `writer(obj, path)` filling the
        file. Returns its sha256."""
        path = self.out / filename
        _write_atomic(path, partial(writer, obj))
        self._record.outputs[filename] = digest = _sha256(path)
        return digest

    def write(self, filename: str, writer, records) -> None:
        """`emit` the records, and hold them for `read` under the sha256
        of the bytes."""
        records = list(records)
        self._held[filename] = (self.emit(filename, writer, records), records)

    def read(self, filename: str, produced_by: str, reader):
        """The records of an artifact that exists, was produced under this
        config and has the hash its stage recorded: those `write` held when
        the file still has the bytes written, else `reader(path)`."""
        path = self.out / filename
        if not path.is_file():
            raise InputError(
                f"artifact {filename!r} missing; run the {produced_by!r} command first"
            )
        stage = self.manifest.stages.get(produced_by)
        if stage and stage.config_hash != self.config_hash:
            raise InputError(
                f"artifact {filename!r} was produced with a different config "
                f"(manifest.json records another config_hash); re-run {produced_by!r}"
            )
        recorded = stage.outputs.get(filename) if stage else None
        if recorded is None:
            raise InputError(
                f"artifact {filename!r} is not recorded as an output of the "
                f"{produced_by!r} stage in manifest.json; re-run {produced_by!r}"
            )
        digest = _sha256(path)
        if digest != recorded:
            raise InputError(
                f"artifact {filename!r} has changed since the {produced_by!r} stage "
                f"wrote it (sha256 differs from manifest.json); re-run {produced_by!r}"
            )
        self._record_input(filename, digest)
        held = self._held.get(filename)
        if held is not None and held[0] == digest:
            return list(held[1])
        return reader(str(path))


def label_mentions(
    structured_docs: list[Document],
    target_docs: list[Document],
    schema: RelationSchema,
    triples: list[Triple],
    seeds: list[ConceptSeed],
    features: FeatureConfig,
    propagation: PropagationConfig,
) -> tuple[MentionSets, tuple[list[Mention], list[Mention]]]:
    """Distant labeling: the Rs/Rt/Cs/Ct sets and each graph corpus's mentions (its pool),
    their features rows of one table."""
    table = FeatureTable()
    pools = tuple(corpus_mentions(docs, features, table) for docs in (structured_docs, target_docs))
    return build_mention_sets(*pools, triples, seeds, schema, propagation), pools


def propagate(
    sets: MentionSets, variant: VariantSpec, propagation: PropagationConfig
) -> tuple[BipartiteGraph, RankedLabeling]:
    """The variant's graph and its walk, one class per relation seeded on its Rs mentions."""
    graph = build_graph(sets, variant)
    seeds: dict[str, set[str]] = {}
    for lm in sets.Rs:
        seeds.setdefault(lm.label, set()).add(lm.mention.mention_id)
    ranking = multirankwalk(graph, seeds, propagation)
    if not ranking.per_class:
        raise ValueError("no Rs seed mentions survive in the propagation graph")
    return graph, ranking


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
    training_set = build_training_set(
        positives, pool, sets.labeled_ids(), train_config, shortfalls
    )
    return train(training_set, train_config, feature_config)


def extract_all(docs: list[Document], model: LinearModel) -> list[Prediction]:
    predictions = []
    for doc in docs:
        predictions.extend(extract_document(doc, model, model.feature_config))
    return predictions


def sweep_cells(
    ranking: RankedLabeling, sets: MentionSets, pool: list[Mention],
    eval_docs: list[Document], gold: list[GoldAnnotation],
    variant: VariantSpec, ns: list[int], train_config: TrainConfig, feature_config: FeatureConfig,
):
    """For each cell of the strategies `variant` can feed × the top-N values
    `ns`, fit a model and score it on the eval documents; yields (strategy,
    n, micro scores). A cell's error is raised again, of its class, naming the cell."""
    for strategy in variant.strategies:
        for n in ns:
            config = replace(train_config, n=n, strategy=strategy)
            try:
                model = fit_model(ranking, sets, pool, config, feature_config)
                yield strategy, n, evaluate(extract_all(eval_docs, model), gold).micro
            except ValueError as exc:
                raise type(exc)(f"sweep cell {variant.name}/{strategy}/N={n}: {exc}") from exc


def ingest_corpora(paths) -> dict[str, list[Document]]:
    """The documents of the structured, target and eval corpora of a
    `RunConfig` or `BenchmarkPaths`, keyed on corpus name. A mention id
    starts with its doc_id, so the two corpora of the graph may not share
    one; the eval corpus never enters the graph."""
    docs = {
        name: ingest_corpus(getattr(paths, f"{name}_corpus"), tag)
        for name, tag in CORPUS_TAGS.items()
    }
    shared = {d.doc_id for d in docs["structured"]} & {d.doc_id for d in docs["target"]}
    if shared:
        raise InputError(
            f"doc_id {min(shared)!r} is in both {paths.structured_corpus} "
            f"and {paths.target_corpus}"
        )
    return docs


def stage_ingest(ws: Workspace) -> None:
    cfg = ws.config
    with ws.stage("ingest"):
        cfg.validate_paths()
        for name, docs in ingest_corpora(cfg).items():
            ws.input(f"{name}_corpus")
            ws.write(f"documents_{name}.jsonl", write_corpus, docs)


def _load_documents(ws: Workspace, name: str) -> list[Document]:
    return ws.read(
        f"documents_{name}.jsonl", "ingest", lambda path: ingest_corpus(path, CORPUS_TAGS[name])
    )


def stage_mentions(ws: Workspace) -> None:
    cfg = ws.config
    with ws.stage("mentions"):
        docs = [_load_documents(ws, name) for name in _GRAPH_CORPORA]
        schema = load_schema(ws.input("schema"))
        triples = load_triples(ws.input("triples"), schema)
        seeds = load_concept_seeds(ws.input("concept_seeds"), schema)
        sets, pools = label_mentions(*docs, schema, triples, seeds, cfg.features, cfg.propagation)
        if not sets.Rs:  # every variant walks from Rs
            titles = {doc.title_entity for doc in docs[0]}
            hits = sum(t.subject in titles for t in triples)
            raise InputError(f"{cfg.triples}: Rs is empty: {hits} of {len(triples)} triples have "
                             "a subject that is a structured document's title entity")

        encoder = MentionEncoder()  # encodes each mention once for the six files
        for name, filename in Workspace.MENTION_SET_FILES.items():
            ws.write(filename, partial(write_labeled_mentions, encoder=encoder), sets.get(name))
        for pool, filename in zip(pools, Workspace.POOL_FILES):
            ws.write(filename, partial(write_mentions, encoder=encoder), pool)


def _load_mentions(ws: Workspace, with_pool: bool) -> tuple[MentionSets, list[Mention]]:
    """The four sets and, `with_pool`, the pool, their features rows of one table."""
    table, sets, pool = FeatureTable(), MentionSets(), []
    for name, filename in Workspace.MENTION_SET_FILES.items():
        setattr(sets, name, ws.read(filename, "mentions", partial(read_labeled_mentions, table=table)))
    for filename in Workspace.POOL_FILES if with_pool else ():
        pool += ws.read(filename, "mentions", partial(read_mentions, table=table))
    return sets, pool


def _load_gold(ws: Workspace) -> list[GoldAnnotation]:
    schema = load_schema(ws.input("schema"))
    return load_gold(ws.input("gold"), schema)


def stage_propagate(ws: Workspace) -> None:
    cfg = ws.config
    with ws.stage("propagate"):
        sets, _ = _load_mentions(ws, with_pool=False)
        graph, ranking = propagate(sets, VariantSpec.parse(cfg.variant), cfg.propagation)
        ws.emit("ranking.tsv", write_ranking, ranking)
        ws.emit("graph.tsv", write_graph_dump, graph)


def stage_train(ws: Workspace) -> None:
    cfg = ws.config
    with ws.stage("train"):
        ranking = ws.read("ranking.tsv", "propagate", read_ranking)
        model = fit_model(ranking, *_load_mentions(ws, with_pool=True), cfg.training, cfg.features)
        ws.emit("model.json", save_model, model)


def stage_extract(ws: Workspace) -> None:
    with ws.stage("extract"):
        # `read` hands over only the model the `train` record of this config made
        model = ws.read("model.json", "train", load_model)
        predictions = extract_all(_load_documents(ws, "eval"), model)
        ws.emit("predictions.tsv", write_predictions, predictions)


def stage_eval(ws: Workspace) -> None:
    with ws.stage("eval"):
        predictions = ws.read("predictions.tsv", "extract", read_predictions)
        gold = _load_gold(ws)
        report = evaluate(predictions, gold)
        points = pr_curve(predictions, gold)
        ws.emit("report.json", write_report, report)
        ws.emit("pr_curve.csv", write_pr_curve, points)


def stage_sweep(ws: Workspace) -> None:
    """Re-run distill+train+extract+eval over `sweep_cells`, the strategies
    the configured variant can feed × the N values of `sweep_n`; emits
    F1-vs-N rows. The CSV is written only after every cell has succeeded."""
    cfg = ws.config
    with ws.stage("sweep"):
        variant = VariantSpec.parse(cfg.variant)
        cells = sweep_cells(
            ws.read("ranking.tsv", "propagate", read_ranking), *_load_mentions(ws, with_pool=True),
            _load_documents(ws, "eval"), _load_gold(ws),
            variant, cfg.sweep_n, cfg.training, cfg.features,
        )
        rows = [(variant.name, *cell) for cell in cells]
        ws.emit("sweep.csv", partial(write_sweep, fmt=".12g"), rows)


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
