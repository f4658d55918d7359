"""The two benchmark workloads.

Each workload has a set-up step (run several times; its median is
`setup_s`; it returns the number of KB triples), an untimed `check` of
what set-up built, a timed pass (`run`) that calls only the program and
the metric functions of its `evaluation` module, and an untimed
`finish` that checks the pass's outputs, digests them and removes what
the pass wrote. The program is called through module attributes, so
the tracer's wrappers see every call.

- scale: the staged pipeline on a 1,000-document target corpus with a
  KB grown with it. Time goes to the JSONL artifacts, labeling with
  concept propagation over about 4k mentions (10k graph nodes), one SGD
  fit, ingest and features.
- extract: one RsRt model trained in set-up on the seed-0 default
  benchmark, then extraction over 1,000 held-out documents and their
  evaluation: the model's read path, which uses the features layer per
  document rather than per corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from layers import STAGES
from reldistill import benchmark, corpus, evaluation, kb, pipeline, training
from reldistill.synthetic import BenchmarkPaths

N = 20


@dataclasses.dataclass
class Quality:
    micro_f1: float
    macro_f1: float
    mrr: float
    map: float


@dataclasses.dataclass
class PassResult:
    attempted: int
    failed: int
    quality: Quality | None = None
    digest: str = ""
    mentions: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    # per-layer figures that the glue measures rather than the tracer
    extra: dict[str, float] = dataclasses.field(default_factory=dict)


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def ranked_answers(predictions, gold) -> tuple[float, float]:
    """MRR and MAP with one query per (doc, relation) of the gold set,
    answers ranked by score, ties by value."""
    answers: dict[tuple[str, str], list] = {}
    for p in predictions:
        answers.setdefault((p.doc_id, p.relation), []).append(p)
    truth: dict[tuple[str, str], set[str]] = {}
    for g in gold:
        truth.setdefault((g.doc_id, g.relation), set()).add(g.value)
    queries = [
        (
            [p.value for p in sorted(answers.get(key, ()), key=lambda p: (-p.score, p.value))],
            values,
        )
        for key, values in sorted(truth.items())
    ]
    mrr, map_, _recall = evaluation.ranking_metrics(queries)
    return mrr, map_


def check_micro(got: tuple, predictions, gold) -> list[str]:
    """Recompute micro precision, recall and F1 from the prediction and
    gold sets and compare them with the program's report."""
    pred = {(p.doc_id, p.relation, p.value) for p in predictions}
    true = {(g.doc_id, g.relation, g.value) for g in gold}
    tp = len(pred & true)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(true) if true else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    if tuple(got) != (p, r, f1):
        return [f"report says micro P/R/F1 {got}, the predictions give {(p, r, f1)}"]
    return []


def micro(report) -> tuple:
    return report.micro.precision, report.micro.recall, report.micro.f1


def count_docs(*paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def prediction_lines(predictions) -> list[str]:
    return sorted(f"{p.doc_id}\t{p.relation}\t{p.value}\t{p.score!r}" for p in predictions)


def load_kb(paths: BenchmarkPaths) -> int:
    schema = kb.load_schema(paths.schema)
    triples = kb.load_triples(paths.triples, schema)
    kb.load_concept_seeds(paths.concept_seeds, schema)
    return len(triples)


class Scale:
    name = "scale"
    # a KB grown with the corpus, as at 10,000 docs with k_true 6,000
    inputs = {"train": {"n_target": 1000, "k_true": 600}}
    setup_reps = 5

    def __init__(self, inputs: dict[str, BenchmarkPaths], workdir: Path, root: Path):
        self.paths = inputs["train"]
        self.workdir = workdir
        self.config = pipeline.RunConfig(
            structured_corpus=self.paths.structured_corpus,
            target_corpus=self.paths.target_corpus,
            eval_corpus=self.paths.eval_corpus,
            schema=self.paths.schema,
            triples=self.paths.triples,
            concept_seeds=self.paths.concept_seeds,
            gold=self.paths.gold,
            variant=["Rs", "Cs", "Rt", "Ct"],
            training=dataclasses.replace(training.TrainConfig(), n=N),
        )
        self.docs = count_docs(
            self.paths.structured_corpus, self.paths.target_corpus, self.paths.eval_corpus
        )
        self.out: Path | None = None

    def setup(self) -> int:
        return load_kb(self.paths)

    def check(self) -> list[str]:
        return []

    def run(self):
        self.out = Path(tempfile.mkdtemp(prefix="scale-", dir=self.workdir))
        ws = pipeline.Workspace(str(self.out), self.config)
        done = 0
        for stage in STAGES:
            try:
                pipeline.STAGES[stage](ws)
            except Exception:
                _report_failure(f"stage {stage}")
                break
            done += 1
        if done < len(STAGES):
            return done, None
        predictions = evaluation.read_predictions(str(self.out / "predictions.tsv"))
        gold = evaluation.load_gold(self.config.gold)
        return done, (predictions, gold, ranked_answers(predictions, gold))

    def finish(self, out, seed: int) -> PassResult:
        try:
            return self._finish(out)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _finish(self, out) -> PassResult:
        done, scored = out
        failed = int(done < len(STAGES))
        res = PassResult(attempted=done + failed, failed=failed)
        res.extra["pipeline.artifact_mb"] = sum(
            p.stat().st_size for p in self.out.iterdir()
        ) / 1e6
        if scored is None:
            res.errors.append("the pipeline did not complete")
            return res
        predictions, gold, (mrr, map_) = scored
        res.mentions = count_docs(
            self.out / "pool_structured.jsonl", self.out / "pool_target.jsonl"
        )
        report = json.loads((self.out / "report.json").read_text())
        got = report["micro"]
        res.errors += check_micro(
            (got["precision"], got["recall"], got["f1"]), predictions, gold
        )
        res.quality = Quality(got["f1"], report["macro_f1"], mrr, map_)
        # the manifest holds the sha256 of every artifact the stages wrote
        res.digest = digest((self.out / "manifest.json").read_bytes())
        return res


class Extract:
    name = "extract"
    # The model is trained on the seed-0 default benchmark whatever the
    # seed: its score set sets the cost of pr_curve (thresholds x
    # predictions), which otherwise varies fourfold across seeds. Only
    # the held-out documents come from the seed.
    inputs = {"train": {"seed": 0}, "heldout": {"n_eval": 1000}}
    setup_reps = 5
    # the sweep cell that set-up trains, as scripts/run_sweep.py names it
    CELL = ("RsRt", "Both", N)

    def __init__(self, inputs: dict[str, BenchmarkPaths], workdir: Path, root: Path):
        self.paths = inputs["train"]
        self.heldout = inputs["heldout"]
        self.root = root
        self.docs = count_docs(self.heldout.eval_corpus)
        self.art = None
        self.model = None
        self.feature_config = None
        self.pool = 0

    def setup(self) -> int:
        triples = load_kb(self.paths)
        art = benchmark.prepare(self.paths)
        config = dataclasses.replace(training.TrainConfig(), n=N, strategy="Both")
        ranking = benchmark.ranking_for(art, ["Rs", "Rt"])
        positives, shortfalls = training.distill(ranking, art.sets, config)
        training_set = training.build_training_set(
            positives, art.pool, art.labeled_ids, config, shortfalls
        )
        self.model = training.train(training_set, config, art.feature_config)
        self.art = art
        self.feature_config = art.feature_config
        self.pool = len(art.pool)
        return triples

    def check(self) -> list[str]:
        """The model is the RsRt/Both N=20 cell of the paper's grid on the
        seed-0 benchmark: on that benchmark's eval documents it must
        reproduce the cell's row of results/sweep.csv."""
        predictions = []
        for doc in self.art.eval_docs:
            predictions.extend(evaluation.extract_document(doc, self.model, self.feature_config))
        r = evaluation.evaluate(predictions, self.art.gold).micro
        prefix = ",".join(map(str, self.CELL)) + ","
        got = prefix + f"{r.precision:.6f},{r.recall:.6f},{r.f1:.6f}"
        with open(self.root / "results" / "sweep.csv", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.startswith(prefix)]
        if rows != [got]:
            return [f"sweep cell {self.CELL}: got {got!r}, results/sweep.csv has {rows!r}"]
        return []

    def run(self):
        docs = corpus.ingest_corpus(self.heldout.eval_corpus, "target")
        gold = evaluation.load_gold(self.heldout.gold)
        predictions, failed = [], 0
        for doc in docs:
            try:
                predictions.extend(
                    evaluation.extract_document(doc, self.model, self.feature_config)
                )
            except Exception:
                failed += 1
                _report_failure(f"extract {doc.doc_id}")
        report = evaluation.evaluate(predictions, gold)
        points = evaluation.pr_curve(predictions, gold)
        ranked = ranked_answers(predictions, gold)
        return len(docs), failed, predictions, gold, report, points, ranked

    def finish(self, out, seed: int) -> PassResult:
        n_docs, failed, predictions, gold, report, points, (mrr, map_) = out
        res = PassResult(attempted=n_docs, failed=failed, mentions=self.pool)
        res.errors += check_micro(micro(report), predictions, gold)
        res.quality = Quality(report.micro.f1, report.macro_f1, mrr, map_)
        res.digest = digest(prediction_lines(predictions), report.to_dict(), points)
        return res


WORKLOADS = {w.name: w for w in (Scale, Extract)}
