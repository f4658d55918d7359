"""End-to-end acceptance gate: one test per headline guarantee, each
checked against an independent oracle or hand-computed constant. Every
test prints a single PASS line on success (visible with pytest -v -s).
"""

import dataclasses
import hashlib
import json
import math
import random
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from reldistill import benchmark
from reldistill.cli import main as cli_main
from reldistill.corpus import ingest_corpus
from reldistill.evaluation import (
    GoldAnnotation,
    Prediction,
    evaluate,
    pr_curve,
    ranking_metrics,
)
from reldistill.features import FeatureConfig
from reldistill.mentions import (
    build_relation_mentions,
    read_labeled_mentions,
    read_mentions,
)
from reldistill.pipeline import Workspace, load_run_config, run_all
from reldistill.propagation import (
    BipartiteGraph,
    PropagationConfig,
    build_graph_from_mentions,
    personalized_pagerank,
)
from reldistill.synthetic import generate_benchmark
from reldistill.training import (
    TrainConfig,
    TrainingSet,
    build_feature_filter,
    classify_scored,
    distill,
    hinge_objective,
    train,
)

from test_propagation import dense_ppr_solve, make_mention
from test_training import batch_subgradient_oracle


def ok(line: str) -> None:
    print(f"PASS {line}")


# --- frozen reference constants -------------------------------------------
# Recorded from scripts/run_benchmark.py (seeds 0-4, variant RsRt, Both,
# N=20) before these assertions were written; the pipeline is fully
# deterministic so reruns must reproduce them.
FROZEN_DISTILLED_MEAN_F1 = 0.9639
FROZEN_BASELINE_MEAN_F1 = 0.8447
FROZEN_GAP = FROZEN_DISTILLED_MEAN_F1 - FROZEN_BASELINE_MEAN_F1
BENCH_VARIANT = ["Rs", "Rt"]
BENCH_CONFIG = dataclasses.replace(TrainConfig(), n=20, strategy="Both")
RESULTS = Path(__file__).resolve().parents[1] / "results"


def random_connected_bipartite(rng: random.Random) -> BipartiteGraph:
    """Random connected bipartite graph, <= 50 nodes, positive weights."""
    n_m = rng.randint(2, 25)
    n_f = rng.randint(1, min(25, 50 - n_m))
    edges: dict[tuple[int, int], float] = {(0, 0): rng.uniform(0.1, 1.0)}
    pending = [("m", i) for i in range(1, n_m)] + [("f", j) for j in range(1, n_f)]
    rng.shuffle(pending)
    seen_m, seen_f = [0], [0]
    for side, k in pending:  # spanning tree keeps the graph connected
        if side == "m":
            edges[(k, rng.choice(seen_f))] = rng.uniform(0.1, 1.0)
            seen_m.append(k)
        else:
            edges[(rng.choice(seen_m), k)] = rng.uniform(0.1, 1.0)
            seen_f.append(k)
    for _ in range(rng.randint(0, 2 * (n_m + n_f))):
        edges.setdefault(
            (rng.randrange(n_m), rng.randrange(n_f)), rng.uniform(0.1, 1.0)
        )

    n = n_m + n_f
    adj = np.zeros((n, n))
    for (i, j), w in edges.items():
        adj[i, n_m + j] = adj[n_m + j, i] = w
    return BipartiteGraph(
        mention_nodes=[f"m{i}" for i in range(n_m)],
        feature_nodes=[f"f{j}" for j in range(n_f)],
        adjacency=sp.csr_matrix(adj),
    )


def test_ppr_matches_dense_solve_on_200_random_graphs():
    rng = random.Random(20260826)
    config = PropagationConfig()
    # CPU time, not wall clock: the budget should not depend on machine load
    start = time.process_time()
    for _ in range(200):
        graph = random_connected_bipartite(rng)
        n_seeds = rng.randint(1, min(3, len(graph.mention_nodes)))
        seeds = set(rng.sample(graph.mention_nodes, n_seeds))
        scores = personalized_pagerank(graph, seeds, config)
        expected = dense_ppr_solve(graph, seeds, config.alpha)
        nodes = graph.mention_nodes + graph.feature_nodes
        err = max(abs(scores[node] - expected[i]) for i, node in enumerate(nodes))
        assert err <= 1e-8
    elapsed = time.process_time() - start
    assert elapsed < 10.0
    ok(f"propagation matches dense linear solve on 200 random graphs "
       f"(L-inf <= 1e-8, {elapsed:.2f}s)")


def test_ppr_two_node_closed_form():
    graph = build_graph_from_mentions(
        [make_mention("m1", {"f": 2, "g": 1}), make_mention("m2", {"g": 1, "h": 1})]
    )
    # after idf drops the shared feature, m1 is linked only to f:
    # p(m1) = a / (1 - (1-a)^2), p(f) = (1-a) * p(m1)
    alpha = 0.15
    scores = personalized_pagerank(
        graph, {"m1"}, PropagationConfig(alpha=alpha, tolerance=1e-14)
    )
    p_m1 = alpha / (1.0 - (1.0 - alpha) ** 2)
    assert scores["m1"] == pytest.approx(p_m1, abs=1e-10)
    assert scores["f"] == pytest.approx((1.0 - alpha) * p_m1, abs=1e-10)
    assert scores["m1"] == pytest.approx(0.5405405405, abs=1e-9)
    ok("two-node propagation matches the closed-form solution to 1e-10")


def test_tfidf_weights_exact_on_five_mention_fixture():
    mentions = [
        make_mention("m1", {"a": 1, "b": 2}),
        make_mention("m2", {"a": 1, "c": 1}),
        make_mention("m3", {"b": 1, "c": 3}),
        make_mention("m4", {"c": 1, "d": 1}),
        make_mention("m5", {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2}),
    ]
    graph = build_graph_from_mentions(mentions)
    expected = {
        ("m1", "a"): 1 * math.log(5 / 3), ("m1", "b"): 2 * math.log(5 / 3),
        ("m2", "a"): 1 * math.log(5 / 3), ("m2", "c"): 1 * math.log(5 / 4),
        ("m3", "b"): 1 * math.log(5 / 3), ("m3", "c"): 3 * math.log(5 / 4),
        ("m4", "c"): 1 * math.log(5 / 4), ("m4", "d"): 1 * math.log(5 / 2),
        ("m5", "a"): 1 * math.log(5 / 3), ("m5", "b"): 1 * math.log(5 / 3),
        ("m5", "c"): 1 * math.log(5 / 4), ("m5", "d"): 1 * math.log(5 / 2),
        ("m5", "e"): 2 * math.log(5 / 1),
    }
    got = {(m, f): w for m, f, w in graph.edges()}
    assert set(got) == set(expected)
    for key, w in expected.items():
        assert got[key] == pytest.approx(w, abs=1e-12)
    universal = build_graph_from_mentions(
        [make_mention(f"u{i}", {"f": 1, f"x{i}": 1}) for i in range(3)]
    )
    assert "f" not in universal.feature_nodes
    ok("all 13 graph edge weights equal hand-computed tf*ln(M/df); "
       "everywhere-features carry no edge")


def test_distant_labeling_hand_enumeration(structured_docs, triples, schema):
    from reldistill.mentions import corpus_mentions

    mentions = corpus_mentions(structured_docs, FeatureConfig())
    strict = build_relation_mentions(mentions, triples, schema, True)
    got = {(lm.mention.mention_id, lm.label) for lm in strict}
    assert got == {
        ("s1|s0|t0|3-10", "sideEffect"),
        ("s1|s1|t0|3-4", "usedToTreat"),
        ("s2|s0|t0|2-3", "sideEffect"),
        ("s2|s1|t0|2-5", "usedToTreat"),
    }
    relaxed = {
        (lm.mention.mention_id, lm.label)
        for lm in build_relation_mentions(mentions, triples, schema, False)
    }
    assert got < relaxed
    # the KB value occurring in a section not mapped to its relation is
    # admitted only when the section constraint is lifted
    assert relaxed - got == {("s1|s2|t0|4-5", "sideEffect")}
    ok("section-constrained distant labels match the hand enumeration; "
       "lifting the constraint gives a strict superset")


def test_benchmark_distilled_beats_direct_baseline():
    # CPU time, not wall clock: the budget should not depend on machine load
    start = time.process_time()
    distilled, baseline = [], []
    for seed in range(5):
        with tempfile.TemporaryDirectory() as tmp:
            paths = generate_benchmark(tmp, seed=seed)
            assert paths.n_true_triples == 200
            assert paths.n_spurious_triples == 60
            art = benchmark.prepare(paths)
            distilled.append(
                benchmark.distilled_report(art, BENCH_VARIANT, BENCH_CONFIG).micro.f1
            )
            baseline.append(
                benchmark.baseline_report(art, "DS_Target", BENCH_CONFIG).micro.f1
            )
    elapsed = time.process_time() - start
    mean_d = statistics.mean(distilled)
    mean_b = statistics.mean(baseline)
    assert mean_d > mean_b
    assert mean_d == pytest.approx(FROZEN_DISTILLED_MEAN_F1, abs=5e-4)
    assert mean_b == pytest.approx(FROZEN_BASELINE_MEAN_F1, abs=5e-4)
    assert (mean_d - mean_b) == pytest.approx(FROZEN_GAP, abs=1e-3)
    assert elapsed < 60.0
    ok(f"benchmark mean F1 {mean_d:.4f} (distilled) > {mean_b:.4f} (direct DS), "
       f"gap {mean_d - mean_b:.4f} as frozen, {elapsed:.1f}s for 5 seeds")


@pytest.fixture(scope="module")
def bench0_paths(tmp_path_factory):
    return generate_benchmark(str(tmp_path_factory.mktemp("bench0")), seed=0)


@pytest.fixture(scope="module")
def bench0(bench0_paths):
    return benchmark.prepare(bench0_paths)


def write_bench0_config(paths, directory: Path, **extra) -> Path:
    """The run config scripts/make_benchmark.py writes, plus `extra`."""
    config_path = directory / "config.json"
    config_path.write_text(json.dumps({
        **{key: getattr(paths, key) for key in (
            "structured_corpus", "target_corpus", "eval_corpus", "schema",
            "triples", "concept_seeds", "gold",
        )},
        "variant": BENCH_VARIANT,
        **extra,
    }))
    return config_path


def test_cli_sweep_and_harness_reproduce_committed_sweep(bench0_paths, bench0, tmp_path):
    """The CLI stages and the in-process harness share one pipeline core:
    both give the committed RsRt N=20 rows of results/sweep.csv."""
    committed = {}
    with open(RESULTS / "sweep.csv", encoding="utf-8") as fh:
        for line in fh:
            variant, strategy, n, *prf = line.strip().split(",")
            if variant == "RsRt" and n == "20":
                committed[strategy] = ",".join(prf)
    assert set(committed) == {"Both", "Target"}

    def fmt(p, r, f1):
        return f"{p:.6f},{r:.6f},{f1:.6f}"

    harness = {}
    for strategy in committed:
        config = dataclasses.replace(BENCH_CONFIG, strategy=strategy)
        m = benchmark.distilled_report(bench0, BENCH_VARIANT, config).micro
        harness[strategy] = fmt(m.precision, m.recall, m.f1)
    assert harness == committed

    config_path = write_bench0_config(bench0_paths, tmp_path, sweep_n=[20])
    out = tmp_path / "out"
    for cmd in ("ingest", "mentions", "propagate", "sweep"):
        assert cli_main(["--config", str(config_path), "--out", str(out), cmd]) == 0
    cli = {}
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        variant, strategy, n, *prf = line.split(",")
        assert (variant, n) == ("RsRt", "20")
        cli[strategy] = fmt(*map(float, prf))
    assert cli == committed
    ok(f"CLI sweep and benchmark harness both reproduce the committed RsRt "
       f"N=20 rows (Both {committed['Both']}, Target {committed['Target']})")


# sha256 of the seed-0 artifacts of `reldistill run` (+ `sweep`) with the
# config scripts/make_benchmark.py writes, recorded before the array
# kernels of propagation and training replaced the per-element loops.
# The documents, mention sets and pools were recorded before `run` began
# to hand their decoded records from stage to stage instead of reading
# the files back, so the bytes of the files it no longer reads stay pinned.
GOLDEN_SHA256 = {
    "documents_structured.jsonl": "34814ca706abe842dccfcfe9ee8557a6b89004b03a92b96d1abdd693dde3a932",
    "documents_target.jsonl": "b5c30c2afc0fd88d2f8edddf6999f2cdda4b516edb09093d37a31ccda27c2f49",
    "documents_eval.jsonl": "af8daeb5e72f43d67349d777b56d937d3d35767be684282a20c951ba1c3eb925",
    "mentions_Rs.jsonl": "c77f23ddd1b316e147268b1249fadf99984d367bf54e9db052b5e5120bf171af",
    "mentions_Rt.jsonl": "14d0a959cd16a6a7d93a31d8c408bb2aaba70ad8a6be3126bf6413e430adc6cc",
    "mentions_Cs.jsonl": "32bd70453ac979387cc10ca1ff54018a1d8c5866c06a05027332fb5b986997fb",
    "mentions_Ct.jsonl": "e115ba7bd3c02345e0868d1009f5c39bae5dff4cee9e0034160d4b02f4d05473",
    "pool_structured.jsonl": "efa4954d04b25efc9c86d57eee9b072f834cbb007d18b8fc8f3260e2a7a86894",
    "pool_target.jsonl": "81fe0e15c9cc5507f20c40fc1442368af398e3939d417cec7cab2a4c33b3f504",
    "graph.tsv": "e6119951db695a0992e487068a0f3c817c86759727ad4bca7c3b197537a445ae",
    "ranking.tsv": "b1c085953f54fd8f3ecf8d2ab86628b641db6e2330664a5c6f52b3177abae85c",
    "model.json": "368c580f621c5898d428383dc5bb1392380ecc39bcf6931346d61c36d8b678c6",
    "predictions.tsv": "c23acb039ac552139fb7b5c44a3e9a6b7e6848ef868c6314a91a6576b033fb7d",
    "report.json": "d76d1b12416e88a9ec7c911b34b97a6ddf080c393fd2f3b35599d6245a904ba3",
    "pr_curve.csv": "4a1dc6cae34d111ff4912eddc528c5952a806daba64f47c8f7f5120890c4c768",
    "sweep.csv": "ffe5874d007b7f89ca59d47f3e83065dade302492fbdda7c7854c468746666d4",
}


@pytest.fixture(scope="module")
def bench0_run(bench0_paths, tmp_path_factory):
    """`reldistill run` then `sweep` on the seed-0 benchmark."""
    tmp = tmp_path_factory.mktemp("bench0_run")
    config_path = write_bench0_config(bench0_paths, tmp)
    out = tmp / "out"
    for cmd in ("run", "sweep"):
        assert cli_main(["--config", str(config_path), "--out", str(out), cmd]) == 0
    return out


def test_seed0_artifacts_match_golden_hashes(bench0_run):
    got = {
        name: hashlib.sha256((bench0_run / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256
    ok(f"seed-0 run + sweep reproduce the golden sha256 of {len(got)} artifacts")


def test_run_hands_on_records_equal_to_their_files(bench0_paths, tmp_path):
    """After `run_all` the workspace serves the documents, mention sets
    and pools it wrote without decoding them, and what it serves equals
    a fresh decode of the file: no stage mutates the records it hands
    on. Each file's sha256 is the one its stage recorded."""
    config = load_run_config(str(write_bench0_config(bench0_paths, tmp_path)))
    ws = Workspace(str(tmp_path / "out"), config)
    run_all(ws)
    manifest = json.loads(ws.manifest_path.read_text())

    def documents(tag):
        return lambda path: ingest_corpus(path, tag)

    readers = {
        "documents_structured.jsonl": ("ingest", documents("structured")),
        "documents_target.jsonl": ("ingest", documents("target")),
        "documents_eval.jsonl": ("ingest", documents("target")),
        **{name: ("mentions", read_labeled_mentions)
           for name in Workspace.MENTION_SET_FILES.values()},
        **{name: ("mentions", read_mentions) for name in Workspace.POOL_FILES},
    }

    def must_not_decode(path):
        raise AssertionError(f"{path} was decoded, not handed on")

    for name, (stage, reader) in readers.items():
        held = ws.read(name, stage, must_not_decode)
        assert held == reader(str(ws.out / name)), name
        digest = hashlib.sha256((ws.out / name).read_bytes()).hexdigest()
        assert digest == manifest["stages"][stage]["outputs"][name], name
    ok(f"run hands on {len(readers)} artifacts whose records equal a fresh "
       f"decode and whose sha256 the manifest records")


def test_manifest_records_every_file_train_and_sweep_read(bench0_paths, bench0_run):
    manifest = json.loads((bench0_run / "manifest.json").read_text())

    def artifacts(*names):
        return {name: bench0_run / name for name in names}

    def given(*keys):
        paths = [Path(getattr(bench0_paths, key)) for key in keys]
        return {path.name: path for path in paths}

    sets = artifacts(
        "mentions_Rs.jsonl", "mentions_Rt.jsonl", "mentions_Cs.jsonl", "mentions_Ct.jsonl"
    )
    read = {
        **artifacts("ranking.tsv", "pool_structured.jsonl", "pool_target.jsonl"), **sets
    }
    expected = {
        "ingest": given("structured_corpus", "target_corpus", "eval_corpus"),
        "mentions": {
            **artifacts("documents_structured.jsonl", "documents_target.jsonl"),
            **given("schema", "triples", "concept_seeds"),
        },
        "propagate": sets,
        "train": read,
        "extract": artifacts("model.json", "documents_eval.jsonl"),
        "sweep": {**read, **artifacts("documents_eval.jsonl"), **given("gold", "schema")},
        "eval": {**artifacts("predictions.tsv"), **given("gold", "schema")},
    }
    for stage, files in expected.items():
        inputs = manifest["stages"][stage]["inputs"]
        assert set(inputs) == set(files), stage
        for name, path in files.items():
            assert inputs[name] == hashlib.sha256(path.read_bytes()).hexdigest(), name
    ok(f"manifest inputs of all {len(expected)} stages name and hash every file they read")


def test_distillation_strategy_semantics(bench0):
    ranking = benchmark.ranking_for(bench0, BENCH_VARIANT)
    target_cfg = dataclasses.replace(BENCH_CONFIG, strategy="Target")
    target_pos, _ = distill(ranking, bench0.sets, target_cfg)
    for relation, mentions in target_pos.items():
        assert all(m.corpus_tag == "target" for m in mentions), relation

    both_pos, _ = distill(ranking, bench0.sets, BENCH_CONFIG)
    by_id = {
        lm.mention.mention_id: lm.mention
        for name in ("Rs", "Rt", "Cs", "Ct")
        for lm in bench0.sets.get(name)
    }
    for relation, mentions in both_pos.items():
        prefix = [
            mid for mid, _ in ranking.per_class[relation] if mid in by_id
        ][: BENCH_CONFIG.n]
        assert [m.mention_id for m in mentions] == prefix, relation
    ok("Target strategy keeps only target-corpus mentions; Both equals the "
       "unfiltered ranking prefix")


def test_metric_identities_on_1000_random_sets():
    rng = random.Random(99)
    for _ in range(1000):
        docs = [f"d{i}" for i in range(rng.randint(1, 3))]
        rels = ["r", "q"]
        gold = [
            GoldAnnotation(rng.choice(docs), rng.choice(rels), f"v{rng.randint(0, 6)}")
            for _ in range(rng.randint(1, 8))
        ]
        gold_docs = sorted({g.doc_id for g in gold})
        preds = [
            Prediction(
                rng.choice(gold_docs), rng.choice(rels), f"v{rng.randint(0, 9)}",
                round(rng.random(), 2),
            )
            for _ in range(rng.randint(0, 12))
        ]
        report = evaluate(preds, gold)
        for m in [report.micro, *report.per_relation.values()]:
            assert m.f1 * (m.precision + m.recall) == pytest.approx(
                2 * m.precision * m.recall, abs=1e-12
            )
        recalls = [r for _, _, r in pr_curve(preds, gold)]
        assert recalls == sorted(recalls)
    ok("F1 harmonic identity and recall monotonicity hold on 1000 random "
       "prediction/gold sets")


def test_ranking_metric_hand_arithmetic():
    mrr, ap, rec = ranking_metrics([(["b", "a"], {"a"})])
    assert mrr == pytest.approx(0.5) and ap == pytest.approx(0.5)
    mrr, ap, rec = ranking_metrics(
        [
            (["a", "b"], {"a"}),
            (["b", "a"], {"a"}),
            (["x", "y", "b"], {"a", "b"}),
        ]
    )
    assert mrr == pytest.approx((1 + 0.5 + 1 / 3) / 3)
    assert ap == pytest.approx((1 + 0.5 + 1 / 6) / 3)
    assert rec == pytest.approx((1 + 1 + 0.5) / 3)
    ok("MRR/MAP/mean-recall hand fixtures match exactly "
       "(single-query [b,a] vs {a} gives MRR = MAP = 0.5)")


def test_pipeline_determinism_byte_identical(run_config_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["--config", str(run_config_file), "--out", str(out), "run"])
        assert rc == 0
        outs.append(out)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    manifest = json.loads((a / "manifest.json").read_text())
    assert len(manifest["config_hash"]) == 64
    ok(f"two full pipeline runs produced byte-identical artifacts "
       f"({len(names)} files including the manifest)")


def test_learner_separable_accuracy_and_objective():
    def mk(mid, features):
        return make_mention(mid, features)

    pos = [mk(f"p{i}", {"tok=nausea": 1, "bow=include": 1, f"bow=x{i % 3}": 1})
           for i in range(10)]
    neg = [mk(f"n{i}", {"tok=bottle": 1, "bow=store": 1, f"bow=x{i % 3}": 1})
           for i in range(10)]
    filt = build_feature_filter([m.feature_counts() for m in pos + neg])
    ts = TrainingSet(positives={"rel": pos}, negatives=neg, feature_filter=filt)

    acc_model = train(ts, TrainConfig(n=10, epochs=200, rng_seed=3), FeatureConfig())
    correct = sum(classify_scored(acc_model, m)[0] == "rel" for m in pos)
    correct += sum(classify_scored(acc_model, m)[0] == "other" for m in neg)
    assert correct == len(pos) + len(neg)

    config = TrainConfig(
        n=10, epochs=1000, rng_seed=3, calibration="raw_margin", reg_lambda=0.1
    )
    model = train(ts, config, FeatureConfig())
    feats = sorted(filt.allowed)
    fi = {f: i for i, f in enumerate(feats)}
    rows = []
    for m in pos + neg:
        v = np.zeros(len(feats))
        for f, c in filt.apply(m.feature_counts()).items():
            v[fi[f]] = c
        rows.append(v)
    x = sp.csr_matrix(np.array(rows))
    y = np.array([1.0] * len(pos) + [-1.0] * len(neg))
    rm = model.relations["rel"]
    w = np.array([rm.weights.get(f, 0.0) for f in feats])
    sgd_obj = hinge_objective(x, y, w, rm.bias, config.reg_lambda)
    oracle_obj, _, _ = batch_subgradient_oracle(x, y, config.reg_lambda)
    assert sgd_obj <= oracle_obj * 1.01
    ok(f"separable training accuracy 1.0; objective {sgd_obj:.6f} within 1% "
       f"of the batch-oracle optimum {oracle_obj:.6f}")
