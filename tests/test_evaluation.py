import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reldistill.evaluation import (
    GoldAnnotation,
    Prediction,
    evaluate,
    load_gold,
    pr_curve,
    ranking_metrics,
    run_baseline,
)
from reldistill.benchmark import BenchmarkArtifacts, baseline_report
from reldistill.features import FeatureConfig, FeatureTable
from reldistill.kb import RelationSchema
from reldistill.mentions import MentionSets, build_relation_mentions, corpus_mentions
from reldistill.propagation import PropagationConfig
from reldistill.training import TrainConfig


def P(doc, rel, value, score=1.0):
    return Prediction(doc, rel, value, score)


def G(doc, rel, value):
    return GoldAnnotation(doc, rel, value)


class TestEvaluate:
    def test_macro_f1_sums_left_to_right(self):
        # per-relation F1 1, 1/3 and 1: the left-to-right mean is
        # 0.7777777777777777, a compensated sum's 0.7777777777777778
        gold = [G("d", "a", "x"), G("d", "c", "x")] + [G("d", "b", v) for v in "wxyz"]
        preds = [P("d", "a", "x"), P("d", "b", "x"), P("d", "b", "v"), P("d", "c", "x")]
        report = evaluate(preds, gold)
        f1s = [report.per_relation[r].f1 for r in "abc"]
        assert f1s == [1.0, 1 / 3, 1.0]
        assert math.fsum(f1s) / 3 == 0.7777777777777778
        assert report.macro_f1 == 0.7777777777777777

    def test_perfect(self):
        gold = [G("d1", "r", "a"), G("d1", "r", "b")]
        preds = [P("d1", "r", "a"), P("d1", "r", "b")]
        report = evaluate(preds, gold)
        assert report.micro.precision == report.micro.recall == report.micro.f1 == 1.0

    def test_hand_arithmetic(self):
        # 2 predictions, 1 correct, 4 gold -> P=0.5, R=0.25, F1=1/3
        gold = [G("d1", "r", v) for v in "abcd"]
        preds = [P("d1", "r", "a"), P("d1", "r", "z")]
        report = evaluate(preds, gold)
        assert report.micro.precision == pytest.approx(0.5)
        assert report.micro.recall == pytest.approx(0.25)
        assert report.micro.f1 == pytest.approx(1 / 3)

    def test_empty_predictions(self):
        report = evaluate([], [G("d1", "r", "a")])
        assert report.micro.precision == 0.0
        assert report.micro.recall == 0.0
        assert report.micro.f1 == 0.0

    def test_unknown_doc_rejected(self):
        with pytest.raises(ValueError, match="d9"):
            evaluate([P("d9", "r", "a")], [G("d1", "r", "a")])

    def test_order_and_duplicate_invariance(self):
        gold = [G("d1", "r", "a"), G("d1", "q", "b")]
        preds = [P("d1", "r", "a"), P("d1", "q", "z")]
        r1 = evaluate(preds, gold)
        r2 = evaluate(list(reversed(preds)) + preds, gold)
        assert r1.micro == r2.micro

    def test_per_relation_breakdown(self):
        gold = [G("d1", "r", "a"), G("d1", "q", "b")]
        preds = [P("d1", "r", "a")]
        report = evaluate(preds, gold)
        assert report.per_relation["r"].f1 == 1.0
        assert report.per_relation["q"].f1 == 0.0
        assert report.macro_f1 == pytest.approx(0.5)


class TestPRCurve:
    def test_perfect_ranking(self):
        gold = [G("d1", "r", "a"), G("d1", "r", "b")]
        preds = [P("d1", "r", "a", 0.9), P("d1", "r", "b", 0.8), P("d1", "r", "z", 0.1)]
        points = pr_curve(preds, gold)
        assert points[0] == (0.9, 1.0, 0.5)
        assert points[1] == (0.8, 1.0, 1.0)
        assert points[2][1] < 1.0 and points[2][2] == 1.0

    def test_single_correct_prediction(self):
        points = pr_curve([P("d1", "r", "a", 0.7)], [G("d1", "r", "a")])
        assert points == [(0.7, 1.0, 1.0)]

    def test_hand_computed_sweep(self):
        # 6 scored predictions, 4 gold; points enumerated by hand
        gold = [G("d", "r", v) for v in "abcd"]
        preds = [
            P("d", "r", "a", 0.9),
            P("d", "r", "x", 0.8),
            P("d", "r", "b", 0.7),
            P("d", "r", "c", 0.6),
            P("d", "r", "y", 0.5),
            P("d", "r", "d", 0.4),
        ]
        points = pr_curve(preds, gold)
        assert points == [
            (0.9, 1.0, 0.25),
            (0.8, 0.5, 0.25),
            (0.7, 2 / 3, 0.5),
            (0.6, 0.75, 0.75),
            (0.5, 0.6, 0.75),
            (0.4, 4 / 6, 1.0),
        ]

    def test_recall_monotone(self):
        rng = random.Random(0)
        gold = [G("d", "r", f"v{i}") for i in range(10)]
        preds = [P("d", "r", f"v{rng.randint(0, 20)}", rng.random()) for _ in range(30)]
        points = pr_curve(preds, gold)
        recalls = [r for _, _, r in points]
        assert recalls == sorted(recalls)


class TestRankingMetrics:
    def test_first_rank(self):
        mrr, ap, rec = ranking_metrics([(["a", "b"], {"a"})])
        assert (mrr, ap, rec) == (1.0, 1.0, 1.0)

    def test_second_rank(self):
        mrr, ap, rec = ranking_metrics([(["b", "a"], {"a"})])
        assert mrr == pytest.approx(0.5)
        assert ap == pytest.approx(0.5)
        assert rec == 1.0

    def test_empty_ranking_contributes_zero(self):
        mrr, ap, rec = ranking_metrics([(["a"], {"a"}), ([], {"b"})])
        assert mrr == pytest.approx(0.5)
        assert ap == pytest.approx(0.5)
        assert rec == pytest.approx(0.5)

    def test_query_with_empty_gold_refused_by_index(self):
        # it has no reciprocal rank or average precision: counting it in
        # the mean while skipping it in the sums read (0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"^query 1 has an empty gold set$"):
            ranking_metrics([(["a"], {"a"}), (["b"], set())])

    def test_no_queries_refused(self):
        # with no query there is nothing to average: (0.0, 0.0, 0.0) would
        # read as a ranking that missed every answer
        with pytest.raises(ValueError, match=r"^no queries"):
            ranking_metrics([])

    def test_three_query_hand_fixture(self):
        queries = [
            (["a", "b"], {"a"}),          # rr=1, ap=1, rec=1
            (["b", "a"], {"a"}),          # rr=1/2, ap=1/2, rec=1
            (["x", "y", "b"], {"a", "b"}),  # rr=1/3, ap=(1/3)/2, rec=1/2
        ]
        mrr, ap, rec = ranking_metrics(queries)
        assert mrr == pytest.approx((1 + 0.5 + 1 / 3) / 3)
        assert ap == pytest.approx((1 + 0.5 + 1 / 6) / 3)
        assert rec == pytest.approx((1 + 1 + 0.5) / 3)


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("rq"), st.sampled_from("vwxyz"),
                  st.floats(0.01, 0.99)),
        max_size=20,
    ),
    st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("rq"), st.sampled_from("vwxyz")),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=200, deadline=None)
def test_metric_identities_random(pred_rows, gold_rows):
    gold = [G(*row) for row in gold_rows]
    gold_docs = {g.doc_id for g in gold}
    preds = [P(*row) for row in pred_rows if row[0] in gold_docs]
    report = evaluate(preds, gold)
    for metrics in [report.micro, *report.per_relation.values()]:
        p, r, f1 = metrics.precision, metrics.recall, metrics.f1
        assert abs(f1 * (p + r) - 2 * p * r) < 1e-12
        assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f1 <= 1
    recalls = [r for _, _, r in pr_curve(preds, gold)]
    assert recalls == sorted(recalls)


def covering(schema: RelationSchema, labeled) -> RelationSchema:
    """`schema` cut down to the relations that `labeled` mentions carry."""
    names = sorted({lm.label for lm in labeled})
    return RelationSchema([schema.relation(n) for n in names], schema.concepts)


class TestBaselines:
    @pytest.fixture()
    def setup(self, structured_docs, target_docs, triples, schema):
        fc, table = FeatureConfig(), FeatureTable()
        sm = corpus_mentions(structured_docs, fc, table)
        tm = corpus_mentions(target_docs, fc, table)
        sets = MentionSets(
            Rs=build_relation_mentions(sm, triples, schema, True),
            Rt=build_relation_mentions(tm, triples, schema, False),
        )
        pool = sm + tm
        labeled = {lm.mention.mention_id for lm in sets.Rs + sets.Rt}
        return sets, pool, labeled, fc

    def test_ds_struct_uses_only_structured(self, setup, schema):
        sets, pool, labeled, fc = setup
        config = TrainConfig(n=2, epochs=20, rng_seed=1)
        rs_schema = covering(schema, sets.Rs)
        model = run_baseline("DS_Struct", sets, pool, config, fc, rs_schema)
        assert set(model.relations) == {lm.label for lm in sets.Rs}

    def test_ds_both_is_union(self, setup):
        sets, pool, labeled, fc = setup
        rs_ids = {(lm.mention.mention_id, lm.label) for lm in sets.Rs}
        rt_ids = {(lm.mention.mention_id, lm.label) for lm in sets.Rt}
        assert len(rs_ids | rt_ids) == len(rs_ids) + len(rt_ids) - len(rs_ids & rt_ids)

    def test_ds_both_empty_structured_equals_ds_target(self, setup, schema, tmp_path):
        from reldistill.training import save_model

        sets, pool, labeled, fc = setup
        config = TrainConfig(n=2, epochs=20, rng_seed=1)
        no_struct = MentionSets(Rs=[], Rt=sets.Rt)
        rt_schema = covering(schema, sets.Rt)
        m_both = run_baseline("DS_Both", no_struct, pool, config, fc, rt_schema)
        m_target = run_baseline("DS_Target", no_struct, pool, config, fc, rt_schema)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m_both, str(p1))
        save_model(m_target, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_relation_named_in_error(self, setup, schema):
        sets, pool, labeled, fc = setup
        config = TrainConfig(n=2, epochs=20, rng_seed=1)
        with pytest.raises(ValueError, match="conditionsThisMayPrevent"):
            run_baseline("DS_Struct", sets, pool, config, fc, schema)

    def test_baseline_report_checks_every_schema_relation(
        self, setup, schema, target_docs, data_dir
    ):
        sets, pool, labeled, fc = setup
        art = BenchmarkArtifacts(
            schema=schema,
            sets=sets,
            pool=pool,
            labeled_ids=labeled,
            eval_docs=target_docs,
            gold=load_gold(str(data_dir / "gold.tsv"), schema),
            feature_config=fc,
            prop_config=PropagationConfig(),
        )
        config = TrainConfig(n=2, epochs=20, rng_seed=1)
        assert "conditionsThisMayPrevent" not in {lm.label for lm in sets.Rs}
        with pytest.raises(ValueError, match="relation 'conditionsThisMayPrevent'"):
            baseline_report(art, "DS_Struct", config)


def test_load_gold(data_dir, schema):
    gold = load_gold(str(data_dir / "gold.tsv"), schema)
    assert GoldAnnotation("t1", "sideEffect", "nausea") in gold
    assert len(gold) == 4
