import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from reldistill.decode import InputError
from reldistill.features import FeatureConfig, Mention, build_feature_filter
from reldistill.mentions import MentionSets
from reldistill.propagation import RankedLabeling
from reldistill.training import (
    LinearModel,
    Platt,
    RelationModel,
    TrainConfig,
    TrainingSet,
    classify,
    distill,
    hinge_objective,
    load_model,
    sample_negatives,
    save_model,
    train,
)

from test_kernels import filter_counts, margin_oracle, score_oracle, sgd_hinge_oracle


def make_mention(mid, features, tag="target"):
    return Mention(
        mention_id=mid,
        doc_id=mid.split("|")[0],
        title_entity="x",
        section_title="overview",
        kind="singleton",
        item_surfaces=("x",),
        features=tuple(sorted(features.items())),
        corpus_tag=tag,
    )


def batch_subgradient_oracle(x, y, reg_lambda, iters=30000):
    """Independent full-batch subgradient descent on the same objective,
    run to convergence, tracking the best iterate seen."""
    n, dim = x.shape
    w = np.zeros(dim)
    b = 0.0
    best = (hinge_objective(x, y, w, b, reg_lambda), w.copy(), b)
    xd = x.toarray()
    for t in range(1, iters + 1):
        margins = y * (xd @ w + b)
        viol = margins < 1.0
        g_w = reg_lambda * w - (y[viol, None] * xd[viol]).sum(axis=0) / n
        g_b = -y[viol].sum() / n
        eta = 1.0 / (reg_lambda * (t + 10.0))
        w -= eta * g_w
        b -= eta * g_b
        obj = hinge_objective(x, y, w, b, reg_lambda)
        if obj < best[0]:
            best = (obj, w.copy(), b)
    return best


@pytest.fixture()
def separable_mentions():
    pos = [
        make_mention(f"p{i}", {"tok=nausea": 1, "bow=include": 1, f"bow=x{i % 3}": 1})
        for i in range(8)
    ]
    neg = [
        make_mention(f"n{i}", {"tok=bottle": 1, "bow=store": 1, f"bow=x{i % 3}": 1})
        for i in range(8)
    ]
    return pos, neg


class TestDistill:
    def _ranking(self):
        return RankedLabeling(
            per_class={
                "rel": [("m1", 0.9), ("m2", 0.8), ("m3", 0.7), ("m4", 0.6), ("m5", 0.5)]
            },
        )

    def _sets(self):
        tags = {"m1": "target", "m2": "structured", "m3": "target",
                "m4": "structured", "m5": "target"}
        from reldistill.mentions import LabeledMention

        lms = [
            LabeledMention(make_mention(m, {"f": 1}, tag), "rel",
                           "Rt" if tag == "target" else "Rs")
            for m, tag in tags.items()
        ]
        return MentionSets(
            Rs=[lm for lm in lms if lm.source_set == "Rs"],
            Rt=[lm for lm in lms if lm.source_set == "Rt"],
        )

    def test_target_strategy(self):
        positives, shortfalls = distill(
            self._ranking(), self._sets(), TrainConfig(n=2, strategy="Target")
        )
        assert [m.mention_id for m in positives["rel"]] == ["m1", "m3"]
        assert shortfalls == {}

    def test_both_strategy(self):
        positives, _ = distill(
            self._ranking(), self._sets(), TrainConfig(n=2, strategy="Both")
        )
        assert [m.mention_id for m in positives["rel"]] == ["m1", "m2"]

    def test_shortfall(self):
        positives, shortfalls = distill(
            self._ranking(), self._sets(), TrainConfig(n=10, strategy="Both")
        )
        assert len(positives["rel"]) == 5
        assert shortfalls == {"rel": 5}

    def test_ranked_id_in_no_set_is_refused(self):
        # a ranking made from other mention sets: the id is not skipped
        ranking = RankedLabeling(per_class={"rel": [("m1", 0.9), ("gone", 0.8), ("m2", 0.7)]})
        with pytest.raises(InputError, match=r"^ranked mention 'gone' is in no mention set$"):
            distill(ranking, self._sets(), TrainConfig(n=2, strategy="Both"))

    def test_prefix_order_preserved(self):
        positives, _ = distill(
            self._ranking(), self._sets(), TrainConfig(n=4, strategy="Both")
        )
        ids = [m.mention_id for m in positives["rel"]]
        assert ids == ["m1", "m2", "m3", "m4"]


class TestSampleNegatives:
    def test_deterministic(self):
        pool = [make_mention(f"m{i:03d}", {"f": 1}) for i in range(100)]
        a = sample_negatives(pool, set(), 10, rng_seed=42)
        b = sample_negatives(pool, set(), 10, rng_seed=42)
        assert [m.mention_id for m in a] == [m.mention_id for m in b]

    def test_insufficient_pool(self):
        pool = [make_mention(f"m{i}", {"f": 1}) for i in range(5)]
        with pytest.raises(ValueError, match="only 5"):
            sample_negatives(pool, set(), 10, rng_seed=1)

    def test_labeled_never_sampled(self):
        pool = [make_mention(f"m{i:03d}", {"f": 1}) for i in range(30)]
        labeled = {f"m{i:03d}" for i in range(0, 30, 2)}
        for seed in range(5):
            sample = sample_negatives(pool, labeled, 10, rng_seed=seed)
            assert not {m.mention_id for m in sample} & labeled


class TestTrain:
    def _training_set(self, pos, neg):
        vectors = [m.feature_counts() for m in pos + neg]
        return TrainingSet(
            positives={"rel": pos},
            negatives=neg,
            feature_filter=build_feature_filter(vectors),
        )

    def test_separable_accuracy_one(self, separable_mentions):
        pos, neg = separable_mentions
        config = TrainConfig(n=8, epochs=200, rng_seed=3)
        model = train(self._training_set(pos, neg), config, FeatureConfig())
        for m in pos:
            assert classify(model, m) == "rel"
        for m in neg:
            assert classify(model, m) == "other"

    def test_objective_near_batch_oracle(self, separable_mentions):
        pos, neg = separable_mentions
        config = TrainConfig(
            n=8, epochs=1000, rng_seed=3, calibration="raw_margin", reg_lambda=0.1
        )
        ts = self._training_set(pos, neg)
        model = train(ts, config, FeatureConfig())

        feats = sorted(ts.feature_filter.allowed)
        fi = {f: i for i, f in enumerate(feats)}
        rows = []
        for m in pos + neg:
            v = np.zeros(len(feats))
            for f, c in filter_counts(ts.feature_filter, m.feature_counts()).items():
                v[fi[f]] = c
            rows.append(v)
        x = sp.csr_matrix(np.array(rows))
        y = np.array([1.0] * len(pos) + [-1.0] * len(neg))

        rm = model.relations["rel"]
        w = np.array([rm.weights.get(f, 0.0) for f in feats])
        sgd_obj = hinge_objective(x, y, w, rm.bias, config.reg_lambda)
        oracle_obj, _, _ = batch_subgradient_oracle(x, y, config.reg_lambda)
        assert sgd_obj <= oracle_obj * 1.01 + 1e-12

    def test_averaged_objective_nonincreasing(self, separable_mentions):
        pos, neg = separable_mentions
        ts = self._training_set(pos, neg)
        feats = sorted(ts.feature_filter.allowed)
        fi = {f: i for i, f in enumerate(feats)}
        rows = []
        for m in pos + neg:
            v = np.zeros(len(feats))
            for f, c in filter_counts(ts.feature_filter, m.feature_counts()).items():
                v[fi[f]] = c
            rows.append(v)
        x = sp.csr_matrix(np.array(rows))
        y = np.array([1.0] * len(pos) + [-1.0] * len(neg))
        history: list[float] = []
        # the per-relation oracle, which the bit tests tie to `train`
        sgd_hinge_oracle(x, y, 1e-3, epochs=120, rng_seed=3, history=history)
        increases = [b - a for a, b in zip(history, history[1:]) if b > a]
        assert not increases or max(increases) < 1e-4

    def test_large_lambda_shrinks_weights(self, separable_mentions):
        pos, neg = separable_mentions
        config = TrainConfig(n=8, epochs=100, reg_lambda=1e6, rng_seed=1)
        model = train(self._training_set(pos, neg), config, FeatureConfig())
        rm = model.relations["rel"]
        assert all(abs(w) < 1e-3 for w in rm.weights.values()) or not rm.weights

    def test_empty_side_rejected(self, separable_mentions):
        pos, neg = separable_mentions
        ts = TrainingSet(
            positives={"rel": []},
            negatives=neg,
            feature_filter=build_feature_filter([m.feature_counts() for m in neg]),
        )
        with pytest.raises(ValueError, match="rel"):
            train(ts, TrainConfig(), FeatureConfig())

    def test_determinism_byte_identical(self, tmp_path, separable_mentions):
        pos, neg = separable_mentions
        config = TrainConfig(n=8, epochs=50, rng_seed=11)
        paths = []
        for i in range(2):
            model = train(self._training_set(pos, neg), config, FeatureConfig())
            p = tmp_path / f"model{i}.json"
            save_model(model, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_only_filtered_features_carry_weight(self, separable_mentions):
        pos, neg = separable_mentions
        config = TrainConfig(n=8, epochs=50, rng_seed=11)
        ts = self._training_set(pos, neg)
        model = train(ts, config, FeatureConfig())
        assert set(model.relations["rel"].weights) <= ts.feature_filter.allowed


class TestClassify:
    def _model(self, scores):
        # raw-margin models with constant margins: score = bias
        relations = {
            rel: RelationModel(weights={}, bias=score, platt=None)
            for rel, score in scores.items()
        }
        return LinearModel(
            relations=relations,
            feature_config=FeatureConfig(),
            train_config=TrainConfig(calibration="raw_margin"),
        )

    def test_single_positive(self):
        model = self._model({"sideEffect": 0.9, "usedToTreat": 0.3})
        assert classify(model, make_mention("m", {"f": 1})) == "sideEffect"

    def test_all_below_threshold(self):
        model = self._model({"sideEffect": 0.4, "usedToTreat": 0.3})
        assert classify(model, make_mention("m", {"f": 1})) == "other"

    def test_tie_break_lexicographic(self):
        model = self._model({"b_rel": 0.8, "a_rel": 0.8})
        assert classify(model, make_mention("m", {"f": 1})) == "a_rel"


class TestScore:
    def test_platt_score_past_exp_range_is_zero(self):
        # a*m + b = 1500 overflows math.exp; the sigmoid's limit there is 0
        rm = RelationModel(weights={"f": -300.0}, bias=0.0, platt=Platt(-5.0, 0.0))
        assert score_oracle(rm, {"f": 1}) == 0.0
        model = LinearModel(
            relations={"rel": rm},
            feature_config=FeatureConfig(),
            train_config=TrainConfig(),
        )
        assert classify(model, make_mention("m", {"f": 1})) == "other"

    def test_margin_sums_left_to_right(self):
        # (1e16 + 1.0) rounds to 1e16; a compensated sum would give 1.0
        rm = RelationModel(weights={"a": 1e16, "b": 1.0, "c": -1e16}, bias=0.5, platt=None)
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert margin_oracle(rm, {"a": 1, "b": 1, "c": 1}) == 0.5


@pytest.mark.parametrize("calibration", ["platt", "raw_margin"])
def test_model_file_roundtrip(tmp_path, separable_mentions, calibration):
    pos, neg = separable_mentions
    vectors = [m.feature_counts() for m in pos + neg]
    ts = TrainingSet(
        positives={"rel": pos},
        negatives=neg,
        feature_filter=build_feature_filter(vectors),
    )
    config = TrainConfig(n=8, epochs=60, rng_seed=5, calibration=calibration)
    model = train(ts, config, FeatureConfig())
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded == model
    # no golden hash pins a raw_margin file: it must keep having no platt key
    relation = json.loads(path.read_text())["relations"]["rel"]
    assert ("platt" in relation) == (calibration == "platt")
    for m in pos + neg:
        assert classify(loaded, m) == classify(model, m)
