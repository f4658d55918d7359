"""Top-N distillation, negative sampling, and one-vs-rest linear
classifiers trained with deterministic stochastic subgradient descent on
the L2-regularized hinge loss, with optional Platt score calibration.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .decode import decode
from .features import FeatureConfig, FeatureFilter, Mention, build_feature_filter, feature_matrix
from .mentions import MentionSets
from .propagation import RankedLabeling

SCORE_THRESHOLD = 0.5  # a relation's score must reach it to beat "other"
_PLATT_MAX_ITERS = 100


@dataclass(frozen=True)
class TrainConfig:
    n: int = 20
    strategy: str = "Both"  # Both | Target
    negatives: int | None = None  # defaults to n
    rng_seed: int = 13
    reg_lambda: float = 1e-3
    epochs: int = 50
    calibration: str = "platt"  # platt | raw_margin

    def __post_init__(self):
        for key, low in (("n", 1), ("negatives", 0), ("rng_seed", 0), ("epochs", 1)):
            value = getattr(self, key)
            if value is not None and value < low:  # negatives None means n
                raise ValueError(f"{key} must be >= {low}, got {value}")
        if self.strategy not in ("Both", "Target"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.calibration not in ("platt", "raw_margin"):
            raise ValueError(f"unknown calibration {self.calibration!r}")
        if self.reg_lambda <= 0:
            raise ValueError("reg_lambda must be > 0")

    @property
    def n_negatives(self) -> int:
        return self.n if self.negatives is None else self.negatives


@dataclass
class TrainingSet:
    positives: dict[str, list[Mention]]  # relation -> distilled mentions
    negatives: list[Mention]
    feature_filter: FeatureFilter
    shortfalls: dict[str, int] = field(default_factory=dict)


@dataclass
class RelationModel:
    weights: dict[str, float]
    bias: float
    platt: tuple[float, float] | None  # (A, B) of sigma(A*margin + B)

    def margin(self, counts: dict[str, int]) -> float:
        # left to right, as `train` sums the margins Platt is fit on; the
        # builtin sum compensates its rounding from Python 3.12 on
        total = 0.0
        for f, c in counts.items():
            total += self.weights.get(f, 0.0) * c
        return total + self.bias

    def calibrate(self, margin: float) -> float:
        if self.platt is None:
            return margin
        a, b = self.platt
        try:
            return 1.0 / (1.0 + math.exp(a * margin + b))
        except OverflowError:  # a*m + b past about 709: the score's limit is 0
            return 0.0

    def score(self, counts: dict[str, int]) -> float:
        return self.calibrate(self.margin(counts))


@dataclass
class LinearModel:
    relations: dict[str, RelationModel]
    feature_config: FeatureConfig
    train_config: TrainConfig
    # feature -> [(index in sorted(relations), weight)] for every relation
    # that weighs it, so `classify_scored` walks a mention's features once
    weight_table: dict[str, list[tuple[int, float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.weight_table = {}
        for i, relation in enumerate(sorted(self.relations)):
            for f, w in self.relations[relation].weights.items():
                self.weight_table.setdefault(f, []).append((i, w))


def distill(
    ranking: RankedLabeling,
    sets: MentionSets,
    config: TrainConfig,
) -> tuple[dict[str, list[Mention]], dict[str, int]]:
    """Top-N ranking prefix per relation; Target keeps only mentions that
    originate from the target corpus. Returns (positives, shortfalls)."""
    by_id: dict[str, Mention] = {}
    for name in ("Rs", "Rt", "Cs", "Ct"):
        for lm in sets.get(name):
            by_id.setdefault(lm.mention.mention_id, lm.mention)

    positives: dict[str, list[Mention]] = {}
    shortfalls: dict[str, int] = {}
    for relation, ranked in ranking.per_class.items():
        chosen = []
        for mention_id, _score in ranked:
            mention = by_id.get(mention_id)
            if mention is None:
                continue
            if config.strategy == "Target" and mention.corpus_tag != "target":
                continue
            chosen.append(mention)
            if len(chosen) == config.n:
                break
        if len(chosen) < config.n:
            shortfalls[relation] = config.n - len(chosen)
        positives[relation] = chosen
    return positives, shortfalls


def sample_negatives(
    pool: list[Mention], labeled_ids: set[str], count: int, rng_seed: int
) -> list[Mention]:
    """Uniform sample without replacement from mentions not distantly
    labeled by any relation; deterministic given rng_seed."""
    eligible = sorted(
        (m for m in pool if m.mention_id not in labeled_ids),
        key=lambda m: m.mention_id,
    )
    if len(eligible) < count:
        raise ValueError(
            f"need {count} negatives but only {len(eligible)} unlabeled mentions"
        )
    rng = random.Random(rng_seed)
    return rng.sample(eligible, count)


def build_training_set(
    positives: dict[str, list[Mention]],
    pool: list[Mention],
    labeled_ids: set[str],
    config: TrainConfig,
    shortfalls: dict[str, int] | None = None,
) -> TrainingSet:
    negatives = sample_negatives(pool, labeled_ids, config.n_negatives, config.rng_seed)
    vectors = [m.feature_counts() for ms in positives.values() for m in ms]
    vectors += [m.feature_counts() for m in negatives]
    feature_filter = build_feature_filter(vectors)
    return TrainingSet(
        positives=positives,
        negatives=negatives,
        feature_filter=feature_filter,
        shortfalls=shortfalls or {},
    )


def hinge_objective(
    x: sp.csr_matrix, y: np.ndarray, w: np.ndarray, bias: float, reg_lambda: float
) -> float:
    """lambda/2 * ||w||^2 + mean hinge; the quantity SGD minimizes."""
    margins = y * (x @ w + bias)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * reg_lambda * float(w @ w) + float(hinge.mean())


def _row_dot(idx: np.ndarray, val: np.ndarray, w: np.ndarray) -> float:
    """One CSR row times `w`, summed left to right from 0.0 as scipy's
    row product sums it. A BLAS dot (`val @ w[idx]`) reassociates and can
    differ in the last bit, which would move SGD off its trajectory."""
    return (val * w[idx]).cumsum()[-1] if len(idx) else 0.0


def _sgd_hinge(
    x: sp.csr_matrix,
    y: np.ndarray,
    reg_lambda: float,
    epochs: int,
    rng_seed: int,
    history: list[float] | None = None,
) -> tuple[np.ndarray, float]:
    """Pegasos-style SGD with a decreasing step and iterate averaging over
    the second half of training; bias is unregularized. When `history` is
    given, the objective of the averaged iterate is appended per epoch of
    the averaging window."""
    n, dim = x.shape
    bounds = x.indptr.tolist()
    rows = [
        (x.indices[lo:hi], x.data[lo:hi], yi)
        for lo, hi, yi in zip(bounds, bounds[1:], y.tolist())
    ]
    w = np.zeros(dim)
    bias = 0.0
    rng = np.random.default_rng(rng_seed)
    t = 0
    avg_w = np.zeros(dim)
    avg_b = 0.0
    n_avg = 0
    avg_from = max(1, epochs // 2)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for i in order.tolist():
            t += 1
            eta = 1.0 / (reg_lambda * (t + 1.0 / reg_lambda))
            idx, val, yi = rows[i]
            margin = yi * (_row_dot(idx, val, w) + bias)
            w *= 1.0 - eta * reg_lambda
            if margin < 1.0:
                w[idx] += eta * yi * val
                bias += eta * yi
        if epoch >= avg_from:
            avg_w += w
            avg_b += bias
            n_avg += 1
            if history is not None:
                history.append(
                    hinge_objective(x, y, avg_w / n_avg, avg_b / n_avg, reg_lambda)
                )
    if n_avg:
        return avg_w / n_avg, avg_b / n_avg
    return w, bias


def _fit_platt(margins: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Platt's sigmoid fit (Lin/Weng/Keerthi variant) on the training
    margins; returns (A, B) with P(+) = 1/(1+exp(A*m + B))."""
    prior1 = float((labels > 0).sum())
    prior0 = float((labels <= 0).sum())
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(labels > 0, hi, lo)
    a, b = 0.0, math.log((prior0 + 1.0) / (prior1 + 1.0))
    eps = 1e-12
    sigma = 1e-12
    fval = None
    for _ in range(_PLATT_MAX_ITERS):
        fapb = a * margins + b
        p = np.where(fapb >= 0, np.exp(-fapb) / (1.0 + np.exp(-fapb)), 1.0 / (1.0 + np.exp(fapb)))
        if fval is None:
            fval = float(np.sum(np.where(fapb >= 0, t * fapb + np.log1p(np.exp(-fapb)), (t - 1) * fapb + np.log1p(np.exp(fapb)))))
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.sum(margins * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-8 and abs(g2) < 1e-8:
            break
        h11 = float(np.sum(margins * margins * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(margins * d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        # backtracking line search on the cross-entropy
        step = 1.0
        improved = False
        while step >= 1e-10:
            na, nb = a + step * da, b + step * db
            fapb = na * margins + nb
            newf = float(np.sum(np.where(fapb >= 0, t * fapb + np.log1p(np.exp(-fapb)), (t - 1) * fapb + np.log1p(np.exp(fapb)))))
            if newf < fval + eps:
                a, b, fval = na, nb, newf
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return a, b


def train(
    training_set: TrainingSet,
    config: TrainConfig,
    feature_config: FeatureConfig,
) -> LinearModel:
    """One binary classifier per relation: that relation's positives vs
    the other relations' positives plus the shared general negatives."""
    allowed = sorted(training_set.feature_filter.allowed)
    positives = training_set.positives

    models: dict[str, RelationModel] = {}
    for relation in sorted(positives):
        pos = positives[relation]
        neg = [m for other in sorted(positives) if other != relation for m in positives[other]]
        neg += training_set.negatives
        if not pos or not neg:
            raise ValueError(
                f"relation {relation!r} has an empty {'negative' if pos else 'positive'} "
                f"side: distillation found {len(pos)} of n={config.n} positives with "
                f"strategy {config.strategy!r}; {len(neg)} negatives"
            )
        y = np.array([1.0] * len(pos) + [-1.0] * len(neg))
        # pos + neg is every training mention, so every allowed feature is
        # a column; a missing one is a KeyError, never a neighbouring column
        vocab, counts = feature_matrix(pos + neg)
        column = {f: j for j, f in enumerate(vocab)}
        x = counts[:, np.array([column[f] for f in allowed], dtype=np.intp)]
        w, bias = _sgd_hinge(x, y, config.reg_lambda, config.epochs, config.rng_seed)
        platt = None
        if config.calibration == "platt":
            margins = np.asarray(x @ w) + bias
            platt = _fit_platt(margins, y)
        weights = {allowed[i]: float(w[i]) for i in np.nonzero(w)[0]}
        models[relation] = RelationModel(weights=weights, bias=float(bias), platt=platt)
    return LinearModel(relations=models, feature_config=feature_config, train_config=config)


def classify(model: LinearModel, mention: Mention) -> str:
    """Argmax over relations whose calibrated score clears
    `SCORE_THRESHOLD`; 'other' when none does. Ties go to the
    lexicographically first name."""
    label, _ = classify_scored(model, mention)
    return label


def classify_scored(model: LinearModel, mention: Mention) -> tuple[str, float]:
    """`classify` and the winning score, every relation's `score` taken in
    one pass over the mention's features. Each total adds `w * c` in the
    mention's feature order as `RelationModel.margin` does; a feature a
    relation does not weigh would add 0.0 times a finite count to a total
    that is never -0.0, so skipping it changes no bit."""
    relations = sorted(model.relations.items())
    totals = [0.0] * len(relations)
    table = model.weight_table
    counts = mention.feature_counts()
    for f in filter(table.__contains__, counts):
        c = counts[f]
        for i, w in table[f]:
            totals[i] += w * c
    best_label, best_score = "other", 0.0
    for (relation, rm), total in zip(relations, totals):
        score = rm.calibrate(total + rm.bias)
        if score >= SCORE_THRESHOLD and score > best_score:
            best_label, best_score = relation, score
    return best_label, best_score


def save_model(model: LinearModel, path: str) -> None:
    obj = {
        "feature_config": asdict(model.feature_config),
        "train_config": asdict(model.train_config),
        "relations": {
            rel: {
                "bias": rm.bias,
                "weights": dict(sorted(rm.weights.items())),
                **({"platt": {"A": rm.platt[0], "B": rm.platt[1]}} if rm.platt else {}),
            }
            for rel, rm in sorted(model.relations.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    relations = {}
    for rel, rm in obj["relations"].items():
        platt = None
        if "platt" in rm:
            platt = (rm["platt"]["A"], rm["platt"]["B"])
        relations[rel] = RelationModel(weights=rm["weights"], bias=rm["bias"], platt=platt)
    configs = {
        key: decode(cls, obj[key], ValueError, "model", key)
        for key, cls in (("feature_config", FeatureConfig), ("train_config", TrainConfig))
    }
    return LinearModel(relations=relations, **configs)
