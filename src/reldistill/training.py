"""Top-N distillation, negative sampling, and one-vs-rest linear
classifiers trained with deterministic stochastic subgradient descent on
the L2-regularized hinge loss, with optional Platt score calibration.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .decode import InputError, decode, json_file
from .features import FeatureConfig, FeatureFilter, Mention, build_feature_filter, select_rows
from .mentions import SET_NAMES, MentionSets
from .propagation import RankedLabeling

SCORE_THRESHOLD = 0.5  # a relation's score must reach it to beat "other"
_PLATT_MAX_ITERS = 100
_BLOCK_ROWS = 64  # the most SGD steps one speculative block decays ahead


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


@dataclass(frozen=True)
class Platt:  # a margin m scores 1/(1+exp(A*m + B))
    A: float
    B: float


@dataclass
class RelationModel:
    weights: dict[str, float]
    bias: float
    platt: Platt | None = None  # None under raw_margin

    def calibrate(self, margin: float) -> float:
        if self.platt is None:
            return margin
        try:
            return 1.0 / (1.0 + math.exp(self.platt.A * margin + self.platt.B))
        except OverflowError:  # a*m + b past about 709: the score's limit is 0
            return 0.0


@dataclass
class LinearModel:
    relations: dict[str, RelationModel]
    feature_config: FeatureConfig
    train_config: TrainConfig

    # feature -> [(index in sorted(relations), weight)] for every relation
    # that weighs it, so `classify_counts` walks a feature dict once
    @cached_property
    def weight_table(self) -> dict[str, list[tuple[int, float]]]:
        table: dict[str, list[tuple[int, float]]] = {}
        for i, relation in enumerate(sorted(self.relations)):
            for f, w in self.relations[relation].weights.items():
                table.setdefault(f, []).append((i, w))
        return table


def distill(
    ranking: RankedLabeling,
    sets: MentionSets,
    config: TrainConfig,
) -> tuple[dict[str, list[Mention]], dict[str, int]]:
    """Top-N ranking prefix per relation; Target keeps only mentions that
    originate from the target corpus. Returns (positives, shortfalls)."""
    by_id = sets.by_id(SET_NAMES)

    positives: dict[str, list[Mention]] = {}
    shortfalls: dict[str, int] = {}
    for relation, ranked in ranking.per_class.items():
        chosen = []
        for mention_id, _score in ranked:
            mention = by_id.get(mention_id)
            if mention is None:
                raise InputError(f"ranked mention {mention_id!r} is in no mention set")
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
    feature_filter = build_feature_filter([m for ms in positives.values() for m in ms] + negatives)
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


def _padded_rows(x: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Each CSR row of `x` as (columns, values), in the row's own order,
    padded on the right to the widest row and to at least one entry. A
    pad is column `x.shape[1]`, a spare sink column, with value 0.0."""
    n, dim = x.shape
    nnz = np.diff(x.indptr)
    row = np.repeat(np.arange(n), nnz)
    at = np.arange(x.nnz) - np.repeat(x.indptr[:-1], nnz)
    width = max(1, int(nnz.max(initial=0)))
    columns = np.full((n, width), dim, dtype=np.intp)
    values = np.zeros((n, width))
    columns[row, at] = x.indices
    values[row, at] = x.data
    return columns, values


def _row_dots(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row of `values * weights` summed left to right, as scipy's row
    product sums it. A row sum by `sum`, `einsum` or BLAS reassociates and
    can differ in the last bit, which would move SGD off its trajectory;
    the trailing pads add +0.0, which only turns a zero's sign."""
    return (values * weights).cumsum(axis=-1)[..., -1]


def _sgd_hinge_batched(
    x: sp.csr_matrix,
    rows: np.ndarray,
    y: np.ndarray,
    reg_lambda: float,
    epochs: int,
    rng_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pegasos-style SGD with a decreasing step and iterate averaging over
    the second half of training, for R problems over the rows of `x` at
    once; bias is unregularized. Problem r's k-th example is row
    `rows[r, k]` with label `y[r, k]`. The problems share their size and
    seed, so one permutation per epoch orders all of them, and the step
    size depends only on the step count: each step is, problem by problem,
    the same IEEE operations as fitting that problem alone. Returns the
    (R, dim) weights and the R biases."""
    n_rel, n = rows.shape
    dim = x.shape[1]
    stride = dim + 1  # problem r's weights are w[r*stride:][:dim], then its sink
    columns, values = _padded_rows(x)
    offsets = stride * np.arange(n_rel)
    # step-major, so one example of every problem is one (R, width) block
    step_columns = (columns[rows] + offsets[:, None, None]).transpose(1, 0, 2)
    step_values = values[rows].transpose(1, 0, 2)
    step_labels = y.T
    sinks = (offsets + dim)[:, None]
    # buffer row i is the weights after i decays of the running block,
    # row 0 is w; `decayed` holds the rows as views, made once
    buffer = np.zeros((_BLOCK_ROWS + 1, n_rel * stride))
    decayed = list(buffer)
    w = decayed[0]
    bias = np.zeros(n_rel)
    rng = np.random.default_rng(rng_seed)
    avg_w = np.zeros_like(w)
    avg_b = np.zeros_like(bias)
    n_avg = 0
    avg_from = max(1, epochs // 2)
    block = 1
    for epoch in range(epochs):
        order = rng.permutation(n)
        # one epoch's examples are gathered at a time, never every step's
        e_cols, e_vals, e_labels = step_columns[order], step_values[order], step_labels[order]
        # the epoch's step sizes: the scalar formula's IEEE operations on
        # the exact float64 step counts
        eta = 1.0 / (reg_lambda * (np.arange(epoch * n + 1, epoch * n + n + 1.0) + 1.0 / reg_lambda))
        decay = (1.0 - eta * reg_lambda).tolist()
        k = 0
        while k < n:
            # speculate that the next b steps of the epoch make no hinge
            # step: decay the weights ahead one row at a time, as `w *= d`
            # would (a product of decays would reassociate), take all b
            # margins at once and keep the steps up to the first hit. A
            # clean block doubles the next one, a hinge step halves it
            b = min(block, n - k)
            for src, dst, d in zip(decayed, decayed[1:b + 1], decay[k:k + b]):
                np.multiply(src, d, out=dst)
            cols, vals, yk = e_cols[k:k + b], e_vals[k:k + b], e_labels[k:k + b]
            dots = _row_dots(vals, buffer[np.arange(b)[:, None, None], cols])
            hit = yk * (dots + bias) < 1.0
            hits = hit.any(axis=1)
            j = int(hits.argmax())  # the first step with a hit, if any
            if not hits[j]:
                j = b - 1
            w[:] = decayed[j + 1]
            k += j + 1
            if hits[j]:
                block = max(1, block // 2)
                step = eta[k - 1] * yk[j]
                np.add(bias, step, out=bias, where=hit[j])
                # a problem with no hinge step adds +-0.0 to its sink alone,
                # so the sinks stay 0.0 and no weight is touched
                w[np.where(hit[j][:, None], cols[j], sinks)] += (step * hit[j])[:, None] * vals[j]
            else:
                block = min(2 * block, _BLOCK_ROWS)
        if epoch >= avg_from:
            avg_w += w
            avg_b += bias
            n_avg += 1
    if n_avg:
        w, bias = avg_w / n_avg, avg_b / n_avg
    return w.reshape(n_rel, stride)[:, :dim], bias


def _fit_platt(margins: np.ndarray, labels: np.ndarray) -> Platt:
    """Platt's sigmoid fit (Lin/Weng/Keerthi variant) on the training
    margins: P(+) = 1/(1+exp(A*m + B))."""
    prior1 = float((labels > 0).sum())
    prior0 = float((labels <= 0).sum())
    hi = (prior1 + 1.0) / (prior1 + 2.0)
    lo = 1.0 / (prior0 + 2.0)
    t = np.where(labels > 0, hi, lo)

    def cross_entropy(fapb: np.ndarray) -> float:
        return float(np.sum(np.where(
            fapb >= 0, t * fapb + np.log1p(np.exp(-fapb)), (t - 1) * fapb + np.log1p(np.exp(fapb))
        )))

    a, b = 0.0, math.log((prior0 + 1.0) / (prior1 + 1.0))
    eps = 1e-12
    sigma = 1e-12
    fval = None
    for _ in range(_PLATT_MAX_ITERS):
        fapb = a * margins + b
        p = np.where(fapb >= 0, np.exp(-fapb) / (1.0 + np.exp(-fapb)), 1.0 / (1.0 + np.exp(fapb)))
        if fval is None:
            fval = cross_entropy(fapb)
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
            newf = cross_entropy(na * margins + nb)
            if newf < fval + eps:
                a, b, fval = na, nb, newf
                improved = True
                break
            step /= 2.0
        if not improved:
            break
    return Platt(a, b)


def train(
    training_set: TrainingSet,
    config: TrainConfig,
    feature_config: FeatureConfig,
) -> LinearModel:
    """One binary classifier per relation: that relation's positives vs
    the other relations' positives plus the shared general negatives. Each
    relation's examples are rows of one count matrix, the positives of
    every relation in name order and then the negatives, and one batched
    SGD pass fits every relation."""
    allowed = sorted(training_set.feature_filter.allowed)
    relations = sorted(training_set.positives)
    blocks = [training_set.positives[relation] for relation in relations]
    mentions = [m for ms in blocks for m in ms] + training_set.negatives
    n = len(mentions)
    for relation, pos in zip(relations, blocks):
        if not pos or len(pos) == n:
            raise ValueError(
                f"relation {relation!r} has an empty {'negative' if pos else 'positive'} "
                f"side: distillation found {len(pos)} of n={config.n} positives with "
                f"strategy {config.strategy!r}; {n - len(pos)} negatives"
            )
    # the largest denominator of `_sgd_hinge_batched`'s step sizes
    if not math.isfinite(config.reg_lambda * (config.epochs * n + 1 / config.reg_lambda)):
        raise ValueError(
            f"reg_lambda {config.reg_lambda!r} makes the SGD step sizes overflow or vanish "
            f"over {config.epochs} epochs of n={n} examples"
        )
    # `mentions` is every training mention, so every allowed feature is a
    # column; a missing one is a KeyError, never a neighbouring column
    vocab, counts = select_rows(mentions)
    kept = [j for j, name in enumerate(vocab) if name in training_set.feature_filter.allowed]
    if len(kept) < len(allowed):
        raise KeyError(min(training_set.feature_filter.allowed.difference(vocab)))
    x = counts[:, kept]
    # relation r's examples: its positives, the other relations' positives
    # in name order, then the negatives
    bounds = np.cumsum([0] + [len(pos) for pos in blocks]).tolist()
    rows = np.array(
        [np.r_[lo:hi, 0:lo, hi:n] for lo, hi in zip(bounds, bounds[1:])], dtype=np.intp
    ).reshape(len(relations), n)
    y = np.where(np.arange(n) < np.diff(bounds)[:, None], 1.0, -1.0)
    w_all, b_all = _sgd_hinge_batched(
        x, rows, y, config.reg_lambda, config.epochs, config.rng_seed
    )

    models: dict[str, RelationModel] = {}
    for r, relation in enumerate(relations):
        w, bias = w_all[r], b_all[r]
        platt = None
        if config.calibration == "platt":
            margins = np.asarray(x @ w)[rows[r]] + bias
            platt = _fit_platt(margins, y[r])
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
    """`classify` and the winning score."""
    return classify_counts(model, mention.feature_counts())


def classify_counts(model: LinearModel, counts: dict[str, int]) -> tuple[str, float]:
    """The label and winning score of a feature dict, every relation's
    calibrated score taken in one pass over the weighed names. Each total
    adds `w * c` in name order, the order of `Mention.features`, left to
    right as `train` sums the margins Platt is fit on; a feature a
    relation does not weigh would add 0.0 times a finite count to a total
    that is never -0.0, so skipping it changes no bit."""
    relations = sorted(model.relations.items())
    totals = [0.0] * len(relations)
    table = model.weight_table
    for f in sorted(filter(table.__contains__, counts)):
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
    obj = asdict(model)
    for rm in obj["relations"].values():
        if rm["platt"] is None:  # a raw_margin model's relations have no platt key
            del rm["platt"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> LinearModel:
    return decode(LinearModel, json_file(path, "model"), f"model {path!r}")
