"""Document extraction, IR-style evaluation per (title entity, relation)
query, PR curves, ranked-answer metrics, and the plain distant-supervision
baselines (no propagation step).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .corpus import Document
from .decode import InputError, finite, tsv
from .features import FeatureConfig, Mention, extract_features
from .kb import RelationSchema
from .mentions import MentionSets
from .norm import normalize
from .training import LinearModel, TrainConfig, build_training_set, classify_counts, train
from .training import classify_scored  # noqa: F401  (the tracer tests check it is rebound here)


@dataclass(frozen=True)
class GoldAnnotation:
    doc_id: str
    relation: str
    value: str  # normalized


@dataclass(frozen=True)
class Prediction:
    doc_id: str
    relation: str
    value: str  # normalized
    score: float


@dataclass
class RelationMetrics:
    precision: float
    recall: float
    f1: float
    tp: int = 0
    n_pred: int = 0
    n_gold: int = 0


@dataclass
class EvalReport:
    micro: RelationMetrics
    per_relation: dict[str, RelationMetrics]
    macro_f1: float
    zero_division_note: str = (
        "precision is 0 when there are no predictions; recall is 0 when "
        "there is no gold for a query"
    )

    def to_dict(self) -> dict:
        return asdict(self)


def _prf(tp: int, n_pred: int, n_gold: int) -> RelationMetrics:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if (p + r) else 0.0
    return RelationMetrics(p, r, f1, tp, n_pred, n_gold)


def load_gold(path: str, schema: RelationSchema | None = None) -> list[GoldAnnotation]:
    def gold(doc_id: str, relation: str, value: str) -> GoldAnnotation:
        if schema is not None and not schema.has_relation(relation):
            raise InputError(f"unknown relation {relation!r}")
        return GoldAnnotation(doc_id, relation, normalize(value))

    annotations = tsv(path, 3, gold)
    if not annotations:
        raise InputError(f"{path}: gold set is empty")
    return annotations


def extract_document(
    doc: Document,
    model: LinearModel,
    feature_config: FeatureConfig,
) -> list[Prediction]:
    """Classify every mention target of `doc` as `enumerate_mentions` sees
    it, without building the `Mention`. Only the names the model weighs are
    counted: `classify_counts` skips the rest, so the score keeps every bit.
    List predictions fan out per item; each (relation, value) keeps its max."""
    table = model.weight_table
    best: dict[tuple[str, str], float] = {}
    for sec in doc.sections:
        for sent in sec.sentences:
            for target, _, _, item_spans in sent.mention_targets():
                counts: dict[str, int] = {}
                for name in extract_features(sent, target, feature_config):
                    if name in table:
                        counts[name] = counts.get(name, 0) + 1
                label, score = classify_counts(model, counts)
                if label == "other":
                    continue
                for span in item_spans:
                    key = (label, normalize(sent.surface(span)))
                    if score > best.get(key, float("-inf")):
                        best[key] = score
    return [
        Prediction(doc.doc_id, rel, value, score)
        for (rel, value), score in sorted(best.items())
    ]


def evaluate(predictions: list[Prediction], gold: list[GoldAnnotation]) -> EvalReport:
    if not gold:
        raise ValueError("gold set is empty")
    gold_set = {(g.doc_id, g.relation, g.value) for g in gold}
    gold_docs = {g.doc_id for g in gold}
    for p in predictions:
        if p.doc_id not in gold_docs:
            raise ValueError(f"prediction references doc {p.doc_id!r} absent from gold")
    pred_set = {(p.doc_id, p.relation, p.value) for p in predictions}

    tp = len(pred_set & gold_set)
    micro = _prf(tp, len(pred_set), len(gold_set))

    relations = sorted({g.relation for g in gold} | {p.relation for p in predictions})
    per_relation = {}
    for rel in relations:
        pr = {t for t in pred_set if t[1] == rel}
        gr = {t for t in gold_set if t[1] == rel}
        per_relation[rel] = _prf(len(pr & gr), len(pr), len(gr))
    total = 0.0  # left to right: the builtin sum compensates from Python 3.12 on
    for m in per_relation.values():
        total += m.f1
    macro_f1 = total / len(per_relation) if per_relation else 0.0
    return EvalReport(micro=micro, per_relation=per_relation, macro_f1=macro_f1)


def pr_curve(
    predictions: list[Prediction], gold: list[GoldAnnotation]
) -> list[tuple[float, float, float]]:
    """One (threshold, precision, recall) point per distinct score,
    descending; recall is non-decreasing along the sweep. A threshold
    keeps the keys whose best score reaches it, so one pass over the keys
    by best score, with running counts, gives every point."""
    gold_set = {(g.doc_id, g.relation, g.value) for g in gold}
    best: dict[tuple[str, str, str], float] = {}
    for p in predictions:
        key = (p.doc_id, p.relation, p.value)
        best[key] = max(p.score, best.get(key, p.score))
    ranked = sorted(best.items(), key=lambda kv: kv[1], reverse=True)
    points = []
    kept = tp = 0
    for theta in sorted({p.score for p in predictions}, reverse=True):
        while kept < len(ranked) and ranked[kept][1] >= theta:
            tp += ranked[kept][0] in gold_set
            kept += 1
        p = tp / kept  # theta is some key's best score, so kept >= 1
        r = tp / len(gold_set) if gold_set else 0.0
        points.append((theta, p, r))
    return points


def ranking_metrics(
    queries: list[tuple[list[str], set[str]]],
) -> tuple[float, float, float]:
    """(MRR, MAP, mean recall) over (ranked answers, nonempty gold set) queries."""
    if not queries:
        raise ValueError("no queries: MRR, MAP and mean recall have no mean")
    rr_sum = ap_sum = rec_sum = 0.0
    for q, (ranked, gold) in enumerate(queries):
        if not gold:
            raise ValueError(f"query {q} has an empty gold set")
        hits = 0
        precision_sum = 0.0
        first_rank = None
        for k, answer in enumerate(ranked, start=1):
            if answer in gold:
                hits += 1
                precision_sum += hits / k
                if first_rank is None:
                    first_rank = k
        rr_sum += 1.0 / first_rank if first_rank else 0.0
        ap_sum += precision_sum / len(gold)
        rec_sum += len(set(ranked) & gold) / len(gold)
    n = len(queries)
    return rr_sum / n, ap_sum / n, rec_sum / n


# baseline -> the distantly labeled sets it trains on
BASELINES = {"DS_Struct": ("Rs",), "DS_Target": ("Rt",), "DS_Both": ("Rs", "Rt")}


def run_baseline(
    kind: str,
    sets: MentionSets,
    pool: list[Mention],
    config: TrainConfig,
    feature_config: FeatureConfig,
    schema: RelationSchema,
) -> LinearModel:
    """Train directly on the distantly labeled sets `BASELINES[kind]`,
    skipping propagation. Every relation of `schema` needs a labeled
    mention."""
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    positives: dict[str, dict[str, Mention]] = {}
    for name in BASELINES[kind]:
        for lm in sets.get(name):
            positives.setdefault(lm.label, {})[lm.mention.mention_id] = lm.mention
    if not positives:
        raise ValueError(f"{kind}: no labeled mentions at all")
    for relation in schema.relation_names():
        if not positives.get(relation):
            raise ValueError(f"{kind}: empty training set for relation {relation!r}")
    pos_lists = {
        r: [ms[k] for k in sorted(ms)] for r, ms in sorted(positives.items())
    }
    training_set = build_training_set(pos_lists, pool, sets.labeled_ids(), config)
    return train(training_set, config, feature_config)


def write_report(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_pr_curve(points: list[tuple[float, float, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall\n")
        for theta, p, r in points:
            fh.write(f"{theta:.12g},{p:.12g},{r:.12g}\n")


def write_sweep(rows: list[tuple[str, str, int, RelationMetrics]], path: str, fmt: str) -> None:
    """One row per (variant, strategy, n) cell: its micro scores in format `fmt`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variant,strategy,n,precision,recall,f1\n")
        for name, strategy, n, m in rows:
            fh.write(f"{name},{strategy},{n},{m.precision:{fmt}},{m.recall:{fmt}},{m.f1:{fmt}}\n")


def write_predictions(preds: list[Prediction], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in sorted(preds, key=lambda p: (p.doc_id, p.relation, p.value)):
            fh.write(f"{p.doc_id}\t{p.relation}\t{p.value}\t{p.score:.12g}\n")


def read_predictions(path: str) -> list[Prediction]:
    return tsv(path, 4, lambda doc, rel, value, score: Prediction(doc, rel, value, finite(score)))
