"""What the traced run measures in each layer of reldistill.

A layer is one module of the package. Its self time is the time spent
in the module's public functions minus the time of the traced calls
they make. The per-layer metrics below group those functions by the
work they do, and the counters record how much work each call did, so
that a later change can show whether a layer got faster or did less.
"""

from __future__ import annotations

import os

LAYERS = (
    "kb",
    "corpus",
    "features",
    "mentions",
    "propagation",
    "training",
    "evaluation",
    "pipeline",
)

# Called once per token, sentence or record: a span per call would cost
# more than the work it times, so their time stays in the self time of
# the traced function of the same layer that calls them.
PER_ITEM = frozenset(
    {
        "corpus.map_pos",
        "corpus.chunk_sentence",
        "corpus.detect_coordinate_lists",
        "corpus.document_to_dict",
        "mentions.mention_to_dict",
        "mentions.mention_from_dict",
        "mentions.labeled_mention_to_dict",
        "mentions.labeled_mention_from_dict",
    }
)

# metric -> functions whose self times it sums
SELF_TIME = {
    "kb.load_s": ("kb.load_schema", "kb.load_triples", "kb.load_concept_seeds"),
    "corpus.ingest_s": ("corpus.ingest_corpus",),
    "corpus.write_s": ("corpus.write_corpus",),
    "features.extract_s": ("features.extract_features",),
    "mentions.enumerate_s": ("mentions.enumerate_mentions", "mentions.corpus_mentions"),
    "mentions.label_s": (
        "mentions.build_relation_mentions",
        "mentions.filter_concept_sections",
        "mentions.build_mention_sets",
    ),
    "mentions.concept_s": ("mentions.expand_concept_mentions",),
    "mentions.io_s": (
        "mentions.write_mentions",
        "mentions.read_mentions",
        "mentions.write_labeled_mentions",
        "mentions.read_labeled_mentions",
    ),
    "propagation.graph_s": ("propagation.build_graph", "propagation.build_graph_from_mentions"),
    "propagation.ppr_s": ("propagation.personalized_pagerank", "propagation.multirankwalk"),
    "propagation.io_s": (
        "propagation.write_ranking",
        "propagation.read_ranking",
        "propagation.write_graph_dump",
    ),
    "training.distill_s": ("training.distill",),
    "training.trainset_s": (
        "training.build_training_set",
        "training.sample_negatives",
        "features.build_feature_filter",
    ),
    "training.train_s": ("training.train",),
    "training.classify_s": ("training.classify_scored", "training.classify"),
    "training.model_io_s": ("training.save_model", "training.load_model"),
    "evaluation.extract_s": ("evaluation.extract_document",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "evaluation.pr_curve_s": ("evaluation.pr_curve",),
    "evaluation.ranking_s": ("evaluation.ranking_metrics",),
    "evaluation.io_s": (
        "evaluation.load_gold",
        "evaluation.read_predictions",
        "evaluation.write_predictions",
        "evaluation.write_report",
        "evaluation.write_pr_curve",
    ),
}

STAGES = ("ingest", "mentions", "propagate", "train", "extract", "eval")

# metric -> function whose whole wall time (its traced calls included) it sums
INCLUSIVE_TIME = {f"pipeline.{stage}_s": f"pipeline.stage_{stage}" for stage in STAGES}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _add_len(key):
    def count(t, args, kwargs, result):
        t.sums[key] += len(result)

    return count


def _add_call(key):
    def count(t, args, kwargs, result):
        t.sums[key] += 1

    return count


def _triples(t, args, kwargs, triples):
    t.last["kb.triples"] = len(triples)


def _ingest(t, args, kwargs, docs):
    t.sums["corpus.docs"] += len(docs)
    t.sums["corpus.tokens"] += sum(
        len(sent.tokens) for doc in docs for sec in doc.sections for sent in sec.sentences
    )


def _mention_sets(t, args, kwargs, sets):
    for name in ("Rs", "Rt", "Cs", "Ct"):
        t.last[f"mentions.{name}"] = len(sets.get(name))


def _concept_filter(t, args, kwargs, kept):
    t.sums["mentions.cs_raw"] += len(_arg(args, kwargs, 0, "cs_raw"))
    t.sums["mentions.cs_kept"] += len(kept)


def _mention_write(t, args, kwargs, _):
    t.sums["mentions.io_mb"] += _file_mb(_arg(args, kwargs, 1, "path"))


def _mention_read(t, args, kwargs, _):
    t.sums["mentions.io_mb"] += _file_mb(_arg(args, kwargs, 0, "path"))


def _graph(t, args, kwargs, graph):
    t.sums["propagation.graph_nodes"] += graph.n_nodes
    t.sums["propagation.graph_nnz"] += graph.adjacency.nnz


def _distill(t, args, kwargs, result):
    positives, shortfalls = result
    ranking = _arg(args, kwargs, 0, "ranking")
    t.sums["training.shortfall"] += sum(shortfalls.values())
    t.sums["training.distilled"] += sum(len(ms) for ms in positives.values())
    t.sums["training.ranked"] += sum(len(r) for r in ranking.per_class.values())


def _feature_filter(t, args, kwargs, ff):
    t.sums["training.filter_kept"] += len(ff.allowed)
    t.sums["training.filter_vocab"] += (
        len(ff.allowed) + ff.dropped_singletons + ff.dropped_frequent
    )


def _train(t, args, kwargs, _):
    ts = _arg(args, kwargs, 0, "training_set")
    config = _arg(args, kwargs, 1, "config")
    examples = sum(len(ms) for ms in ts.positives.values()) + len(ts.negatives)
    t.sums["training.sgd_steps"] += len(ts.positives) * examples * config.epochs


COUNTERS = {
    "kb.load_triples": _triples,
    "corpus.ingest_corpus": _ingest,
    "features.extract_features": _add_len("features.nnz"),
    "mentions.enumerate_mentions": _add_len("mentions.count"),
    "mentions.build_mention_sets": _mention_sets,
    "mentions.filter_concept_sections": _concept_filter,
    "mentions.write_mentions": _mention_write,
    "mentions.write_labeled_mentions": _mention_write,
    "mentions.read_mentions": _mention_read,
    "mentions.read_labeled_mentions": _mention_read,
    "propagation.build_graph_from_mentions": _graph,
    "propagation.personalized_pagerank": _add_call("propagation.ppr_classes"),
    "training.distill": _distill,
    "features.build_feature_filter": _feature_filter,
    "training.train": _train,
    "training.classify_scored": _add_call("training.classify_calls"),
    "evaluation.extract_document": _add_len("evaluation.predictions"),
    "evaluation.pr_curve": _add_len("evaluation.pr_points"),
}

SUM_COUNTS = (
    "corpus.docs",
    "corpus.tokens",
    "features.nnz",
    "mentions.count",
    "mentions.io_mb",
    "propagation.graph_nodes",
    "propagation.graph_nnz",
    "propagation.ppr_classes",
    "training.shortfall",
    "training.sgd_steps",
    "training.classify_calls",
    "evaluation.predictions",
    "evaluation.pr_points",
)
LAST_COUNTS = ("kb.triples", "mentions.Rs", "mentions.Rt", "mentions.Cs", "mentions.Ct")
# ratio -> (numerator, denominator), both summed over the pass
RATIOS = {
    "mentions.cs_kept_frac": ("mentions.cs_kept", "mentions.cs_raw"),
    "training.distill_yield": ("training.distilled", "training.ranked"),
    "training.filter_kept_frac": ("training.filter_kept", "training.filter_vocab"),
}

# Printed on one line each: a time metric and the counts of the same work.
REPORT_ROWS = (
    ("kb.load_s", ("kb.triples",)),
    ("corpus.ingest_s", ("corpus.docs", "corpus.tokens")),
    ("corpus.write_s", ()),
    ("features.extract_s", ("features.nnz",)),
    ("mentions.enumerate_s", ("mentions.count",)),
    ("mentions.label_s", ("mentions.Rs", "mentions.Rt", "mentions.Cs", "mentions.Ct")),
    ("mentions.concept_s", ("mentions.cs_kept_frac",)),
    ("mentions.io_s", ("mentions.io_mb",)),
    ("propagation.graph_s", ("propagation.graph_nodes", "propagation.graph_nnz")),
    ("propagation.ppr_s", ("propagation.ppr_classes",)),
    ("propagation.io_s", ()),
    ("training.distill_s", ("training.shortfall", "training.distill_yield")),
    ("training.trainset_s", ("training.filter_kept_frac",)),
    ("training.train_s", ("training.sgd_steps",)),
    ("training.classify_s", ("training.classify_calls",)),
    ("training.model_io_s", ()),
    ("evaluation.extract_s", ("evaluation.predictions",)),
    ("evaluation.evaluate_s", ()),
    ("evaluation.pr_curve_s", ("evaluation.pr_points",)),
    ("evaluation.ranking_s", ()),
    ("evaluation.io_s", ()),
    *((f"pipeline.{stage}_s", ()) for stage in STAGES),
)
