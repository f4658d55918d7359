"""TF-IDF bipartite mention-feature graph and multi-class personalized
PageRank (one restart distribution per class, argmax assignment).

The walk is undirected: the transition matrix is the row-normalized
symmetric weighted adjacency, so every step alternates between the
mention side and the feature side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .features import Mention
from .mentions import LabeledMention, MentionSets

LEGAL_VARIANTS = [
    frozenset(c)
    for c in (
        {"Rs", "Cs", "Rt", "Ct"},
        {"Rs", "Cs", "Rt"},
        {"Rs", "Cs", "Ct"},
        {"Rs", "Cs"},
        {"Rs", "Rt", "Ct"},
        {"Rs", "Rt"},
        {"Rs", "Ct"},
    )
]

_SET_ORDER = ("Rs", "Cs", "Rt", "Ct")


@dataclass(frozen=True)
class VariantSpec:
    include: frozenset[str]

    def __post_init__(self):
        if self.include not in LEGAL_VARIANTS:
            raise ValueError(
                f"variant {sorted(self.include)} is not one of the 7 legal "
                "combinations (must contain Rs)"
            )

    @classmethod
    def parse(cls, names) -> "VariantSpec":
        return cls(frozenset(names))

    @property
    def name(self) -> str:
        return "".join(s for s in _SET_ORDER if s in self.include)


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.15
    max_iters: int = 1000
    tolerance: float = 1e-10
    concept_score_floor: float = 0.0
    concept_top_k: int = 10000

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.max_iters < 1 or self.tolerance <= 0:
            raise ValueError("max_iters must be >=1 and tolerance > 0")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "max_iters": self.max_iters,
            "tolerance": self.tolerance,
            "concept_score_floor": self.concept_score_floor,
            "concept_top_k": self.concept_top_k,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PropagationConfig":
        return cls(**obj)


@dataclass
class BipartiteGraph:
    mention_nodes: list[str]
    feature_nodes: list[str]
    adjacency: sp.csr_matrix  # symmetric, (m + f) x (m + f), mentions first
    node_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.node_index = {
            node: i
            for i, node in enumerate(self.mention_nodes + self.feature_nodes)
        }

    @property
    def n_nodes(self) -> int:
        return len(self.mention_nodes) + len(self.feature_nodes)

    def edges(self):
        """Iterate (mention_id, feature_id, weight); for debugging dumps."""
        m = len(self.mention_nodes)
        coo = sp.triu(self.adjacency).tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            yield self.mention_nodes[i], self.feature_nodes[j - m], w


def build_graph_from_mentions(mentions: list[Mention]) -> BipartiteGraph:
    """TF-IDF weighted bipartite graph: w(m,f) = tf(f,m) * ln(M / df(f)).

    Features present in every mention get idf 0 and lose all edges;
    nodes left with degree 0 are excluded entirely.
    """
    by_id = {m.mention_id: m for m in mentions}
    mention_ids = sorted(by_id)
    total = len(mention_ids)
    if total == 0:
        raise ValueError("cannot build a graph from zero mentions")

    df: dict[str, int] = {}
    for mid in mention_ids:
        for feat, _ in by_id[mid].features:
            df[feat] = df.get(feat, 0) + 1

    kept_features = sorted(f for f, d in df.items() if d < total)
    feat_index = {f: i for i, f in enumerate(kept_features)}

    rows, cols, data = [], [], []
    mention_degree = np.zeros(total)
    feature_degree = np.zeros(len(kept_features))
    for mi, mid in enumerate(mention_ids):
        for feat, tf in by_id[mid].features:
            fi = feat_index.get(feat)
            if fi is None:
                continue
            w = tf * math.log(total / df[feat])
            rows.append(mi)
            cols.append(fi)
            data.append(w)
            mention_degree[mi] += 1
            feature_degree[fi] += 1

    live_m = [i for i in range(total) if mention_degree[i] > 0]
    live_f = [i for i in range(len(kept_features)) if feature_degree[i] > 0]
    m_remap = {old: new for new, old in enumerate(live_m)}
    f_remap = {old: new for new, old in enumerate(live_f)}
    n_m, n_f = len(live_m), len(live_f)

    r2, c2, d2 = [], [], []
    for r, c, w in zip(rows, cols, data):
        mi, fi = m_remap[r], f_remap[c] + n_m
        r2.extend((mi, fi))
        c2.extend((fi, mi))
        d2.extend((w, w))
    adjacency = sp.csr_matrix(
        (d2, (r2, c2)), shape=(n_m + n_f, n_m + n_f)
    )
    return BipartiteGraph(
        mention_nodes=[mention_ids[i] for i in live_m],
        feature_nodes=[kept_features[i] for i in live_f],
        adjacency=adjacency,
    )


def build_graph(sets: MentionSets, variant: VariantSpec) -> BipartiteGraph:
    """Graph over the union of mentions in the variant's sets."""
    pool: dict[str, Mention] = {}
    for name in _SET_ORDER:
        if name in variant.include:
            for lm in sets.get(name):
                pool.setdefault(lm.mention.mention_id, lm.mention)
    if not pool:
        raise ValueError(f"variant {variant.name} selects no mentions")
    return build_graph_from_mentions(list(pool.values()))


def personalized_pagerank(
    graph: BipartiteGraph, seeds: set[str], config: PropagationConfig
) -> dict[str, float]:
    """Power iteration for p = alpha*s + (1-alpha)*T'p with s uniform
    over the seeds; returns scores for every node (sums to 1)."""
    if not seeds:
        raise ValueError("seed set is empty")
    idx = []
    for seed in sorted(seeds):
        i = graph.node_index.get(seed)
        if i is None:
            raise ValueError(f"seed {seed!r} is not a node in the graph")
        idx.append(i)
    # graph construction drops degree-0 nodes, but guard imported graphs
    degrees = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    for i in idx:
        if degrees[i] == 0:
            raise ValueError(f"seed {graph.mention_nodes[i]!r} is isolated")

    n = graph.n_nodes
    s = np.zeros(n)
    s[idx] = 1.0 / len(idx)

    inv_deg = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    t_transpose = (graph.adjacency.multiply(inv_deg[:, None])).T.tocsr()

    p = s.copy()
    for _ in range(config.max_iters):
        p_next = config.alpha * s + (1.0 - config.alpha) * (t_transpose @ p)
        if np.max(np.abs(p_next - p)) <= config.tolerance:
            p = p_next
            break
        p = p_next

    nodes = graph.mention_nodes + graph.feature_nodes
    return {node: float(p[i]) for i, node in enumerate(nodes)}


def relation_seeds(graph: BipartiteGraph, rs: list[LabeledMention]) -> dict[str, set[str]]:
    """The Rs mentions that are nodes of `graph`, grouped by relation: the
    restart sets of relation propagation."""
    node_set = set(graph.mention_nodes)
    seeds: dict[str, set[str]] = {}
    for lm in rs:
        if lm.mention.mention_id in node_set:
            seeds.setdefault(lm.label, set()).add(lm.mention.mention_id)
    if not seeds:
        raise ValueError("no Rs seed mentions survive in the propagation graph")
    return seeds


@dataclass
class RankedLabeling:
    per_class: dict[str, list[tuple[str, float]]]
    assignment: dict[str, str]  # mention_id -> argmax class


def multirankwalk(
    graph: BipartiteGraph,
    seeds_by_class: dict[str, set[str]],
    config: PropagationConfig,
) -> RankedLabeling:
    """One PPR per class; each mention gets its argmax class (ties to the
    lexicographically first class); per-class rankings cover only the
    mentions assigned to that class, best first."""
    if not seeds_by_class:
        raise ValueError("no classes given")
    scores = {
        cls: personalized_pagerank(graph, seeds_by_class[cls], config)
        for cls in sorted(seeds_by_class)
    }

    classes = sorted(scores)
    assignment = {}
    per_class: dict[str, list[tuple[str, float]]] = {c: [] for c in classes}
    for mid in graph.mention_nodes:
        # ties go to the lexicographically first class reaching the max
        best_score = max(scores[c][mid] for c in classes)
        best = next(c for c in classes if scores[c][mid] == best_score)
        assignment[mid] = best
        per_class[best].append((mid, best_score))
    for cls in classes:
        per_class[cls].sort(key=lambda t: (-t[1], t[0]))
    return RankedLabeling(per_class=per_class, assignment=assignment)


def write_ranking(ranking: RankedLabeling, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cls in sorted(ranking.per_class):
            for rank, (mid, score) in enumerate(ranking.per_class[cls], start=1):
                fh.write(f"{cls}\t{rank}\t{mid}\t{score:.12g}\n")


def read_ranking(path: str) -> RankedLabeling:
    per_class: dict[str, list[tuple[str, float]]] = {}
    assignment: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cls, _rank, mid, score = line.split("\t")
            per_class.setdefault(cls, []).append((mid, float(score)))
            assignment[mid] = cls
    return RankedLabeling(per_class=per_class, assignment=assignment)


def write_graph_dump(graph: BipartiteGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for mid, fid, w in graph.edges():
            fh.write(f"{mid}\t{fid}\t{w:.12g}\n")
