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

from .decode import tsv_rows
from .features import Mention, feature_matrix
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
        # 0 keeps only the seeds of each concept
        if self.concept_top_k < 0:
            raise ValueError(f"concept_top_k must be >= 0, got {self.concept_top_k}")


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
        """Iterate (mention_id, feature_id, weight) over the mention rows of
        the adjacency in storage order: the edges of its upper triangle."""
        m = len(self.mention_nodes)
        indptr = self.adjacency.indptr[: m + 1].tolist()
        stop = indptr[-1]
        columns = (self.adjacency.indices[:stop] - m).tolist()
        weights = self.adjacency.data[:stop].tolist()
        features = self.feature_nodes
        for i, mid in enumerate(self.mention_nodes):
            for k in range(indptr[i], indptr[i + 1]):
                yield mid, features[columns[k]], weights[k]


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

    vocab, x = feature_matrix([by_id[mid] for mid in mention_ids])
    df = np.bincount(x.indices, minlength=len(vocab))
    kept = np.flatnonzero(df < total)
    # math.log, not np.log: a vectorized log may differ in the last bit
    idf = np.array([math.log(total / d) for d in df[kept].tolist()])
    w = x[:, kept].multiply(idf).tocsr()
    # every kept feature occurs in some mention, so only mentions can be
    # left without an edge
    live_m = np.flatnonzero(w.getnnz(axis=1))
    w = w[live_m]
    return BipartiteGraph(
        mention_nodes=[mention_ids[i] for i in live_m.tolist()],
        feature_nodes=[vocab[j] for j in kept.tolist()],
        adjacency=sp.bmat([[None, w], [w.T, None]], format="csr"),
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


def _ppr_columns(
    graph: BipartiteGraph, seed_sets: list[set[str]], config: PropagationConfig
) -> list[np.ndarray]:
    """Power iteration for p = alpha*s + (1-alpha)*T'p, one seed set per
    class, s uniform over the seeds. Every seed set is checked first; T'
    is built once and each class then iterates with its own matvec and
    stopping rule. A class that has not met the tolerance after
    `max_iters` steps raises ValueError."""
    nodes = graph.mention_nodes + graph.feature_nodes
    # graph construction drops degree-0 nodes, but guard imported graphs
    degrees = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    restarts = []
    for seeds in seed_sets:
        if not seeds:
            raise ValueError("seed set is empty")
        idx = []
        for seed in sorted(seeds):
            i = graph.node_index.get(seed)
            if i is None:
                raise ValueError(f"seed {seed!r} is not a node in the graph")
            idx.append(i)
        for i in idx:
            if degrees[i] == 0:
                raise ValueError(f"seed {nodes[i]!r} is isolated")
        restarts.append(idx)

    inv_deg = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    t_transpose = (graph.adjacency.multiply(inv_deg[:, None])).T.tocsr()
    walk = 1.0 - config.alpha

    columns = []
    for idx in restarts:
        p = np.zeros(graph.n_nodes)
        p[idx] = 1.0 / len(idx)
        restart = config.alpha * p
        for _ in range(config.max_iters):
            p_next = restart + walk * (t_transpose @ p)
            residual = np.max(np.abs(p_next - p))
            p = p_next
            if residual <= config.tolerance:
                break
        else:
            raise ValueError(
                f"personalized PageRank did not converge in {config.max_iters} "
                f"iterations (residual {residual:.3g} > tolerance {config.tolerance:g})"
            )
        columns.append(p)
    return columns


def personalized_pagerank(
    graph: BipartiteGraph, seeds: set[str], config: PropagationConfig
) -> dict[str, float]:
    """Scores of every node (summing to 1) for one restart set."""
    (p,) = _ppr_columns(graph, [seeds], config)
    return dict(zip(graph.mention_nodes + graph.feature_nodes, p.tolist()))


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
    per_class: dict[str, list[tuple[str, float]]]  # class -> its argmax mentions, best first


def multirankwalk(
    graph: BipartiteGraph,
    seeds_by_class: dict[str, set[str]],
    config: PropagationConfig,
) -> RankedLabeling:
    """One PPR per class; each mention gets its argmax class (ties to the
    lexicographically first class); per-class rankings cover only the
    mentions assigned to that class, best first. A mention that scores 0
    for every class (no walk reaches it) gets no class."""
    if not seeds_by_class:
        raise ValueError("no classes given")
    classes = sorted(seeds_by_class)
    columns = _ppr_columns(graph, [seeds_by_class[c] for c in classes], config)
    n_m = len(graph.mention_nodes)
    scores = np.column_stack([p[:n_m] for p in columns])  # mentions x classes
    # np.argmax takes the first maximum: ties go to the first class
    best = np.argmax(scores, axis=1)
    best_scores = scores[np.arange(n_m), best]

    per_class: dict[str, list[tuple[str, float]]] = {c: [] for c in classes}
    for mid, k, score in zip(graph.mention_nodes, best.tolist(), best_scores.tolist()):
        if score == 0.0:
            continue
        per_class[classes[k]].append((mid, score))
    for cls in classes:
        per_class[cls].sort(key=lambda t: (-t[1], t[0]))
    return RankedLabeling(per_class=per_class)


def write_ranking(ranking: RankedLabeling, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cls in sorted(ranking.per_class):
            for rank, (mid, score) in enumerate(ranking.per_class[cls], start=1):
                fh.write(f"{cls}\t{rank}\t{mid}\t{score:.12g}\n")


def read_ranking(path: str) -> RankedLabeling:
    per_class: dict[str, list[tuple[str, float]]] = {}
    for _, (cls, _rank, mid, score) in tsv_rows(path, 4, ValueError):
        per_class.setdefault(cls, []).append((mid, float(score)))
    return RankedLabeling(per_class=per_class)


def write_graph_dump(graph: BipartiteGraph, path: str) -> None:
    # a weight is tf * ln(M / df) and the df values of the kept features sum
    # to nnz, so at most sqrt(2 * nnz) distinct df values times the distinct
    # tf counts reach this cache, whatever the vocabulary
    text: dict[float, str] = {}

    def fmt(w: float) -> str:
        s = text.get(w)
        if s is None:
            s = f"{w:.12g}"
            if w:  # 0.0 == -0.0 but the two print apart, so zeros are never cached
                text[w] = s
        return s

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{mid}\t{fid}\t{fmt(w)}\n" for mid, fid, w in graph.edges())
