"""TF-IDF bipartite mention-feature graph and multi-class personalized
PageRank: each class restarts from its seeds in the graph; argmax assignment.

The walk is undirected: the transition matrix is the row-normalized
symmetric weighted adjacency, so every step alternates between the
mention side and the feature side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp

from .decode import finite, tsv
from .features import Mention, select_rows


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


# mention rows per string that `write_graph_dump` joins: a larger block
# is no faster and raises the writer's peak memory
_DUMP_BLOCK_ROWS = 256


@dataclass
class BipartiteGraph:
    """A mention-feature graph. The adjacency is a CSR matrix over the
    mention nodes, then the feature nodes; it is symmetric, every row's
    column indices ascend, and mentions link only to features. So a
    mention row holds the edges of the upper triangle, and a column of
    the adjacency is its row. `node_index` maps each mention id, the only
    kind of node a walk restarts from, to its row."""

    mention_nodes: list[str]
    feature_nodes: list[str]
    adjacency: sp.csr_matrix  # symmetric, (m + f) x (m + f), mentions first
    node_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.node_index = {mid: i for i, mid in enumerate(self.mention_nodes)}

    @property
    def n_nodes(self) -> int:
        return len(self.mention_nodes) + len(self.feature_nodes)


def build_graph_from_mentions(mentions: list[Mention]) -> BipartiteGraph:
    """TF-IDF weighted bipartite graph: w(m,f) = tf(f,m) * ln(M / df(f)).

    Features present in every mention get idf 0 and lose all edges;
    nodes left with degree 0 are excluded entirely. The adjacency is
    built in CSR directly: the mention rows are the count matrix's rows
    without the idf-0 entries, and the feature rows are the same weights
    taken column by column.
    """
    by_id = {m.mention_id: m for m in mentions}
    mention_ids = sorted(by_id)
    total = len(mention_ids)
    if total == 0:
        raise ValueError("cannot build a graph from zero mentions")

    vocab, x = select_rows([by_id[mid] for mid in mention_ids])
    df = np.bincount(x.indices, minlength=len(vocab))
    keep = df < total
    kept = np.flatnonzero(keep)
    idf = np.zeros(len(vocab))
    # math.log, not np.log: a vectorized log may differ in the last bit
    idf[kept] = [math.log(total / d) for d in df[kept].tolist()]
    on = keep[x.indices]  # the entries of kept features
    # row i of the count matrix keeps row_end[i + 1] - row_end[i] entries;
    # every kept feature occurs in some mention, so only mentions can be
    # left without an edge
    row_end = np.concatenate(([0], np.cumsum(on)))[x.indptr]
    live_m = np.flatnonzero(row_end[1:] != row_end[:-1])
    n_m, nnz = len(live_m), int(row_end[-1])
    n = n_m + len(kept)
    index_dtype = np.int32 if max(n, 2 * nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(n + 1, dtype=index_dtype)
    indices = np.empty(2 * nnz, dtype=index_dtype)
    data = np.empty(2 * nnz)

    indptr[0] = 0
    indptr[1 : n_m + 1] = row_end[live_m + 1]
    columns = x.indices[on]
    np.multiply(x.data[on], idf[columns], out=data[:nnz])
    np.add((np.cumsum(keep) - 1)[columns], n_m, out=indices[:nnz])
    # column-wise, each feature's mentions come in ascending order
    w = sp.csr_matrix((data[:nnz], indices[:nnz], indptr[: n_m + 1]), shape=(n_m, n)).tocsc()
    indptr[n_m + 1 :] = w.indptr[n_m + 1 :] + nnz
    indices[nnz:] = w.indices
    data[nnz:] = w.data
    return BipartiteGraph(
        mention_nodes=[mention_ids[i] for i in live_m.tolist()],
        feature_nodes=[vocab[j] for j in kept.tolist()],
        adjacency=sp.csr_matrix((data, indices, indptr), shape=(n, n)),
    )


def build_graph(sets, variant) -> BipartiteGraph:
    """Graph over the union of mentions in the sets of `variant`, a
    `mentions.VariantSpec`, taken from `sets`, a `mentions.MentionSets`."""
    pool = sets.by_id(variant.include)
    if not pool:
        raise ValueError(f"variant {variant.name} selects no mentions")
    return build_graph_from_mentions(list(pool.values()))


def _walk_matrix(a: sp.csr_matrix, degrees: np.ndarray) -> sp.csr_matrix:
    """T', the transpose of the row-normalized adjacency `a` whose row sums
    are `degrees`. T'[i, j] = a[j, i] * inv_deg[j] = a[i, j] * inv_deg[j],
    as `a` is symmetric, so T' shares the indices and indptr of `a` and
    no transposed copy is made."""
    # a graph built from mentions has no degree-0 node, but one built by
    # hand may; such a node gets no walk weight
    inv_deg = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    scaled = inv_deg[a.indices]
    np.multiply(a.data, scaled, out=scaled)
    return sp.csr_matrix((scaled, a.indices, a.indptr), shape=a.shape)


def _ppr_columns(
    graph: BipartiteGraph, seed_sets: list[set[str]], config: PropagationConfig
) -> list[np.ndarray]:
    """Power iteration for p = alpha*s + (1-alpha)*T'p, one seed set per
    class, s uniform over the seeds. Every seed set is checked first; T'
    is built once and each class then iterates with its own matvec and
    stopping rule. A class that has not met the tolerance after
    `max_iters` steps raises ValueError."""
    a = graph.adjacency
    degrees = np.asarray(a.sum(axis=1)).ravel()
    restarts = []
    for seeds in seed_sets:
        if not seeds:
            raise ValueError("seed set is empty")
        idx = []
        for seed in sorted(seeds):
            i = graph.node_index.get(seed)
            if i is None:
                raise ValueError(f"seed {seed!r} is not a node in the graph")
            if degrees[i] == 0:
                raise ValueError(f"seed {seed!r} is isolated")
            idx.append(i)
        restarts.append(idx)

    t_transpose = _walk_matrix(a, degrees)
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
    """Scores of every node (summing to 1) for one restart set, keyed on
    name; a feature that has a mention's name is refused, as the two
    scores would share one key."""
    shared = set(graph.mention_nodes).intersection(graph.feature_nodes)
    if shared:
        raise ValueError(f"node name {min(shared)!r} is both a mention and a feature")
    (p,) = _ppr_columns(graph, [seeds], config)
    return dict(zip(graph.mention_nodes + graph.feature_nodes, p.tolist()))


@dataclass
class RankedLabeling:
    per_class: dict[str, list[tuple[str, float]]]  # class -> its argmax mentions, best first


def multirankwalk(
    graph: BipartiteGraph,
    seeds_by_class: dict[str, set[str]],
    config: PropagationConfig,
) -> RankedLabeling:
    """One PPR per class from its seeds that are graph nodes; each mention
    gets its argmax class (ties to the lexicographically first class). A
    class ranks its mentions, best first; one with no seed in the graph or
    no mention is absent, as from `write_ranking`'s file. A mention that
    scores 0 for every class (no walk reaches it) gets no class."""
    seeds = {c: ids & graph.node_index.keys() for c, ids in seeds_by_class.items()}
    classes = sorted(c for c, ids in seeds.items() if ids)
    if not classes:
        return RankedLabeling(per_class={})
    columns = _ppr_columns(graph, [seeds[c] for c in classes], config)
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
    for ranked in per_class.values():
        ranked.sort(key=lambda t: (-t[1], t[0]))
    return RankedLabeling(per_class={c: ranked for c, ranked in per_class.items() if ranked})


def write_ranking(ranking: RankedLabeling, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cls in sorted(ranking.per_class):
            for rank, (mid, score) in enumerate(ranking.per_class[cls], start=1):
                fh.write(f"{cls}\t{rank}\t{mid}\t{score:.12g}\n")


def read_ranking(path: str) -> RankedLabeling:
    per_class: dict[str, list[tuple[str, float]]] = {}

    def row(cls: str, _rank: str, mid: str, score: str) -> None:
        per_class.setdefault(cls, []).append((mid, finite(score)))

    tsv(path, 4, row)
    return RankedLabeling(per_class=per_class)


class _WeightText(dict):
    """weight -> its `graph.tsv` text, made on first lookup. A weight is
    tf * ln(M / df) and the df values of the kept features sum to nnz, so
    at most sqrt(2 * nnz) distinct df values times the distinct tf counts
    are kept, whatever the vocabulary."""

    def __missing__(self, w: float) -> str:
        text = f"{w:.12g}\n"
        if w:  # 0.0 == -0.0 but the two print apart, so a zero is never kept
            self[w] = text
        return text


def write_graph_dump(graph: BipartiteGraph, path: str) -> None:
    """One `mention<TAB>feature<TAB>weight` line per edge of the upper
    triangle: the mention rows in storage order, each row's features in
    ascending column order, weights printed `.12g`. Each node's text and
    each distinct weight's text is made once, and a block of mention rows
    is joined into one string and written at once."""
    m = len(graph.mention_nodes)
    a = graph.adjacency
    feature_text = [f"{fid}\t" for fid in graph.feature_nodes]
    weight_text = _WeightText()
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, m, _DUMP_BLOCK_ROWS):
            hi = min(lo + _DUMP_BLOCK_ROWS, m)
            indptr = a.indptr[lo : hi + 1]
            start, stop = int(indptr[0]), int(indptr[-1])
            heads = [f"{mid}\t" for mid in graph.mention_nodes[lo:hi]]
            fh.write("".join(chain.from_iterable(zip(
                chain.from_iterable(map(repeat, heads, np.diff(indptr).tolist())),
                map(feature_text.__getitem__, (a.indices[start:stop] - m).tolist()),
                map(weight_text.__getitem__, a.data[start:stop].tolist()),
            ))))
