import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reldistill.features import FeatureTable, Mention
from reldistill.mentions import LEGAL_VARIANTS, LabeledMention, MentionSets, VariantSpec
from reldistill.propagation import (
    BipartiteGraph,
    PropagationConfig,
    _ppr_columns,
    build_graph,
    build_graph_from_mentions,
    multirankwalk,
    personalized_pagerank,
    write_graph_dump,
)
from reldistill.training import TrainConfig, distill


def edge_weights(graph):
    """(mention_id, feature_id) -> weight over the mention rows' edges, the
    upper triangle, read from lists of the whole of it."""
    m = len(graph.mention_nodes)
    indptr = graph.adjacency.indptr[: m + 1].tolist()
    columns = (graph.adjacency.indices[: indptr[-1]] - m).tolist()
    weights = graph.adjacency.data[: indptr[-1]].tolist()
    return {
        (mid, graph.feature_nodes[columns[k]]): weights[k]
        for i, mid in enumerate(graph.mention_nodes)
        for k in range(indptr[i], indptr[i + 1])
    }


def assigned(ranking):
    """mention_id -> the class whose ranking lists it; no mention may be
    listed under two classes."""
    pairs = [(mid, cls) for cls, ranked in ranking.per_class.items() for mid, _ in ranked]
    out = dict(pairs)
    assert len(out) == len(pairs)
    return out


_shared = [FeatureTable()]


def feature_row(features, table=None):
    """A row of `table` counting `features`. By default the helpers' mentions
    share one table, as a labeling run's do, until a selection seals it;
    the next mention starts a new one."""
    if table is None:
        if "matrix" in vars(_shared[0]):  # sealed
            _shared[0] = FeatureTable()
        table = _shared[0]
    return table.add_counts(features)


def as_pairs(mentions):
    """Each mention or labeled mention with its features as a tuple of
    (name, count) pairs. A row equals only itself, so mentions of two
    builds or reads compare this way, as do the oracles' mentions, which
    hold such tuples."""

    def pairs(m):
        if isinstance(m, LabeledMention):
            return replace(m, mention=pairs(m.mention))
        return replace(m, features=tuple(m.features))

    return list(map(pairs, mentions))


def make_mention(mid, features, tag="target", table=None):
    return Mention(
        mention_id=mid,
        doc_id=mid.split("|")[0],
        title_entity="x",
        section_title="overview",
        kind="singleton",
        item_surfaces=("x",),
        features=feature_row(features, table),
        corpus_tag=tag,
    )


def dense_ppr_solve(graph: BipartiteGraph, seeds, alpha):
    """Independent oracle: direct dense linear solve of p = a*s + (1-a)T'p."""
    n = graph.n_nodes
    adj = graph.adjacency.toarray()
    t = adj / adj.sum(axis=1, keepdims=True)
    s = np.zeros(n)
    for seed in seeds:
        s[graph.node_index[seed]] = 1.0 / len(seeds)
    return np.linalg.solve(np.eye(n) - (1 - alpha) * t.T, alpha * s)


class TestVariantSpec:
    def test_seven_legal_variants(self):
        names = set()
        for combo in ({"Rs"}, {"Rs", "Cs"}, {"Rs", "Rt"}, {"Rs", "Ct"},
                      {"Rs", "Cs", "Rt"}, {"Rs", "Cs", "Ct"}, {"Rs", "Rt", "Ct"},
                      {"Rs", "Cs", "Rt", "Ct"}):
            if combo == {"Rs"}:
                with pytest.raises(ValueError):
                    VariantSpec.parse(combo)
            else:
                names.add(VariantSpec.parse(combo).name)
        assert len(names) == 7

    def test_rs_required(self):
        with pytest.raises(ValueError):
            VariantSpec.parse({"Rt", "Ct"})

    def test_rule_gives_the_seven_variants_and_their_names(self):
        # the table the rule "Rs plus at least one other set" replaced
        table = {
            frozenset({"Rs", "Cs", "Rt", "Ct"}): "RsCsRtCt",
            frozenset({"Rs", "Cs", "Rt"}): "RsCsRt",
            frozenset({"Rs", "Cs", "Ct"}): "RsCsCt",
            frozenset({"Rs", "Cs"}): "RsCs",
            frozenset({"Rs", "Rt", "Ct"}): "RsRtCt",
            frozenset({"Rs", "Rt"}): "RsRt",
            frozenset({"Rs", "Ct"}): "RsCt",
        }
        assert len(LEGAL_VARIANTS) == 7 and set(LEGAL_VARIANTS) == set(table)
        assert {v: VariantSpec(v).name for v in LEGAL_VARIANTS} == table

    def test_only_the_variant_without_a_target_set_cannot_feed_target(self):
        # Target distills target-corpus mentions, and only Rt and Ct add
        # them to the graph: every Target cell of RsCs has no positives
        both = ("Both", "Target")
        assert {VariantSpec(v).name: VariantSpec(v).strategies for v in LEGAL_VARIANTS} == {
            "RsCs": ("Both",), "RsRt": both, "RsCt": both, "RsCsRt": both,
            "RsCsCt": both, "RsRtCt": both, "RsCsRtCt": both,
        }


class TestBuildGraph:
    def test_tfidf_weight_exact(self):
        # M=2 mentions, feature f in 1 of them with tf=2 -> w = 2 ln 2
        mentions = [
            make_mention("m1", {"f": 2, "g": 1}),
            make_mention("m2", {"g": 1, "h": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        weights = edge_weights(graph)
        assert weights[("m1", "f")] == pytest.approx(2 * math.log(2))
        # g occurs in every mention: idf 0, no edge, feature node dropped
        assert "g" not in graph.feature_nodes

    def test_five_mention_fixture_weights(self):
        mentions = [
            make_mention("m1", {"a": 1, "b": 2}),
            make_mention("m2", {"a": 1, "c": 1}),
            make_mention("m3", {"b": 1, "c": 3}),
            make_mention("m4", {"c": 1, "d": 1}),
            make_mention("m5", {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2}),
        ]
        graph = build_graph_from_mentions(mentions)
        # hand-computed tf * ln(5/df): df(a)=3, df(b)=3, df(c)=4, df(d)=2, df(e)=1
        expected = {
            ("m1", "a"): 1 * math.log(5 / 3),
            ("m1", "b"): 2 * math.log(5 / 3),
            ("m2", "a"): 1 * math.log(5 / 3),
            ("m2", "c"): 1 * math.log(5 / 4),
            ("m3", "b"): 1 * math.log(5 / 3),
            ("m3", "c"): 3 * math.log(5 / 4),
            ("m4", "c"): 1 * math.log(5 / 4),
            ("m4", "d"): 1 * math.log(5 / 2),
            ("m5", "a"): 1 * math.log(5 / 3),
            ("m5", "b"): 1 * math.log(5 / 3),
            ("m5", "c"): 1 * math.log(5 / 4),
            ("m5", "d"): 1 * math.log(5 / 2),
            ("m5", "e"): 2 * math.log(5 / 1),
        }
        got = edge_weights(graph)
        assert set(got) == set(expected)
        for key, w in expected.items():
            assert got[key] == pytest.approx(w, abs=1e-12)

    def test_universal_feature_df_equals_m(self):
        mentions = [make_mention(f"m{i}", {"f": 1, f"u{i}": 1}) for i in range(3)]
        graph = build_graph_from_mentions(mentions)
        assert "f" not in graph.feature_nodes

    def test_permutation_invariance(self):
        mentions = [
            make_mention("m1", {"a": 1, "b": 1}),
            make_mention("m2", {"b": 1, "c": 1}),
            make_mention("m3", {"a": 1, "c": 1}),
        ]
        g1 = build_graph_from_mentions(mentions)
        g2 = build_graph_from_mentions(list(reversed(mentions)))
        assert g1.mention_nodes == g2.mention_nodes
        assert g1.feature_nodes == g2.feature_nodes
        assert (g1.adjacency != g2.adjacency).nnz == 0

    def test_variant_selects_sets(self, structured_docs, triples, schema):
        from reldistill.features import FeatureConfig
        from reldistill.mentions import build_relation_mentions, corpus_mentions

        mentions = corpus_mentions(structured_docs, FeatureConfig(), FeatureTable())
        rs = build_relation_mentions(mentions, triples, schema, True)
        sets = MentionSets(Rs=rs, Rt=[], Cs=[], Ct=[])
        graph = build_graph(sets, VariantSpec.parse({"Rs", "Rt"}))
        assert set(graph.mention_nodes) <= {lm.mention.mention_id for lm in rs}


class TestPersonalizedPagerank:
    def test_two_node_closed_form(self):
        # single mention + single feature: p(m) = a / (1 - (1-a)^2)
        graph = build_graph_from_mentions(
            [make_mention("m1", {"f": 1, "u": 1}), make_mention("m2", {"u": 1})]
        )
        # u has df=2=M so only m1-f survives; m2 is dropped as dangling
        assert graph.mention_nodes == ["m1"] and graph.feature_nodes == ["f"]
        alpha = 0.15
        config = PropagationConfig(alpha=alpha, tolerance=1e-14, max_iters=5000)
        scores = personalized_pagerank(graph, {"m1"}, config)
        expected_m = alpha / (1 - (1 - alpha) ** 2)
        assert scores["m1"] == pytest.approx(expected_m, abs=1e-10)
        assert scores["f"] == pytest.approx(1 - expected_m, abs=1e-10)

    def test_restart_dominance(self):
        mentions = [
            make_mention("m1", {"a": 1, "b": 1}),
            make_mention("m2", {"b": 1, "c": 1}),
            make_mention("m3", {"c": 1, "d": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        scores = personalized_pagerank(graph, {"m1"}, PropagationConfig(alpha=0.99))
        assert all(scores["m1"] > scores[n] for n in scores if n != "m1")

    def test_seed_missing(self):
        graph = build_graph_from_mentions([make_mention("m1", {"f": 1})])
        with pytest.raises(ValueError, match="not a node"):
            personalized_pagerank(graph, {"nope"}, PropagationConfig())

    def test_seed_is_the_mention_when_a_feature_has_its_name(self):
        # doc id "bow=a" and a token "a|s0|t0|0-1" would give this pair
        name = "bow=a|s0|t0|0-1"
        clash = [make_mention(name, {"f": 1, "g": 1}), make_mention("m2", {"g": 1, name: 2}),
                 make_mention("m3", {"f": 1, "h": 1})]
        renamed = [make_mention("d|s0|t0|0-1", {"f": 1, "g": 1}), *clash[1:]]
        graph = build_graph_from_mentions(clash)
        assert graph.mention_nodes[0] == name and name in graph.feature_nodes
        assert graph.node_index[name] == 0
        # the walk restarts from the mention, as it does under another name
        config = PropagationConfig()
        got = multirankwalk(graph, {"r": {name}, "s": {"m3"}}, config).per_class
        want = multirankwalk(build_graph_from_mentions(renamed),
                             {"r": {"d|s0|t0|0-1"}, "s": {"m3"}}, config).per_class
        rename = {"d|s0|t0|0-1": name}
        assert got == {c: [(rename.get(mid, mid), p) for mid, p in ranked]
                       for c, ranked in want.items()}

    def test_feature_with_a_mention_name_refused(self):
        # the graph of test_seed_is_the_mention_when_a_feature_has_its_name:
        # scores keyed on name would let the feature's replace the mention's
        name = "bow=a|s0|t0|0-1"
        graph = build_graph_from_mentions([
            make_mention(name, {"f": 1, "g": 1}), make_mention("m2", {"g": 1, name: 2}),
            make_mention("m3", {"f": 1, "h": 1}),
        ])
        with pytest.raises(ValueError) as err:
            personalized_pagerank(graph, {name}, PropagationConfig())
        assert str(err.value) == f"node name {name!r} is both a mention and a feature"

    def test_four_node_fixture_matches_solve(self):
        mentions = [
            make_mention("m1", {"a": 2, "b": 1}),
            make_mention("m2", {"b": 1, "c": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        config = PropagationConfig(tolerance=1e-13, max_iters=10000)
        scores = personalized_pagerank(graph, {"m1"}, config)
        oracle = dense_ppr_solve(graph, {"m1"}, config.alpha)
        for idx, node in enumerate(graph.mention_nodes + graph.feature_nodes):
            assert scores[node] == pytest.approx(oracle[idx], abs=1e-8)

    def test_distribution(self):
        mentions = [make_mention(f"m{i}", {f"f{i}": 1, f"f{(i+1)%4}": 1}) for i in range(4)]
        graph = build_graph_from_mentions(mentions)
        scores = personalized_pagerank(graph, {"m0", "m2"}, PropagationConfig())
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-8)
        assert all(v >= 0 for v in scores.values())


@st.composite
def random_bipartite(draw):
    n_m = draw(st.integers(2, 8))
    n_f = draw(st.integers(1, 6))
    mentions = []
    for i in range(n_m):
        feats = draw(
            st.dictionaries(
                st.integers(0, n_f - 1), st.integers(1, 3), min_size=1, max_size=n_f
            )
        )
        mentions.append(make_mention(f"m{i:02d}", {f"f{j:02d}": c for j, c in feats.items()}))
    return mentions


@given(random_bipartite(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_ppr_matches_dense_solve_property(mentions, seed_pick):
    try:
        graph = build_graph_from_mentions(mentions)
    except ValueError:
        return
    if not graph.mention_nodes:
        return
    seeds = {graph.mention_nodes[seed_pick % len(graph.mention_nodes)]}
    config = PropagationConfig(tolerance=1e-12, max_iters=20000)
    scores = personalized_pagerank(graph, seeds, config)
    oracle = dense_ppr_solve(graph, seeds, config.alpha)
    for idx, node in enumerate(graph.mention_nodes + graph.feature_nodes):
        assert abs(scores[node] - oracle[idx]) <= 1e-8


@given(random_bipartite(), st.floats(0.05, 0.9), st.floats(0.01, 0.09))
@settings(max_examples=30, deadline=None)
def test_seed_score_monotone_in_alpha(mentions, alpha, bump):
    try:
        graph = build_graph_from_mentions(mentions)
    except ValueError:
        return
    if not graph.mention_nodes:
        return
    seed = graph.mention_nodes[0]
    idx = graph.node_index[seed]
    lo = dense_ppr_solve(graph, {seed}, alpha)
    hi = dense_ppr_solve(graph, {seed}, min(alpha + bump, 0.999))
    assert hi[idx] >= lo[idx] - 1e-12


class TestMultiRankWalk:
    def test_disjoint_components(self):
        mentions = [
            make_mention("a1", {"f1": 1, "f2": 1}),
            make_mention("a2", {"f2": 1, "f3": 1}),
            make_mention("b1", {"g1": 1, "g2": 1}),
            make_mention("b2", {"g2": 1, "g3": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        ranking = multirankwalk(
            graph, {"relA": {"a1"}, "relB": {"b1"}}, PropagationConfig()
        )
        assert assigned(ranking) == {"a1": "relA", "a2": "relA",
                                     "b1": "relB", "b2": "relB"}
        # seeds outrank non-seeds inside their own component
        assert ranking.per_class["relA"][0][0] == "a1"
        assert ranking.per_class["relB"][0][0] == "b1"

    def test_unreached_component_gets_no_class(self):
        # seeds in one component only: b1 and b2 score 0 for every class
        mentions = [
            make_mention("a1", {"f1": 1, "f2": 1}),
            make_mention("a2", {"f2": 1, "f3": 1}),
            make_mention("b1", {"g1": 1, "g2": 1}),
            make_mention("b2", {"g2": 1, "g3": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        ranking = multirankwalk(
            graph, {"relA": {"a1"}, "relB": {"a2"}}, PropagationConfig()
        )
        assert assigned(ranking) == {"a1": "relA", "a2": "relB"}
        ranked = [mid for r in ranking.per_class.values() for mid, _ in r]
        assert sorted(ranked) == ["a1", "a2"]
        # so distillation cannot take an unreached mention as a positive
        sets = MentionSets(Rt=[LabeledMention(m, "relA", "Rt") for m in mentions])
        positives, shortfalls = distill(ranking, sets, TrainConfig(n=3))
        assert [m.mention_id for m in positives["relA"]] == ["a1"]
        assert shortfalls == {"relA": 2, "relB": 2}

    def test_tie_breaks_lexicographic(self):
        # symmetric graph, symmetric seeds: the middle mention ties
        mentions = [
            make_mention("m1", {"f1": 1, "shared": 1}),
            make_mention("m2", {"f2": 1, "shared": 1}),
            make_mention("mid", {"f1": 1, "f2": 1}),
        ]
        graph = build_graph_from_mentions(mentions)
        ranking = multirankwalk(
            graph, {"relA": {"m1"}, "relB": {"m2"}}, PropagationConfig(tolerance=1e-14)
        )
        assert assigned(ranking)["mid"] == "relA"

    def test_seed_that_is_no_node_is_skipped(self):
        mentions = [
            make_mention("a1", {"f1": 1, "f2": 1, "u": 1}),
            make_mention("a2", {"f2": 1, "f3": 1, "u": 1}),
            make_mention("dropped", {"u": 1}),  # idf 0 only: no node
        ]
        graph = build_graph_from_mentions(mentions)
        assert "dropped" not in graph.node_index
        got = multirankwalk(graph, {"r": {"a1", "dropped", "ghost"}}, PropagationConfig())
        assert got == multirankwalk(graph, {"r": {"a1"}}, PropagationConfig())
        assert [mid for mid, _ in got.per_class["r"]] == ["a1", "a2"]

    def test_class_without_a_seed_in_the_graph_is_absent(self):
        mentions = [make_mention("a1", {"f1": 1, "f2": 1}), make_mention("a2", {"f2": 1})]
        graph = build_graph_from_mentions(mentions)
        got = multirankwalk(
            graph, {"relA": {"a1"}, "relB": {"ghost"}}, PropagationConfig()
        )
        assert got == multirankwalk(graph, {"relA": {"a1"}}, PropagationConfig())
        assert list(got.per_class) == ["relA"]
        # with no class left, the ranking is empty
        assert multirankwalk(graph, {"relB": {"ghost"}}, PropagationConfig()).per_class == {}
        assert multirankwalk(graph, {}, PropagationConfig()).per_class == {}

    def test_class_assigned_no_mention_is_absent(self):
        # A and B walk from one seed: every mention ties and goes to A
        mentions = [make_mention(f"m{i}", {f"f{i}": 1, f"f{i + 1}": 1}) for i in range(4)]
        graph = build_graph_from_mentions(mentions)
        got = multirankwalk(graph, {"A": {"m0"}, "B": {"m0"}}, PropagationConfig())
        assert {cls: len(ranked) for cls, ranked in got.per_class.items()} == {"A": 4}

    def test_scores_in_unit_interval(self):
        mentions = [make_mention(f"m{i}", {f"f{i}": 1, "link": 1}) for i in range(5)]
        graph = build_graph_from_mentions(mentions)
        ranking = multirankwalk(graph, {"r": {"m0"}}, PropagationConfig())
        for mid, score in ranking.per_class["r"]:
            assert 0.0 <= score <= 1.0


def test_graph_build_and_walk_set_up_stay_within_memory_bounds():
    """The tracemalloc peak of building the graph, and what the walk adds
    to the memory held before it, as multiples of the adjacency's bytes.
    Copies of the whole matrix (a COO of both triangles, the row-scaled
    adjacency and its transposed copy) measured 3.85 and 2.05 here; the
    CSR built in place measured 2.6 and 0.81. Each bound sits midway. The
    build also makes the first read of the mentions' feature table, as a
    run's first graph does: its count matrix (0.53 of the adjacency) is
    traced, while the lists it replaces were made before tracing started,
    so the build measures 3.15."""
    rng = random.Random(3)
    table = FeatureTable()  # unsealed: its first read is in the graph build, as in a labeling run
    mentions = [
        make_mention(f"m{i:04d}", {
            **{f"f{rng.randrange(400)}": rng.randint(1, 3) for _ in range(20)}, "u": 1,
        }, table=table)
        for i in range(2000)
    ]
    mentions.append(make_mention("zz", {"u": 2}, table=table))  # idf 0 only: no edge
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        graph = build_graph_from_mentions(mentions)
        build = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _ppr_columns(graph, [{graph.mention_nodes[0]}], PropagationConfig())
        walk = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    a = graph.adjacency
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert build <= 3.2 * size, build / size
    assert walk <= 1.4 * size, walk / size


def test_graph_dump_stays_within_memory_bound(tmp_path):
    """The tracemalloc peak of writing a graph of about the benchmark's
    relation graph (4,000 mentions, 2.9 MB of lines), as a share of the
    bytes written. Lists of 1,024 rows of edges measured 0.38 here and one
    joined string per 1,024 rows 0.57; per 256 rows it measures 0.16. The
    bound sits midway between 0.16 and 0.38."""
    rng = random.Random(3)
    graph = build_graph_from_mentions([
        make_mention(f"doc{i // 4:05d}|s0|t{i % 4}|3-5", {
            **{f"f{rng.randrange(400)}": rng.randint(1, 3) for _ in range(20)}, "u": 1,
        })
        for i in range(4000)
    ])
    path = tmp_path / "graph.tsv"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_graph_dump(graph, str(path))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 0.27 * size, peak / size
