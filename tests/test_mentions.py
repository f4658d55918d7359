import numpy as np
import pytest

from reldistill.features import FeatureConfig, Mention
from reldistill.mentions import (
    build_relation_mentions,
    corpus_mentions,
    enumerate_mentions,
    expand_concept_mentions,
    filter_concept_sections,
    labeled_mention_from_dict,
    labeled_mention_to_dict,
)
from reldistill.propagation import PropagationConfig


@pytest.fixture(scope="module")
def structured_mentions(structured_docs):
    return corpus_mentions(structured_docs, FeatureConfig())


@pytest.fixture(scope="module")
def target_mentions(target_docs):
    return corpus_mentions(target_docs, FeatureConfig())


def make_mention(mid, surfaces, features, tag="target", section="overview", title="drugx"):
    return Mention(
        mention_id=mid,
        doc_id=mid.split("|")[0],
        title_entity=title,
        section_title=section,
        kind="singleton" if len(surfaces) == 1 else "list",
        item_surfaces=tuple(surfaces),
        features=tuple(sorted(features.items())),
        corpus_tag=tag,
    )


class TestEnumeration:
    def test_lists_absorb_their_items(self, structured_docs):
        doc = structured_docs[0]
        mentions = enumerate_mentions(doc, FeatureConfig())
        first_sentence = [m for m in mentions if m.mention_id.startswith("s1|s0|t0")]
        kinds = {m.kind for m in first_sentence}
        assert kinds == {"list", "singleton"}
        lists = [m for m in first_sentence if m.kind == "list"]
        assert len(lists) == 1
        assert lists[0].item_surfaces == ("stomach upset", "nausea", "dizziness")
        singles = {m.item_surfaces[0] for m in first_sentence if m.kind == "singleton"}
        assert singles == {"Side effects"}

    def test_ids_unique(self, structured_mentions, target_mentions):
        ids = [m.mention_id for m in structured_mentions + target_mentions]
        assert len(ids) == len(set(ids))


class TestDistantLabeling:
    def test_hand_enumerated_rs(self, structured_mentions, triples, schema):
        rs = build_relation_mentions(structured_mentions, triples, schema, True)
        got = {(lm.mention.mention_id, lm.label) for lm in rs}
        assert got == {
            ("s1|s0|t0|3-10", "sideEffect"),
            ("s1|s1|t0|3-4", "usedToTreat"),
            ("s2|s0|t0|2-3", "sideEffect"),
            ("s2|s1|t0|2-5", "usedToTreat"),
        }
        assert all(lm.source_set == "Rs" for lm in rs)

    def test_overdose_nausea_excluded_by_sections(self, structured_mentions, triples, schema):
        relaxed = build_relation_mentions(structured_mentions, triples, schema, False)
        strict = build_relation_mentions(structured_mentions, triples, schema, True)
        relaxed_keys = {(lm.mention.mention_id, lm.label) for lm in relaxed}
        strict_keys = {(lm.mention.mention_id, lm.label) for lm in strict}
        assert strict_keys < relaxed_keys
        assert relaxed_keys - strict_keys == {("s1|s2|t0|4-5", "sideEffect")}

    def test_rt_unconstrained(self, target_mentions, triples, schema):
        rt = build_relation_mentions(target_mentions, triples, schema, False)
        got = {(lm.mention.mention_id, lm.label) for lm in rt}
        assert got == {
            ("t1|s0|t0|3-4", "sideEffect"),
            ("t1|s0|t1|4-5", "usedToTreat"),
            ("t2|s0|t0|2-5", "sideEffect"),
        }
        assert all(lm.source_set == "Rt" for lm in rt)

    def test_triple_order_invariance(self, structured_mentions, triples, schema):
        a = build_relation_mentions(structured_mentions, triples, schema, True)
        b = build_relation_mentions(structured_mentions, list(reversed(triples)), schema, True)
        assert a == b


class TestConceptExpansion:
    def test_seed_expansion_reaches_similar_mention(self, schema, concept_seeds):
        # five mentions; "vomiting" shares context features with the
        # "nausea" seed and nothing else is near the Symptom seed
        shared = {"bow=report": 1, "win-L1=report": 1, "vrb=report": 1}
        mentions = [
            make_mention("d1|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, **shared}),
            make_mention("d1|s0|t1|0-1", ["vomiting"], {"tok=vomiting": 1, **shared}),
            make_mention("d2|s0|t0|0-1", ["arthritis"], {"tok=arthritis": 1, "bow=treats": 1}),
            make_mention("d2|s0|t1|0-1", ["paper"], {"tok=paper": 1, "bow=reads": 1}),
            make_mention("d3|s0|t0|0-1", ["pain"], {"tok=pain": 1, "bow=treats": 1}),
        ]
        config = PropagationConfig()
        out = expand_concept_mentions(mentions, concept_seeds, schema, config, "Ct")
        symptom_ids = {lm.mention.mention_id for lm in out if lm.label == "Symptom"}
        assert "d1|s0|t0|0-1" in symptom_ids  # seed retained
        assert "d1|s0|t1|0-1" in symptom_ids  # reached by propagation
        assert "d2|s0|t1|0-1" not in symptom_ids

        # cross-check assignment with a brute-force dense PPR solve
        from reldistill.propagation import build_graph_from_mentions

        graph = build_graph_from_mentions(mentions)
        alpha = config.alpha
        adj = graph.adjacency.toarray()
        t = adj / adj.sum(axis=1, keepdims=True)
        n = graph.n_nodes
        vomiting = graph.node_index["d1|s0|t1|0-1"]

        def solve(seed_ids):
            s = np.zeros(n)
            for sid in seed_ids:
                s[graph.node_index[sid]] = 1 / len(seed_ids)
            return np.linalg.solve(np.eye(n) - (1 - alpha) * t.T, alpha * s)

        p_sym = solve(["d1|s0|t0|0-1"])
        p_dis = solve(["d2|s0|t0|0-1", "d3|s0|t0|0-1"])
        assert p_sym[vomiting] > p_dis[vomiting]

    def test_zero_seeds_empty_expansion(self, schema):
        mentions = [make_mention("d1|s0|t0|0-1", ["x"], {"tok=x": 1, "bow=y": 1})]
        assert expand_concept_mentions(mentions, [], schema, PropagationConfig(), "Ct") == []

    def test_seeds_always_included(self, schema, concept_seeds):
        mentions = [
            make_mention("d1|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, "bow=a": 1}),
            make_mention("d1|s0|t1|0-1", ["other thing"], {"tok=other": 1, "bow=a": 1}),
        ]
        out = expand_concept_mentions(
            mentions, concept_seeds, schema, PropagationConfig(concept_score_floor=2.0), "Ct"
        )
        assert ("d1|s0|t0|0-1", "Symptom") in {
            (lm.mention.mention_id, lm.label) for lm in out
        }

    @pytest.mark.parametrize("source_set", ["Cs", "Ct"])
    def test_set_name_is_the_one_given(self, schema, concept_seeds, source_set):
        # a target mention sorts first, so its corpus tag cannot name the set
        mentions = [
            make_mention("a|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, "bow=a": 1}),
            make_mention("b|s0|t0|0-1", ["headache"], {"tok=headache": 1, "bow=a": 1},
                         tag="structured"),
        ]
        out = expand_concept_mentions(
            mentions, concept_seeds, schema, PropagationConfig(), source_set
        )
        assert out
        assert {lm.source_set for lm in out} == {source_set}


class TestSectionFilter:
    def test_symptom_kept_in_side_effects(self, schema, concept_seeds):
        from reldistill.mentions import LabeledMention

        keep = LabeledMention(
            make_mention("a|s0|t0|0-1", ["nausea"], {"tok=nausea": 1},
                         tag="structured", section="side effects"),
            "Symptom", "Cs",
        )
        drop = LabeledMention(
            make_mention("a|s1|t0|0-1", ["nausea"], {"tok=nausea": 1},
                         tag="structured", section="overdose"),
            "Symptom", "Cs",
        )
        assert filter_concept_sections([keep, drop], schema) == [keep]

    def test_empty_input(self, schema):
        assert filter_concept_sections([], schema) == []


def test_labeled_mention_roundtrip(structured_mentions, triples, schema):
    rs = build_relation_mentions(structured_mentions, triples, schema, True)
    for lm in rs:
        assert labeled_mention_from_dict(labeled_mention_to_dict(lm)) == lm
