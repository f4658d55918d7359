import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reldistill.corpus import ingest_corpus
from reldistill.features import FeatureConfig, Mention
from reldistill.kb import ConceptSeed
from reldistill.mentions import (
    LabeledMention,
    MentionEncoder,
    build_mention_sets,
    build_relation_mentions,
    corpus_mentions,
    enumerate_mentions,
    expand_concept_mentions,
    filter_concept_sections,
    labeled_mention_from_dict,
    labeled_mention_to_dict,
    mention_to_dict,
    read_labeled_mentions,
    read_mentions,
    write_labeled_mentions,
    write_mentions,
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
        mentions = enumerate_mentions(doc, FeatureConfig(), {})
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

    def test_shared_mention_id_is_refused(self, structured_docs):
        # ingest refuses a repeated doc_id; a document list built by hand does not
        doc = structured_docs[0]
        first = min(m.mention_id for m in enumerate_mentions(doc, FeatureConfig(), {}))
        with pytest.raises(ValueError, match=f"^two mentions share mention_id '{re.escape(first)}'$"):
            corpus_mentions([doc, doc], FeatureConfig())


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
    def test_seed_expansion_reaches_similar_mention(self, concept_seeds):
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
        out = expand_concept_mentions(mentions, concept_seeds, config, "Ct")
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

    def test_zero_seeds_empty_expansion(self):
        mentions = [make_mention("d1|s0|t0|0-1", ["x"], {"tok=x": 1, "bow=y": 1})]
        assert expand_concept_mentions(mentions, [], PropagationConfig(), "Ct") == []

    def test_mention_no_walk_reaches_is_not_labeled(self, concept_seeds):
        # "paper" shares no feature with the seed's component, so it scores
        # 0 for every concept: the default floor of 0 must not keep it
        mentions = [
            make_mention("d1|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, "bow=a": 1}),
            make_mention("d1|s0|t1|0-1", ["vomiting"], {"tok=vomiting": 1, "bow=a": 1}),
            make_mention("d2|s0|t0|0-1", ["paper"], {"tok=paper": 1, "bow=reads": 1}),
        ]
        out = expand_concept_mentions(mentions, concept_seeds, PropagationConfig(), "Ct")
        assert {(lm.mention.mention_id, lm.label) for lm in out} == {
            ("d1|s0|t0|0-1", "Symptom"),
            ("d1|s0|t1|0-1", "Symptom"),
        }

    def test_seeds_always_included(self, concept_seeds):
        mentions = [
            make_mention("d1|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, "bow=a": 1}),
            make_mention("d1|s0|t1|0-1", ["other thing"], {"tok=other": 1, "bow=a": 1}),
        ]
        out = expand_concept_mentions(
            mentions, concept_seeds, PropagationConfig(concept_score_floor=2.0), "Ct"
        )
        assert ("d1|s0|t0|0-1", "Symptom") in {
            (lm.mention.mention_id, lm.label) for lm in out
        }

    def test_concept_whose_seeds_are_outside_the_graph_keeps_them(self):
        # "aspirin" has no feature, so it is not in the graph, while the
        # Symptom seed is: Drug must still keep its seed
        mentions = [
            make_mention("d1|s0|t0|0-1", ["nausea"], {"bow=a": 1}),
            make_mention("d1|s0|t1|0-1", ["headache"], {"bow=a": 1}),
            make_mention("d2|s0|t0|0-1", ["aspirin"], {}),
        ]
        seeds = [ConceptSeed("Symptom", "nausea"), ConceptSeed("Drug", "aspirin")]
        out = expand_concept_mentions(mentions, seeds, PropagationConfig(), "Ct")
        assert {(lm.mention.mention_id, lm.label) for lm in out} == {
            ("d1|s0|t0|0-1", "Symptom"),
            ("d1|s0|t1|0-1", "Symptom"),
            ("d2|s0|t0|0-1", "Drug"),
        }

    def test_cap_and_floor_each_bind(self, concept_seeds):
        # Symptom: a star of four mentions around its seed, each scoring
        # about 0.08, so the cap of 3 cuts two; DiseaseOrMedicalCondition:
        # a chain from its seed scoring about 0.10 and 0.03 one and two
        # steps away, so the floor cuts the second. "headache" and "pain"
        # are seeds outside the graph (no feature): kept past both.
        mentions = [
            make_mention(f"s{i}|s0|t0|0-1", [surface], {"hub": 1})
            for i, surface in enumerate(["nausea", "vomiting", "dizziness", "rash", "itch"])
        ] + [
            make_mention(f"d{i}|s0|t0|0-1", [surface], {f"d{i}": 1, f"d{i + 1}": 1})
            for i, surface in enumerate(["arthritis", "gout", "fever", "flu"])
        ] + [
            make_mention("h|s0|t0|0-1", ["headache"], {}),
            make_mention("p|s0|t0|0-1", ["pain"], {}),
        ]

        def kept(top_k, floor):
            config = PropagationConfig(concept_top_k=top_k, concept_score_floor=floor)
            out = expand_concept_mentions(mentions, concept_seeds, config, "Ct")
            return {(lm.mention.doc_id, lm.label[0]) for lm in out}

        assert kept(3, 0.05) == {
            ("s0", "S"), ("s1", "S"), ("s2", "S"), ("h", "S"),
            ("d0", "D"), ("d1", "D"), ("p", "D"),
        }
        # each alone: the floor keeps all of the star, the cap the chain's third
        assert {"s3", "s4"} <= {doc for doc, _ in kept(10, 0.05)}
        assert ("d2", "D") in kept(3, 0.0)

    @pytest.mark.parametrize("source_set", ["Cs", "Ct"])
    def test_set_name_is_the_one_given(self, concept_seeds, source_set):
        # a target mention sorts first, so its corpus tag cannot name the set
        mentions = [
            make_mention("a|s0|t0|0-1", ["nausea"], {"tok=nausea": 1, "bow=a": 1}),
            make_mention("b|s0|t0|0-1", ["headache"], {"tok=headache": 1, "bow=a": 1},
                         tag="structured"),
        ]
        out = expand_concept_mentions(mentions, concept_seeds, PropagationConfig(), source_set)
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
    pairs: dict = {}  # one table across the mentions, as the readers share it
    for lm in rs:
        assert labeled_mention_from_dict(labeled_mention_to_dict(lm), pairs) == lm


# Any code point, lone surrogates included, with the characters JSON escapes
# drawn often: quotes, backslashes, control characters, non-ASCII, non-BMP.
_chars = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028",
                     "\ud800", "\udfff", "\U0001f600"]),
)
_text = st.text(_chars, max_size=8)


@st.composite
def arbitrary_mentions(draw):
    features = draw(st.dictionaries(_text, st.integers(0, 2**40), max_size=6))
    return Mention(
        mention_id=draw(_text),
        doc_id=draw(_text),
        title_entity=draw(_text),
        section_title=draw(_text),
        kind=draw(_text),
        item_surfaces=tuple(draw(st.lists(_text, max_size=4))),
        features=tuple(sorted(features.items())),
        corpus_tag=draw(_text),
    )


def _oracle(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


class TestMentionEncoder:
    @given(arbitrary_mentions(), _text, _text)
    @example(make_mention("d|s0|t0|0-1", [""], {}), "", "")
    @example(make_mention("d|s0|t0|0-1", [], {}), "usedToTreat", "Rs")
    @settings(max_examples=300, deadline=None)
    def test_lines_are_sorted_key_json_dumps(self, m, label, source_set):
        lm = LabeledMention(m, label, source_set)
        encoder = MentionEncoder()
        # the labeled line first: the pool line then reuses its fragments
        assert encoder.labeled_line(lm) == _oracle(labeled_mention_to_dict(lm))
        assert encoder.line(m) == _oracle(mention_to_dict(m))
        assert encoder.labeled_line(lm) == _oracle(labeled_mention_to_dict(lm))

    def test_equal_mention_ids_in_both_corpora_keep_their_own_fields(self):
        s = make_mention("d|s0|t0|0-1", ["aspirin"], {"tok=aspirin": 1}, tag="structured")
        t = make_mention("d|s0|t0|0-1", ["aspirin"], {"tok=aspirin": 2}, tag="target")
        encoder = MentionEncoder()
        for m in (s, t, s, t):
            assert encoder.line(m) == _oracle(mention_to_dict(m))
            lm = LabeledMention(m, "Symptom", "Ct")
            assert encoder.labeled_line(lm) == _oracle(labeled_mention_to_dict(lm))

    def test_files_are_written_line_for_line(self, tmp_path, structured_mentions):
        encoder = MentionEncoder()
        lms = [LabeledMention(m, "Symptom", "Cs") for m in structured_mentions[::2]]
        write_labeled_mentions(lms, str(tmp_path / "set.jsonl"), encoder)
        write_mentions(structured_mentions, str(tmp_path / "pool.jsonl"), encoder)
        assert (tmp_path / "set.jsonl").read_text() == "".join(
            _oracle(labeled_mention_to_dict(lm)) for lm in lms
        )
        assert (tmp_path / "pool.jsonl").read_text() == "".join(
            _oracle(mention_to_dict(m)) for m in structured_mentions
        )
        assert read_labeled_mentions(str(tmp_path / "set.jsonl")) == lms
        assert read_mentions(str(tmp_path / "pool.jsonl")) == structured_mentions


def test_doc_id_in_both_corpora_is_written_with_each_corpus_tag(
    tmp_path, data_dir, structured_mentions, triples, concept_seeds, schema
):
    """A structured document copied into the target corpus yields mentions
    equal in all but `corpus_tag`; one encoder must write each file with its
    own corpus's. The `ingest` stage refuses such corpora, so the mention
    stage's writers are called here directly."""
    shared = (data_dir / "structured.jsonl").read_text().splitlines()[0]
    target = tmp_path / "target.jsonl"
    target.write_text((data_dir / "target.jsonl").read_text() + shared + "\n")
    target_mentions = corpus_mentions(ingest_corpus(str(target), "target"), FeatureConfig())
    sets = build_mention_sets(
        structured_mentions, target_mentions, triples, concept_seeds, schema, PropagationConfig()
    )
    out = tmp_path / "out"
    out.mkdir()
    encoder = MentionEncoder()
    for name in ("Rs", "Rt", "Cs", "Ct"):
        write_labeled_mentions(sets.get(name), str(out / f"mentions_{name}.jsonl"), encoder)
    write_mentions(structured_mentions, str(out / "pool_structured.jsonl"), encoder)
    write_mentions(target_mentions, str(out / "pool_target.jsonl"), encoder)

    tags = {
        "pool_structured": "structured", "mentions_Rs": "structured",
        "mentions_Cs": "structured", "pool_target": "target",
        "mentions_Rt": "target", "mentions_Ct": "target",
    }
    doc_id = json.loads(shared)["doc_id"]
    shared_in = set()
    for name, tag in tags.items():
        for line in (out / f"{name}.jsonl").read_text().splitlines(keepends=True):
            obj = json.loads(line)
            assert line == _oracle(obj)
            assert obj["corpus_tag"] == tag, name
            if obj["doc_id"] == doc_id:
                shared_in.add(name)
    assert shared_in == set(tags)
