from collections import Counter

import pytest
from hypothesis import given, strategies as st

from reldistill.corpus import CoordinateList, Sentence
from reldistill.features import (
    FeatureConfig,
    build_feature_filter,
    extract_features,
)

from test_corpus import token
from test_kernels import filter_counts

NAMESPACES = ("tok=", "pre=", "suf=", "bow=", "win-L", "win-R", "wbg-L", "wbg-R",
              "vrb=", "mod=", "path=")


def sent(*pairs, deps=None):
    tokens = []
    for i, (surface, pos) in enumerate(pairs):
        head, label = (deps or {}).get(i, (None, None))
        tokens.append(token(surface, pos, head, label))
    return Sentence(tuple(tokens))


class TestExtractFeatures:
    def test_hand_enumerated_singleton(self):
        # "Symptoms include nausea ." with NP (2,3); expected features were
        # enumerated by hand from the generator rules
        s = sent(("Symptoms", "NOUN"), ("include", "VERB"), ("nausea", "NOUN"),
                 (".", "PUNCT"))
        feats = Counter(extract_features(s, (2, 3), FeatureConfig()))
        for expected in ("tok=nausea", "pre=na", "suf=ea", "bow=symptoms",
                         "bow=include", "win-L1=include"):
            assert feats[expected] == 1
        assert "bow=nausea" not in feats
        assert feats["pre=nau"] == 1 and feats["suf=sea"] == 1
        assert feats["pre=naus"] == 1 and feats["suf=usea"] == 1
        assert feats["win-L2=symptoms"] == 1
        assert feats["win-R1=."] == 1
        assert feats["wbg-L=symptoms_include"] == 1

    def test_no_dependency_annotations(self):
        s = sent(("include", "VERB"), ("nausea", "NOUN"))
        feats = extract_features(s, (1, 2), FeatureConfig())
        assert not any(f.startswith(("vrb=", "mod=", "path=")) for f in feats)

    def test_dependency_features(self):
        # nausea -> include (dobj); symptoms -> include (nsubj)
        s = sent(("Symptoms", "NOUN"), ("include", "VERB"), ("nausea", "NOUN"),
                 deps={0: (1, "nsubj"), 2: (1, "dobj")})
        feats = Counter(extract_features(s, (2, 3), FeatureConfig()))
        assert feats["vrb=include"] == 1
        assert feats["mod=symptoms"] == 1
        assert feats["mod=nausea"] == 1
        assert feats["path=dobj"] == 1

    def test_deterministic(self):
        s = sent(("a", "NOUN"), ("b", "VERB"), ("c", "NOUN"))
        cfg = FeatureConfig()
        assert extract_features(s, (2, 3), cfg) == extract_features(s, (2, 3), cfg)

    def test_list_target_covers_all_items(self):
        s = sent(("pain", "NOUN"), ("and", "CONJ"), ("fever", "NOUN"))
        cl = CoordinateList(((0, 1), (2, 3)), (2, 3))
        feats = Counter(extract_features(s, cl, FeatureConfig()))
        assert feats["tok=pain"] == 1 and feats["tok=fever"] == 1
        # the separator is inside the overall span: bow excludes it
        assert "bow=and" not in feats

    def test_span_out_of_range(self):
        s = sent(("a", "NOUN"))
        with pytest.raises(ValueError):
            extract_features(s, (0, 5), FeatureConfig())

    @pytest.mark.parametrize("head", [(5, 9), (-2, -1), (2, 2)])
    def test_list_head_out_of_range(self, head):
        s = sent(("pain", "NOUN"), ("and", "CONJ"), ("fever", "NOUN"))
        cl = CoordinateList(((0, 1), (2, 3)), head)
        with pytest.raises(ValueError, match=rf"span \({head[0]},{head[1]}\) out of range"):
            extract_features(s, cl, FeatureConfig())

    @pytest.mark.parametrize(
        "items, message",
        [
            (((3, 4), (0, 1)), r"item \(0,1\) starts before the previous item ends at 4"),
            (((0, 2), (1, 3)), r"item \(1,3\) starts before the previous item ends at 2"),
            (((0, 1), (0, 1)), r"item \(0,1\) starts before the previous item ends at 1"),
        ],
        ids=["descending", "overlapping", "repeated"],
    )
    def test_list_items_out_of_order_refused(self, items, message):
        # CoordinateList.span takes the first item's start and the last
        # item's end: descending items would give the span (3, 1)
        s = sent(("pain", "NOUN"), ("and", "CONJ"), ("fever", "NOUN"), ("cough", "NOUN"))
        with pytest.raises(ValueError, match=rf"^{message}$"):
            extract_features(s, CoordinateList(items, items[0]), FeatureConfig())

    def test_affix_max_below_affix_min_emits_no_affixes(self):
        s = sent(("include", "VERB"), ("nausea", "NOUN"))
        feats = extract_features(s, (1, 2), FeatureConfig(affix_min=3, affix_max=2))
        assert "tok=nausea" in feats
        assert not any(f.startswith(("pre=", "suf=")) for f in feats)

    @pytest.mark.parametrize(
        "key, value", [("window", -1), ("affix_min", 0), ("affix_max", -1)]
    )
    def test_out_of_range_config_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must be >= \d, got {value}$"):
            FeatureConfig(**{key: value})

    def test_namespaces_disjoint(self):
        s = sent(("Severe", "ADJ"), ("stomach", "NOUN"), ("pain", "NOUN"),
                 ("hit", "VERB"), ("patients", "NOUN"),
                 deps={2: (3, "nsubj"), 4: (3, "dobj")})
        feats = extract_features(s, (0, 3), FeatureConfig())
        for f in feats:
            assert sum(f.startswith(ns) for ns in NAMESPACES) == 1


class TestFeatureFilter:
    def test_hand_case_v3(self):
        # a in 3 docs, b in 1, c in 2; V=3 so the top ceil(0.15)=1 goes too
        vectors = [{"a": 1, "b": 1}, {"a": 1, "c": 1}, {"a": 2, "c": 1}]
        filt = build_feature_filter(vectors)
        assert filt.allowed == frozenset({"c"})
        assert filter_counts(filt, {"a": 1, "b": 2, "c": 3}) == {"c": 3}

    def test_no_singletons(self):
        vectors = [{"a": 1, "b": 1}, {"a": 1, "b": 1}]
        filt = build_feature_filter(vectors)
        # only the 5% cut applies: ceil(0.1) = 1 feature dropped
        assert filt.allowed == frozenset({"b"})
        assert filt.dropped_singletons == 0

    def test_single_vector_drops_everything(self):
        assert build_feature_filter([{"a": 1, "b": 1}]).allowed == frozenset()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_feature_filter([])

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("abcdefgh"), st.integers(1, 3), min_size=1),
            min_size=2,
            max_size=12,
        )
    )
    def test_duplicating_a_vector_never_undrops_singletons(self, vectors):
        base = build_feature_filter(vectors)
        dropped_singles = set()
        from collections import Counter

        df = Counter()
        for v in vectors:
            df.update(v.keys())
        dropped_singles = {f for f, c in df.items() if c == 1} - base.allowed
        extended = build_feature_filter(vectors + [vectors[0]])
        # a feature absent from the duplicated vector stays singleton
        for f in dropped_singles:
            if f not in vectors[0]:
                assert f not in extended.allowed
