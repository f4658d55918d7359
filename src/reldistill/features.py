"""Mention feature extraction and frequency-based feature filtering.

One generator serves singleton NPs and coordinate lists alike. Feature
ids are namespaced so no two rules can emit the same id:

  tok=    tokens inside the NP(s)
  pre=/suf=  character prefixes/suffixes of those tokens
  bow=    sentence tokens outside the NP span(s)
  win-L{d}= / win-R{d}=  window unigrams at distance d from the span
  wbg-L= / wbg-R=        window bigrams
  vrb=/mod=/path=        closest ancestor verb of the NP head, its
                         modifiers, and the dependency-label path
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .corpus import CoordinateList, Sentence

FeatureVector = dict[str, int]


@dataclass(frozen=True)
class FeatureConfig:
    window: int = 3
    affix_min: int = 2
    affix_max: int = 4
    dependency_features: bool = True

    def __post_init__(self):
        # an affix_max below affix_min is legal: it emits no affixes
        for key, low in (("window", 0), ("affix_min", 1), ("affix_max", 0)):
            value = getattr(self, key)
            if value < low:
                raise ValueError(f"{key} must be >= {low}, got {value}")


@dataclass(frozen=True)
class Mention:
    mention_id: str
    doc_id: str
    title_entity: str
    section_title: str  # normalized
    kind: str  # "singleton" or "list"
    item_surfaces: tuple[str, ...]
    features: tuple[tuple[str, int], ...]
    corpus_tag: str

    def feature_counts(self) -> FeatureVector:
        return dict(self.features)


def feature_matrix(mentions: list[Mention]) -> tuple[list[str], sp.csr_matrix]:
    """The sorted vocabulary of `mentions` and their mention x feature
    count matrix: CSR, float64 counts, one row per mention in the order
    given. Column j is `vocab[j]`; `Mention.features` is sorted, so the
    indices within each row are too."""
    names = [f for m in mentions for f, _ in m.features]
    vocab = sorted(set(names))
    column = {f: j for j, f in enumerate(vocab)}
    indptr = np.cumsum([0] + [len(m.features) for m in mentions])
    x = sp.csr_matrix(
        (
            np.fromiter((c for m in mentions for _, c in m.features), float, len(names)),
            np.fromiter(map(column.__getitem__, names), np.int32, len(names)),
            indptr,
        ),
        shape=(len(mentions), len(vocab)),
    )
    return vocab, x


def _closest_ancestor_verb(sentence: Sentence, head_idx: int) -> int | None:
    tokens = sentence.tokens
    seen = {head_idx}
    idx = tokens[head_idx][2]  # dep_head
    while idx is not None and idx not in seen:
        _, pos, dep_head, _ = tokens[idx]
        if pos == "VERB":
            return idx
        seen.add(idx)
        idx = dep_head
    return None


def extract_features(
    sentence: Sentence,
    target: tuple[int, int] | CoordinateList,
    config: FeatureConfig,
) -> list[str]:
    """The feature names of `target`, one entry per occurrence, in rule order.
    A list's items must ascend without overlap, as `CoordinateList.span` assumes."""
    tokens = sentence.tokens
    n = len(tokens)
    if isinstance(target, CoordinateList):
        item_spans, head_span = target.item_spans, target.head_span
    else:
        item_spans, head_span = (target,), target
    end = 0  # the previous item's end
    for s, e in item_spans:
        if not (0 <= s < e <= n):
            raise ValueError(f"span ({s},{e}) out of range for {n}-token sentence")
        if s < end:
            raise ValueError(f"item ({s},{e}) starts before the previous item ends at {end}")
        end = e
    s, e = head_span
    if not (0 <= s < e <= n):
        raise ValueError(f"span ({s},{e}) out of range for {n}-token sentence")
    span_start, span_end = item_spans[0][0], end

    lower = [surface.lower() for surface, _, _, _ in tokens]  # each token lowered once
    names = []
    for s, e in item_spans:
        for tok in lower[s:e]:
            names.append(f"tok={tok}")
            # the affix lengths k in [affix_min, affix_max] with k <= len(tok)
            for k in range(config.affix_min, min(config.affix_max, len(tok)) + 1):
                names += (f"pre={tok[:k]}", f"suf={tok[-k:]}")
    names += [f"bow={tok}" for tok in lower[:span_start] + lower[span_end:]]

    left = lower[max(0, span_start - config.window) : span_start]
    right = lower[span_end : span_end + config.window]
    names += [f"win-L{d}={tok}" for d, tok in enumerate(reversed(left), start=1)]
    names += [f"win-R{d}={tok}" for d, tok in enumerate(right, start=1)]
    names += [f"wbg-L={a}_{b}" for a, b in zip(left, left[1:])]
    names += [f"wbg-R={a}_{b}" for a, b in zip(right, right[1:])]

    if config.dependency_features:
        head_idx = head_span[1] - 1
        if tokens[head_idx][2] is not None:  # dep_head
            verb_idx = _closest_ancestor_verb(sentence, head_idx)
            if verb_idx is not None:
                names.append(f"vrb={lower[verb_idx]}")
                names += [
                    f"mod={lower[i]}"
                    for i, (_, _, dep_head, _) in enumerate(tokens)
                    if dep_head == verb_idx and i != verb_idx
                ]
                labels = []
                idx = head_idx
                while idx != verb_idx:
                    _, _, dep_head, dep_label = tokens[idx]
                    labels.append(dep_label or "_")
                    idx = dep_head
                names.append(f"path={'/'.join(labels)}")
    return names


@dataclass(frozen=True)
class FeatureFilter:
    allowed: frozenset[str]
    dropped_singletons: int = 0
    dropped_frequent: int = 0


def build_feature_filter(training_names: Iterable[Iterable[str]]) -> FeatureFilter:
    """Drop document-frequency-1 features and the most frequent 5%.

    Each item is one mention's distinct feature names (a feature dict
    serves: iterating it gives its names), so frequency is document
    frequency over mentions. The top cut removes ceil(0.05 * V) features
    by df, ties broken by feature id.
    """
    training_names = list(training_names)
    if not training_names:
        raise ValueError("cannot build a feature filter from zero mentions")
    df = Counter(chain.from_iterable(training_names))
    vocab_size = len(df)
    n_top = -(-vocab_size * 5 // 100)  # ceil(0.05 * V)
    by_freq = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    frequent = {f for f, _ in by_freq[:n_top]}
    singletons = {f for f, c in df.items() if c == 1}
    allowed = frozenset(df.keys() - frequent - singletons)
    return FeatureFilter(
        allowed=allowed,
        dropped_singletons=len(singletons - frequent),
        dropped_frequent=len(frequent),
    )
