"""Mention feature extraction, the feature table, and frequency-based
feature filtering.

A mention's features are a row of a `FeatureTable`, whose columns are
its names in sorted order; graphs and training matrices select rows.

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

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus import CoordinateList, Sentence


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


class _Ids(dict):  # name -> its provisional id: how many names came before it
    def __missing__(self, name: str) -> int:
        i = self[name] = len(self)
        return i


class FeatureTable:
    """Rows of feature counts. The first read of `matrix` sorts the names and
    remaps their provisional ids, so that column order is name order; the
    table then takes no more rows."""

    def __init__(self):
        self._ids = _Ids()
        self._entries: list[int] = []  # provisional ids, row after row
        self._ends = [0]  # row i holds entries _ends[i]:_ends[i + 1]
        self._counts: list[int] = []  # the counts of `add_counts` rows; `add` rows count 1s

    def add(self, names: Iterable[str]) -> FeatureRow:
        """A new row counting each occurrence of a name in `names`."""
        self._entries += map(self._ids.__getitem__, names)
        self._ends.append(len(self._entries))
        return FeatureRow(self, len(self._ends) - 2)

    def add_counts(self, counts: dict[str, int]) -> FeatureRow:
        """A new row counting each name of `counts` its count. A table takes
        rows of `add` or of `add_counts`, not of both."""
        self._counts += counts.values()
        return self.add(counts)

    @cached_property
    def matrix(self) -> tuple[list[str], sp.csr_matrix]:
        """The sorted names and the int64 count matrix, column j counting `names[j]`."""
        ids, entries = self._ids, np.fromiter(self._entries, np.intp, len(self._entries))
        names = sorted(ids)
        column = np.argsort(np.fromiter(map(ids.__getitem__, names), np.intp, len(names)))
        counts = np.array(self._counts or np.ones(len(entries)), np.int64)
        x = sp.csr_matrix((counts, column[entries], self._ends), (len(self._ends) - 1, len(names)))
        x.sum_duplicates()  # sorts each row's columns and sums a name's repeats
        del self._ids, self._entries, self._ends, self._counts  # sealed: `add` fails
        return names, x


@dataclass(eq=False, slots=True)
class FeatureRow:
    """One mention's feature counts, iterated as (name, count) pairs in name
    order. A row is equal only to itself."""

    table: FeatureTable
    row: int

    def __iter__(self):
        names, x = self.table.matrix
        lo, hi = x.indptr[self.row : self.row + 2].tolist()
        return zip(map(names.__getitem__, x.indices[lo:hi].tolist()), x.data[lo:hi].tolist())

    def __repr__(self) -> str:
        if "matrix" not in vars(self.table):  # reading it would seal a table still taking rows
            return f"FeatureRow(row={self.row} of an open table)"
        return f"FeatureRow({tuple(self)!r})"


@dataclass(frozen=True)
class Mention:
    mention_id: str
    doc_id: str
    title_entity: str
    section_title: str  # normalized
    kind: str  # "singleton" or "list"
    item_surfaces: tuple[str, ...]
    features: FeatureRow
    corpus_tag: str

    def feature_counts(self) -> dict[str, int]:
        return dict(self.features)


def select_rows(mentions: list[Mention]) -> tuple[list[str], sp.csr_matrix]:
    """The sorted names `mentions` hold and their float64 count matrix: their
    rows of the table they share, in the order given, its columns compacted
    to those names."""
    rows = [m.features for m in mentions]
    table = rows[0].table if rows else FeatureTable()
    if any(row.table is not table for row in rows):
        raise ValueError("the mentions' features are rows of several feature tables")
    names, x = table.matrix
    x = x[np.fromiter((row.row for row in rows), np.intp, len(rows))]
    used = np.zeros(len(names), dtype=bool)
    used[x.indices] = True
    column = np.cumsum(used, dtype=np.int32) - 1
    x = sp.csr_matrix((x.data.astype(float), column[x.indices], x.indptr), (len(rows), used.sum()))
    return list(map(names.__getitem__, np.flatnonzero(used).tolist())), x


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


def build_feature_filter(mentions: list[Mention]) -> FeatureFilter:
    """Drop document-frequency-1 features and the most frequent 5%.

    A feature's document frequency is the number of `mentions` whose rows
    of their one table hold its column; a row holds a column at most
    once. The top cut removes ceil(0.05 * V) of the V columns by df, ties
    in column order, which is name order.
    """
    if not mentions:
        raise ValueError("cannot build a feature filter from zero mentions")
    names, x = select_rows(mentions)
    df = np.bincount(x.indices, minlength=len(names))
    n_top = -(-len(names) * 5 // 100)  # ceil(0.05 * V)
    frequent = np.zeros(len(names), dtype=bool)
    frequent[np.argsort(-df, kind="stable")[:n_top]] = True  # a stable sort: ties in name order
    allowed = np.flatnonzero((df > 1) & ~frequent).tolist()
    return FeatureFilter(
        allowed=frozenset(map(names.__getitem__, allowed)),
        dropped_singletons=int(np.count_nonzero((df == 1) & ~frequent)),
        dropped_frequent=n_top,
    )
