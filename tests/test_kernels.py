"""The array kernels of `training`, `propagation` and `evaluation`, the
per-mention feature and scoring kernels of the read path, the mention
list whose feature pairs are shared, and the block-wise file hash,
against the per-element loops, block matrices, whole copies and
unshared lists they replaced, kept here as oracles.
Every artifact depends on these kernels, so each must agree with its
oracle bit for bit, not just to a tolerance."""

import hashlib
import json
import math
import tempfile
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, find, given, settings, strategies as st

from reldistill import pipeline, propagation, training
from reldistill.corpus import TOKEN_FIELDS, CoordinateList, Document, Section, Sentence
from reldistill.evaluation import GoldAnnotation, Prediction, extract_document, pr_curve
from reldistill.features import (
    FeatureConfig,
    FeatureFilter,
    Mention,
    _closest_ancestor_verb,
    extract_features,
    feature_matrix,
)
from reldistill.mentions import (
    LabeledMention,
    MentionEncoder,
    corpus_mentions,
    enumerate_mentions,
    labeled_mention_to_dict,
    mention_to_dict,
    read_labeled_mentions,
    read_mentions,
    write_labeled_mentions,
    write_mentions,
)
from reldistill.norm import normalize
from reldistill.propagation import (
    BipartiteGraph,
    PropagationConfig,
    RankedLabeling,
    _walk_matrix,
    build_graph_from_mentions,
    multirankwalk,
    personalized_pagerank,
    read_ranking,
    write_graph_dump,
    write_ranking,
)
from reldistill.training import (
    LinearModel,
    Platt,
    RelationModel,
    TrainConfig,
    TrainingSet,
    _fit_platt,
    _padded_rows,
    _row_dots,
    _sgd_hinge_batched,
    classify_counts,
    classify_scored,
    hinge_objective,
)

from test_corpus import token
from test_propagation import assigned, make_mention


# --- oracles: the loops the kernels replaced --------------------------------


def sgd_hinge_getrow_oracle(x, y, reg_lambda, epochs, rng_seed):
    n, dim = x.shape
    w = np.zeros(dim)
    bias = 0.0
    rng = np.random.default_rng(rng_seed)
    t = 0
    avg_w = np.zeros(dim)
    avg_b = 0.0
    n_avg = 0
    avg_from = max(1, epochs // 2)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (reg_lambda * (t + 1.0 / reg_lambda))
            xi = x.getrow(i)
            margin = y[i] * ((xi @ w).item() + bias)
            w *= 1.0 - eta * reg_lambda
            if margin < 1.0:
                w[xi.indices] += eta * y[i] * xi.data
                bias += eta * y[i]
        if epoch >= avg_from:
            avg_w += w
            avg_b += bias
            n_avg += 1
    if n_avg:
        return avg_w / n_avg, avg_b / n_avg
    return w, bias


def sgd_hinge_oracle(x, y, reg_lambda, epochs, rng_seed, history=None):
    """One problem's SGD, each margin summed from CSR row slices. When
    `history` is given, the objective of the averaged iterate is appended
    per epoch of the averaging window."""
    n, dim = x.shape
    bounds = x.indptr.tolist()
    rows = [
        (x.indices[lo:hi], x.data[lo:hi], yi)
        for lo, hi, yi in zip(bounds, bounds[1:], y.tolist())
    ]
    w = np.zeros(dim)
    bias = 0.0
    rng = np.random.default_rng(rng_seed)
    t = 0
    avg_w = np.zeros(dim)
    avg_b = 0.0
    n_avg = 0
    avg_from = max(1, epochs // 2)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for i in order.tolist():
            t += 1
            eta = 1.0 / (reg_lambda * (t + 1.0 / reg_lambda))
            idx, val, yi = rows[i]
            dot = (val * w[idx]).cumsum()[-1] if len(idx) else 0.0
            margin = yi * (dot + bias)
            w *= 1.0 - eta * reg_lambda
            if margin < 1.0:
                w[idx] += eta * yi * val
                bias += eta * yi
        if epoch >= avg_from:
            avg_w += w
            avg_b += bias
            n_avg += 1
            if history is not None:
                history.append(
                    hinge_objective(x, y, avg_w / n_avg, avg_b / n_avg, reg_lambda)
                )
    if n_avg:
        return avg_w / n_avg, avg_b / n_avg
    return w, bias


def train_per_relation_oracle(training_set, config, feature_config):
    """One design matrix and one SGD run per relation, in name order."""
    allowed = sorted(training_set.feature_filter.allowed)
    positives = training_set.positives
    models = {}
    for relation in sorted(positives):
        pos = positives[relation]
        neg = [m for other in sorted(positives) if other != relation for m in positives[other]]
        neg += training_set.negatives
        if not pos or not neg:
            raise ValueError(
                f"relation {relation!r} has an empty {'negative' if pos else 'positive'} "
                f"side: distillation found {len(pos)} of n={config.n} positives with "
                f"strategy {config.strategy!r}; {len(neg)} negatives"
            )
        y = np.array([1.0] * len(pos) + [-1.0] * len(neg))
        vocab, counts = feature_matrix(pos + neg)
        column = {f: j for j, f in enumerate(vocab)}
        x = counts[:, np.array([column[f] for f in allowed], dtype=np.intp)]
        w, bias = sgd_hinge_oracle(x, y, config.reg_lambda, config.epochs, config.rng_seed)
        platt = None
        if config.calibration == "platt":
            platt = _fit_platt(np.asarray(x @ w) + bias, y)
        weights = {allowed[i]: float(w[i]) for i in np.nonzero(w)[0]}
        models[relation] = RelationModel(weights=weights, bias=float(bias), platt=platt)
    return LinearModel(relations=models, feature_config=feature_config, train_config=config)


def feature_filter_dict_oracle(training_vectors):
    """The filter from one feature dict per mention."""
    df = Counter()
    for vec in training_vectors:
        df.update(vec.keys())
    n_top = -(-len(df) * 5 // 100)
    by_freq = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    frequent = {f for f, _ in by_freq[:n_top]}
    singletons = {f for f, c in df.items() if c == 1}
    return FeatureFilter(
        allowed=frozenset(df.keys() - frequent - singletons),
        dropped_singletons=len(singletons - frequent),
        dropped_frequent=len(frequent),
    )


def build_graph_loop_oracle(mentions):
    by_id = {m.mention_id: m for m in mentions}
    mention_ids = sorted(by_id)
    total = len(mention_ids)
    df = {}
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
            rows.append(mi)
            cols.append(fi)
            data.append(tf * math.log(total / df[feat]))
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
    adjacency = sp.csr_matrix((d2, (r2, c2)), shape=(n_m + n_f, n_m + n_f))
    return BipartiteGraph(
        mention_nodes=[mention_ids[i] for i in live_m],
        feature_nodes=[kept_features[i] for i in live_f],
        adjacency=adjacency,
    )


def build_graph_bmat_oracle(mentions):
    """The count matrix's kept columns scaled by idf, its live rows, and
    the symmetric block matrix of those weights and their transpose."""
    by_id = {m.mention_id: m for m in mentions}
    mention_ids = sorted(by_id)
    total = len(mention_ids)
    vocab, x = feature_matrix([by_id[mid] for mid in mention_ids])
    df = np.bincount(x.indices, minlength=len(vocab))
    kept = np.flatnonzero(df < total)
    idf = np.array([math.log(total / d) for d in df[kept].tolist()])
    w = x[:, kept].multiply(idf).tocsr()
    live_m = np.flatnonzero(w.getnnz(axis=1))
    w = w[live_m]
    return BipartiteGraph(
        mention_nodes=[mention_ids[i] for i in live_m.tolist()],
        feature_nodes=[vocab[j] for j in kept.tolist()],
        adjacency=sp.bmat([[None, w], [w.T, None]], format="csr"),
    )


def walk_matrix_transpose_oracle(adjacency):
    """T', the transposed copy of the row-normalized adjacency."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_deg = np.divide(1.0, degrees, out=np.zeros_like(degrees), where=degrees > 0)
    return adjacency.multiply(inv_deg[:, None]).T.tocsr()


def filter_counts(feature_filter, counts):
    """The entries of a feature dict that the filter keeps."""
    return {f: c for f, c in counts.items() if f in feature_filter.allowed}


def vectorize_loop_oracle(mentions, feature_filter, feat_index):
    rows, cols, data = [], [], []
    for i, m in enumerate(mentions):
        for f, c in filter_counts(feature_filter, m.feature_counts()).items():
            rows.append(i)
            cols.append(feat_index[f])
            data.append(float(c))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(mentions), len(feat_index)))


def pr_curve_rebuild_oracle(predictions, gold):
    gold_set = {(g.doc_id, g.relation, g.value) for g in gold}
    thresholds = sorted({p.score for p in predictions}, reverse=True)
    points = []
    for theta in thresholds:
        kept = {(p.doc_id, p.relation, p.value) for p in predictions if p.score >= theta}
        tp = len(kept & gold_set)
        p = tp / len(kept) if kept else 0.0
        r = tp / len(gold_set) if gold_set else 0.0
        points.append((theta, p, r))
    return points


def multirankwalk_dict_oracle(graph, seeds_by_class, config):
    scores = {
        cls: personalized_pagerank(graph, seeds_by_class[cls], config)
        for cls in sorted(seeds_by_class)
    }
    classes = sorted(scores)
    per_class = {c: [] for c in classes}
    for mid in graph.mention_nodes:
        best_score = max(scores[c][mid] for c in classes)
        if best_score == 0.0:  # no walk reaches it: no class
            continue
        best = next(c for c in classes if scores[c][mid] == best_score)
        per_class[best].append((mid, best_score))
    for cls in classes:
        per_class[cls].sort(key=lambda t: (-t[1], t[0]))
    return RankedLabeling(per_class={c: ranked for c, ranked in per_class.items() if ranked})


def graph_dump_edges_oracle(graph, path):
    m = len(graph.mention_nodes)
    coo = sp.triu(graph.adjacency).tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row, coo.col, coo.data):
            fh.write(f"{graph.mention_nodes[i]}\t{graph.feature_nodes[j - m]}\t{w:.12g}\n")


def _affixes(token, lo, hi):
    for n in range(lo, hi + 1):
        if len(token) >= n:
            yield f"pre={token[:n]}", f"suf={token[-n:]}"


# a token's fields by position, as the oracles below read them
SURFACE, DEP_HEAD, DEP_LABEL = map(TOKEN_FIELDS.index, ("surface", "dep_head", "dep_label"))


def extract_features_loop_oracle(sentence, target, config):
    tokens = sentence.tokens
    n = len(tokens)
    if isinstance(target, CoordinateList):
        item_spans = list(target.item_spans)
        head_span = target.head_span
    else:
        item_spans = [target]
        head_span = target
    for s, e in item_spans:
        if not (0 <= s < e <= n):
            raise ValueError(f"span ({s},{e}) out of range for {n}-token sentence")

    inside = set()
    for s, e in item_spans:
        inside.update(range(s, e))
    span_start = min(s for s, _ in item_spans)
    span_end = max(e for _, e in item_spans)

    feats = Counter()
    for i in sorted(inside):
        tok = tokens[i][SURFACE].lower()
        feats[f"tok={tok}"] += 1
        for pre, suf in _affixes(tok, config.affix_min, config.affix_max):
            feats[pre] += 1
            feats[suf] += 1
    for i in range(n):
        if span_start <= i < span_end:
            continue
        feats[f"bow={tokens[i][SURFACE].lower()}"] += 1

    left = [tokens[i][SURFACE].lower() for i in range(max(0, span_start - config.window), span_start)]
    right = [tokens[i][SURFACE].lower() for i in range(span_end, min(n, span_end + config.window))]
    for d, tok in enumerate(reversed(left), start=1):
        feats[f"win-L{d}={tok}"] += 1
    for d, tok in enumerate(right, start=1):
        feats[f"win-R{d}={tok}"] += 1
    for a, b in zip(left, left[1:]):
        feats[f"wbg-L={a}_{b}"] += 1
    for a, b in zip(right, right[1:]):
        feats[f"wbg-R={a}_{b}"] += 1

    if config.dependency_features:
        head_idx = head_span[1] - 1
        if tokens[head_idx][DEP_HEAD] is not None:
            verb_idx = _closest_ancestor_verb(sentence, head_idx)
            if verb_idx is not None:
                feats[f"vrb={tokens[verb_idx][SURFACE].lower()}"] += 1
                for i, t in enumerate(tokens):
                    if t[DEP_HEAD] == verb_idx and i != verb_idx:
                        feats[f"mod={t[SURFACE].lower()}"] += 1
                labels = []
                idx = head_idx
                while idx != verb_idx:
                    labels.append(tokens[idx][DEP_LABEL] or "_")
                    idx = tokens[idx][DEP_HEAD]
                feats[f"path={'/'.join(labels)}"] += 1

    return dict(feats)


def enumerate_mentions_unshared_oracle(doc, config):
    """Every mention with feature pairs of its own."""
    out = []
    for sec_i, sec in enumerate(doc.sections):
        section_title = normalize(sec.title)
        for sent_i, sent in enumerate(sec.sentences):
            in_list = {s for cl in sent.coordinate_lists for s in cl.item_spans}
            targets = [
                (cl, "list", cl.span, cl.item_spans)
                for cl in sent.coordinate_lists
            ] + [(s, "singleton", s, (s,)) for s in sent.np_chunks if s not in in_list]
            out += [
                Mention(
                    mention_id=f"{doc.doc_id}|s{sec_i}|t{sent_i}|{span[0]}-{span[1]}",
                    doc_id=doc.doc_id,
                    title_entity=doc.title_entity,
                    section_title=section_title,
                    kind=kind,
                    item_surfaces=tuple(
                        " ".join(t[SURFACE] for t in sent.tokens[s:e]) for s, e in item_spans
                    ),
                    features=tuple(sorted(Counter(extract_features(sent, target, config)).items())),
                    corpus_tag=doc.corpus_tag,
                )
                for target, kind, span, item_spans in targets
            ]
    return out


def margin_oracle(rm, counts):
    """A relation's margin on a feature dict, summed left to right as
    `train` sums the margins Platt is fit on; the builtin sum compensates
    its rounding from Python 3.12 on."""
    total = 0.0
    for f, c in counts.items():
        total += rm.weights.get(f, 0.0) * c
    return total + rm.bias


def score_oracle(rm, counts):
    return rm.calibrate(margin_oracle(rm, counts))


def classify_scored_loop_oracle(model, mention):
    counts = mention.feature_counts()
    best_label, best_score = "other", 0.0
    for relation in sorted(model.relations):
        score = score_oracle(model.relations[relation], counts)
        if score >= training.SCORE_THRESHOLD and score > best_score:
            best_label, best_score = relation, score
    return best_label, best_score


def extract_document_mention_oracle(doc, model, feature_config):
    """Build every `Mention` of the document, then score it by the
    per-relation loop."""
    best = {}
    for mention in enumerate_mentions(doc, feature_config, {}):
        label, score = classify_scored_loop_oracle(model, mention)
        if label == "other":
            continue
        for surface in mention.item_surfaces:
            key = (label, normalize(surface))
            if score > best.get(key, float("-inf")):
                best[key] = score
    return [
        Prediction(doc.doc_id, rel, value, score)
        for (rel, value), score in sorted(best.items())
    ]


# --- generators --------------------------------------------------------------


@st.composite
def sparse_problems(draw):
    n = draw(st.integers(1, 14))
    dim = draw(st.integers(1, 30))
    values = st.one_of(
        st.integers(1, 3).map(float),
        st.floats(-10.0, 10.0, allow_nan=False).filter(lambda v: v != 0.0),
    )
    dense = np.zeros((n, dim))
    for i in range(n):  # some rows stay empty
        cols = draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True))
        for j in cols:
            dense[i, j] = draw(values)
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    return sp.csr_matrix(dense), y


@st.composite
def mention_lists(draw):
    """Mentions over a small vocabulary. `u` may sit in every mention
    (idf 0), and a mention whose only features are universal has degree
    0 and is dropped."""
    n_m = draw(st.integers(1, 9))
    n_f = draw(st.integers(1, 7))
    universal = draw(st.booleans())
    mentions = []
    for i in range(n_m):
        feats = draw(
            st.dictionaries(st.integers(0, n_f - 1), st.integers(1, 4), max_size=n_f)
        )
        features = {f"f{j}": tf for j, tf in feats.items()}
        if universal or not features:
            features["u"] = draw(st.integers(1, 3))
        mentions.append(make_mention(f"m{i:02d}", features))
    order = draw(st.permutations(range(n_m)))
    return [mentions[k] for k in order]


@st.composite
def relation_training_sets(draw):
    """One to four relations over a shared pool of mentions: a mention
    may be a positive of two relations, and one with no allowed feature
    is a zero row. The filter allows some of their features, maybe none;
    feature ids such as `f10` < `f2` check that columns follow string
    order."""
    n_f = draw(st.integers(1, 12))
    pool = [
        make_mention(f"m{i:02d}", {f"f{j}": tf for j, tf in draw(
            st.dictionaries(st.integers(0, n_f - 1), st.integers(1, 4), max_size=n_f)
        ).items()})
        for i in range(draw(st.integers(2, 12)))
    ]
    names = draw(st.lists(st.sampled_from(["rel2", "rel10", "b_rel", "a_rel"]),
                          min_size=1, max_size=4, unique=True))
    positives = {
        name: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)) for name in names
    }
    negatives = draw(st.lists(st.sampled_from(pool), min_size=len(names) == 1, max_size=5))
    used = [m for ms in positives.values() for m in ms] + negatives
    vocab = sorted({f for m in used for f, _ in m.features})
    allowed = draw(st.sets(st.sampled_from(vocab))) if vocab else set()
    return TrainingSet(positives, negatives, FeatureFilter(allowed=frozenset(allowed)))


@st.composite
def scored_predictions(draw):
    """Predictions over a small key space, so keys repeat and scores tie,
    and a gold set that may be empty."""
    keys = st.tuples(
        st.sampled_from(["d0", "d1", "d2"]),
        st.sampled_from(["r0", "r1"]),
        st.sampled_from(["v0", "v1", "v2"]),
    )
    scores = st.one_of(
        st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0, allow_nan=False)
    )
    predictions = [
        Prediction(*key, draw(scores)) for key in draw(st.lists(keys, max_size=25))
    ]
    gold = [GoldAnnotation(*key) for key in draw(st.sets(keys, max_size=10))]
    return predictions, gold


@st.composite
def seeded_graphs(draw):
    """A graph of up to three components (so some mentions are reached by
    no class and tie at 0) plus 1-3 classes seeded on its mentions."""
    mentions = []
    for comp in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        for k in range(size):
            feats = {f"c{comp}f{k}": draw(st.integers(1, 3)), f"c{comp}hub": 1}
            if draw(st.booleans()):
                feats[f"c{comp}f{(k + 1) % size}"] = 1
            mentions.append(make_mention(f"c{comp}m{k}", feats))
    graph = build_graph_from_mentions(mentions)
    assume(graph.mention_nodes)
    nodes = st.sampled_from(graph.mention_nodes)
    n_classes = draw(st.integers(1, 3))
    seeds = {
        f"rel{c}": set(draw(st.lists(nodes, min_size=1, max_size=3)))
        for c in range(n_classes)
    }
    return graph, seeds


@st.composite
def walk_seeds(draw):
    """A mention list and 1-3 classes seeded on its mention ids or on an id
    that is no node; two classes may share their seeds."""
    mentions = draw(mention_lists())
    ids = st.sampled_from([m.mention_id for m in mentions] + ["ghost"])
    seeds = {
        f"rel{c}": set(draw(st.lists(ids, min_size=1, max_size=3)))
        for c in range(draw(st.integers(1, 3)))
    }
    return mentions, seeds


# a chain of four mentions; A and B walk from the same seed, so every tie
# goes to A and B is assigned no mention
SHARED_SEED = (
    [make_mention(f"m{i}", {f"f{i}": 1, f"f{i + 1}": 1}) for i in range(4)],
    {"A": {"m0"}, "B": {"m0"}},
)


@st.composite
def feature_targets(draw):
    """A sentence of mixed-case, repeated tokens with an arbitrary
    dependency forest (cycles included, with or without a verb), a
    singleton span or a coordinate list with gaps between its items, and
    a feature config whose affix range may exceed every token."""
    n = draw(st.integers(1, 9))
    words = st.sampled_from(["Nausea", "nausea", "NAUSEA", "a", "of", "Pain", "İ", "x-ray", ""])
    tokens = tuple(
        token(
            draw(words),
            draw(st.sampled_from(["NOUN", "VERB", "ADJ", None])),
            draw(st.one_of(st.none(), st.integers(0, n - 1))),
            draw(st.sampled_from(["nsubj", "dobj", None])),
        )
        for _ in range(n)
    )
    bounds = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=n + 1)))
    if draw(st.booleans()):  # a singleton anywhere, edges included
        target = (bounds[0], bounds[-1])
    else:  # items are alternate gaps of the bounds: (b0,b1), (b2,b3), ...
        items = tuple(zip(bounds[::2], bounds[1::2]))
        target = CoordinateList(items, draw(st.sampled_from(items)))
    config = FeatureConfig(
        window=draw(st.integers(0, 3)),
        affix_min=draw(st.integers(1, 4)),
        affix_max=draw(st.integers(0, 9)),
        dependency_features=draw(st.booleans()),
    )
    return Sentence(tokens), target, config


@st.composite
def feature_corpora(draw):
    """Documents of sentences drawn by `feature_targets`, each holding its
    target as a chunk or a list and up to three more chunks, under the
    first draw's feature config. The small vocabulary makes equal pairs
    recur across mentions; mention ids are unique, as ingest makes them."""
    cases = draw(st.lists(feature_targets(), min_size=1, max_size=8))
    sentences = []
    for sentence, target, _ in cases:
        n = len(sentence.tokens)
        spans = st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda se: se[0] < se[1])
        if isinstance(target, CoordinateList):
            lists, chunks = (target,), list(target.item_spans)
            taken = {target.span, *target.item_spans}
        else:
            lists, chunks, taken = (), [target], {target}
        chunks += [s for s in dict.fromkeys(draw(st.lists(spans, max_size=3))) if s not in taken]
        sentences.append(Sentence(sentence.tokens, tuple(chunks), lists))
    sections, start = [], 0
    while start < len(sentences):
        k = draw(st.integers(1, 3))
        title = draw(st.sampled_from(["Uses", "side  Effects", ""]))
        sections.append(Section(title, sentences[start : start + k]))
        start += k
    docs = []
    while sections:
        k = draw(st.integers(1, 2))
        tag = draw(st.sampled_from(["structured", "target"]))
        docs.append(Document(f"d{len(docs)}", "drugx", sections[:k], tag))
        sections = sections[k:]
    return docs, cases[0][2]


@st.composite
def classify_models(draw, vocab, feature_config=FeatureConfig(), max_weights=5):
    """A model of 0-4 relations, each weighing up to `max_weights` names of
    `vocab`. Weights of either sign and a few repeated values make totals
    cancel and scores tie; Platt (A, B) past about 709/|margin| overflows
    `exp`."""
    values = st.one_of(
        st.sampled_from([0.5, -0.5, 1.0, 300.0, -300.0, 1e16, -1e16]),
        st.floats(-50.0, 50.0, allow_nan=False),
    )
    names = draw(st.lists(st.sampled_from(["r", "b_rel", "a_rel", "rel10", "rel2"]),
                          unique=True, max_size=4))
    platt = draw(st.booleans())
    relations = {}
    for name in names:
        weights = draw(st.dictionaries(st.sampled_from(vocab), values, max_size=max_weights))
        ab = Platt(draw(st.floats(-10.0, 10.0)), draw(st.floats(-5.0, 5.0))) if platt else None
        relations[name] = RelationModel(weights, draw(values), ab)
    if len(names) >= 2 and draw(st.booleans()):  # a tie between two relations
        relations[names[1]] = relations[names[0]]
    calibration = "platt" if platt else "raw_margin"
    return LinearModel(relations, feature_config, TrainConfig(calibration=calibration))


@st.composite
def scored_models(draw):
    """A model over a small vocabulary and a mention that also has
    features no relation weighs."""
    vocab = ["a", "b", "c", "d", "e"]
    model = draw(classify_models(vocab))
    counts = draw(st.dictionaries(st.sampled_from(vocab + ["unweighed", "z"]),
                                  st.integers(1, 3)))
    return model, make_mention("m", counts)


@st.composite
def extraction_cases(draw):
    """Documents drawn by `feature_corpora` and a model over their feature
    names, which leaves most of each mention's features unweighed."""
    docs, config = draw(feature_corpora())
    vocab = sorted({f for doc in docs for m in enumerate_mentions(doc, config, {})
                    for f, _ in m.features})
    return docs, draw(classify_models(vocab, config, max_weights=20)), config


# --- equivalence -------------------------------------------------------------


@st.composite
def batched_problems(draw):
    """One to three problems over the rows of one matrix, each with its
    own visiting order of the rows and its own labels."""
    x, _ = draw(sparse_problems())
    n = x.shape[0]
    n_rel = draw(st.integers(1, 3))
    rows = np.array([draw(st.permutations(range(n))) for _ in range(n_rel)], dtype=np.intp)
    y = np.array([draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
                  for _ in range(n_rel)])
    return x, rows.reshape(n_rel, n), y.reshape(n_rel, n)


@given(
    batched_problems(),
    st.sampled_from([1e-3, 1e-2, 0.5]),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_sgd_matches_getrow_loop_bitwise(problem, reg_lambda, epochs, rng_seed):
    x, rows, y = problem
    w, bias = _sgd_hinge_batched(x, rows, y, reg_lambda, epochs, rng_seed)
    assert w.shape == (len(rows), x.shape[1]) and bias.shape == (len(rows),)
    for r in range(len(rows)):
        w_ref, bias_ref = sgd_hinge_getrow_oracle(x[rows[r]], y[r], reg_lambda, epochs, rng_seed)
        assert np.array_equal(w[r].view(np.uint64), w_ref.view(np.uint64))
        assert bias[r].hex() == float(bias_ref).hex()


def separable_problem(n, n_rel, seed):
    """`n` rows, each with a private column of weight 3 to 9 and a few
    shared noise columns, so any labels are separable: at a small lambda
    a row's margin mostly stays above 1 after its first hinge step, and
    the speculative blocks run long. `n_rel` problems, each with its own
    order of the rows and its own labels."""
    rng = np.random.default_rng(seed)
    shared = sp.random(n, 3, density=0.3, random_state=seed, format="csr")
    shared.data = rng.uniform(-2.0, 2.0, shared.nnz)
    x = sp.hstack([sp.diags(rng.integers(3, 10, n).astype(float)), shared], format="csr")
    rows = np.array([rng.permutation(n) for _ in range(n_rel)], dtype=np.intp)
    return x, rows, rng.choice([1.0, -1.0], size=(n_rel, n))


def assert_sgd_matches_getrow_loop(x, rows, y, reg_lambda, epochs, rng_seed):
    w, bias = _sgd_hinge_batched(x, rows, y, reg_lambda, epochs, rng_seed)
    for r in range(len(rows)):
        w_ref, bias_ref = sgd_hinge_getrow_oracle(x[rows[r]], y[r], reg_lambda, epochs, rng_seed)
        assert np.array_equal(w[r].view(np.uint64), w_ref.view(np.uint64))
        assert bias[r].hex() == float(bias_ref).hex()


def record_block_lengths(monkeypatch) -> list[int]:
    """The step count of each speculative block `_sgd_hinge_batched`
    takes from here on: one `_row_dots` call over (steps, R, width)."""
    lengths = []

    def recording(values, weights):
        lengths.append(len(values))
        return _row_dots(values, weights)

    monkeypatch.setattr(training, "_row_dots", recording)
    return lengths


@given(
    st.integers(1, 100), st.integers(1, 3), st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1e-2, 0.1]),
)
# a hinge step on an epoch's last step, at the end of a block that began
# mid-epoch (steps 9-12), and of one that is the whole epoch (steps 1-12)
@example(12, 3, 0, 0.1)
@example(12, 3, 2, 0.1)
@settings(max_examples=15, deadline=None)
def test_sgd_long_blocks_match_getrow_loop_bitwise(n, n_rel, seed, reg_lambda):
    assert_sgd_matches_getrow_loop(*separable_problem(n, n_rel, seed), reg_lambda, 50, seed)


def test_sgd_blocks_reach_the_row_cap_and_the_epochs_end(monkeypatch):
    x, rows, y = separable_problem(100, 3, 1)
    lengths = record_block_lengths(monkeypatch)
    assert_sgd_matches_getrow_loop(x, rows, y, 1e-3, 50, 1)
    assert max(lengths) == training._BLOCK_ROWS < 100
    # a block length only doubles or halves: any other was cut at an epoch's end
    assert any(b & (b - 1) for b in lengths)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_sgd_where_every_step_hits_matches_getrow_loop_bitwise(monkeypatch, n):
    # so strong a regularizer keeps every margin near 0, below 1
    x, rows, y = separable_problem(n, 2, n)
    lengths = record_block_lengths(monkeypatch)
    assert_sgd_matches_getrow_loop(x, rows, y, 100.0, 50, n)
    # a clean step would double the next block past 1 step, if one follows
    assert lengths[:-1] == [1] * (50 * n - 1)


@pytest.mark.parametrize("reg_lambda", [1e-3, 0.5])
@pytest.mark.parametrize("n_rel", [1, 3])
def test_sgd_on_one_row_matches_getrow_loop_bitwise(n_rel, reg_lambda):
    assert_sgd_matches_getrow_loop(*separable_problem(1, n_rel, 3), reg_lambda, 50, 3)


def test_row_dot_is_scipys_row_product_not_blas_dot():
    rng = np.random.default_rng(5)
    x = sp.random(60, 200, density=0.3, random_state=6, format="csr")
    x.data = rng.uniform(-3.0, 3.0, x.nnz)
    x.data[x.indptr[7]:x.indptr[8]] = 0.0  # a row with no entry
    x.eliminate_zeros()
    w = np.append(rng.uniform(-3.0, 3.0, 200), 0.0)  # the sink column last
    columns, values = _padded_rows(x)
    got = _row_dots(values, w[columns])
    blas_differs = 0
    for i in range(60):
        lo, hi = x.indptr[i], x.indptr[i + 1]
        idx, val = x.indices[lo:hi], x.data[lo:hi]
        assert got[i] == (x.getrow(i) @ w[:-1]).item()
        blas_differs += bool(val @ w[idx] != (x.getrow(i) @ w[:-1]).item())
    assert blas_differs  # the rows the sequential sum exists for
    assert got[7] == 0.0 and not values[7].any() and (columns[7] == 200).all()


def test_padded_rows_keep_each_rows_order_and_pad_to_the_sink():
    x = sp.csr_matrix((np.array([2.0, 1.0, 3.0]), np.array([4, 0, 2]), np.array([0, 0, 1, 3])),
                      shape=(3, 5))  # the last row's columns out of order
    columns, values = _padded_rows(x)
    assert columns.tolist() == [[5, 5], [4, 5], [0, 2]]
    assert values.tolist() == [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]
    columns, values = _padded_rows(sp.csr_matrix((2, 0)))  # no column at all
    assert columns.tolist() == [[0], [0]] and values.tolist() == [[0.0], [0.0]]


def assert_same_graph(got: BipartiteGraph, want: BipartiteGraph) -> None:
    assert got.mention_nodes == want.mention_nodes
    assert got.feature_nodes == want.feature_nodes
    assert_same_csr(got.adjacency, want.adjacency)


@given(mention_lists())
@settings(max_examples=150, deadline=None)
def test_graph_build_matches_loop(mentions):
    assert_same_graph(build_graph_from_mentions(mentions), build_graph_loop_oracle(mentions))


def test_graph_build_drops_idf0_feature_and_degree0_mention():
    mentions = [
        make_mention("m1", {"u": 1, "a": 2}),
        make_mention("m2", {"u": 3}),  # only a universal feature: degree 0
        make_mention("m3", {"u": 1, "a": 1, "b": 1}),
    ]
    graph = build_graph_from_mentions(mentions)
    assert graph.mention_nodes == ["m1", "m3"]
    assert graph.feature_nodes == ["a", "b"]
    assert_same_graph(graph, build_graph_loop_oracle(mentions))


def test_graph_build_with_no_edges_matches_loop():
    mentions = [make_mention(f"m{i}", {"u": 1}) for i in range(3)]
    graph = build_graph_from_mentions(mentions)
    assert graph.n_nodes == 0
    assert_same_graph(graph, build_graph_loop_oracle(mentions))


# an idf-0 feature `u`, and `zz`, sorted last, left with no edge: the last
# row of the count matrix keeps none of its entries
IDF0_AND_EDGELESS_LAST = [
    make_mention("m0", {"u": 1, "a": 2, "b": 1}),
    make_mention("m1", {"u": 2, "a": 1}),
    make_mention("m2", {"u": 1, "c": 3}),
    make_mention("zz", {"u": 4}),
]


@given(mention_lists())
@example(IDF0_AND_EDGELESS_LAST)
@example([make_mention("m0", {"a": 1}), make_mention("m1", {}), make_mention("m2", {"b": 2})])
@example([make_mention(f"m{i}", {"u": 1}) for i in range(3)])  # no edge at all
@settings(max_examples=200, deadline=None)
def test_graph_build_matches_bmat(mentions):
    graph = build_graph_from_mentions(mentions)
    assert_same_graph(graph, build_graph_bmat_oracle(mentions))
    # what `BipartiteGraph` promises: symmetric, each row's indices ascending
    a = graph.adjacency
    assert (a != a.T).nnz == 0
    for i in range(graph.n_nodes):
        assert np.all(np.diff(a.indices[a.indptr[i] : a.indptr[i + 1]]) > 0)


@given(mention_lists())
@example(IDF0_AND_EDGELESS_LAST)
@settings(max_examples=150, deadline=None)
def test_walk_matrix_matches_transposed_copy(mentions):
    a = build_graph_from_mentions(mentions).adjacency
    degrees = np.asarray(a.sum(axis=1)).ravel()
    assert_same_csr(_walk_matrix(a, degrees), walk_matrix_transpose_oracle(a))


@pytest.mark.parametrize(
    "size",
    [0, 1, pipeline._HASH_BLOCK - 1, pipeline._HASH_BLOCK, pipeline._HASH_BLOCK + 1,
     3 * pipeline._HASH_BLOCK],
)
def test_block_hash_is_the_whole_file_hash(tmp_path, size):
    path = tmp_path / "artifact"
    path.write_bytes(np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes())
    assert pipeline._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


@given(seeded_graphs())
@settings(max_examples=100, deadline=None)
def test_multirankwalk_matches_per_class_ppr_and_first_max(case):
    graph, seeds = case
    config = PropagationConfig()
    got = multirankwalk(graph, seeds, config)
    want = multirankwalk_dict_oracle(graph, seeds, config)
    assert got.per_class == want.per_class


@given(walk_seeds())
@example(SHARED_SEED)
@settings(max_examples=150, deadline=None)
def test_ranking_file_holds_the_walks_classes(case):
    """What `train` and `sweep` read back from ranking.tsv is the ranking
    the in-process harness trains on: the same classes, each with its
    mention ids in the same order."""
    mentions, seeds = case
    ranking = multirankwalk(build_graph_from_mentions(mentions), seeds, PropagationConfig())
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ranking.tsv"
        write_ranking(ranking, path)
        back = read_ranking(path)
    assert set(back.per_class) == set(ranking.per_class)
    for cls, ranked in ranking.per_class.items():
        assert [mid for mid, _ in back.per_class[cls]] == [mid for mid, _ in ranked]


def test_multirankwalk_ties_go_to_first_class():
    mentions = [
        make_mention("a1", {"f1": 1, "x": 1}),
        make_mention("a2", {"f2": 1, "x": 1}),
        make_mention("m", {"x": 1}),
        make_mention("b1", {"g1": 1, "g2": 1}),
        make_mention("b2", {"g2": 1, "g3": 1}),
    ]
    graph = build_graph_from_mentions(mentions)
    # `m` sits midway between the seeds of a mirror-symmetric component:
    # an exact tie; the other component scores 0 for both and gets no class
    seeds = {"relB": {"a1"}, "relA": {"a2"}}
    got = multirankwalk(graph, seeds, PropagationConfig())
    ppr = {c: personalized_pagerank(graph, s, PropagationConfig()) for c, s in seeds.items()}
    assert ppr["relA"]["m"] == ppr["relB"]["m"] > 0.0
    assert assigned(got) == {"a1": "relB", "a2": "relA", "m": "relA"}
    want = multirankwalk_dict_oracle(graph, seeds, PropagationConfig())
    assert got.per_class == want.per_class


def hand_built_graph(mention_nodes, feature_nodes, weights):
    w = sp.csr_matrix(weights)
    return BipartiteGraph(
        mention_nodes, feature_nodes, sp.bmat([[None, w], [w.T, None]], format="csr")
    )


@given(mention_lists().map(build_graph_from_mentions))
@example(build_graph_from_mentions([make_mention(f"m{i}", {"u": 1}) for i in range(3)]))
@example(build_graph_from_mentions([  # tf > 1
    make_mention("m0", {"a": 3, "b": 1}), make_mention("m1", {"a": 2, "c": 4}),
    make_mention("m2", {"c": 1}),
]))
@example(build_graph_from_mentions(  # ln(21/20) on the 20 `s` edges, ln(21) on the rest
    [make_mention(f"m{i:02d}", {"s": 1, f"x{i}": 1}) for i in range(20)]
    + [make_mention("m20", {"y": 1})]
))
@example(hand_built_graph(  # exponent forms under .12g, and zeros of either sign
    ["m0", "m1", "m2"], ["f0", "f1"],
    (np.array([1e-07, 1.5e12, 0.0, -0.0, 1e-07]), [0, 1, 0, 1, 1], [0, 2, 4, 5]),
))
@example(build_graph_from_mentions(IDF0_AND_EDGELESS_LAST))
@settings(max_examples=60, deadline=None)
def test_graph_dump_matches_edges_writer(tmp_path_factory, graph):
    out = tmp_path_factory.mktemp("dump")
    write_graph_dump(graph, str(out / "new.tsv"))
    graph_dump_edges_oracle(graph, str(out / "old.tsv"))
    assert (out / "new.tsv").read_bytes() == (out / "old.tsv").read_bytes()


@given(mention_lists().map(build_graph_from_mentions), st.integers(1, 4))
@example(build_graph_from_mentions(IDF0_AND_EDGELESS_LAST), 2)
@example(hand_built_graph(  # mention rows with no edge, in the middle and last
    ["m0", "m1", "m2", "m3"], ["f0", "f1"],
    (np.array([1.5, 2.0, 0.25]), [0, 1, 1], [0, 2, 2, 3, 3]),
), 1)
@settings(max_examples=60, deadline=None)
def test_edges_in_row_blocks_match_whole_lists(tmp_path_factory, graph, block_rows):
    """The dump written a block of 1 to 4 mention rows at a time, which
    splits the rows at every place, is the edges writer's file."""
    out = tmp_path_factory.mktemp("dump")
    graph_dump_edges_oracle(graph, str(out / "old.tsv"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_DUMP_BLOCK_ROWS", block_rows)
        write_graph_dump(graph, str(out / "new.tsv"))
    assert (out / "new.tsv").read_bytes() == (out / "old.tsv").read_bytes()


def design_matrices(training_set, monkeypatch):
    """relation -> (its design matrix, its labels), rebuilt from the one
    matrix `train` hands to the batched SGD and that relation's rows."""
    seen = []

    def capture(x, rows, y, *args):
        seen.append((x, rows, y))
        return np.zeros((len(rows), x.shape[1])), np.zeros(len(rows))

    monkeypatch.setattr(training, "_sgd_hinge_batched", capture)
    training.train(training_set, TrainConfig(calibration="raw_margin"), None)
    assert len(seen) == 1  # one SGD pass fits every relation
    x, rows, y = seen[0]
    relations = sorted(training_set.positives)
    assert rows.shape == y.shape == (len(relations), x.shape[0])
    return {relation: (x[rows[r]], y[r]) for r, relation in enumerate(relations)}


def assert_same_csr(got, want):
    """Equal shape and index arrays with their dtypes, and float64 data
    equal bit for bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.data.dtype == want.data.dtype == np.float64
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


@given(relation_training_sets())
@example(  # m1 has no allowed feature
    TrainingSet(
        positives={"relA": [make_mention("m0", {"a": 1, "b": 2})]},
        negatives=[make_mention("m1", {"b": 3}), make_mention("m2", {"a": 2})],
        feature_filter=FeatureFilter(allowed=frozenset({"a"})),
    )
)
@example(  # the filter allows nothing
    TrainingSet(
        positives={"relA": [make_mention("m0", {"a": 1})]},
        negatives=[make_mention("m1", {"b": 3})],
        feature_filter=FeatureFilter(allowed=frozenset()),
    )
)
@settings(max_examples=150, deadline=None)
def test_train_design_matrix_matches_vectorize_loop(training_set):
    allowed = sorted(training_set.feature_filter.allowed)
    feat_index = {f: i for i, f in enumerate(allowed)}
    with pytest.MonkeyPatch.context() as mp:
        got = design_matrices(training_set, mp)
    assert sorted(got) == sorted(training_set.positives)  # one matrix per relation
    for relation, (x, y) in got.items():
        pos = training_set.positives[relation]
        others = [
            m for other, ms in sorted(training_set.positives.items())
            if other != relation for m in ms
        ]
        mentions = pos + others + training_set.negatives
        assert_same_csr(x, vectorize_loop_oracle(mentions, training_set.feature_filter, feat_index))
        assert y.tolist() == [1.0] * len(pos) + [-1.0] * (len(mentions) - len(pos))


def model_bits(model):
    return {
        relation: (
            [(f, w.hex()) for f, w in sorted(rm.weights.items())],
            rm.bias.hex(),
            rm.platt and (rm.platt.A.hex(), rm.platt.B.hex()),
        )
        for relation, rm in model.relations.items()
    }


_M0, _M1, _M2 = (make_mention(f"m{i}", feats) for i, feats in
                 enumerate(({"a": 1, "b": 2}, {"b": 3}, {"a": 2, "c": 1})))


@given(
    relation_training_sets(),
    st.sampled_from(["platt", "raw_margin"]),
    st.integers(1, 6),
    st.sampled_from([1e-3, 0.1, 2.0]),
    st.integers(0, 2**32 - 1),
)
@example(  # m1 is a zero row: it has no allowed feature
    TrainingSet({"relA": [_M0], "relB": [_M2]}, [_M1], FeatureFilter(frozenset({"a", "c"}))),
    "platt", 3, 1e-3, 13,
)
@example(  # the filter allows nothing
    TrainingSet({"relA": [_M0]}, [_M1, _M2], FeatureFilter(frozenset())), "platt", 2, 1e-3, 13,
)
@example(  # m0 is a positive of both relations, as shared value pools make it
    TrainingSet({"relB": [_M0, _M1], "relA": [_M0]}, [_M2], FeatureFilter(frozenset({"a", "b"}))),
    "platt", 6, 1e-3, 13,
)
@settings(max_examples=150, deadline=None)
def test_train_matches_per_relation_oracle_bitwise(
    training_set, calibration, epochs, reg_lambda, rng_seed
):
    config = TrainConfig(calibration=calibration, epochs=epochs, reg_lambda=reg_lambda,
                         rng_seed=rng_seed)
    got = training.train(training_set, config, FeatureConfig())
    want = train_per_relation_oracle(training_set, config, FeatureConfig())
    assert list(got.relations) == sorted(training_set.positives)
    assert model_bits(got) == model_bits(want)


@pytest.mark.parametrize("positives, negatives", [
    ({"relB": [], "relA": []}, [_M1]),  # relA, first in name order, is named
    ({"relA": [_M0, _M1]}, []),  # nothing is negative
])
def test_train_names_an_empty_side_as_the_per_relation_loop(positives, negatives):
    training_set = TrainingSet(positives, negatives, FeatureFilter(frozenset({"a", "b"})))
    with pytest.raises(ValueError) as want:
        train_per_relation_oracle(training_set, TrainConfig(), FeatureConfig())
    with pytest.raises(ValueError) as got:
        training.train(training_set, TrainConfig(), FeatureConfig())
    assert str(got.value) == str(want.value)


@given(relation_training_sets())
@settings(max_examples=60, deadline=None)
def test_training_set_filter_counts_names_as_the_dict_loop(training_set):
    config = TrainConfig(n=1, negatives=len(training_set.negatives))
    built = training.build_training_set(
        training_set.positives, training_set.negatives, set(), config
    )
    mentions = [m for ms in training_set.positives.values() for m in ms] + built.negatives
    assert built.feature_filter == feature_filter_dict_oracle(
        [m.feature_counts() for m in mentions]
    )


def test_train_refuses_an_allowed_feature_no_mention_has(monkeypatch):
    # a sorted-position lookup would quietly take a neighbouring column
    training_set = TrainingSet(
        positives={"relA": [make_mention("m0", {"a": 1, "c": 1})]},
        negatives=[make_mention("m1", {"c": 2})],
        feature_filter=FeatureFilter(allowed=frozenset({"b"})),
    )
    with pytest.raises(KeyError, match="'b'"):
        design_matrices(training_set, monkeypatch)


def test_feature_matrix_rows_follow_the_given_order():
    mentions = [make_mention("m1", {"f2": 1, "f10": 3}), make_mention("m0", {}),
                make_mention("m2", {"a": 2})]
    vocab, x = feature_matrix(mentions)
    assert vocab == ["a", "f10", "f2"]
    assert x.dtype == np.float64 and x.has_sorted_indices
    assert x.toarray().tolist() == [[0.0, 3.0, 1.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]


@given(scored_predictions())
@settings(max_examples=300, deadline=None)
def test_pr_curve_matches_rebuild_per_threshold(case):
    predictions, gold = case
    assert pr_curve(predictions, gold) == pr_curve_rebuild_oracle(predictions, gold)


@given(feature_targets())
@example((  # a list at both sentence edges, "x" and "y" in the gap
    Sentence((token("A", "NOUN", 2, "nsubj"), token("x"), token("y", "VERB"),
              token("B", "NOUN", 2, "dobj"))),
    CoordinateList(((0, 1), (3, 4)), (3, 4)),
    FeatureConfig(window=1, affix_min=1, affix_max=9),
))
@example((  # window 0, the head's chain ends without a verb
    Sentence((token("Ab", "NOUN", 1), token("ab", "ADJ", None))),
    (0, 2),
    FeatureConfig(window=0),
))
@example((  # the head's chain runs into the cycle 0 -> 1 -> 0, off the verb
    Sentence((token("a", "NOUN", 1, "nsubj"), token("b", "ADJ", 0), token("c", "VERB", 1))),
    (0, 1),
    FeatureConfig(),
))
@settings(max_examples=300, deadline=None)
def test_extract_features_matches_counter_loop(case):
    sentence, target, config = case
    assert Counter(extract_features(sentence, target, config)) == extract_features_loop_oracle(
        sentence, target, config
    )


def _emits(prefix):
    return lambda case: any(f.startswith(prefix) for f in extract_features(*case))


def _has_head_cycle(case):
    tokens = case[0].tokens
    for start in range(len(tokens)):
        seen, idx = set(), start
        while idx is not None and idx not in seen:
            seen.add(idx)
            idx = tokens[idx][DEP_HEAD]
        if idx is not None:
            return True
    return False


@pytest.mark.parametrize(
    "condition",
    [_emits("vrb="), _emits("mod="), _emits("path="), _has_head_cycle],
    ids=["vrb", "mod", "path", "head-cycle"],
)
def test_feature_targets_reach_the_dependency_features(condition):
    """No fixture corpus has a dep_head, so `feature_targets` alone covers
    the dependency features: it must draw heads, labels and head cycles."""
    find(feature_targets(), condition, settings=settings(max_examples=2000, database=None))


@given(feature_corpora())
@settings(max_examples=200, deadline=None)
def test_shared_pairs_give_the_unshared_mentions_and_lines(tmp_path_factory, corpus):
    docs, config = corpus
    want = [m for doc in docs for m in enumerate_mentions_unshared_oracle(doc, config)]
    for doc in docs:  # a table of its own per document
        mentions = enumerate_mentions(doc, config, {})
        assert mentions == enumerate_mentions_unshared_oracle(doc, config)
    want.sort(key=lambda m: m.mention_id)
    got = corpus_mentions(docs, config)
    assert got == want

    encoder = MentionEncoder()
    lms = [LabeledMention(m, "usedToTreat", "Rt") for m in got]
    for lm, m in zip(lms, want):
        assert encoder.line(lm.mention) == json.dumps(mention_to_dict(m), sort_keys=True) + "\n"
        assert encoder.labeled_line(lm) == json.dumps(
            labeled_mention_to_dict(LabeledMention(m, lm.label, lm.source_set)), sort_keys=True
        ) + "\n"
    path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
    write_mentions(got, str(path), encoder)
    assert read_mentions(str(path)) == want


def assert_equal_pairs_are_one_tuple(mentions):
    pairs = [p for m in mentions for p in m.features]
    first = {}
    for p in pairs:
        assert first.setdefault(p, p) is p
    assert len(first) < len(pairs)  # some pair recurs


def test_equal_pairs_are_one_tuple_within_a_build_and_a_read(
    tmp_path, structured_docs, target_docs
):
    encoder = MentionEncoder()
    for docs in (structured_docs, target_docs):
        mentions = corpus_mentions(docs, FeatureConfig())
        assert_equal_pairs_are_one_tuple(mentions)
        write_mentions(mentions, str(tmp_path / "pool.jsonl"), encoder)
        assert_equal_pairs_are_one_tuple(read_mentions(str(tmp_path / "pool.jsonl")))
        lms = [LabeledMention(m, "Symptom", "Ct") for m in mentions]
        write_labeled_mentions(lms, str(tmp_path / "set.jsonl"), encoder)
        read = read_labeled_mentions(str(tmp_path / "set.jsonl"))
        assert_equal_pairs_are_one_tuple([lm.mention for lm in read])


def raw(relations):
    return LinearModel(relations, FeatureConfig(), TrainConfig(calibration="raw_margin"))


@given(scored_models())
@example((raw({}), make_mention("m", {"a": 1})))  # no relation
@example((  # equal scores: the first name wins
    raw({"b": RelationModel({"a": 1.0}, 0.0, None), "a": RelationModel({"a": 1.0}, 0.0, None)}),
    make_mention("m", {"a": 1, "z": 2}),
))
@example((  # a*m + b = 1500 overflows exp: that relation scores 0.0
    LinearModel({"r": RelationModel({"a": -300.0}, 0.0, Platt(-5.0, 0.0)),
                 "s": RelationModel({"b": 2.0}, 0.0, Platt(-1.0, 0.0))},
                FeatureConfig(), TrainConfig()),
    make_mention("m", {"a": 1, "b": 1}),
))
@settings(max_examples=400, deadline=None)
def test_classify_scored_matches_per_relation_loop(case):
    model, mention = case
    assert classify_scored(model, mention) == classify_scored_loop_oracle(model, mention)


def test_classify_scored_sums_in_the_mention_feature_order():
    # in the mention's order a, b, c: (1 + 1e16) rounds to 1e16, and the
    # total is 0.0; a compensated sum, the reverse walk or the weights'
    # own order (c, b, a) all give 1.0
    rm = RelationModel({"c": -1e16, "b": 1e16, "a": 1.0}, 0.5, None)
    mention = make_mention("m", {"a": 1, "b": 1, "c": 1})
    assert score_oracle(rm, mention.feature_counts()) == 0.5
    assert math.fsum([1.0, 1e16, -1e16]) == 1.0
    assert classify_scored(raw({"r": rm}), mention) == ("r", 0.5)


def test_classify_counts_sums_in_name_order_not_insertion_order():
    # inserted c, b, a, the sum -1e16 + 1e16 + 1 would be 1.0; in the
    # names' order a, b, c, (1 + 1e16) rounds to 1e16 and the total is 0.0
    rm = RelationModel({"c": -1e16, "b": 1e16, "a": 1.0}, 0.5, None)
    assert classify_counts(raw({"r": rm}), {"c": 1, "b": 1, "a": 1}) == ("r", 0.5)


@given(scored_models(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_classify_counts_of_any_insertion_order_matches_the_mention(case, rnd):
    model, mention = case
    shuffled = list(mention.features)
    rnd.shuffle(shuffled)
    assert classify_counts(model, dict(shuffled)) == classify_scored_loop_oracle(model, mention)


# "n" is the only chunk: its names are bow=a once, bow=b twice, then
# tok=n and the window names; under raw_margin the margin is the score
_BOW_DOC = Document("d0", "drugx", [Section("Uses", [Sentence(
    (token("a"), token("b"), token("b"), token("n")), ((3, 4),)
)])], "target")


@given(extraction_cases())
@example((  # bow=b weighs 2**-53 and occurs twice: 1.0 + 2 * 2**-53 is
    # 1 + 2**-52, while adding it once per occurrence rounds back to 1.0
    [_BOW_DOC],
    raw({"r": RelationModel({"bow=a": 1.0, "bow=b": 2.0**-53}, 0.0, None)}),
    FeatureConfig(),
))
@example((  # the target hits no weighed name: its score is the bias alone
    [_BOW_DOC],
    raw({"r": RelationModel({"bow=z": 1.0}, 0.75, None),
         "s": RelationModel({"tok=z": 2.0}, 0.5, None)}),
    FeatureConfig(),
))
@settings(max_examples=200, deadline=None)
def test_extract_document_matches_the_mention_path(case):
    docs, model, config = case
    for doc in docs:
        got = extract_document(doc, model, config)
        want = extract_document_mention_oracle(doc, model, config)
        assert [(p.doc_id, p.relation, p.value, p.score.hex()) for p in got] == [
            (p.doc_id, p.relation, p.value, p.score.hex()) for p in want
        ]


def test_classify_scored_is_a_sequential_sum_not_a_blas_dot():
    rng = np.random.default_rng(7)
    names = [f"f{j:03d}" for j in range(120)]
    blas_differs = 0
    for _ in range(30):
        weights = dict(zip(names, rng.uniform(-3.0, 3.0, len(names)).tolist()))
        mention = make_mention("m", dict(zip(names, rng.integers(1, 4, len(names)).tolist())))
        counts = mention.feature_counts()
        margin = margin_oracle(RelationModel(weights, 0.0, None), counts)
        if margin < 0.0:  # negating every weight negates the sum exactly
            weights = {f: -w for f, w in weights.items()}
            margin = -margin
        if margin < training.SCORE_THRESHOLD:
            continue
        rm = RelationModel(weights, 0.0, None)
        assert classify_scored(raw({"r": rm}), mention) == ("r", margin)
        w = np.array([weights[f] for f in counts])
        c = np.array(list(counts.values()), dtype=float)
        blas_differs += bool(w @ c != margin)
    assert blas_differs  # the mentions the sequential sum exists for


# --- non-convergence ----------------------------------------------------------


def test_ppr_raises_when_max_iters_runs_out():
    graph = build_graph_from_mentions(
        [make_mention("m1", {"f": 1, "u": 1}), make_mention("m2", {"u": 1})]
    )
    with pytest.raises(ValueError, match=r"did not converge in 1 iterations \(residual"):
        personalized_pagerank(graph, {"m1"}, PropagationConfig(max_iters=1))
    with pytest.raises(ValueError, match="did not converge"):
        multirankwalk(graph, {"r": {"m1"}}, PropagationConfig(max_iters=1))
