"""Random forest over dependency feature vectors.

CART-style trees, each grown on a bootstrap resample with Gini impurity splits
over ``ceil(sqrt(dims))`` random candidate features per node, until every
leaf is pure (a leaf may hold one row).  The predicted probability is the
fraction of trees voting true.  Bootstrap draws are keyed to (seed, tree
index) and training rows are put into a canonical order first, so training is
invariant to the order rows arrive in.

The trees of one fit grow in lockstep: each step takes the next impure node
of every unfinished tree, in that tree's own pre-order and with its own
generator, and split-searches all of them in a few flat numpy passes of at
most ``_CHUNK_ELEMENTS`` elements.  The model is the one growing the trees
one by one gives.  A node's candidate features are the ``k`` features with
the smallest of ``dims`` uniform keys from its tree's generator; a tree
draws the keys of ``_DRAWS_PER_REFILL`` nodes at a time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .config import ForestConfig
from .errors import DepwalkError, UnknownAddressError
from .seeds import derive_seed


@dataclass(frozen=True)
class _TreeNodes:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    leaf_p: tuple[float, ...]


@dataclass(frozen=True)
class ForestModel:
    n_features: int
    trees: tuple[_TreeNodes, ...]


def build_label_set(ground_truth: Iterable[tuple[str, str]], vertices: Iterable[str],
                    rng_seed: int) -> list[tuple[str, str, bool]]:
    """``(src, dst, label)`` triples: the ground-truth pairs labelled true,
    sorted, then as many uniformly drawn distinct non-dependency pairs
    labelled false, sorted.

    Pairs are ordered: (a, b) says that a depends on b, another address.
    Raises when the vertex universe cannot supply enough negatives.
    """
    verts = sorted(set(vertices))
    vset = set(verts)
    positives: set[tuple[str, str]] = set()
    for a, b in ground_truth:
        if a not in vset:
            raise UnknownAddressError(a)
        if b not in vset:
            raise UnknownAddressError(b)
        positives.add((a, b))
    if not positives:
        raise DepwalkError("no ground-truth pair has both endpoints among the sampled vertices")

    n = len(verts)
    universe = n * (n - 1)
    need = len(positives)
    if universe - need < need:
        raise DepwalkError(
            f"cannot draw {need} negative pairs: only {universe - need} non-dependency pairs exist")

    rng = random.Random(rng_seed)
    negatives: set[tuple[str, str]] = set()
    while len(negatives) < need:
        pair = (verts[rng.randrange(n)], verts[rng.randrange(n)])
        if pair[0] != pair[1] and pair not in positives:
            negatives.add(pair)
    return ([(a, b, True) for a, b in sorted(positives)]
            + [(a, b, False) for a, b in sorted(negatives)])


# The most elements (candidate features times rows) one vectorised split
# search holds; a node with more is searched alone.  The cap bounds the
# search's temporaries, and so a fit's peak memory, at little cost in speed.
_CHUNK_ELEMENTS = 8192


def _sort_keys(XT: np.ndarray) -> tuple[np.ndarray, int]:
    """Per element of ``XT``, its value's rank among the distinct values of
    its row (feature) and then its column (training row) in the low
    ``n.bit_length()`` bits, packed into one integer; also the bit width of
    such a key."""
    n = XT.shape[1]
    order = XT.argsort(axis=1)
    sv = np.take_along_axis(XT, order, axis=1)
    steps = np.zeros(XT.shape, dtype=np.int64)
    steps[:, 1:] = sv[:, 1:] > sv[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps.cumsum(axis=1), axis=1)
    shift = n.bit_length()
    return (ranks << shift) | np.arange(n), shift + int(ranks.max()).bit_length()


def _best_splits(XT: np.ndarray, keys: np.ndarray, key_bits: int, y: np.ndarray,
                 chunk: list[tuple]):
    """Best (feature, threshold) by weighted Gini for each node of a chunk,
    all searched in one flat pass.

    A chunk entry is ``(tree, node, rows, n_pos, feats)``: the node's rows,
    its count of positive rows and its candidate features.  Each (node,
    sorted candidate) pair is one segment of a flat array.  One sort on
    (segment, value rank, row), from the ``keys`` of ``_sort_keys``, orders
    every segment by value, and one cumulative sum counts the positives
    left of every cut.  Thresholds are midpoints between consecutive
    distinct values, or the lower value when the midpoint rounds up to the
    upper.  Ties resolve to the first candidate in (feature, position) scan
    order.  A cut depends only on the sorted values and on the positive
    counts at distinct-value boundaries, so row order within a node changes
    nothing and the sort need not be stable.

    Returns the sorted rows and, for each node that splits,
    ``(entry, feature, threshold, start, cut, end, left_pos)``: the left
    child holds ``sorted_rows[start:cut + 1]`` with ``left_pos`` positives,
    the right child ``sorted_rows[cut + 1:end]``.
    """
    n_rows = XT.shape[1]
    feats = np.sort([entry[4] for entry in chunk], axis=1)
    n_pos = np.array([entry[3] for entry in chunk])
    sizes = np.array([len(entry[2]) for entry in chunk])
    m, k = feats.shape
    # candidate c of every node in block c, each block in node order; the
    # sort then groups the segments node by node
    rows = np.concatenate([entry[2] for entry in chunk])
    node_of = np.repeat(np.arange(m), sizes)
    key = keys.ravel()[np.take(feats.T * n_rows, node_of, axis=1) + rows]
    key |= (node_of * k + np.arange(k)[:, None]) << key_bits
    key = key.ravel()
    key.sort()
    seg_n = np.repeat(sizes, k)
    seg_end = seg_n.cumsum()
    seg_start = seg_end - seg_n
    row_bits = n_rows.bit_length()
    srow = key & ((1 << row_bits) - 1)
    sy = y[srow]
    left_pos = sy.cumsum()
    level = key >> row_bits  # segment, then value rank
    distinct = level[1:] > level[:-1]
    distinct[seg_end[:-1] - 1] = False  # no cut between two segments
    # cut j puts sorted positions start..j of its segment on the left
    cut = np.flatnonzero(distinct)
    if cut.size == 0:
        return srow, []
    seg = key[cut] >> key_bits
    node = seg // k
    left_n = cut + 1 - seg_start[seg]
    right_n = seg_n[seg] - left_n
    n = sizes[node]
    lpos = left_pos[cut] - (left_pos[seg_start] - sy[seg_start])[seg]
    rpos = n_pos[node] - lpos
    pl = lpos / left_n
    pr = rpos / right_n
    weighted = (left_n * (1.0 - pl * pl - (1.0 - pl) ** 2)
                + right_n * (1.0 - pr * pr - (1.0 - pr) ** 2)) / n
    # the first minimum of each node that has a cut
    counts = np.bincount(node, minlength=m)
    split = np.flatnonzero(counts)
    counts = counts[split]
    best = np.minimum.reduceat(weighted, counts.cumsum() - counts)
    hit = np.flatnonzero(weighted == np.repeat(best, counts))
    counts = np.bincount(node[hit], minlength=m)[split]
    won = hit[counts.cumsum() - counts]
    j = cut[won]
    win = seg[won]
    f = feats.ravel()[win]
    a = XT[f, srow[j]]
    b = XT[f, srow[j + 1]]
    mid = (a + b) / 2.0
    # between adjacent floats the midpoint can round to b; a keeps b right
    thr = np.where(mid < b, mid, a)
    return srow, list(zip(split.tolist(), f.tolist(), thr.tolist(), seg_start[win].tolist(),
                          j.tolist(), seg_end[win].tolist(), lpos[won].tolist()))


def _chunks(batch: list[tuple], k: int):
    """Consecutive runs of ``batch`` of at most ``_CHUNK_ELEMENTS``
    elements each; a node with more is a run of its own."""
    chunk, size = [], 0
    for entry in batch:
        elements = k * len(entry[2])
        if chunk and size + elements > _CHUNK_ELEMENTS:
            yield chunk
            chunk, size = [], 0
        chunk.append(entry)
        size += elements
    if chunk:
        yield chunk


# Candidate sets drawn per tree in one refill; a tree's generator is dropped
# after its fit, so the draws it never uses cost nothing else.  A tree takes
# its sets in node order from its own stream, so this changes no model.
_DRAWS_PER_REFILL = 16


def _grow_forest(XT: np.ndarray, y: np.ndarray, k: int,
                 rngs: list[np.random.Generator]) -> list[_TreeNodes]:
    """One tree per generator, grown on the bootstrap sample it draws
    first, all grown in lockstep.

    Each tree is built in DFS pre-order and split until every leaf is pure;
    ``XT`` is the training matrix transposed (one contiguous row per
    feature).  At each step every unfinished tree pops nodes off its own
    stack up to its next impure node and takes that node's candidate
    features from its own buffer of draws, refilled from its own generator,
    so each tree's draws keep their order.  The impure nodes of one step are
    then split-searched together.
    """
    dims = XT.shape[0]
    keys, key_bits = _sort_keys(XT)
    y = y.astype(np.int64)
    n = XT.shape[1]
    nodes = [([], [], [], [], []) for _ in rngs]  # feature, threshold, left, right, leaf_p
    # (rows or None once known pure, size, positives, node whose right child
    # this is or -1); a left child is popped right after its parent, so its
    # id is the parent's plus one.  Only its root holds a bootstrap sample,
    # which is freed once the root is split.
    stacks = [[(sample, n, int(y[sample].sum()), -1)]
              for sample in (rng.integers(0, n, size=n) for rng in rngs)]
    draws: list[list[int]] = [[] for _ in rngs]  # each tree's next draws, k ints each, last first
    growing = list(range(len(rngs)))
    while growing:
        batch = []
        for t in growing:
            feature, threshold, left, right, leaf_p = nodes[t]
            stack = stacks[t]
            while stack:
                rows, n_node, n_pos, parent = stack.pop()
                node = len(feature)
                if parent >= 0:
                    right[parent] = node
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_p.append(n_pos / n_node)  # kept if the node does not split
                if 0 < n_pos < n_node:
                    if not draws[t]:
                        picks = np.argpartition(rngs[t].random((_DRAWS_PER_REFILL, dims)), k - 1, axis=1)
                        draws[t] = picks[::-1, :k].ravel().tolist()
                    batch.append((t, node, rows, n_pos, draws[t][-k:]))
                    del draws[t][-k:]
                    break
        for chunk in _chunks(batch, k):
            srow, splits = _best_splits(XT, keys, key_bits, y, chunk)
            for entry, f, thr, start, j, end, lpos in splits:
                t, node, _, n_pos, _ = chunk[entry]
                feature, threshold, left, _, leaf_p = nodes[t]
                feature[node] = f
                threshold[node] = thr
                left[node] = node + 1
                leaf_p[node] = 0.0
                n_left, n_right, rpos = j + 1 - start, end - j - 1, n_pos - lpos
                # copies, so that no child keeps the whole chunk alive
                stacks[t].append((srow[j + 1:end].copy() if 0 < rpos < n_right else None,
                                  n_right, rpos, node))
                stacks[t].append((srow[start:j + 1].copy() if 0 < lpos < n_left else None,
                                  n_left, lpos, -1))
        growing = [t for t in growing if stacks[t]]
    return [_TreeNodes(*map(tuple, tree)) for tree in nodes]


def train_forest(X, y, cfg: ForestConfig) -> ForestModel:
    """Grow ``n_trees`` trees on bootstrap resamples of the rows of the
    feature matrix ``X`` and their labels ``y``."""
    if not len(X):
        raise ValueError("training data is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or y.shape != (len(X),):
        raise ValueError("need a 2-D feature matrix with one label per row")
    if not X.shape[1]:
        raise ValueError("the feature matrix has no columns")
    if np.isnan(X).any():
        raise ValueError("training feature vectors contain NaN")
    if bool(y.all()) or not bool(y.any()):
        raise ValueError("training data must contain both classes")

    # canonical row order; with (seed, tree)-keyed bootstrap draws this makes
    # training independent of the incoming row order
    keys = [y.astype(float)] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys)
    XT = X.T.take(order, axis=1)  # one contiguous row per feature
    y = y[order]

    dims = X.shape[1]
    rngs = [np.random.default_rng(derive_seed(cfg.rng_seed, f"tree:{t}"))
            for t in range(cfg.n_trees)]
    return ForestModel(dims, tuple(_grow_forest(XT, y, math.ceil(math.sqrt(dims)), rngs)))


def predict_proba(model: ForestModel, features) -> float:
    """Fraction of trees voting true for this feature vector."""
    x = np.asarray(features, dtype=float)
    if x.shape != (model.n_features,):
        raise ValueError(f"expected {model.n_features} features, got shape {x.shape}")
    x = x.tolist()  # plain floats: indexing them is far cheaper than numpy scalars
    votes = 0
    for tree in model.trees:
        feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
        node = 0
        while feature[node] >= 0:
            node = left[node] if x[feature[node]] <= threshold[node] else right[node]
        votes += tree.leaf_p[node] >= 0.5
    return votes / len(model.trees)


def save_forest(model: ForestModel, path) -> None:
    """One JSON object: the format tag and the model's fields, each tree
    written as its own fields (``default=vars``)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": "depwalk-forest", "version": 1, **vars(model)}, fh,
                  sort_keys=True, default=vars)
        fh.write("\n")


def _tree_problem(tree: _TreeNodes, n_features: int) -> str | None:
    """Why ``predict_proba`` cannot walk ``tree``, or None: the arrays must
    have equal lengths, a split a feature in range, a finite threshold and
    both children after it, a leaf -1 as its feature, and every ``leaf_p``
    must be in [0, 1].  A threshold or ``leaf_p`` is an int or a float, not
    a bool: JSON ``true`` loads as one, which Python counts as an int."""
    size = len(tree.feature)
    if size == 0:
        return "no nodes"
    for name in ("threshold", "left", "right", "leaf_p"):
        if len(getattr(tree, name)) != size:
            return f"{len(getattr(tree, name))} {name} entries for {size} nodes"
    for node in range(size):
        f, p = tree.feature[node], tree.leaf_p[node]
        if not (type(p) in (int, float) and 0.0 <= p <= 1.0):
            return f"node {node}: leaf_p {p!r} is not in [0, 1]"
        if f == -1:
            continue
        if type(f) is not int or not 0 <= f < n_features:
            return f"node {node}: feature {f!r} is neither -1 nor in [0, {n_features})"
        thr = tree.threshold[node]
        if not (type(thr) in (int, float) and math.isfinite(thr)):
            return f"node {node}: threshold {thr!r} is not a finite number"
        children = (tree.left[node], tree.right[node])
        if not all(type(c) is int and node < c < size for c in children):
            return f"node {node}: children {children} are not in ({node}, {size})"
    return None


def load_forest(path) -> ForestModel:
    """The model ``save_forest`` wrote; a damaged file is a ValueError
    naming it, and the tree at fault."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            if obj.get("format") != "depwalk-forest" or obj.get("version") != 1:
                raise ValueError("not a version-1 forest file")
            n_features = obj["n_features"]
            if type(n_features) is not int:
                raise ValueError(f"n_features {n_features!r} is not an integer")
            if n_features < 1:
                raise ValueError(f"n_features {n_features} is below 1")
            names = [f.name for f in fields(_TreeNodes)]
            trees = tuple(_TreeNodes(*[tuple(t[name]) for name in names]) for t in obj["trees"])
            if not trees:
                raise ValueError("no trees")
            for t, tree in enumerate(trees):
                problem = _tree_problem(tree, n_features)
                if problem:
                    raise ValueError(f"tree {t}: {problem}")
            return ForestModel(n_features, trees)
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
