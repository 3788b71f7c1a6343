"""Random forest over dependency feature vectors.

CART-style trees, each grown on a bootstrap resample with Gini impurity splits
over ``ceil(sqrt(dims))`` random candidate features per node, until every
leaf is pure (a leaf may hold one row).  The predicted probability is the
fraction of trees voting true.  Bootstrap draws are keyed to (seed, tree
index) and training rows are put into a canonical order first, so training is
invariant to the order rows arrive in.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LabelBalanceError, UnknownAddressError
from .seeds import derive_seed


@dataclass
class LabeledPair:
    """An address pair with its feature vector and dependency label."""

    src: str
    dst: str
    features: np.ndarray | None
    label: bool


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


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
                    rng_seed: int) -> list[LabeledPair]:
    """Ground-truth pairs labelled true plus an equal number of uniformly
    drawn distinct non-dependency pairs labelled false.

    Pairs are ordered: (a, b) says that a depends on b.  Feature vectors are
    left unset.  Raises when the vertex universe cannot supply enough
    negatives.
    """
    verts = sorted(set(vertices))
    vset = set(verts)
    positives: set[tuple[str, str]] = set()
    for a, b in ground_truth:
        if a not in vset:
            raise UnknownAddressError(a)
        if b not in vset:
            raise UnknownAddressError(b)
        if a == b:
            raise ValueError(f"self pair in ground truth: {a}")
        positives.add((a, b))
    if not positives:
        raise LabelBalanceError("ground truth contains no usable pairs")

    n = len(verts)
    universe = n * (n - 1)
    need = len(positives)
    if universe - need < need:
        raise LabelBalanceError(
            f"cannot draw {need} negative pairs: only {universe - need} non-dependency pairs exist")

    rng = random.Random(rng_seed)
    negatives: set[tuple[str, str]] = set()
    if need > (universe - need) // 2:
        # dense label set: enumerate the complement instead of rejecting
        pool = [(a, b) for a in verts for b in verts
                if a != b and (a, b) not in positives]
        negatives = set(rng.sample(pool, need))
    else:
        while len(negatives) < need:
            a = verts[rng.randrange(n)]
            b = verts[rng.randrange(n)]
            if a == b:
                continue
            pair = (a, b)
            if pair in positives or pair in negatives:
                continue
            negatives.add(pair)
    out = [LabeledPair(a, b, None, True) for a, b in sorted(positives)]
    out += [LabeledPair(a, b, None, False) for a, b in sorted(negatives)]
    return out


def _best_split(XT: np.ndarray, ys: np.ndarray, idx: np.ndarray, n_pos: int, k: int,
                rng: np.random.Generator):
    """Best (feature, threshold) by weighted Gini over k random features.

    The node's rows of the k sorted candidate features are scored in one
    (k, n) pass: one stable sort per row, one cumulative sum and the Gini of
    every cut.  Thresholds are midpoints between consecutive distinct values,
    or the lower value when the midpoint rounds up to the upper.  Ties
    resolve to the first candidate in (feature, position) scan order.
    """
    n = len(idx)
    feats = rng.choice(XT.shape[0], size=k, replace=False)
    feats.sort()
    vals = XT[feats[:, None], idx]
    order = vals.argsort(axis=1, kind="stable")
    sv = vals[np.arange(k)[:, None], order]
    # cut j puts sorted positions 0..j on the left
    left_n = np.arange(1, n)
    right_n = n - left_n
    left_pos = ys[order].cumsum(axis=1)[:, :-1]
    right_pos = n_pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    weighted = (left_n * (1.0 - pl * pl - (1.0 - pl) ** 2)
                + right_n * (1.0 - pr * pr - (1.0 - pr) ** 2)) / n
    distinct = sv[:, 1:] > sv[:, :-1]
    weighted[~distinct] = np.inf
    row, j = divmod(int(weighted.argmin()), n - 1)  # first minimum, row-major
    if not distinct[row, j]:
        return None
    a, b = sv[row, j], sv[row, j + 1]
    mid = (a + b) / 2.0
    # between adjacent floats the midpoint can round to b; a keeps b right
    return int(feats[row]), float(mid if mid < b else a)


def _grow_tree(XT: np.ndarray, y: np.ndarray, sample_idx: np.ndarray, k: int,
               rng: np.random.Generator) -> _TreeNodes:
    """One tree in DFS pre-order, split until every leaf is pure; ``XT`` is
    the training matrix transposed (one contiguous row per feature)."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_p: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_p.append(0.0)
        return len(feature) - 1

    def build(idx: np.ndarray) -> int:
        node = new_node()
        ys = y[idx]
        n_node = len(idx)
        n_pos = int(np.count_nonzero(ys))
        pure = n_pos == 0 or n_pos == n_node
        split = None if pure else _best_split(XT, ys, idx, n_pos, k, rng)
        if split is None:
            leaf_p[node] = n_pos / n_node
            return node
        f, thr = split
        mask = XT[f, idx] <= thr
        left_child = build(idx[mask])
        right_child = build(idx[~mask])
        feature[node] = f
        threshold[node] = thr
        left[node] = left_child
        right[node] = right_child
        return node

    build(np.asarray(sample_idx))
    return _TreeNodes(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(leaf_p))


def train_forest(data: Sequence[LabeledPair], cfg: ForestConfig) -> ForestModel:
    """Grow ``n_trees`` trees on bootstrap resamples of the labelled pairs."""
    if not data:
        raise ValueError("training data is empty")
    features = [p.features for p in data]
    if any(f is None for f in features):
        raise ValueError("training pairs are missing feature vectors")
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("inconsistent feature vector lengths")
    y = np.asarray([bool(p.label) for p in data])
    if bool(y.all()) or not bool(y.any()):
        raise ValueError("training data must contain both classes")

    # canonical row order; with (seed, tree)-keyed bootstrap draws this makes
    # training independent of the incoming row order
    keys = [y.astype(float)] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys)
    X = X[order]
    y = y[order]

    dims = X.shape[1]
    k = math.ceil(math.sqrt(dims))
    n = len(y)
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(derive_seed(cfg.rng_seed, f"tree:{t}"))
        trees.append(_grow_tree(XT, y, rng.integers(0, n, size=n), k, rng))
    return ForestModel(dims, tuple(trees))


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
    obj = {
        "format": "depwalk-forest",
        "version": 1,
        "n_features": model.n_features,
        "trees": [
            {"feature": list(t.feature), "threshold": list(t.threshold),
             "left": list(t.left), "right": list(t.right), "leaf_p": list(t.leaf_p)}
            for t in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_forest(path) -> ForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            if obj.get("format") != "depwalk-forest" or obj.get("version") != 1:
                raise ValueError("not a version-1 forest file")
            trees = tuple(
                _TreeNodes(tuple(t["feature"]), tuple(t["threshold"]),
                           tuple(t["left"]), tuple(t["right"]), tuple(t["leaf_p"]))
                for t in obj["trees"]
            )
            return ForestModel(int(obj["n_features"]), trees)
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
