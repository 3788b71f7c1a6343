import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depwalk import forest
from depwalk.errors import DepwalkError, UnknownAddressError
from depwalk.forest import (ForestConfig, ForestModel, _TreeNodes,
                            build_label_set, load_forest, predict_proba,
                            save_forest, train_forest)
from refimpl import reference_predict_proba, reference_train_forest


def separable_set(n=40, seed=0):
    """A feature matrix and its labels, separable on the first feature."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, 2))
    return X, X[:, 0] > 0


def test_separable_training_accuracy():
    X, y = separable_set()
    model = train_forest(X, y, ForestConfig(n_trees=50, rng_seed=1))
    assert all((predict_proba(model, x) >= 0.5) == label for x, label in zip(X, y))


def test_duplicate_rows_leave_predictions_stable():
    # duplicating every row does not change the distribution bootstrap samples
    # draw from; mean vote over seeds stays within one tree of the original
    X, y = separable_set(n=30, seed=5)
    X2, y2 = np.concatenate([X, X]), np.concatenate([y, y])
    probe = np.array([1.5, 0.0])
    n_trees = 100
    votes_base = []
    votes_dup = []
    for seed in range(20):
        votes_base.append(predict_proba(train_forest(X, y, ForestConfig(n_trees=n_trees, rng_seed=seed)), probe))
        votes_dup.append(predict_proba(train_forest(X2, y2, ForestConfig(n_trees=n_trees, rng_seed=seed)), probe))
    diff = abs(sum(votes_base) / 20 - sum(votes_dup) / 20)
    assert diff <= 1.0 / n_trees


def leaf_tree(p):
    return _TreeNodes((-1,), (0.0,), (-1,), (-1,), (p,))


def test_probability_is_vote_fraction():
    model = ForestModel(2, tuple([leaf_tree(1.0)] * 100))
    assert predict_proba(model, [0.0, 0.0]) == 1.0
    split_model = ForestModel(2, tuple([leaf_tree(1.0)] * 50 + [leaf_tree(0.0)] * 50))
    assert predict_proba(split_model, [0.0, 0.0]) == 0.5


@pytest.mark.parametrize("low,high", [(-5e-324, 0.0), (np.nextafter(1.0, 0.0), 1.0)])
def test_cut_between_adjacent_floats_separates_them(low, high):
    # their midpoint rounds to ``high``, a threshold that sends both rows left;
    # ten copies of each row make a bootstrap sample hold both
    model = train_forest([[high]] * 10 + [[low]] * 10, [True] * 10 + [False] * 10,
                         ForestConfig(n_trees=1, rng_seed=0))
    assert model.trees[0].feature[0] == 0
    assert model.trees[0].threshold[0] == low
    assert predict_proba(model, [high]) == 1.0 and predict_proba(model, [low]) == 0.0


def test_prediction_invariant_to_tree_order():
    trees = [leaf_tree(1.0)] * 30 + [leaf_tree(0.0)] * 10
    fwd = ForestModel(1, tuple(trees))
    rev = ForestModel(1, tuple(reversed(trees)))
    assert predict_proba(fwd, [0.0]) == predict_proba(rev, [0.0])


def test_dimension_mismatch_rejected():
    model = train_forest(*separable_set(), ForestConfig(n_trees=5, rng_seed=0))
    with pytest.raises(ValueError):
        predict_proba(model, [1.0, 2.0, 3.0])


def test_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        train_forest([[0.0], [1.0]], [True, True], ForestConfig(n_trees=2))
    with pytest.raises(ValueError, match="empty"):
        train_forest([], [], ForestConfig(n_trees=2))


@pytest.mark.parametrize("X,y,problem", [([[0.0], [1.0, 2.0]], [True, False], None),
                                         ([0.0, 1.0], [True, False], "2-D feature matrix"),
                                         ([[0.0], [1.0]], [True, False, True], "one label per row"),
                                         (np.empty((2, 0)), [True, False], "no columns")],
                         ids=["ragged", "one-dimensional", "label-count", "no-columns"])
def test_misshapen_training_data_rejected(X, y, problem):
    with pytest.raises(ValueError, match=problem):
        train_forest(X, y, ForestConfig(n_trees=2))


def test_training_deterministic_and_row_order_invariant():
    X, y = separable_set(n=25, seed=7)
    cfg = ForestConfig(n_trees=20, rng_seed=42)
    model_a = train_forest(X, y, cfg)
    model_b = train_forest(X, y, cfg)
    assert model_a == model_b
    model_c = train_forest(X[::-1], y[::-1], cfg)
    assert model_a == model_c
    model_d = train_forest(X, y, ForestConfig(n_trees=20, rng_seed=43))
    assert model_a != model_d


def test_probability_bounds(rng):
    model = train_forest(*separable_set(n=30, seed=2), ForestConfig(n_trees=15, rng_seed=3))
    for _ in range(50):
        x = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        assert 0.0 <= predict_proba(model, x) <= 1.0


def test_serialization_round_trip_bit_for_bit(tmp_path):
    model = train_forest(*separable_set(n=35, seed=9), ForestConfig(n_trees=25, rng_seed=17))
    path = tmp_path / "model.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert loaded == model
    gen = np.random.default_rng(4)
    for _ in range(100):
        x = gen.normal(size=2)
        assert predict_proba(loaded, x) == predict_proba(model, x)


@pytest.mark.parametrize("change,problem", [
    (lambda tree: tree.update(leaf_p=[0.0, 1.5, 0.0]), "tree 0: node 1: leaf_p 1.5 is not in [0, 1]"),
    (lambda tree: tree.update(feature=[0, -2, -1]), "tree 0: node 1: feature -2 is neither -1 nor in [0, 2)"),
    (lambda tree: tree.update(feature=[2, -1, -1]), "tree 0: node 0: feature 2 is neither -1 nor in [0, 2)"),
    (lambda tree: tree.update(right=[0, -1, -1]), "tree 0: node 0: children (1, 0) are not in (0, 3)"),
    (lambda tree: tree.update(left=[3, -1, -1]), "tree 0: node 0: children (3, 2) are not in (0, 3)"),
    (lambda tree: tree.update(threshold=[0.5, 0.0]), "tree 0: 2 threshold entries for 3 nodes"),
    (lambda tree: tree.update(threshold=[float("nan"), 0.0, 0.0]),
     "tree 0: node 0: threshold nan is not a finite number"),
    (lambda tree: tree.update(threshold=[float("-inf"), 0.0, 0.0]),
     "tree 0: node 0: threshold -inf is not a finite number"),
    (lambda tree: tree.update(feature=[], threshold=[], left=[], right=[], leaf_p=[]),
     "tree 0: no nodes"),
    (lambda tree: tree.update(threshold=[True, 0.0, 0.0]),
     "tree 0: node 0: threshold True is not a finite number"),
    (lambda tree: tree.update(leaf_p=[0.0, True, 0.0]), "tree 0: node 1: leaf_p True is not in [0, 1]"),
])
def test_structurally_damaged_model_is_rejected_at_load(tmp_path, change, problem):
    stump = _TreeNodes((0, -1, -1), (0.5, 0.0, 0.0), (1, -1, -1), (2, -1, -1), (0.0, 1.0, 0.0))
    path = tmp_path / "model.json"
    save_forest(ForestModel(2, (stump,)), path)
    assert load_forest(path) == ForestModel(2, (stump,))
    obj = json.loads(path.read_text())
    change(obj["trees"][0])
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as info:
        load_forest(path)
    assert str(info.value) == f"{path}: {problem}"


# --- the split-search kernel against the per-feature reference scan -----------

FREE_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
FEW_LEVELS = st.integers(-2, 2).map(float)  # many ties and repeated values


@st.composite
def forest_problems(draw):
    dims = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(dims):
        kind = draw(st.sampled_from(("constant", "levels", "free")))
        if kind == "constant":
            columns.append([draw(FREE_VALUES)] * n)
        else:
            values = FEW_LEVELS if kind == "levels" else st.one_of(FEW_LEVELS, FREE_VALUES)
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    first, second = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    labels[first], labels[second] = True, False  # both classes
    cfg = ForestConfig(n_trees=draw(st.integers(1, 12)), rng_seed=draw(st.integers(0, 2**32 - 1)))
    # halves of the levels land exactly on midpoint thresholds
    probe_values = st.one_of(st.integers(-4, 4).map(lambda v: v / 2), FREE_VALUES)
    probes = draw(st.lists(st.lists(probe_values, min_size=dims, max_size=dims), max_size=10))
    return np.array(columns).T, np.array(labels), cfg, probes


@settings(max_examples=200, deadline=None)
@given(forest_problems())
def test_train_forest_equals_the_per_feature_reference(problem):
    X, y, cfg, probes = problem
    model = train_forest(X, y, cfg)
    assert model == reference_train_forest(X, y, cfg)
    for x in list(X) + probes:
        assert predict_proba(model, x) == reference_predict_proba(model, x)


@settings(max_examples=100, deadline=None)
@given(forest_problems())
def test_one_node_per_split_search_grows_the_same_forest(problem):
    # with a budget of one element every node is searched in a pass of its
    # own; how many nodes' candidates a tree draws at a time changes nothing
    X, y, cfg, _ = problem
    reference = reference_train_forest(X, y, cfg)
    for draws_per_refill in (1, 1000):
        with mock.patch.object(forest, "_CHUNK_ELEMENTS", 1), \
                mock.patch.object(forest, "_DRAWS_PER_REFILL", draws_per_refill):
            assert train_forest(X, y, cfg) == reference, draws_per_refill


def test_no_split_search_holds_more_than_the_budget_but_one_node():
    gen = np.random.default_rng(11)
    X = gen.normal(size=(250, 16))
    y = X[:, 0] + gen.normal(size=250) > 0
    passes = []
    search = forest._best_splits

    def record(XT, keys, key_bits, y, chunk):
        k = len(chunk[0][4])
        passes.append((len(chunk), k * sum(len(entry[2]) for entry in chunk)))
        return search(XT, keys, key_bits, y, chunk)

    with mock.patch.object(forest, "_best_splits", record):
        model = train_forest(X, y, ForestConfig(n_trees=40, rng_seed=3))
    assert all(elements <= forest._CHUNK_ELEMENTS or nodes == 1 for nodes, elements in passes)
    # 40 roots of 250 rows and 4 candidates: passes do hold several nodes
    assert max(nodes for nodes, _ in passes) > 1
    # continuous features, so every searched node splits: each once
    assert sum(nodes for nodes, _ in passes) == sum(
        f >= 0 for tree in model.trees for f in tree.feature)


def digest_problem(dims, seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(80, dims))
    return X, X[:, 0] + gen.normal(size=80) > 0


@pytest.mark.parametrize("dims,seed,digest", [
    (2, 1, "4ade5bb737cdc887ff0068701199990834015868fb6e3c8d8a5472f290f11c9c"),
    (16, 2, "012fbeeca448ec0c46a7c1ccc8e7f1cb9f7302e54a2d24c6645a67fd723d6d67"),
    (64, 3, "25d037cf602f28a5263bb62fa58715f0d67677787b5c23e680b67c45c6107e03"),
])
def test_saved_forest_bytes_are_pinned(tmp_path, dims, seed, digest):
    # taken when a node's candidates became the k smallest of dims uniform
    # keys; with dims 2 every node takes both features, so that model kept
    # the digest it had when each node called Generator.choice
    model = train_forest(*digest_problem(dims, seed), ForestConfig(n_trees=25, rng_seed=seed))
    save_forest(model, tmp_path / "model.json")
    assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == digest


def test_nan_features_are_rejected():
    X, y = separable_set()
    X[3] = [np.nan, 0.0]
    with pytest.raises(ValueError, match="NaN"):
        train_forest(X, y, ForestConfig(n_trees=2))


# --- label set construction ---------------------------------------------------

VERTS = [f"10.0.0.{i}" for i in range(1, 11)]


def test_label_set_balanced():
    truth = [(VERTS[0], VERTS[1]), (VERTS[2], VERTS[3]), (VERTS[0], VERTS[4]),
             (VERTS[5], VERTS[6]), (VERTS[7], VERTS[8])]
    labels = build_label_set(truth, VERTS, rng_seed=1)
    positives = [(src, dst) for src, dst, label in labels if label]
    negatives = [(src, dst) for src, dst, label in labels if not label]
    assert positives == sorted(truth)
    assert negatives == sorted(set(negatives)) and len(negatives) == 5
    assert set(negatives).isdisjoint(set(truth))
    assert labels == [(src, dst, True) for src, dst in positives] + \
        [(src, dst, False) for src, dst in negatives]
    assert all(src != dst for src, dst, _ in labels)


def test_label_set_exhaustion_error():
    verts = ["a", "b", "c"]
    truth = [(a, b) for a in verts for b in verts if a != b]
    with pytest.raises(DepwalkError, match="^cannot draw 6 negative pairs: only 0 non-dependency "
                                           "pairs exist$"):
        build_label_set(truth, verts, rng_seed=0)


def test_label_set_deterministic():
    truth = [(VERTS[0], VERTS[1]), (VERTS[2], VERTS[3])]
    one = build_label_set(truth, VERTS, rng_seed=5)
    two = build_label_set(truth, VERTS, rng_seed=5)
    assert one == two


def test_label_set_without_a_usable_pair_is_an_error():
    with pytest.raises(DepwalkError, match="^no ground-truth pair has both endpoints among "
                                           "the sampled vertices$"):
        build_label_set([], VERTS, rng_seed=0)


def test_label_set_rejects_foreign_vertices():
    with pytest.raises(UnknownAddressError):
        build_label_set([("nope", VERTS[0])], VERTS, rng_seed=0)
