import random

import numpy as np
import pytest

import refimpl
from depwalk.errors import DepwalkError
from depwalk.evaluation import THRESHOLD, compute_metrics, repeated_eval, split
from depwalk.forest import ForestConfig


def test_split_sizes():
    data = list(range(100))
    train, test = split(data, 0.25, seed=0)
    assert len(test) == 25 and len(train) == 75
    assert sorted(train + test) == data


def test_split_round_half_up():
    train, test = split([1, 2, 3], 0.5, seed=0)
    assert len(test) == 2 and len(train) == 1


def test_split_deterministic():
    data = list(range(40))
    assert split(data, 0.3, seed=9) == split(data, 0.3, seed=9)
    assert split(data, 0.3, seed=9) != split(data, 0.3, seed=10)


def test_split_rejects_empty_side():
    with pytest.raises(DepwalkError,
                       match=r"^split leaves an empty side \(n=2, test_fraction=0\.1\)$"):
        split([1, 2], 0.1, seed=0)
    with pytest.raises(DepwalkError, match="^need at least two items to split$"):
        split([1], 0.5, seed=0)
    with pytest.raises(DepwalkError, match=r"^test_fraction must be in \(0, 1\), got 1\.5$"):
        split(list(range(10)), 1.5, seed=0)


def test_perfect_separation():
    report = compute_metrics([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert report.roc_auc == 1.0
    assert report.average_precision == 1.0
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0
    assert report.roc_points[0] == (0.0, 0.0) and report.roc_points[-1] == (1.0, 1.0)


def test_tied_scores_give_half_auc():
    report = compute_metrics([0.5, 0.5], [True, False])
    assert report.roc_auc == 0.5


def test_score_equal_to_the_threshold_counts_as_positive():
    report = compute_metrics([0.5, 0.5], [True, False])
    assert report.recall == 1.0 and report.precision == 0.5
    assert THRESHOLD == 0.5
    assert compute_metrics([0.4999, 0.4999], [True, False]).recall == 0.0


def test_single_class_reports_undefined_auc():
    report = compute_metrics([0.9, 0.1], [True, True])
    assert report.roc_auc is None and report.average_precision is None
    assert report.accuracy == 0.5  # one of the two falls below the threshold
    assert report.chance_level == 1.0


def test_constant_positive_scores_hit_chance_accuracy():
    labels = [True] * 3 + [False] * 7
    report = compute_metrics([1.0] * 10, labels)
    assert report.accuracy == report.chance_level == 0.3


def test_f1_consistency(rng):
    for _ in range(50):
        n = rng.randint(4, 60)
        scores = [rng.random() for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        report = compute_metrics(scores, labels)
        if report.precision + report.recall > 0:
            expected = 2 * report.precision * report.recall / (report.precision + report.recall)
            assert report.f1 == pytest.approx(expected)
        assert 0.0 <= report.accuracy <= 1.0


def test_auc_ap_match_pairwise_oracle(rng):
    for _ in range(30):
        n = rng.randint(6, 40)
        scores = [rng.choice([0.1, 0.25, 0.5, 0.8, rng.random()]) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if not (any(labels) and not all(labels)):
            continue
        report = compute_metrics(scores, labels)
        assert report.roc_auc == refimpl.pairwise_auc(scores, labels)
        assert report.average_precision == refimpl.ap_reference(scores, labels)


def test_random_scores_ap_near_chance():
    # for uniformly random scores AP concentrates on the positive fraction
    rng = random.Random(123)
    chance = 0.4
    deviations = []
    for _ in range(200):
        n = 60
        labels = [rng.random() < chance for _ in range(n)]
        if not (any(labels) and not all(labels)):
            continue
        scores = [rng.random() for _ in range(n)]
        report = compute_metrics(scores, labels)
        deviations.append(report.average_precision - report.chance_level)
    assert abs(sum(deviations) / len(deviations)) <= 0.05


def label_fixture(n=60, seed=0):
    """A feature matrix and its alternating labels, each row drawn around
    its class centre."""
    gen = np.random.default_rng(seed)
    y = np.arange(n) % 2 == 1
    return gen.normal(np.where(y, 1.0, -1.0)[:, None], 1.0, size=(n, 4)), y


def test_repeated_eval_deterministic():
    X, y = label_fixture()
    cfg = ForestConfig(n_trees=10, rng_seed=0)
    one = repeated_eval(X, y, cfg, seed=5, n_splits=3, fractions=(0.25, 0.5))
    two = repeated_eval(X, y, cfg, seed=5, n_splits=3, fractions=(0.25, 0.5))
    assert one.to_json() == two.to_json()


def test_repeated_eval_single_split_equals_report():
    X, y = label_fixture()
    cfg = ForestConfig(n_trees=10, rng_seed=0)
    summary = repeated_eval(X, y, cfg, seed=7, n_splits=1, fractions=(0.25,))
    from depwalk.evaluation import split as do_split
    from depwalk.forest import predict_proba, train_forest
    from depwalk.seeds import derive_seed
    from dataclasses import replace
    train, test = do_split(range(len(y)), 0.25, derive_seed(7, "split:0.25:0"))
    model = train_forest(X[train], y[train], replace(cfg, rng_seed=derive_seed(7, "forest:0.25:0")))
    scores = [predict_proba(model, x) for x in X[test]]
    single = compute_metrics(scores, y[test])
    got = summary.fractions[0.25]
    assert got["accuracy"] == single.accuracy
    assert got["precision"] == single.precision
    assert got["f1"] == single.f1


def test_repeated_eval_metadata_flags_auc_source():
    summary = repeated_eval(*label_fixture(), ForestConfig(n_trees=5), seed=1,
                            n_splits=2, fractions=(0.25, 0.5))
    assert summary.metadata["auc_ap_test_fraction"] == 0.5
    assert summary.metadata["threshold"] == THRESHOLD
    assert summary.roc_auc is not None
