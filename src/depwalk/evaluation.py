"""Train/test splitting and classification quality metrics.

ROC-AUC is computed from the exact step ROC with tied scores batched per
group; the trapezoid sum is accumulated in integers so it agrees bit-for-bit
with the pairwise-comparison formulation.  Average precision is the
step-interpolated sum over the descending-score sweep, accumulated in exact
rationals.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DepwalkError
from .forest import ForestConfig, predict_proba, train_forest
from .seeds import derive_seed

THRESHOLD = 0.5  # a score at or above it counts as a dependency


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float | None
    average_precision: float | None
    roc_points: tuple[tuple[float, float], ...]
    pr_points: tuple[tuple[float, float], ...]
    chance_level: float


def split(data: Sequence, test_fraction: float, seed: int) -> tuple[list, list]:
    """Uniform random split without stratification.

    The test size is round-half-up of ``fraction * n``; both sides keep the
    original relative order.  An empty side is an error.
    """
    data = list(data)
    if not 0.0 < test_fraction < 1.0:
        raise DepwalkError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(data) < 2:
        raise DepwalkError("need at least two items to split")
    test_size = int(len(data) * test_fraction + 0.5)
    if test_size == 0 or test_size == len(data):
        raise DepwalkError(
            f"split leaves an empty side (n={len(data)}, test_fraction={test_fraction})")
    rng = random.Random(seed)
    indices = list(range(len(data)))
    rng.shuffle(indices)
    test_idx = sorted(indices[:test_size])
    train_idx = sorted(indices[test_size:])
    return [data[i] for i in train_idx], [data[i] for i in test_idx]


def compute_metrics(scores: Sequence[float], labels: Sequence[bool]) -> EvalReport:
    """Thresholded confusion metrics plus ROC-AUC and average precision.

    With a single class present, AUC and AP are reported as None and the
    threshold metrics are still computed.  Precision (and recall) default to
    0.0 when their denominator is empty.
    """
    scores = [float(s) for s in scores]
    labels = [bool(b) for b in labels]
    if len(scores) != len(labels) or not scores:
        raise DepwalkError("scores and labels must be non-empty and of equal length")
    n = len(scores)
    tp = sum(1 for s, l in zip(scores, labels) if l and s >= THRESHOLD)
    fp = sum(1 for s, l in zip(scores, labels) if not l and s >= THRESHOLD)
    fn = sum(1 for s, l in zip(scores, labels) if l and s < THRESHOLD)
    tn = n - tp - fp - fn
    n_pos = tp + fn
    n_neg = fp + tn
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_pos if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    chance = n_pos / n

    roc_auc = average_precision = None
    roc_points: tuple[tuple[float, float], ...] = ()
    pr_points: tuple[tuple[float, float], ...] = ()
    if n_pos and n_neg:
        ranked = sorted(zip(scores, labels), key=lambda t: -t[0])
        cum_tp = cum_fp = 0
        auc_twice = 0  # 2 * AUC * n_pos * n_neg, exact
        ap_sum = Fraction(0)
        roc: list[tuple[float, float]] = [(0.0, 0.0)]
        pr: list[tuple[float, float]] = [(0.0, 1.0)]
        for _, group in groupby(ranked, key=itemgetter(0)):
            group_labels = [label for _, label in group]
            group_tp = sum(group_labels)
            group_fp = len(group_labels) - group_tp
            prev_tp = cum_tp
            cum_tp += group_tp
            cum_fp += group_fp
            auc_twice += group_fp * (prev_tp + cum_tp)
            if group_tp:
                ap_sum += Fraction(group_tp, n_pos) * Fraction(cum_tp, cum_tp + cum_fp)
            roc.append((cum_fp / n_neg, cum_tp / n_pos))
            pr.append((cum_tp / n_pos, cum_tp / (cum_tp + cum_fp)))
        roc_auc = auc_twice / (2 * n_pos * n_neg)
        average_precision = float(ap_sum)
        roc_points = tuple(roc)
        pr_points = tuple(pr)

    return EvalReport(accuracy, precision, recall, f1,
                      roc_auc, average_precision, roc_points, pr_points, chance)


@dataclass
class EvalSummary:
    """Per-fraction means over the repeated splits, with AUC/AP from one
    dedicated half split (flagged in the metadata)."""

    n_splits: int
    fractions: dict[float, dict[str, float]]
    roc_auc: float | None
    average_precision: float | None
    roc_points: tuple[tuple[float, float], ...]
    pr_points: tuple[tuple[float, float], ...]
    chance_level: float
    metadata: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _fit_and_score(X: np.ndarray, y: np.ndarray, forest_cfg: ForestConfig,
                   test_fraction: float, split_seed: int, forest_seed: int,
                   where: str) -> EvalReport:
    """Split the rows, fit a forest on the training side and score the test
    side.  The forest needs both classes on the training side, or the split
    named by ``where`` is a DepwalkError."""
    train, test = split(range(len(y)), test_fraction, split_seed)
    if len(set(y[train])) < 2:
        n_pos = int(y.sum())
        raise DepwalkError(
            f"{where}: the training side holds one class only (the labelled set has "
            f"{n_pos} positive and {len(y) - n_pos} negative pairs); raise "
            "sampler.n_internal or the scenario size for more labelled pairs")
    model = train_forest(X[train], y[train], replace(forest_cfg, rng_seed=forest_seed))
    return compute_metrics([predict_proba(model, x) for x in X[test]], y[test])


def repeated_eval(X, y, forest_cfg: ForestConfig, *,
                  seed: int, n_splits: int, fractions: Sequence[float]) -> EvalSummary:
    """Mean accuracy/precision/recall/F1 at ``THRESHOLD`` over ``n_splits``
    seeded splits per test fraction of the feature matrix ``X`` and its
    labels ``y``; the classifier is retrained on every split.

    The ROC-AUC / AP figures come from one dedicated 50% split, independent of
    the fraction sweep, and the scoring pass is recorded in the metadata.  A
    split whose training side holds one class only is a DepwalkError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    per_fraction: dict[float, dict[str, float]] = {}
    for fraction in fractions:
        reports = [_fit_and_score(X, y, forest_cfg, fraction,
                                  derive_seed(seed, f"split:{fraction}:{i}"),
                                  derive_seed(seed, f"forest:{fraction}:{i}"),
                                  f"test fraction {fraction}, split {i}")
                   for i in range(n_splits)]
        per_fraction[float(fraction)] = {
            name: sum(getattr(r, name) for r in reports) / n_splits
            for name in ("accuracy", "precision", "recall", "f1")}
    headline = _fit_and_score(X, y, forest_cfg, 0.5, derive_seed(seed, "auc-ap-split"),
                              derive_seed(seed, "auc-ap-forest"),
                              "test fraction 0.5, dedicated AUC/AP split")
    return EvalSummary(
        n_splits=n_splits,
        fractions=per_fraction,
        roc_auc=headline.roc_auc,
        average_precision=headline.average_precision,
        roc_points=headline.roc_points,
        pr_points=headline.pr_points,
        chance_level=headline.chance_level,
        metadata={"auc_ap_test_fraction": 0.5, "auc_ap_split": "dedicated",
                  "threshold": THRESHOLD},
    )
