"""Directed local similarity indices and rank correlation coefficients.

The four indices operate on the multigraph collapsed to a simple directed
graph: successors of the source against predecessors of the destination.
Rank correlations are computed with exact integer accumulation so that the
results are bit-for-bit reproducible against naive reference formulas.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import CommGraph


class IndexKind(str, Enum):
    AA = "AA"
    CN = "CN"
    PA = "PA"
    RA = "RA"


def index_score(g: CommGraph, x: str, y: str, kind: IndexKind) -> float:
    """Directed similarity of the ordered pair (x, y).

    CN counts common intermediates (successors of x that are predecessors of
    y); PA multiplies the two neighbourhood sizes; RA weights each
    intermediate by the inverse of its out-degree; AA by the inverse natural
    log of its out-degree, skipping intermediates with a single successor
    (log 1 = 0).  Empty neighbourhoods yield 0.
    """
    n_out = set(g.out_neighbors(x))
    n_in = set(g.in_neighbors(y))
    if kind is IndexKind.PA:
        return float(len(n_out) * len(n_in))
    common = sorted(n_out & n_in)
    if kind is IndexKind.CN:
        return float(len(common))
    if kind is IndexKind.RA:
        return sum(1.0 / g.out_degree(v) for v in common)
    return sum(1.0 / math.log(g.out_degree(v)) for v in common if g.out_degree(v) != 1)


def _double_midranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks doubled so tied groups average to an exact integer."""
    order = np.argsort(values, kind="stable")
    ranked = np.empty(len(values), dtype=np.int64)
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranked[order[i:j + 1]] = (i + 1) + (j + 1)
        i = j + 1
    return ranked


def _check_inputs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-D sequences with n >= 2")
    return x, y


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson correlation of mid-ranks (average ranks on ties).

    Returns None when either input has no rank variance.  All sums are exact
    integers over doubled ranks; only the final division and square roots are
    floating point.
    """
    x, y = _check_inputs(xs, ys)
    rx = _double_midranks(x)
    ry = _double_midranks(y)
    n = len(x)
    sx = int(rx.sum())
    sy = int(ry.sum())
    sxx = int((rx * rx).sum())
    syy = int((ry * ry).sum())
    sxy = int((rx * ry).sum())
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    if den_x == 0 or den_y == 0:
        return None
    num = n * sxy - sx * sy
    if num * num == den_x * den_y:  # perfect monotone agreement, exactly +-1
        return 1.0 if num > 0 else -1.0
    return num / (math.sqrt(den_x) * math.sqrt(den_y))


def _tie_pairs(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int(sum(int(c) * (int(c) - 1) // 2 for c in counts))


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Tie-corrected tau: (concordant - discordant) / sqrt((n0-n1)(n0-n2)).

    Returns None when either input is entirely tied.  The concordance count
    is an exact integer; only the final division is floating point.
    """
    x, y = _check_inputs(xs, ys)
    n = len(x)
    conc_minus_disc = 0
    for i in range(n - 1):
        conc_minus_disc += int(np.sum(np.sign(x[i + 1:] - x[i]) * np.sign(y[i + 1:] - y[i])))
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(x)
    n2 = _tie_pairs(y)
    if n0 == n1 or n0 == n2:
        return None
    d1, d2 = n0 - n1, n0 - n2
    if conc_minus_disc * conc_minus_disc == d1 * d2:
        return 1.0 if conc_minus_disc > 0 else -1.0
    return conc_minus_disc / math.sqrt(d1 * d2)


def baseline_report(g: CommGraph, scored_pairs: Sequence[tuple[str, str, float]]):
    """Index scores next to model probabilities for each pair, plus rank
    correlations of every index against the probabilities.

    Returns (rows, correlations); rows are dicts keyed src/dst/index
    names/model_probability, correlations map index name to its Spearman and
    Kendall coefficients (None when undefined).
    """
    rows = []
    for src, dst, prob in scored_pairs:
        row: dict[str, object] = {"src": src, "dst": dst}
        for kind in IndexKind:
            row[kind.value] = index_score(g, src, dst, kind)
        row["model_probability"] = float(prob)
        rows.append(row)
    probabilities = [row["model_probability"] for row in rows]
    correlations: dict[str, dict[str, float | None]] = {}
    for kind in IndexKind:
        scores = [row[kind.value] for row in rows]
        if len(rows) >= 2:
            correlations[kind.value] = {
                "spearman": spearman(scores, probabilities),
                "kendall": kendall_tau(scores, probabilities),
            }
        else:
            correlations[kind.value] = {"spearman": None, "kendall": None}
    return rows, correlations
