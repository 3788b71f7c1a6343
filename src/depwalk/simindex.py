"""Directed local similarity indices and rank correlation coefficients.

The four indices operate on the multigraph collapsed to a simple directed
graph, its ``Neighbours``: successors of the source against predecessors of
the destination.
Rank correlations are computed with exact integer accumulation so that the
results are bit-for-bit reproducible against naive reference formulas.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import Neighbours

# The index columns of ``baseline_report`` rows, in order.
INDICES = ("AA", "CN", "PA", "RA")


def index_scores(g: Neighbours, x: str, y: str) -> tuple[float, float, float, float]:
    """The directed similarities ``INDICES`` of the ordered pair (x, y).

    The common intermediates are the successors of x that are predecessors
    of y.  CN counts them; PA multiplies the two neighbourhood sizes; RA
    weights each intermediate by the inverse of its out-degree; AA by the
    inverse natural log of its out-degree, skipping intermediates with a
    single successor (log 1 = 0).  RA and AA sum in sorted-intermediate
    order from ``0.0``, so all four are floats and ``baseline.csv`` writes
    ``0.0`` where nothing is summed.  Empty neighbourhoods yield 0.0.
    """
    successors, predecessors = g.out_neighbors(x), g.in_neighbors(y)
    out = set(successors)
    # predecessors are sorted, so the common intermediates come out sorted
    degrees = [g.out_degree(v) for v in predecessors if v in out]
    return (sum((1.0 / math.log(d) for d in degrees if d != 1), 0.0),
            float(len(degrees)),
            float(len(successors) * len(predecessors)),
            sum((1.0 / d for d in degrees), 0.0))


def _double_midranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks doubled so tied groups average to an exact integer."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranked = np.empty(len(values), dtype=np.int64)
    # a run over sorted positions i..j (0-based) ranks (i + 1) + (j + 1)
    ranked[order] = np.repeat(starts + ends + 1, ends - starts)
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


def _tie_pairs(*columns: np.ndarray) -> int:
    """Pairs of positions whose values are equal in every one of ``columns``."""
    counts = np.unique(np.stack(columns, 1), axis=0, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _inversions(values: np.ndarray) -> int:
    """Pairs of positions ``i < j`` with ``values[i] > values[j]``, counted
    exactly by a bottom-up merge sort: per round, each right-hand block
    counts the larger entries of its sorted left-hand neighbour."""
    ranks = np.unique(values, return_inverse=True)[1].astype(np.int64)
    n, total, width = len(ranks), 0, 1
    position = np.arange(n)
    while width < n:
        block = position // (2 * width)
        right = position // width % 2 == 1
        # blocks are kept sorted; offsetting each by its block number keeps all sorted
        keyed = block * n + ranks
        left_keys = keyed[~right]
        ends = np.searchsorted(left_keys, (block[right] + 1) * n)
        total += int((ends - np.searchsorted(left_keys, keyed[right], "right")).sum())
        ranks = np.sort(keyed) - block * n
        width *= 2
    return total


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Tie-corrected tau: (concordant - discordant) / sqrt((n0-n1)(n0-n2)).

    Returns None when either input is entirely tied.  Knight's count gives
    concordant minus discordant as ``n0 - n1 - n2 + n3 - 2 D``, where ``n3``
    counts the pairs tied in both inputs and ``D`` the strict inversions of
    the ys once sorted by (x, y); it is an exact integer, and only the final
    division is floating point.
    """
    x, y = _check_inputs(xs, ys)
    n = len(x)
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(x)
    n2 = _tie_pairs(y)
    if n0 == n1 or n0 == n2:
        return None
    conc_minus_disc = n0 - n1 - n2 + _tie_pairs(x, y) - 2 * _inversions(y[np.lexsort((y, x))])
    d1, d2 = n0 - n1, n0 - n2
    if conc_minus_disc * conc_minus_disc == d1 * d2:
        return 1.0 if conc_minus_disc > 0 else -1.0
    return conc_minus_disc / math.sqrt(d1 * d2)


def baseline_report(g: Neighbours, scored_pairs: Sequence[tuple[str, str, float]]):
    """Index scores next to model probabilities for each pair, plus rank
    correlations of every index against the probabilities.

    Returns (rows, correlations); rows are tuples ``(src, dst, *INDICES,
    probability)``, correlations map index name to its Spearman and Kendall
    coefficients (None when undefined).
    """
    rows = [(src, dst, *index_scores(g, src, dst), float(prob)) for src, dst, prob in scored_pairs]
    probabilities = [row[-1] for row in rows]
    correlations: dict[str, dict[str, float | None]] = {}
    for column, name in enumerate(INDICES, start=2):
        scores = [row[column] for row in rows]
        if len(rows) >= 2:
            correlations[name] = {
                "spearman": spearman(scores, probabilities),
                "kendall": kendall_tau(scores, probabilities),
            }
        else:
            correlations[name] = {"spearman": None, "kendall": None}
    return rows, correlations
