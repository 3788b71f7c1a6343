"""Sliding-window splitting of walks into candidate dependency pairs."""

from __future__ import annotations

from .walks import RandomWalk


def split_walk(walk: RandomWalk, context_size: int) -> list[tuple[str, str]]:
    """One-sided context pairs: each window head pairs with every later
    member of its window, as ``(head, member)`` tuples.

    Windows of ``context_size`` consecutive vertices slide by one; a walk
    shorter than the window yields its single truncated window.  Pairs whose
    head equals the member are skipped; duplicates across windows are kept,
    since pair frequency is signal for embedding training.
    """
    if context_size < 2:
        raise ValueError("context_size must be >= 2")
    vertices = walk.vertices
    if len(vertices) < 2:
        raise ValueError("walk must have at least two vertices")
    return [(vertices[s], other) for s in range(max(1, len(vertices) - context_size + 1))
            for other in vertices[s + 1:s + context_size] if other != vertices[s]]
