"""Time-constrained random walks over the communication multigraph.

A positive walk starts at every vertex that has outgoing edges.  The second
vertex is drawn uniformly from out-neighbours whose pair holds at least
``n_t`` sampled flows (falling back to all out-neighbours).  From the third
vertex on, a candidate ``w`` qualifies when some edge instance satisfies at
least one of four conditions against the edge recorded on the previous step:

* ``LR_OPEN``: the candidate flow lies inside the previous flow's interval
  (a server contacts a second server while still serving the original
  request).
* ``LR_RETURN``: the previous flow lies inside the candidate flow and the
  walk already traversed the opposite direction of the candidate pair
  earlier; this is the return leg of a nested request chain.
* ``RR_OPEN``: the candidate flow leaves the previous flow's *source* within
  ``epsilon`` after the previous flow ended (ask one server, then contact
  another; the repeated middle vertex is elided, so the candidate edge
  originates two steps back).
* ``REV_RETURN``: the candidate vertex is the previous flow's source and the
  candidate flow is its port-swapped reply ending within ``epsilon``.

The pair carrying the candidate edge must itself hold at least ``n_t``
sampled flows.  Candidates are chosen uniformly.  When none qualifies the
walk falls back to the ``n_t`` threshold rule over out-neighbours, then to
any out-neighbour, recording ``FALLBACK_THRESHOLD`` / ``FALLBACK_ANY`` in the
condition trace.  A walk stops early only at a vertex with no outgoing
edges; walks that end shorter than three vertices are discarded.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .config import WalkConfig
from .errors import NegativeWalkError
from .flows import FlowRecord, flow_from_dict, flow_to_dict, parse_address
from .graph import CommGraph, read_jsonl, write_jsonl
from .seeds import derive_seed

log = logging.getLogger(__name__)

# A negative walk of length L gets NEG_RETRY_FACTOR * L draws before giving up.
NEG_RETRY_FACTOR = 100

# vertex -> (w, the pair's instances, their start times) for each out-neighbour
# w whose pair holds at least n_t sampled flows, in order: what each step reads
_Qualified = dict[str, list[tuple[str, tuple[FlowRecord, ...], tuple[int, ...]]]]


class Condition(str, Enum):
    LR_OPEN = "LR_OPEN"
    LR_RETURN = "LR_RETURN"
    RR_OPEN = "RR_OPEN"
    REV_RETURN = "REV_RETURN"
    FALLBACK_THRESHOLD = "FALLBACK_THRESHOLD"
    FALLBACK_ANY = "FALLBACK_ANY"


class WalkLabel(str, Enum):
    POSITIVE = "POSITIVE"
    NEGATIVE = "NEGATIVE"


@dataclass(frozen=True)
class RandomWalk:
    """Ordered vertex sequence with the chosen edge per step for audit.

    ``step_edges[k]`` is the graph edge instance recorded when vertex ``k+1``
    was appended; for RR_OPEN steps it originates at the vertex two positions
    back rather than the immediate predecessor.  ``condition_trace[k]`` holds
    the satisfied condition IDs (or the fallback marker) for the step that
    appended vertex ``k+2``.  Negative walks carry no edges and no trace.
    """

    vertices: tuple[str, ...]
    step_edges: tuple[FlowRecord, ...]
    label: WalkLabel
    condition_trace: tuple[frozenset[Condition], ...]


def cond_lr_open(e_prev: FlowRecord, e_next: FlowRecord) -> bool:
    """Candidate flow temporally contained in the previous flow."""
    return e_prev.t_start <= e_next.t_start <= e_next.t_end <= e_prev.t_end


def cond_lr_return(e_prev: FlowRecord, e_next: FlowRecord,
                   prefix: Sequence[str], candidate: str) -> bool:
    """Previous flow contained in the candidate flow, and the walk already
    holds the candidate pair's opposite direction at an earlier position.

    ``prefix`` is the walk so far (its last element is the current vertex);
    the earlier occurrence must be a consecutive pair (candidate, current)
    strictly before the triplet under evaluation.
    """
    if not (e_next.t_start <= e_prev.t_start <= e_prev.t_end <= e_next.t_end):
        return False
    current = prefix[-1]
    return any(prefix[j] == candidate and prefix[j + 1] == current
               for j in range(len(prefix) - 2))


def cond_rr_open(e_prev: FlowRecord, e_next: FlowRecord, epsilon: int) -> bool:
    """Candidate flow starts after the previous flow ends, within epsilon."""
    gap = e_next.t_start - e_prev.t_end
    return 0 <= gap <= epsilon


def cond_rev_return(e_fwd: FlowRecord, e_rev: FlowRecord, epsilon: int) -> bool:
    """Port-swapped reply over the reversed pair: the reply starts no earlier
    than the forward flow and the two flows end within epsilon of each
    other."""
    return (e_fwd.src_port == e_rev.dst_port
            and e_fwd.dst_port == e_rev.src_port
            and e_fwd.t_start <= e_rev.t_start
            and abs(e_fwd.t_end - e_rev.t_end) <= epsilon)


def _qualified_pairs(g: CommGraph, n_t: int) -> _Qualified:
    """Built once per :func:`generate_walks` call; ``CommGraph`` keeps each pair's instances
    sorted by start time first, so a condition's start-time window is bisected."""
    return {v: [(w, insts, tuple(f.t_start for f in insts))
                for w in g.out_neighbors(v) if g.pair_flow_count(v, w) >= n_t
                for insts in (g.edge_instances(v, w),)]
            for v in g.vertices}


def _condition_candidates(index: _Qualified, cfg: WalkConfig, prefix: list[str], e_prev: FlowRecord
                          ) -> dict[str, tuple[set[Condition], list[FlowRecord]]]:
    """Map candidate vertex -> (satisfied conditions, satisfying instances),
    read from the ``index`` of the graph.

    LR and reply candidates are scanned over edges leaving the current
    vertex; RR candidates over edges leaving the previous flow's source,
    skipping the current vertex.  Either way the scanned pair must hold at
    least ``n_t`` sampled flows.  A condition's predicate is applied only to
    the instances whose start time lies in the window where it can hold:

    * LR_OPEN: ``prev.t_start <= t_start <= prev.t_end``;
    * LR_RETURN: ``t_start <= prev.t_start``, and only for a candidate that
      precedes the current vertex earlier in the prefix;
    * REV_RETURN: ``t_start >= prev.t_start``, only for the previous flow's
      source;
    * RR_OPEN: ``prev.t_end <= t_start <= prev.t_end + epsilon``.

    Each window holds every instance its predicate accepts, whatever the
    records' times, so the map equals a scan of every instance.  A
    candidate's instances are listed in the pair's sorted order, each once.
    """
    current = prefix[-1]
    t_start, t_end, prev_src = e_prev.t_start, e_prev.t_end, e_prev.src_ip
    # candidates w with (w, current) strictly before the triplet under evaluation
    returns = {prefix[j] for j in range(len(prefix) - 2) if prefix[j + 1] == current}
    found: dict[str, tuple[set[Condition], list[FlowRecord]]] = {}

    for w, insts, starts in index.get(current, ()):
        n = len(starts)
        open_lo, open_hi = bisect_left(starts, t_start), bisect_right(starts, t_end)
        return_hi = bisect_right(starts, t_start) if w in returns else 0
        reply_lo = open_lo if w == prev_src else n
        lo, hi = n, 0  # the span of the non-empty windows
        for a, b in ((open_lo, open_hi), (0, return_hi), (reply_lo, n)):
            if a < b:
                lo, hi = min(lo, a), max(hi, b)
        for i in range(lo, hi):
            inst = insts[i]
            conds = []
            if open_lo <= i < open_hi and cond_lr_open(e_prev, inst):
                conds.append(Condition.LR_OPEN)
            if i < return_hi and cond_lr_return(e_prev, inst, prefix, w):
                conds.append(Condition.LR_RETURN)
            if i >= reply_lo and cond_rev_return(e_prev, inst, cfg.epsilon):
                conds.append(Condition.REV_RETURN)
            if conds:
                conds_found, kept = found.setdefault(w, (set(), []))
                conds_found.update(conds)
                if not kept or kept[-1] != inst:  # equal records are adjacent
                    kept.append(inst)

    for w, insts, starts in index.get(prev_src, ()):
        if w == current:
            continue
        # instances kept above for w came from another scan: compare with all
        seen = w in found
        for i in range(bisect_left(starts, t_end), bisect_right(starts, t_end + cfg.epsilon)):
            inst = insts[i]
            if cond_rr_open(e_prev, inst, cfg.epsilon):
                conds_found, kept = found.setdefault(w, (set(), []))
                conds_found.add(Condition.RR_OPEN)
                if not (inst in kept if seen else kept and kept[-1] == inst):
                    kept.append(inst)
    return found


def _threshold_step(g: CommGraph, index: _Qualified, v: str, rng: random.Random
                    ) -> tuple[str, FlowRecord, Condition]:
    """A uniform qualified out-neighbour of ``v``, else any out-neighbour,
    then a uniform instance of that pair, with the fallback marker of the
    rule that chose it."""
    qualified = index[v]
    if qualified:
        w, insts, _ = rng.choice(qualified)
        return w, rng.choice(insts), Condition.FALLBACK_THRESHOLD
    w = rng.choice(g.out_neighbors(v))
    return w, rng.choice(g.edge_instances(v, w)), Condition.FALLBACK_ANY


def _single_walk(g: CommGraph, cfg: WalkConfig, start: str, rng: random.Random,
                 index: _Qualified) -> RandomWalk:
    w, edge, _ = _threshold_step(g, index, start, rng)
    vertices = [start, w]
    edges = [edge]
    trace: list[frozenset[Condition]] = []
    while len(vertices) < cfg.walk_length:
        current = vertices[-1]
        if not g.out_degree(current):
            break
        candidates = _condition_candidates(index, cfg, vertices, edges[-1])
        if candidates:
            w = rng.choice(sorted(candidates))
            conds, instances = candidates[w]
            edge = rng.choice(instances)
        else:
            w, edge, marker = _threshold_step(g, index, current, rng)
            conds = {marker}
        trace.append(frozenset(conds))
        vertices.append(w)
        edges.append(edge)
    return RandomWalk(tuple(vertices), tuple(edges), WalkLabel.POSITIVE, tuple(trace))


def generate_walks(g: CommGraph, cfg: WalkConfig) -> list[RandomWalk]:
    """``walks_per_vertex`` positive walks from every vertex with outgoing
    edges; walks cut short of three vertices by a dead end are dropped.

    Each start vertex derives its own RNG stream from (seed, vertex), so the
    output does not depend on vertex scheduling order.
    """
    index = _qualified_pairs(g, cfg.n_t)
    walks: list[RandomWalk] = []
    for v in g.vertices:
        if g.out_degree(v) == 0:
            continue
        rng = random.Random(derive_seed(cfg.rng_seed, f"walk:{v}"))
        for _ in range(cfg.walks_per_vertex):
            walk = _single_walk(g, cfg, v, rng, index)
            if len(walk.vertices) >= 3:
                walks.append(walk)
    return walks


def generate_negative_walks(g: CommGraph, positives: Sequence[RandomWalk],
                            cfg: WalkConfig) -> list[RandomWalk]:
    """One negative walk per positive walk, of the same length.

    Vertices are drawn uniformly (never repeating the immediate predecessor,
    since self-pairs are not meaningful non-edges) until at least one
    consecutive pair is not an edge of the graph.  Each walk gets a retry
    budget of ``NEG_RETRY_FACTOR * length`` draws.
    """
    if not positives:
        return []
    verts = g.vertices
    if len(verts) < 2:
        raise NegativeWalkError("need at least two vertices to draw negative walks")
    index = {v: i for i, v in enumerate(verts)}
    rng = random.Random(derive_seed(cfg.rng_seed, "negative-walks"))
    negatives: list[RandomWalk] = []
    for pos in positives:
        length = len(pos.vertices)
        budget = NEG_RETRY_FACTOR * length
        for _ in range(budget):
            seq = [verts[rng.randrange(len(verts))]]
            while len(seq) < length:
                j = rng.randrange(len(verts) - 1)
                if j >= index[seq[-1]]:
                    j += 1
                seq.append(verts[j])
            if any(not g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                negatives.append(RandomWalk(tuple(seq), (), WalkLabel.NEGATIVE, ()))
                break
        else:
            raise NegativeWalkError(
                f"no non-existing walk of length {length} found within {budget} attempts")
    return negatives


def write_walks_jsonl(vertices: Sequence[str], walks: Iterable[RandomWalk], path) -> None:
    """One walk per line, after the walked graph's vertex manifest."""
    write_jsonl(path, vertices, ({
        "label": walk.label.value,
        "vertices": list(walk.vertices),
        "condition_trace": [sorted(c.value for c in conds) for conds in walk.condition_trace],
        "step_edges": [flow_to_dict(e) for e in walk.step_edges],
    } for walk in walks))


def _walk_from_dict(obj: dict, canonical: dict[str, str], known: set[str]) -> RandomWalk:
    vertices = tuple(parse_address(v, canonical) for v in obj["vertices"])
    for v in vertices:
        if v not in known:
            raise ValueError(f"unknown address: {v}")
    if len(vertices) < 3:  # generate_walks drops shorter walks
        raise ValueError(f"a walk needs at least three vertices, got {len(vertices)}")
    return RandomWalk(
        vertices=vertices,
        step_edges=tuple(flow_from_dict(e, canonical) for e in obj["step_edges"]),
        label=WalkLabel(obj["label"]),
        condition_trace=tuple(frozenset(Condition(c) for c in conds)
                              for conds in obj["condition_trace"]),
    )


def read_walks_jsonl(path) -> tuple[list[str], list[RandomWalk]]:
    """The vertex manifest and the walks of a walks file; a walk whose
    vertices are not addresses of the manifest is an error naming its line."""
    return read_jsonl(path, _walk_from_dict)
