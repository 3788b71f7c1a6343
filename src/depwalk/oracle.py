"""Exhaustive ground truth over the full preprocessed flow set.

Five dependency kinds are enumerated from raw flows (not from the sampled
graph):

* DD  -- a pair connected by >= n_t flows sharing the same 5-tuple.
* RR  -- a subject asks one server (request plus port-swapped reply) and then
         contacts another server within epsilon of the reply's end; the
         second server depends on the first.
* RR3 -- the same chain with a second answered hop before the final request.
* TD  -- two direct dependencies chained by interval containment of their
         witness flows (a request to the middle host encloses the middle
         host's own onward request), making the head depend on the tail.
* TD3 -- three chained direct dependencies with nested containment.

All five kinds run on the int64 ``FlowColumns`` that ingest parses the
flows into (records are turned into columns once per call): DD is one sort
of the 5-tuple keys with counts; RR and RR3 sort the flows by (4-tuple,
start) and by (source, start) and find every reply, follow-up and
second-hop window of all flows at once with ``searchsorted``; TD and TD3
cut the spans of the DD pairs out of one sort of their flows by (pair,
start).  Window bounds saturate at the int64 edges
instead of wrapping, so any ``epsilon`` up to ``2**63 - 1`` is exact.

An outer flow contains an inner one when ``outer.start <= inner.start`` and
``inner.end <= outer.end``.  Every flow has ``start <= end``, so the inner
start needs no upper bound: a binary search over the start-sorted inner flows
into the suffix minimum of their end times decides containment.

A record is one (kind, src, dst) with its witness count, and it exists when
that count reaches the kind's threshold.  RR, RR3, TD and TD3 witnesses are
the distinct initiating flows of chains to the pair, through any middle
hosts, so one initiating flow contributes at most one witness to a record;
each witness is one packed pair key, and all four kinds count their keys
alike.  Chains never revisit an address.  The module returns records and
writes no file: ``pipeline`` writes them to ``ground_truth.csv``.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .config import OracleConfig
from .flows import FlowColumns, FlowRecord, Proto

_INT64 = np.iinfo(np.int64)
# raw RR/RR3 witness triples expanded at once before deduplication
_CHUNK = 1 << 13


class DepKind(str, Enum):
    DD = "DD"
    RR = "RR"
    RR3 = "RR3"
    TD = "TD"
    TD3 = "TD3"


class DependencyRecord(NamedTuple):
    """``src`` is the dependent address, ``dst`` the depended-on one.  Records
    sort by kind in declaration order (the kind values sort so), then pair."""

    kind: DepKind
    src: str
    dst: str
    witness_count: int


def _plus(t: np.ndarray, eps: int) -> np.ndarray:
    """``t + eps``, saturating at the int64 maximum instead of wrapping."""
    return np.minimum(t, _INT64.max - eps) + eps


def _minus(t: np.ndarray, eps: int) -> np.ndarray:
    """``t - eps``, saturating at the int64 minimum instead of wrapping."""
    return np.maximum(t, _INT64.min + eps) - eps


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where a run of equal rows of the sorted ``columns`` starts."""
    new = np.zeros(len(columns[0]), bool)
    new[:1] = True
    for values in columns:
        new[1:] |= values[1:] != values[:-1]
    return np.flatnonzero(new)


# _runs, _dense and _lookup use only the stable sort and searchsorted kernels
# that the other stages load anyway.  With np.unique(return_inverse=True) and
# np.isin in their place, the acceptance scenario's pipeline peaked about 1 MB
# higher (44.1 against 43.2 MB RSS).
def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted ``values`` and, per position, the index of its run."""
    group = np.zeros(len(values), np.int64)
    np.cumsum(values[1:] != values[:-1], out=group[1:])
    return values[_run_starts(values)], group


def _dense(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, sorted, and the index of each value among them."""
    order = np.argsort(values, kind="stable")
    distinct, group = _runs(values[order])
    ids = np.empty(len(values), np.int64)
    ids[order] = group
    return distinct, ids


def _lookup(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``values`` is or would be in the sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, values)
    found = at < len(keys)
    found[found] = keys[at[found]] == values[found]
    return at, found


class _Windows:
    """Rows sorted by (key, time).  ``find`` gives, per query, the positions
    ``[first, last)`` in ``order`` of the rows with the query's key whose
    time lies in ``[lo, hi]``: one ``searchsorted`` over ``group * n +
    rank(time)``, where ``n`` counts the rows and ``group`` numbers the keys."""

    def __init__(self, key: np.ndarray, time: np.ndarray):
        by_time = np.argsort(time, kind="stable")
        self.order = by_time[np.argsort(key[by_time], kind="stable")]
        self.times = time[by_time]
        # a row's time rank: how many rows have an earlier time
        tied = np.zeros(len(time), bool)
        tied[1:] = self.times[1:] == self.times[:-1]
        rank = np.empty(len(time), np.int64)
        rank[by_time] = np.maximum.accumulate(np.where(tied, 0, np.arange(len(time))))
        self.keys, group = _runs(key[self.order])
        self.sorted = group * len(time) + rank[self.order]

    def find(self, key: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        group, found = _lookup(self.keys, key)
        base = group * len(self.times)
        first = np.searchsorted(self.sorted, base + np.searchsorted(self.times, lo, "left"))
        last = np.searchsorted(self.sorted, base + np.searchsorted(self.times, hi, "right"))
        return first, np.where(found, np.maximum(first, last), first)


def _expand(first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, position)`` for every position of every window ``[first[row], last[row])``."""
    counts = last - first
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) + (first - np.cumsum(counts) + counts)[rows]


def _distinct_majors(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The ``major`` value of every distinct ``(major, minor)`` row."""
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    return major[_run_starts(major, minor)]


def _records(kind: DepKind, names: list[str], pairs: np.ndarray, counts: np.ndarray,
             n_t: int) -> list[DependencyRecord]:
    """Sorted ``kind`` records of the packed ``pairs`` whose count reaches ``n_t``."""
    keep = counts >= n_t
    records = [DependencyRecord(kind, names[p // len(names)], names[p % len(names)], w)
               for p, w in zip(pairs[keep].tolist(), counts[keep].tolist())]
    return sorted(records)


def _witness_records(kind: DepKind, names: list[str], keys: list[np.ndarray],
                     n_t: int) -> list[DependencyRecord]:
    """Sorted ``kind`` records of the packed ``head * n_addr + tail`` ``keys``,
    one entry per witness, whose count reaches ``n_t``."""
    pairs, counts = np.unique(np.concatenate(keys or [np.zeros(0, np.int64)]), return_counts=True)
    return _records(kind, names, pairs, counts, n_t)


def _dd_pairs(cols: FlowColumns, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """The DD pairs, packed as ``src * n_addr + dst`` and sorted, with their
    witnesses: every 5-tuple that repeats at least ``n_t`` times adds its
    count to its pair."""
    n_addr = len(cols.addresses)
    pairs, pair_id = _dense(cols.src * n_addr + cols.dst)
    tuples, counts = np.unique((pair_id << 32 | cols.sport << 16 | cols.dport) * len(Proto)
                               + cols.proto, return_counts=True)
    keep = counts >= n_t
    pair, counts = pairs[tuples[keep] // len(Proto) >> 32], counts[keep]
    runs = _run_starts(pair)
    return pair[runs], np.add.reduceat(counts, runs) if len(runs) else counts


def enumerate_dd(cols: FlowColumns, cfg: OracleConfig) -> list[DependencyRecord]:
    """Group flows by 5-tuple; every group reaching ``n_t_dd`` contributes its
    size to the pair's record, so qualifying 5-tuples on the same pair
    collapse into one DD with summed witnesses."""
    return _records(DepKind.DD, cols.addresses, *_dd_pairs(cols, cfg.n_t_dd), cfg.n_t_dd)


def _answered_hops(cols: FlowColumns, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """(initiator, reply) flow indices: reversed addresses with swapped
    ports, the reply starting no earlier than the initiator, ends within
    epsilon; in initiator order."""
    n, n_addr = len(cols), len(cols.addresses)
    pair_id = _dense(np.concatenate([cols.src * n_addr + cols.dst,
                                     cols.dst * n_addr + cols.src]))[1]
    replies = _Windows(pair_id[:n] << 32 | cols.sport << 16 | cols.dport, cols.t_start)
    # a reply ends within epsilon of the initiator, so it starts by t_end + epsilon
    init, pos = _expand(*replies.find(pair_id[n:] << 32 | cols.dport << 16 | cols.sport,
                                      cols.t_start, _plus(cols.t_end, eps)))
    reply = replies.order[pos]
    end, reply_end = cols.t_end[init], cols.t_end[reply]
    keep = (_minus(end, eps) <= reply_end) & (reply_end <= _plus(end, eps))
    return init[keep], reply[keep]


def enumerate_rr(cols: FlowColumns,
                 cfg: OracleConfig) -> tuple[list[DependencyRecord], list[DependencyRecord]]:
    """RR and RR3 records.

    An RR witness is (subject -> S1 request, port-swapped reply, then a
    subject -> S2 request starting within epsilon after the reply ends),
    yielding the dependency of S2 on S1.  RR3 inserts a second answered hop:
    the follow-up request is itself answered and a third request leaves
    within epsilon of that reply, yielding the dependency of the final target
    on S1.  Chain addresses are pairwise distinct.

    Witnesses are (target, S1, initiator) triples, expanded and deduplicated
    a chunk of at most about ``_CHUNK`` raw triples at a time; a chunk holds
    every hop of its initiators, so a triple is never counted twice.
    """
    eps, n_addr = cfg.epsilon, len(cols.addresses)
    init, reply = _answered_hops(cols, eps)
    # hops by (subject, initiator start), one initiator's hops next to each other
    subject = cols.src[init]
    hops = _Windows(subject, cols.t_start[init])
    init, subject, reply_end = init[hops.order], subject[hops.order], cols.t_end[reply[hops.order]]
    server1 = cols.dst[init]
    sends = _Windows(cols.src, cols.t_start)
    follow_first, follow_last = sends.find(subject, reply_end, _plus(reply_end, eps))
    hop2_first, hop2_last = hops.find(subject, reply_end, _plus(reply_end, eps))
    # raw triples per hop: its follow-ups, its second hops and their follow-ups
    follows = np.r_[0, np.cumsum(follow_last - follow_first)]
    raw = np.diff(follows) + hop2_last - hop2_first + follows[hop2_last] - follows[hop2_first]
    cuts = np.r_[_run_starts(init), len(init)]  # where an initiator's hops begin
    before = np.r_[0, np.cumsum(raw)][cuts]

    rr_keys, rr3_keys = [], []
    a = 0
    while a < len(cuts) - 1:
        b = max(a + 1, int(np.searchsorted(before, before[a] + _CHUNK, "right")) - 1)
        lo, hi = cuts[a], cuts[b]
        h, pos = _expand(follow_first[lo:hi], follow_last[lo:hi])
        h += lo
        target = cols.dst[sends.order[pos]]
        keep = (target != subject[h]) & (target != server1[h])
        rr_keys.append(_distinct_majors(target[keep] * n_addr + server1[h[keep]], init[h[keep]]))
        h, h2 = _expand(hop2_first[lo:hi], hop2_last[lo:hi])
        h += lo
        keep = (server1[h2] != subject[h]) & (server1[h2] != server1[h])
        h, h2 = h[keep], h2[keep]
        row, pos = _expand(follow_first[h2], follow_last[h2])
        h, h2, target = h[row], h2[row], cols.dst[sends.order[pos]]
        keep = (target != subject[h]) & (target != server1[h]) & (target != server1[h2])
        rr3_keys.append(_distinct_majors(target[keep] * n_addr + server1[h[keep]], init[h[keep]]))
        a = b
    return (_witness_records(DepKind.RR, cols.addresses, rr_keys, cfg.n_t_rr),
            _witness_records(DepKind.RR3, cols.addresses, rr3_keys, cfg.n_t_rr))


def _index(span: np.ndarray, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted starts of a (2, n) span and, from each start on, the least kept end."""
    never = _INT64.max
    ends = span[1] if keep is None else np.where(keep, span[1], never)
    return span[0], np.append(np.minimum.accumulate(ends[::-1])[::-1], never)


def _containing(starts: np.ndarray, sufmin: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Mask of the ``outer`` (2, n) intervals that contain one of the index ``starts, sufmin``."""
    return sufmin[np.searchsorted(starts, outer[0])] <= outer[1]


def enumerate_td(cols: FlowColumns,
                 cfg: OracleConfig) -> tuple[list[DependencyRecord], list[DependencyRecord]]:
    """TD and TD3 records over the DD pairs of ``cols``, found by the kernel
    of ``enumerate_dd``.

    A TD witness for (A,C) is an (A,B) flow that temporally contains some
    (B,C) flow, through any middle B; TD3 nests a third hop inside the
    second, through any middles B and C.  Witnesses are distinct (A,B) flows
    per pair: those of different middles B add up, and one B's chains
    through several second middles C are joined per flow before counting.
    """
    names = cols.addresses
    n_addr = len(names)
    pair = cols.src * n_addr + cols.dst
    rows = np.flatnonzero(_lookup(_dd_pairs(cols, cfg.n_t_dd)[0], pair)[1])
    rows = rows[np.lexsort((cols.t_start[rows], pair[rows]))]
    pair = pair[rows]
    # per pair: a (2, n) span of its flows' starts (sorted) and ends, and its index
    times = np.stack([cols.t_start[rows], cols.t_end[rows]])
    runs = _run_starts(pair)
    spans = {divmod(p, n_addr): times[:, lo:hi]
             for p, lo, hi in zip(pair[runs].tolist(), runs.tolist(),
                                  runs[1:].tolist() + [len(pair)])}
    index = {pair: _index(span) for pair, span in spans.items()}
    heads: dict[int, list[int]] = defaultdict(list)
    successors: dict[int, list[int]] = defaultdict(list)
    for a, b in spans:
        heads[b].append(a)
        successors[a].append(b)

    td, td3 = [], []  # a packed (head, tail) pair per witness
    for b, into_b in heads.items():
        # all (A,B) flows into b in one array, and each flow's head A
        outer = np.concatenate([spans[(a, b)] for a in into_b], axis=1)
        head = np.repeat(into_b, [spans[(a, b)].shape[1] for a in into_b])
        chained = {}  # tail -> the (A,B) flows that start a TD3 chain to it
        for c in successors[b]:
            if {c}.issuperset(into_b):  # c is the only head: no chain to count
                continue
            # chains never revisit an address: no head is its own tail
            hit = _containing(*index[(b, c)], outer) & (head != c)
            td.append(head[hit] * n_addr + c)
            for tail in successors[c]:
                if tail in (b, c) or {c, tail}.issuperset(into_b):
                    continue
                # the (B,C) flows that contain a (C,D) flow; the others never end
                marked = _index(spans[(b, c)], keep=_containing(*index[(c, tail)], spans[(b, c)]))
                # a flow around a marked flow is in hit, unless its head is c
                chained[tail] = chained.get(tail, False) | (_containing(*marked, outer) & hit)
        td3 += [head[mask & (head != tail)] * n_addr + tail for tail, mask in chained.items()]
    return (_witness_records(DepKind.TD, names, td, cfg.n_t_dd),
            _witness_records(DepKind.TD3, names, td3, cfg.n_t_dd))


def enumerate_all(flows: Sequence[FlowRecord] | FlowColumns,
                  cfg: OracleConfig) -> list[DependencyRecord]:
    cols = flows if isinstance(flows, FlowColumns) else FlowColumns(flows)
    dd = enumerate_dd(cols, cfg)
    rr, rr3 = enumerate_rr(cols, cfg)
    td, td3 = enumerate_td(cols, cfg)
    return dd + rr + rr3 + td + td3

