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

An outer flow contains an inner one when ``outer.start <= inner.start`` and
``inner.end <= outer.end``.  Every flow has ``start <= end``, so the inner
start needs no upper bound: a binary search over the start-sorted inner flows
into the suffix minimum of their end times decides containment.

Witness counts are deduplicated by the initiating flow, so one initiating
flow contributes at most one witness to a given record.  Chains never revisit
an address, and distinct middle paths yield distinct TD/TD3 records.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .config import OracleConfig
from .flows import FlowRecord

_KIND_ORDER = {"DD": 0, "RR": 1, "RR3": 2, "TD": 3, "TD3": 4}


class DepKind(str, Enum):
    DD = "DD"
    RR = "RR"
    RR3 = "RR3"
    TD = "TD"
    TD3 = "TD3"


@dataclass(frozen=True)
class DependencyRecord:
    """``src`` is the dependent address, ``dst`` the depended-on one; ``via``
    lists the middle addresses for transitive records."""

    kind: DepKind
    src: str
    dst: str
    witness_count: int
    via: tuple[str, ...] = ()


def record_key(rec: DependencyRecord):
    return (_KIND_ORDER[rec.kind.value], rec.src, rec.dst, rec.via)


def enumerate_dd(flows: Sequence[FlowRecord], cfg: OracleConfig) -> list[DependencyRecord]:
    """Group flows by 5-tuple; every group reaching ``n_t_dd`` contributes its
    size to the pair's record, so qualifying 5-tuples on the same pair
    collapse into one DD with summed witnesses."""
    groups = Counter((f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto) for f in flows)
    pair_witnesses: Counter = Counter()
    for (src, dst, _sp, _dp, _proto), count in groups.items():
        if count >= cfg.n_t_dd:
            pair_witnesses[(src, dst)] += count
    records = [DependencyRecord(DepKind.DD, src, dst, w)
               for (src, dst), w in pair_witnesses.items()]
    return sorted(records, key=record_key)


def _by_start(flows: Sequence[FlowRecord], key) -> dict:
    """Flow indices grouped by ``key(flow)``, each group sorted by
    ``(t_start, t_end, index)``, next to the list of their start times
    for ``bisect``."""
    groups: dict = defaultdict(list)
    for i, f in enumerate(flows):
        groups[key(f)].append(i)
    index = {}
    for k, members in groups.items():
        members.sort(key=lambda i: (flows[i].t_start, flows[i].t_end))  # stable: ties by index
        index[k] = (members, [flows[i].t_start for i in members])
    return index


def _reply_pairs(flows: Sequence[FlowRecord], epsilon: int) -> list[tuple[int, int]]:
    """(initiator, reply) index pairs: reversed addresses with swapped ports,
    reply starting no earlier than the initiator, ends within epsilon."""
    by_key = _by_start(flows, lambda f: (f.src_ip, f.dst_ip, f.src_port, f.dst_port))
    pairs: list[tuple[int, int]] = []
    for i, f in enumerate(flows):
        candidates = by_key.get((f.dst_ip, f.src_ip, f.dst_port, f.src_port))
        if not candidates:
            continue
        members, starts = candidates
        # reply start is bounded by [t_start, t_end + epsilon] since its own
        # end must stay within epsilon of ours
        lo = bisect_left(starts, f.t_start)
        hi = bisect_left(starts, f.t_end + epsilon + 1, lo)
        for j in members[lo:hi]:
            if abs(f.t_end - flows[j].t_end) <= epsilon:
                pairs.append((i, j))
    return pairs


def enumerate_rr(flows: Sequence[FlowRecord], cfg: OracleConfig) -> tuple[list[DependencyRecord], list[DependencyRecord]]:
    """RR and RR3 records.

    An RR witness is (subject -> S1 request, port-swapped reply, then a
    subject -> S2 request starting within epsilon after the reply ends),
    yielding the dependency of S2 on S1.  RR3 inserts a second answered hop:
    the follow-up request is itself answered and a third request leaves
    within epsilon of that reply, yielding the dependency of the final target
    on S1.  Chain addresses are pairwise distinct.
    """
    eps = cfg.epsilon
    by_src = _by_start(flows, attrgetter("src_ip"))

    # answered hops per subject, ordered by initiator start for chain lookups
    entries: dict[str, list[tuple[int, int, int, str]]] = defaultdict(list)
    for i, j in _reply_pairs(flows, eps):
        f1, f2 = flows[i], flows[j]
        entries[f1.src_ip].append((f1.t_start, f2.t_end, i, f1.dst_ip))
    for lst in entries.values():
        lst.sort()

    rr_wits: dict[tuple[str, str], set[int]] = defaultdict(set)
    rr3_wits: dict[tuple[str, str], set[int]] = defaultdict(set)
    for subject, hop_list in entries.items():
        sent, starts = by_src[subject]
        for _t1, reply_end, init_idx, server1 in hop_list:
            lo = bisect_left(starts, reply_end)
            hi = bisect_left(starts, reply_end + eps + 1, lo)
            for k in sent[lo:hi]:
                target = flows[k].dst_ip
                if target not in (subject, server1):
                    rr_wits[(target, server1)].add(init_idx)
            lo2 = bisect_left(hop_list, (reply_end,))
            hi2 = bisect_left(hop_list, (reply_end + eps + 1,))
            for _t1b, reply_end2, _idx2, server2 in hop_list[lo2:hi2]:
                if server2 in (subject, server1):
                    continue
                lo3 = bisect_left(starts, reply_end2)
                hi3 = bisect_left(starts, reply_end2 + eps + 1, lo3)
                for k in sent[lo3:hi3]:
                    target = flows[k].dst_ip
                    if target not in (subject, server1, server2):
                        rr3_wits[(target, server1)].add(init_idx)

    rr = [DependencyRecord(DepKind.RR, s2, s1, len(w))
          for (s2, s1), w in rr_wits.items() if len(w) >= cfg.n_t_rr]
    rr3 = [DependencyRecord(DepKind.RR3, s3, s1, len(w))
           for (s3, s1), w in rr3_wits.items() if len(w) >= cfg.n_t_rr]
    return sorted(rr, key=record_key), sorted(rr3, key=record_key)


def _index(span: np.ndarray, keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted starts of a (2, n) span and, from each start on, the least kept end."""
    never = np.iinfo(np.int64).max
    ends = span[1] if keep is None else np.where(keep, span[1], never)
    return span[0], np.append(np.minimum.accumulate(ends[::-1])[::-1], never)


def _containing(starts: np.ndarray, sufmin: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Mask of the ``outer`` (2, n) intervals that contain one of the index ``starts, sufmin``."""
    return sufmin[np.searchsorted(starts, outer[0])] <= outer[1]


def enumerate_td(flows: Sequence[FlowRecord], cfg: OracleConfig,
                 dd_records: Sequence[DependencyRecord]) -> tuple[list[DependencyRecord], list[DependencyRecord]]:
    """TD and TD3 records over the pairs of ``dd_records``, the DD records of
    ``flows``.

    A TD witness for DD(A,B) chained with DD(B,C) is an (A,B) flow that
    temporally contains some (B,C) flow; TD3 nests a third hop inside the
    second.  Witnesses count distinct initiating (A,B) flows.  Records are
    emitted per middle path.
    """
    dd_pairs = {(r.src, r.dst) for r in dd_records}
    by_pair: dict[tuple[str, str], list[tuple[int, int]]] = defaultdict(list)
    for f in flows:
        if (f.src_ip, f.dst_ip) in dd_pairs:
            by_pair[(f.src_ip, f.dst_ip)].append((f.t_start, f.t_end))
    # per pair: a (2, n) span of its flows' starts (sorted) and ends, and its index
    spans = {pair: np.array(sorted(times), dtype=np.int64).T.copy() for pair, times in by_pair.items()}
    index = {pair: _index(span) for pair, span in spans.items()}
    heads: dict[str, list[str]] = defaultdict(list)
    successors: dict[str, list[str]] = defaultdict(list)
    for a, b in spans:
        heads[b].append(a)
        successors[a].append(b)

    td, td3 = [], []
    for b, into_b in heads.items():
        # all (A,B) flows into b in one array, witnesses summed per head A
        outer = np.concatenate([spans[(a, b)] for a in into_b], axis=1)
        first = np.cumsum([0] + [spans[(a, b)].shape[1] for a in into_b[:-1]])
        for c in successors[b]:
            if {c}.issuperset(into_b):  # chains never revisit an address
                continue
            counts = np.add.reduceat(_containing(*index[(b, c)], outer), first, dtype=np.int64)
            td += [DependencyRecord(DepKind.TD, a, c, int(n), via=(b,))
                   for a, n in zip(into_b, counts) if n >= cfg.n_t_dd and a != c]
            for tail in successors[c]:
                if tail in (b, c) or {c, tail}.issuperset(into_b):
                    continue
                # the (B,C) flows that contain a (C,D) flow; the others never end
                marked = _index(spans[(b, c)], keep=_containing(*index[(c, tail)], spans[(b, c)]))
                counts = np.add.reduceat(_containing(*marked, outer), first, dtype=np.int64)
                td3 += [DependencyRecord(DepKind.TD3, a, tail, int(n), via=(b, c))
                        for a, n in zip(into_b, counts) if n >= cfg.n_t_dd and a not in (c, tail)]
    return sorted(td, key=record_key), sorted(td3, key=record_key)


def enumerate_all(flows: Sequence[FlowRecord], cfg: OracleConfig) -> list[DependencyRecord]:
    dd = enumerate_dd(flows, cfg)
    rr, rr3 = enumerate_rr(flows, cfg)
    td, td3 = enumerate_td(flows, cfg, dd_records=dd)
    return dd + rr + rr3 + td + td3


def write_ground_truth(records: Iterable[DependencyRecord], path) -> None:
    """CSV dump (kind, src, dst, witness_count); middle paths are not
    serialized, so records may repeat an endpoint pair."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "src", "dst", "witness_count"])
        for rec in records:
            writer.writerow([rec.kind.value, rec.src, rec.dst, rec.witness_count])

