"""Communication multigraph: address selection and reservoir edge sampling."""

from __future__ import annotations

import heapq
import json
import logging
import random
from collections import defaultdict
from dataclasses import dataclass
from ipaddress import ip_address, ip_network
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .config import SamplerConfig
from .flows import (CANONICAL_IPV4, CSV_COLUMNS, FlowColumns, FlowRecord, flow_from_dict,
                    flow_to_json, open_lines, parse_address, utf8)

log = logging.getLogger(__name__)


def _internal_check(prefixes: Iterable[str]) -> Callable[[str], bool]:
    """Whether an address token lies in one of the CIDR ``prefixes``.  A
    canonical dotted quad, the text of every parsed IPv4 flow address, is
    matched as an integer against each IPv4 prefix; any other token is
    parsed by ``ip_address``, and one that does not parse is external."""
    networks = [ip_network(p, strict=False) for p in prefixes]
    v4 = [(int(net.netmask), int(net.network_address)) for net in networks if net.version == 4]

    def is_internal(addr: str) -> bool:
        if CANONICAL_IPV4.fullmatch(addr):
            value = int.from_bytes(bytes(map(int, addr.split("."))), "big")
            return any(value & mask == base for mask, base in v4)
        try:
            parsed = ip_address(addr)
        except ValueError:
            return False
        return any(parsed in net for net in networks if net.version == parsed.version)

    return is_internal


def select_top_addresses(flows: FlowColumns, cfg: SamplerConfig) -> set[str]:
    """The ``n_internal`` internal and ``m_external`` external addresses with
    the most flow appearances (as source or destination).

    Ties break toward the lexicographically smaller address.  When fewer
    distinct addresses exist than requested, everything available is returned
    and a warning is logged.
    """
    names, n = flows.addresses, len(flows.addresses)
    counts = (np.bincount(flows.src, minlength=n) + np.bincount(flows.dst, minlength=n)).tolist()
    is_internal = _internal_check(cfg.internal_prefixes)
    internal: list[int] = []
    external: list[int] = []
    for number, addr in enumerate(names):
        if counts[number]:  # the table may name addresses of dropped flows
            (internal if is_internal(addr) else external).append(number)

    def top(numbers: list[int], wanted: int, kind: str) -> list[str]:
        ranked = heapq.nsmallest(wanted, numbers, key=lambda i: (-counts[i], names[i]))
        if len(ranked) < wanted:
            log.warning("only %d %s addresses available (requested %d)", len(ranked), kind, wanted)
        return [names[i] for i in ranked]

    return set(top(internal, cfg.n_internal, "internal")) | set(top(external, cfg.m_external, "external"))


@dataclass
class Neighbours:
    """The vertices of a directed graph and each vertex's sorted out- and
    in-neighbours, without the edges' flows: all the similarity indices
    read."""

    vertices: tuple[str, ...]
    _out: dict[str, tuple[str, ...]]
    _in: dict[str, tuple[str, ...]]

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        return self._out.get(v, ())

    def in_neighbors(self, v: str) -> tuple[str, ...]:
        return self._in.get(v, ())

    def out_degree(self, v: str) -> int:
        return len(self._out.get(v, ()))


class CommGraph(Neighbours):
    """Directed multigraph over selected addresses; parallel edges carry the
    flow attributes of the sampled flows."""

    def __init__(self, vertices: Iterable[str], flows: Iterable[FlowRecord]):
        vertices = tuple(sorted(set(vertices)))
        vset = set(vertices)
        pair_edges: dict[tuple[str, str], list[FlowRecord]] = defaultdict(list)
        for f in flows:
            if f.src_ip not in vset or f.dst_ip not in vset:
                raise ValueError(f"edge endpoint outside vertex set: {f.src_ip}->{f.dst_ip}")
            pair_edges[(f.src_ip, f.dst_ip)].append(f)
        # a pair's instances in the CSV column order: interval, then five-tuple
        self._pairs = {pair: tuple(sorted(pair_edges[pair], key=attrgetter(*CSV_COLUMNS)))
                       for pair in sorted(pair_edges)}
        out: dict[str, set[str]] = defaultdict(set)
        inn: dict[str, set[str]] = defaultdict(set)
        for src, dst in self._pairs:
            out[src].add(dst)
            inn[dst].add(src)
        super().__init__(vertices, {v: tuple(sorted(targets)) for v, targets in out.items()},
                         {v: tuple(sorted(sources)) for v, sources in inn.items()})

    @property
    def neighbours(self) -> Neighbours:
        """This graph's neighbour sets alone, sharing its tuples; they keep
        none of the edges' flows alive."""
        return Neighbours(self.vertices, self._out, self._in)

    def edge_instances(self, src: str, dst: str) -> tuple[FlowRecord, ...]:
        return self._pairs.get((src, dst), ())

    def pair_flow_count(self, src: str, dst: str) -> int:
        """Number of sampled parallel edges from src to dst (0 if absent)."""
        return len(self._pairs.get((src, dst), ()))

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._pairs

    def all_edges(self) -> Iterator[FlowRecord]:
        for instances in self._pairs.values():
            yield from instances

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self._pairs.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._pairs == other._pairs

    __hash__ = None  # mutable-by-convention container semantics


def reservoir_sample_edges(flows: FlowColumns, selected: set[str], cfg: SamplerConfig) -> CommGraph:
    """Uniform reservoir sample over flows between two distinct selected endpoints.

    Classic single-reservoir sampling over the eligible rows: the first
    ``k_edges`` fill the reservoir, and the k-th eligible row thereafter
    replaces a uniformly drawn slot with probability ``k_edges / k``.  After
    N eligible flows every one of them is retained with probability
    ``k_edges / N``.  Only the retained rows become records.  A self-loop is
    never eligible: ``graph.jsonl`` cannot hold one.
    """
    if not selected:
        raise ValueError("selected address set is empty")
    chosen = np.array([addr in selected for addr in flows.addresses], bool)
    eligible = np.flatnonzero(chosen[flows.src] & chosen[flows.dst] & (flows.src != flows.dst))
    rng = random.Random(cfg.rng_seed)
    kept = list(range(min(cfg.k_edges, len(eligible))))  # positions in eligible
    for seen in range(len(kept) + 1, len(eligible) + 1):
        slot = rng.randrange(seen)
        if slot < cfg.k_edges:
            kept[slot] = seen - 1
    if not len(eligible):
        log.warning("no flows with both endpoints among the %d selected addresses", len(selected))
    return CommGraph(sorted(selected), flows.records(eligible[kept]))


def write_jsonl(path, vertices: Iterable[str], lines: Iterable[str]) -> None:
    """The layout of ``graph.jsonl`` and ``walks.jsonl``: a vertex manifest
    (an object whose one key, ``vertices``, lists addresses), then one
    JSON object with sorted keys per line of ``lines``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"vertices": list(vertices)}) + "\n")
        fh.writelines(line + "\n" for line in lines)


def read_jsonl(path, convert: Callable[[dict, dict[str, str], set[str]], object]
               ) -> tuple[list[str], list]:
    """The manifest of a :func:`write_jsonl` file, and ``convert(obj,
    canonical, known)`` of each later non-blank line's object (``canonical``
    memoises addresses, ``known`` is the manifest's).  A line that is not
    UTF-8 or not JSON, or whose object is rejected (a missing field, a wrong
    type or value), is a ValueError naming ``path`` and the line."""
    canonical: dict[str, str] = {}
    objects = []
    with open_lines(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise ValueError(f"{path}: empty file, no vertex manifest")
        lineno = 1
        try:
            manifest = json.loads(utf8(first))
            if not isinstance(manifest, dict) or list(manifest) != ["vertices"]:
                raise ValueError("not a vertex manifest")
            vertices = [parse_address(v, canonical) for v in manifest["vertices"]]
            known = set(vertices)
            for lineno, line in enumerate(fh, 2):
                if line.strip():
                    objects.append(convert(json.loads(utf8(line)), canonical, known))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return vertices, objects


def write_graph_jsonl(graph: CommGraph, path) -> None:
    """One edge per line with all attributes, after the vertex manifest."""
    write_jsonl(path, graph.vertices, map(flow_to_json, graph.all_edges()))


def _edge_from_dict(obj: dict, canonical: dict[str, str], known: set[str]) -> FlowRecord:
    """A flow that passes the checks of parsing and joins two known vertices."""
    flow = flow_from_dict(obj, canonical)
    if flow.src_ip not in known or flow.dst_ip not in known:
        raise ValueError(f"edge endpoint outside vertex set: {flow.src_ip}->{flow.dst_ip}")
    return flow


def read_graph_jsonl(path) -> CommGraph:
    """A graph file back; a bad edge is an error naming its line."""
    return CommGraph(*read_jsonl(path, _edge_from_dict))
