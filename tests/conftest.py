"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from depwalk.flows import FlowRecord, Proto
from depwalk.graph import CommGraph


def flow(src, dst, t_start, t_end, sport=40000, dport=80, proto=Proto.TCP) -> FlowRecord:
    return FlowRecord(src, dst, sport, dport, proto, t_start, t_end)


def graph_from(flows, vertices=None) -> CommGraph:
    if vertices is None:
        vertices = {f.src_ip for f in flows} | {f.dst_ip for f in flows}
    return CommGraph(vertices, flows)


def repeat_pair(src, dst, n, t_start, t_end, sport=40000, dport=80, spread=0):
    """n parallel edges on one pair; ``spread`` shifts each copy in time."""
    return [flow(src, dst, t_start + i * spread, t_end + i * spread, sport, dport)
            for i in range(n)]


# Canonical IPv4 and IPv6 text, as parsing writes every address.
ADDRESSES = st.ip_addresses().map(str)
PORTS = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))
# every timestamp parsing accepts: t_end stays below int64 max
STAMPS = st.one_of(st.sampled_from([-2**63, -1, 0, 2**63 - 2]), st.integers(-2**63, 2**63 - 2))


@st.composite
def written_flows(draw, addresses=ADDRESSES) -> FlowRecord:
    """A flow as ingest writes it: distinct endpoints, ports and timestamps
    up to the edges parsing accepts, ``t_start <= t_end``, TCP or UDP."""
    src, dst = draw(st.lists(addresses, min_size=2, max_size=2, unique=True))
    t_start, t_end = sorted(draw(st.lists(STAMPS, min_size=2, max_size=2)))
    if draw(st.booleans()):
        t_end = t_start
    return FlowRecord(src, dst, draw(PORTS), draw(PORTS),
                      draw(st.sampled_from([Proto.TCP, Proto.UDP])), t_start, t_end)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
