import io
import math
import re
import tempfile
from ipaddress import ip_network
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADDRESSES, flow, graph_from, repeat_pair, written_flows
from depwalk.errors import ConfigError
from depwalk.flows import FlowColumns, FlowRecord, Proto, filter_tcp_udp, parse_flows
from depwalk.graph import (CommGraph, SamplerConfig, _internal_check, read_graph_jsonl,
                           reservoir_sample_edges, select_top_addresses, write_graph_jsonl)
from refimpl import (reference_is_internal, reference_reservoir_sample,
                     reference_top_addresses, reference_write_graph_jsonl)

INTERNAL = ("10.0.0.0/16",)


def cfg(**kwargs):
    defaults = dict(n_internal=10, m_external=10, k_edges=100, internal_prefixes=INTERNAL)
    defaults.update(kwargs)
    return SamplerConfig(**defaults)


def test_config_validation_lists_problems():
    with pytest.raises(ConfigError) as err:
        SamplerConfig(n_internal=-1, m_external=0, k_edges=0, internal_prefixes=("bogus",))
    message = str(err.value)
    assert "n_internal" in message and "k_edges" in message and "bogus" in message


def test_top_addresses_by_flow_count():
    flows = (repeat_pair("10.0.0.1", "10.0.0.2", 3, 0, 1)      # A in 5, B in 3 (+2 below)
             + repeat_pair("10.0.0.1", "10.0.0.3", 2, 0, 1))   # C in 1... A:5 B:3 C:2
    picked = select_top_addresses(FlowColumns(flows), cfg(n_internal=2, m_external=0))
    assert picked == {"10.0.0.1", "10.0.0.2"}


def test_top_addresses_zero_requested():
    flows = repeat_pair("10.0.0.1", "10.0.0.2", 3, 0, 1)
    assert select_top_addresses(FlowColumns(flows), cfg(n_internal=0, m_external=0)) == set()


def test_tie_broken_lexicographically():
    flows = (repeat_pair("10.0.0.4", "10.0.8.8", 2, 0, 1)
             + repeat_pair("10.0.0.2", "10.0.9.9", 2, 0, 1))
    picked = select_top_addresses(FlowColumns(flows), cfg(n_internal=1, m_external=0))
    assert picked == {"10.0.0.2"}


def test_addresses_of_dropped_flows_are_never_selected():
    # the parsed columns' address table still names the endpoints of dropped lines
    text = ("1,2,10.0.0.1,10.0.0.2,1,2,TCP\n"
            "3,4,10.0.0.3,10.0.0.4,1,2,ICMP\n"   # filtered out
            "5,6,10.0.0.5,10.0.0.5,1,2,TCP\n"    # a self-loop
            "7,8,10.0.0.6,not-an-ip,1,2,TCP\n")  # a bad line
    flows = filter_tcp_udp(parse_flows(io.StringIO(text))[0])
    assert select_top_addresses(flows, cfg(n_internal=10, m_external=10)) == {"10.0.0.1", "10.0.0.2"}


@st.composite
def prefix_lists(draw):
    """Up to three CIDR prefixes of either IP version, often /0 or full length."""
    prefixes = []
    for _ in range(draw(st.integers(0, 3))):
        version = draw(st.sampled_from((4, 6)))
        bits = 32 if version == 4 else 128
        length = draw(st.one_of(st.sampled_from((0, bits)), st.integers(0, bits)))
        prefixes.append(f"{draw(st.ip_addresses(v=version))}/{length}")
    return tuple(prefixes)


# tokens that ``ip_address`` rejects or reads as IPv6, next to dotted quads
ODD_TOKENS = st.sampled_from(("010.0.0.1", "10.0.0", "10.0.0.1 ", "1.2.3.256", "::ffff:10.0.0.1",
                              "::10.0.0.1", "2001:DB8::1", "0.0.0.0", "255.255.255.255", ""))


@settings(max_examples=300, deadline=None)
@given(prefix_lists(), st.data())
def test_internal_check_agrees_with_parsing_every_address(prefixes, data):
    # addresses inside the prefixes too, which random addresses seldom are
    networks = [ip_network(p, strict=False) for p in prefixes]
    inside = [st.integers(0, net.num_addresses - 1).map(lambda i, net=net: str(net[i]))
              for net in networks]
    addrs = data.draw(st.lists(st.one_of(st.ip_addresses().map(str), ODD_TOKENS, st.text(max_size=8),
                                         *inside), max_size=20))
    is_internal = _internal_check(prefixes)
    assert [is_internal(a) for a in addrs] == [reference_is_internal(a, prefixes) for a in addrs]


def test_internal_external_partition():
    flows = repeat_pair("10.0.0.1", "192.168.5.5", 4, 0, 1)
    picked = select_top_addresses(FlowColumns(flows), cfg(n_internal=5, m_external=5))
    assert picked == {"10.0.0.1", "192.168.5.5"}
    only_internal = select_top_addresses(FlowColumns(flows), cfg(n_internal=5, m_external=0))
    assert only_internal == {"10.0.0.1"}


def test_fewer_available_than_requested_warns(caplog):
    flows = repeat_pair("10.0.0.1", "10.0.0.2", 1, 0, 1)
    with caplog.at_level("WARNING"):
        picked = select_top_addresses(FlowColumns(flows), cfg(n_internal=10, m_external=0))
    assert picked == {"10.0.0.1", "10.0.0.2"}
    assert any("available" in rec.message for rec in caplog.records)


def test_reservoir_keeps_everything_when_larger_than_stream():
    flows = repeat_pair("10.0.0.1", "10.0.0.2", 5, 0, 1, spread=10)
    g = reservoir_sample_edges(FlowColumns(flows), {"10.0.0.1", "10.0.0.2"}, cfg(k_edges=10))
    assert g.n_edges == 5
    assert g.pair_flow_count("10.0.0.1", "10.0.0.2") == 5


def test_reservoir_eligibility_filter():
    eligible = repeat_pair("10.0.0.1", "10.0.0.2", 5, 0, 1)
    outside = repeat_pair("10.0.0.1", "10.0.99.99", 5, 0, 1)
    g = reservoir_sample_edges(FlowColumns(eligible + outside), {"10.0.0.1", "10.0.0.2"}, cfg(k_edges=100))
    assert g.n_edges == 5
    assert "10.0.99.99" not in g.vertices


def test_reservoir_empty_eligible_warns(caplog):
    flows = repeat_pair("10.0.5.5", "10.0.6.6", 3, 0, 1)
    with caplog.at_level("WARNING"):
        g = reservoir_sample_edges(FlowColumns(flows), {"10.0.0.1", "10.0.0.2"}, cfg())
    assert g.n_edges == 0 and len(g.vertices) == 2


def test_reservoir_size_invariant(rng):
    flows = [flow("10.0.0.1", "10.0.0.2", i, i + 1) for i in range(500)]
    for k in (1, 7, 100, 499, 500, 600):
        g = reservoir_sample_edges(FlowColumns(flows), {"10.0.0.1", "10.0.0.2"}, cfg(k_edges=k, rng_seed=rng.randrange(2**32)))
        assert g.n_edges == min(k, len(flows))


def test_reservoir_pair_fraction_across_seeds():
    # 9,000 flows on pair P and 1,000 on pair Q; with k=1,000 the retained
    # P-fraction must stay near 0.9 on average across 50 seeds.
    flows = ([flow("10.0.0.1", "10.0.0.2", i, i + 1) for i in range(9000)]
             + [flow("10.0.0.3", "10.0.0.4", i, i + 1) for i in range(1000)])
    selected = {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}
    fractions = []
    for seed in range(50):
        g = reservoir_sample_edges(FlowColumns(flows), selected, cfg(k_edges=1000, rng_seed=seed))
        fractions.append(g.pair_flow_count("10.0.0.1", "10.0.0.2") / 1000)
    mean = sum(fractions) / len(fractions)
    assert abs(mean - 0.9) <= 0.03


def test_reservoir_per_flow_binomial_bound():
    # every flow's retention frequency within 4 sigma of k/N (binomial model)
    n_flows, k, runs = 200, 50, 400
    flows = [flow("10.0.0.1", "10.0.0.2", i, i + 1) for i in range(n_flows)]
    selected = {"10.0.0.1", "10.0.0.2"}
    counts = [0] * n_flows
    for seed in range(runs):
        g = reservoir_sample_edges(FlowColumns(flows), selected, cfg(k_edges=k, rng_seed=seed))
        for inst in g.edge_instances("10.0.0.1", "10.0.0.2"):
            counts[inst.t_start] += 1
    p = k / n_flows
    bound = 4 * math.sqrt(p * (1 - p) / runs)
    for c in counts:
        assert abs(c / runs - p) <= bound


def test_reservoir_determinism():
    flows = [flow("10.0.0.1", "10.0.0.2", i, i + 1) for i in range(300)]
    selected = {"10.0.0.1", "10.0.0.2"}
    a = reservoir_sample_edges(FlowColumns(flows), selected, cfg(k_edges=50, rng_seed=9))
    b = reservoir_sample_edges(FlowColumns(flows), selected, cfg(k_edges=50, rng_seed=9))
    c = reservoir_sample_edges(FlowColumns(flows), selected, cfg(k_edges=50, rng_seed=10))
    assert a == b
    assert a != c


def test_pair_flow_count_semantics():
    flows = repeat_pair("10.0.0.1", "10.0.0.2", 3, 0, 1, spread=5)
    g = graph_from(flows)
    assert g.pair_flow_count("10.0.0.1", "10.0.0.2") == 3
    assert g.pair_flow_count("10.0.0.2", "10.0.0.1") == 0
    g2 = graph_from(flows + [flow("10.0.0.1", "10.0.0.2", 100, 101)])
    assert g2.pair_flow_count("10.0.0.1", "10.0.0.2") == 4


def test_graph_neighbors_and_edges():
    flows = [flow("10.0.0.1", "10.0.0.2", 0, 1), flow("10.0.0.1", "10.0.0.3", 0, 1),
             flow("10.0.0.2", "10.0.0.3", 0, 1)]
    g = graph_from(flows)
    assert g.out_neighbors("10.0.0.1") == ("10.0.0.2", "10.0.0.3")
    assert g.in_neighbors("10.0.0.3") == ("10.0.0.1", "10.0.0.2")
    assert g.out_degree("10.0.0.3") == 0
    assert g.has_edge("10.0.0.2", "10.0.0.3") and not g.has_edge("10.0.0.3", "10.0.0.2")


def test_graph_orders_each_pairs_instances_by_interval_then_five_tuple(rng):
    records = [FlowRecord(f"10.0.0.{rng.randrange(1, 4)}", f"10.0.1.{rng.randrange(1, 4)}",
                          rng.randrange(3), rng.randrange(3), rng.choice(list(Proto)),
                          start := rng.randrange(4), start + rng.randrange(3))
               for _ in range(300)]
    g = graph_from(records)
    pairs = {(f.src_ip, f.dst_ip) for f in records}
    assert sum(len(g.edge_instances(*pair)) for pair in pairs) == len(records)
    for pair in pairs:
        expected = sorted((f for f in records if (f.src_ip, f.dst_ip) == pair),
                          key=lambda f: (f.t_start, f.t_end, f.src_ip, f.dst_ip,
                                         f.src_port, f.dst_port, f.proto.value))
        assert list(g.edge_instances(*pair)) == expected


def test_graph_rejects_foreign_endpoints():
    with pytest.raises(ValueError, match="edge endpoint outside vertex set: 10.0.0.1->10.0.0.2"):
        CommGraph(["10.0.0.1"], [flow("10.0.0.1", "10.0.0.2", 0, 1)])


def test_graph_jsonl_round_trip(tmp_path):
    flows = (repeat_pair("10.0.0.1", "10.0.0.2", 3, 0, 9, spread=3)
             + [flow("10.0.0.2", "10.0.0.1", 5, 6, sport=443, dport=50000, proto=Proto.UDP)])
    g = CommGraph(["10.0.0.1", "10.0.0.2", "10.0.0.9"], flows)
    path = tmp_path / "graph.jsonl"
    write_graph_jsonl(g, path)
    assert read_graph_jsonl(path) == g


@st.composite
def graphs(draw) -> CommGraph:
    """A graph of up to 8 vertices, some isolated, and up to 30 edges."""
    vertices = draw(st.lists(ADDRESSES, min_size=2, max_size=8, unique=True))
    return CommGraph(
        vertices, draw(st.lists(written_flows(st.sampled_from(vertices)), max_size=30)))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_read_graph_jsonl_returns_the_graph_write_graph_jsonl_wrote(g):
    # what lets sample keep the graph it writes instead of reading it back
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.jsonl"
        write_graph_jsonl(g, path)
        assert read_graph_jsonl(path) == g


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_graph_template_writes_the_bytes_of_the_sort_keyed_encoder(g):
    with tempfile.TemporaryDirectory() as tmp:
        write_graph_jsonl(g, Path(tmp) / "graph.jsonl")
        reference_write_graph_jsonl(g, Path(tmp) / "reference.jsonl")
        assert (Path(tmp) / "graph.jsonl").read_bytes() == (Path(tmp) / "reference.jsonl").read_bytes()


POOL = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.7.7", "192.168.0.1", "2001:db8::1", "8.8.8.8")


@settings(max_examples=200, deadline=None)
@given(st.lists(written_flows(st.sampled_from(POOL)), max_size=60),
       st.sets(st.sampled_from(POOL), min_size=1), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.integers(0, 4), st.integers(0, 4))
def test_columns_sample_what_records_sampled(flows, selected, k, seed, n_internal, m_external):
    # the same counts and ranking, and the same draws over the same eligible flows
    sampler = cfg(n_internal=n_internal, m_external=m_external, k_edges=k, rng_seed=seed)
    assert select_top_addresses(FlowColumns(flows), sampler) == \
        reference_top_addresses(flows, sampler)
    assert reservoir_sample_edges(FlowColumns(flows), selected, sampler) == \
        CommGraph(sorted(selected), reference_reservoir_sample(flows, selected, sampler))


def test_a_byte_that_is_not_utf8_names_its_own_line(tmp_path):
    # a text-mode read decodes 8 KiB ahead of the line it hands out, so the
    # byte used to be reported on an earlier line, or on none
    g = CommGraph(["10.0.0.1", "10.0.0.2"], [flow("10.0.0.1", "10.0.0.2", i, i + 1)
                                              for i in range(600)])
    path = tmp_path / "graph.jsonl"
    write_graph_jsonl(g, path)
    lines = path.read_bytes().splitlines(keepends=True)
    for lineno in (402, 2):
        damaged = lines[:lineno - 1] + [lines[lineno - 1].replace(b"t_end", b"t_\xffnd")] + lines[lineno:]
        path.write_bytes(b"".join(damaged))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: 'utf-8' codec can't decode byte 0xff")):
            read_graph_jsonl(path)
