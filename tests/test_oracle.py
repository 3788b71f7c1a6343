import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refimpl
from conftest import STAMPS, flow, repeat_pair
from depwalk.config import ScenarioConfig
from depwalk.errors import ConfigError
from depwalk.flows import Proto
from depwalk.oracle import (DepKind, DependencyRecord, FlowColumns, OracleConfig, _dense, _Windows,
                            enumerate_all, enumerate_dd, enumerate_rr, enumerate_td)
from depwalk.pipeline import _read_rows, _write_dependencies
from depwalk.seeds import derive_seed
from depwalk.synth import generate


def ocfg(**kwargs):
    defaults = dict(n_t_dd=10, n_t_rr=10, epsilon=1000)
    defaults.update(kwargs)
    return OracleConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        OracleConfig(n_t_dd=0)


# --- direct dependencies -------------------------------------------------------

def test_dd_threshold_boundary():
    flows = repeat_pair("A", "B", 10, 0, 1, spread=10)
    records = enumerate_dd(FlowColumns(flows), ocfg())
    assert records == [DependencyRecord(DepKind.DD, "A", "B", 10)]
    assert enumerate_dd(FlowColumns(flows[:9]), ocfg()) == []


def test_dd_requires_identical_parameters():
    flows = [flow("A", "B", i * 10, i * 10 + 1, sport=40000 + i) for i in range(10)]
    assert enumerate_dd(FlowColumns(flows), ocfg()) == []


def test_dd_collapses_qualifying_tuples():
    flows = (repeat_pair("A", "B", 10, 0, 1, sport=1111, spread=5)
             + repeat_pair("A", "B", 12, 0, 1, sport=2222, spread=5)
             + repeat_pair("A", "B", 4, 0, 1, sport=3333, spread=5))  # below threshold
    records = enumerate_dd(FlowColumns(flows), ocfg())
    assert records == [DependencyRecord(DepKind.DD, "A", "B", 22)]


# --- request-chain dependencies ------------------------------------------------

def rr_session(user, s1, s2, t0, eps_gap=300, sport=50000):
    """request + port-swapped reply + follow-up request."""
    return [
        flow(user, s1, t0, t0 + 20, sport=sport, dport=53),
        flow(s1, user, t0 + 2, t0 + 22, sport=53, dport=sport),
        flow(user, s2, t0 + 22 + eps_gap, t0 + 22 + eps_gap + 50, sport=sport + 1, dport=443),
    ]


def test_rr_detected_on_repeated_sessions():
    flows = []
    for i in range(10):
        flows += rr_session("U", "DNS", "WEB", i * 10_000)
    rr, rr3 = enumerate_rr(FlowColumns(flows), ocfg(epsilon=500))
    assert rr == [DependencyRecord(DepKind.RR, "WEB", "DNS", 10)]
    assert rr3 == []


def test_rr_gap_beyond_epsilon_is_ignored():
    flows = []
    for i in range(10):
        flows += rr_session("U", "DNS", "WEB", i * 10_000, eps_gap=800)
    rr, _ = enumerate_rr(FlowColumns(flows), ocfg(epsilon=500))
    assert rr == []


def test_rr3_three_server_chain():
    flows = []
    for i in range(10):
        t0 = i * 10_000
        flows += [
            flow("U", "S1", t0, t0 + 20, sport=50000, dport=53),
            flow("S1", "U", t0 + 1, t0 + 21, sport=53, dport=50000),
            flow("U", "S2", t0 + 100, t0 + 130, sport=50001, dport=88),
            flow("S2", "U", t0 + 101, t0 + 131, sport=88, dport=50001),
            flow("U", "S3", t0 + 200, t0 + 260, sport=50002, dport=443),
        ]
    cfg = ocfg(epsilon=500)
    rr, rr3 = enumerate_rr(FlowColumns(flows), cfg)
    assert DependencyRecord(DepKind.RR3, "S3", "S1", 10) in rr3
    # cross-checked against the exhaustive reference
    assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
        refimpl.reference_dependencies(flows, cfg)


# --- transitive dependencies ----------------------------------------------------

def lr_fixture(n=10, contained=True):
    flows = []
    for i in range(n):
        t0 = i * 1000
        flows += [flow("USER", "WEB", t0, t0 + 10, sport=51000, dport=443)]
        inner = (t0 + 2, t0 + 8) if contained else (t0 + 11, t0 + 12)
        flows += [flow("WEB", "DB", inner[0], inner[1], sport=52000, dport=5432)]
    return flows


def test_td_detected_via_containment():
    records = enumerate_all(FlowColumns(lr_fixture()), ocfg())
    assert DependencyRecord(DepKind.TD, "USER", "DB", 10) in records
    kinds = {r.kind for r in records}
    assert DepKind.DD in kinds


def test_td_needs_containment():
    flows = lr_fixture(contained=False)
    td, td3 = enumerate_td(FlowColumns(flows), ocfg())
    assert td == [] and td3 == []


def through(middle, sport, sessions, lone=0):
    """USER -> middle -> DB: ``sessions`` requests that each contain one of the
    middle's database calls, then ``lone`` more flows of each hop, which
    contain or sit in nothing but keep both hops DD pairs."""
    flows = []
    for i in range(sessions):
        t0 = i * 1000
        flows += [flow("USER", middle, t0, t0 + 10, sport=sport, dport=443),
                  flow(middle, "DB", t0 + 2, t0 + 8, sport=sport + 1000, dport=5432)]
    for i in range(lone):
        t0 = 100_000 + i * 1000
        flows += [flow("USER", middle, t0, t0 + 1, sport=sport, dport=443),
                  flow(middle, "DB", t0 + 500, t0 + 501, sport=sport + 1000, dport=5432)]
    return flows


def test_distinct_middles_yield_one_record_per_pair(tmp_path):
    # the pair's witnesses are the initiating flows through both middles
    flows = through("WEB", 51000, 10) + through("WEB2", 51001, 10)
    td, _ = enumerate_td(FlowColumns(flows), ocfg())
    assert td == [DependencyRecord(DepKind.TD, "USER", "DB", 20)]
    path = tmp_path / "ground_truth.csv"
    _write_dependencies(path, enumerate_all(FlowColumns(flows), ocfg()))
    assert [row for row in path.read_text().splitlines() if row.startswith("TD,")] == \
        ["TD,USER,DB,20"]


def test_paths_below_the_threshold_reach_it_together():
    # six witnesses through each middle: neither path reaches ten, the pair does
    flows = through("WEB", 51000, 6, lone=4) + through("WEB2", 51001, 6, lone=4)
    cfg = ocfg()
    td, _ = enumerate_td(FlowColumns(flows), cfg)
    assert td == [DependencyRecord(DepKind.TD, "USER", "DB", 12)]
    assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
        refimpl.reference_dependencies(flows, cfg)


def test_one_flow_around_two_second_middles_is_one_td3_witness():
    # each A -> B flow contains a B -> C1 -> D and a B -> C2 -> D chain
    flows = []
    for i in range(10):
        t0 = i * 1000
        flows.append(flow("A", "B", t0, t0 + 40))
        for second in ("C1", "C2"):
            flows += [flow("B", second, t0 + 5, t0 + 35), flow(second, "D", t0 + 10, t0 + 20)]
    cfg = ocfg()
    td, td3 = enumerate_td(FlowColumns(flows), cfg)
    assert td3 == [DependencyRecord(DepKind.TD3, "A", "D", 10)]
    # the B -> C1 and B -> C2 flows are distinct initiating flows of (B, D)
    assert DependencyRecord(DepKind.TD, "B", "D", 20) in td
    assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
        refimpl.reference_dependencies(flows, cfg)


def test_td3_nested_containment():
    flows = []
    for i in range(10):
        t0 = i * 1000
        flows += [flow("A", "B", t0, t0 + 30, sport=1, dport=2),
                  flow("B", "C", t0 + 5, t0 + 25, sport=3, dport=4),
                  flow("C", "D", t0 + 10, t0 + 20, sport=5, dport=6)]
    cfg = ocfg()
    _, td3 = enumerate_td(FlowColumns(flows), cfg)
    assert td3 == [DependencyRecord(DepKind.TD3, "A", "D", 10)]
    assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
        refimpl.reference_dependencies(flows, cfg)


# --- properties ------------------------------------------------------------------

def test_order_independence(rng):
    flows = lr_fixture()
    for i in range(10):
        flows += rr_session("U", "DNS", "WEB", i * 5000)
    cfg = ocfg(epsilon=500)
    baseline = refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg))
    for _ in range(5):
        shuffled = flows[:]
        rng.shuffle(shuffled)
        assert refimpl.records_as_tuples(enumerate_all(FlowColumns(shuffled), cfg)) == baseline


def random_fixture(r: random.Random, n_flows: int):
    """Small address/port pools plus planted bursts so every kind can occur."""
    addrs = [f"192.0.2.{i}" for i in range(1, r.randint(5, 9))]
    ports = [53, 80, 443, 5000]
    flows = []
    while len(flows) < n_flows:
        shape = r.random()
        t0 = r.randrange(0, 4000)
        if shape < 0.3:
            a, b = r.sample(addrs, 2)
            sport, dport = r.choice(ports), r.choice(ports)
            for _ in range(r.randint(2, 6)):
                start = r.randrange(0, 4000)
                flows.append(flow(a, b, start, start + r.randrange(1, 300),
                                  sport=sport, dport=dport))
        elif shape < 0.55:
            picks = r.sample(addrs, 3)
            flows += rr_session(picks[0], picks[1], picks[2], t0,
                                eps_gap=r.randrange(1, 600), sport=r.choice([50000, 50010]))
        elif shape < 0.8:
            a, b, c = r.sample(addrs, 3)
            flows += [flow(a, b, t0, t0 + 40, sport=r.choice(ports), dport=r.choice(ports)),
                      flow(b, c, t0 + 5, t0 + 30, sport=r.choice(ports), dport=r.choice(ports))]
        else:
            a, b = r.sample(addrs, 2)
            flows.append(flow(a, b, t0, t0 + r.randrange(1, 500),
                              sport=r.choice(ports), dport=r.choice(ports)))
    return flows[:n_flows]


def test_matches_reference_on_random_fixtures():
    for seed in range(10):
        r = random.Random(seed)
        flows = random_fixture(r, r.randint(40, 120))
        cfg = ocfg(n_t_dd=r.randint(2, 5), n_t_rr=r.randint(2, 5),
                   epsilon=r.choice([200, 400, 800]))
        assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
            refimpl.reference_dependencies(flows, cfg), f"seed {seed}"


# Hop paths of a chain: a second middle (B2), a second middle of the second
# hop (C2), a second head (E), and a tail that revisits the head, so several
# middle paths per pair and the no-revisit rule occur.
CHAIN_PATHS = (("A", "B", "C", "D"), ("A", "B2", "C", "D"), ("A", "B", "C2", "D"),
               ("E", "B", "C", "D"), ("A", "B", "C", "A"), ("B", "C", "D", "E"))


@st.composite
def nested_flows(draw):
    """Chains of flows, each hop placed on, just inside or just outside the
    bounds of the flow it hangs from: equal starts, equal ends, zero-length
    flows, several middles under one outer flow, and middles of which only
    some hold a third-hop flow."""
    flows = []

    def grow(path, hop, start, end):
        flows.append(flow(path[hop], path[hop + 1], start, end))
        if hop + 2 >= len(path):
            return
        # an inner hop may go on along any path that shares the hops so far
        onward = [p for p in CHAIN_PATHS if p[:hop + 2] == path[:hop + 2]]
        for _ in range(draw(st.integers(0, 3))):
            inner_start = start + draw(st.integers(-1, 2))
            inner_end = max(inner_start, end + draw(st.integers(-2, 1)))
            grow(draw(st.sampled_from(onward)), hop + 1, inner_start, inner_end)

    for _ in range(draw(st.integers(1, 6))):
        path = draw(st.sampled_from(CHAIN_PATHS))
        start = draw(st.integers(0, 40))
        grow(path, draw(st.integers(0, 1)), start, start + draw(st.integers(0, 6)))
    return flows


def _transitive(rows):
    return [row for row in rows if row[0] in ("TD", "TD3")]


@settings(max_examples=300, deadline=None)
@given(nested_flows(), st.integers(1, 3))
# one (A,B) flow around chains through two second middles is one TD3 witness
@example([flow("A", "B", 0, 9), flow("B", "C", 1, 8), flow("C", "D", 2, 7),
          flow("B", "C2", 1, 8), flow("C2", "D", 2, 7)], 1)
def test_td_and_td3_equal_the_exhaustive_reference(flows, n_t_dd):
    cfg = ocfg(n_t_dd=n_t_dd)
    assert _transitive(refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg))) == \
        _transitive(refimpl.reference_dependencies(flows, cfg))


# Hosts of the int64-edge chains: IPv4 and IPv6, few enough that chains share
# servers, targets and reversed 4-tuples.
EDGE_HOSTS = ("192.0.2.1", "192.0.2.2", "2001:db8::1", "2001:db8::2")
EDGE_PORTS = st.sampled_from([53, 443, 50000])
LAST = 2**63 - 2  # the latest timestamp parsing accepts
EPSILONS = st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1))


@st.composite
def edge_cases(draw):
    """(flows, config): at most ten flows of answered-hop chains whose
    requests and replies start and end at ``STAMPS``, each reply starting
    exactly at its request's start or later, each follow-up starting exactly
    at the reply's end or epsilon after it (the latest timestamp when that
    would pass it), plus duplicates and stray flows, over all three protocols."""
    eps = draw(EPSILONS)
    hosts = st.sampled_from(EDGE_HOSTS)
    protos = st.sampled_from(list(Proto))
    flows = []

    def at_or_after(start):
        return start if draw(st.booleans()) else max(start, draw(STAMPS))

    for _ in range(draw(st.integers(1, 3))):
        piece = draw(st.sampled_from(["chain", "duplicate", "stray"]))
        if piece == "duplicate" and flows:
            flows.append(draw(st.sampled_from(flows)))
        elif piece == "stray":
            src, dst = draw(st.lists(hosts, min_size=2, max_size=2, unique=True))
            start = draw(STAMPS)
            flows.append(flow(src, dst, start, at_or_after(start), draw(EDGE_PORTS),
                              draw(EDGE_PORTS), draw(protos)))
        else:
            subject = draw(hosts)
            start = draw(STAMPS)
            for _hop in range(draw(st.integers(1, 3))):
                server = draw(hosts.filter(lambda h: h != subject))
                sport, dport = draw(EDGE_PORTS), draw(EDGE_PORTS)
                flows.append(flow(subject, server, start, at_or_after(start), sport, dport,
                                  draw(protos)))
                reply_start = at_or_after(start)
                reply_end = at_or_after(reply_start)
                flows.append(flow(server, subject, reply_start, reply_end, dport, sport,
                                  draw(protos)))
                start = draw(st.sampled_from([reply_end, min(reply_end + eps, LAST)]))
            flows.append(flow(subject, draw(hosts.filter(lambda h: h != subject)), start,
                              at_or_after(start), draw(EDGE_PORTS), draw(EDGE_PORTS), draw(protos)))
    return flows[:10], ocfg(n_t_dd=draw(st.integers(1, 2)), n_t_rr=draw(st.integers(1, 2)),
                            epsilon=eps)


def _hop(request, reply, follow_up, eps):
    """One answered hop and a follow-up to a third host, as flows and config."""
    (start, end), (reply_start, reply_end), (follow_start, follow_end) = request, reply, follow_up
    return ([flow("192.0.2.1", "2001:db8::1", start, end, 50000, 53),
             flow("2001:db8::1", "192.0.2.1", reply_start, reply_end, 53, 50000),
             flow("192.0.2.1", "2001:db8::2", follow_start, follow_end, 50001, 443)],
            ocfg(n_t_dd=1, n_t_rr=1, epsilon=eps))


@settings(max_examples=400, deadline=None)
@given(edge_cases())
# a reply ending 2**64 - 2 before its request ends: a wrapped end difference is -2
@example(_hop((-2**63, LAST), (-2**63, -2**63), (-2**63, -2**63), 2**63 - 1))
# request, reply and follow-up windows that end past the int64 maximum
@example(_hop((0, 5), (0, LAST), (LAST, LAST), 2**63 - 1))
def test_answered_hops_at_the_int64_edges_equal_the_reference(case):
    flows, cfg = case
    assert refimpl.records_as_tuples(enumerate_all(FlowColumns(flows), cfg)) == \
        refimpl.reference_dependencies(flows, cfg)


# int64 keys and times with ties, and the int64 edges
INT64S = st.one_of(st.integers(-2, 2), st.sampled_from([-2**63, 2**63 - 1]),
                   st.integers(-2**63, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(INT64S, max_size=30))
def test_dense_equals_the_reference(values):
    ids = np.array(values, np.int64)
    distinct = _dense(ids)
    assert (distinct.tolist(), ids.tolist()) == refimpl.reference_dense(values)


@st.composite
def windows_cases(draw):
    """(key, time, rows, queries): a few rows over three keys, all of them
    or some indexed, and queries over those keys and two that no row has,
    with windows that may be empty or reversed."""
    n = draw(st.integers(0, 10))
    keys = st.sampled_from([-2**63, 0, 2**63 - 1])
    key = draw(st.lists(keys, min_size=n, max_size=n))
    time = draw(st.lists(INT64S, min_size=n, max_size=n))
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True).map(sorted)
                if n else st.none())
    queries = draw(st.lists(st.tuples(keys | st.sampled_from([-1, 5]), INT64S, INT64S),
                            max_size=8))
    return key, time, rows, queries


@settings(max_examples=400, deadline=None)
@given(windows_cases())
def test_windows_find_equals_a_scan(case):
    key, time, rows, queries = case
    index = _Windows(np.array(key, np.int64), np.array(time, np.int64),
                     None if rows is None else np.array(rows, np.int64))
    query = np.array(queries, np.int64).reshape(-1, 3)
    first, last = index.find(query[:, 0], query[:, 1], query[:, 2])
    order = index.order.tolist()
    assert (order, [order[a:b] for a, b in zip(first.tolist(), last.tolist())]) == \
        refimpl.reference_windows(key, time, rows, queries)


def test_enumerate_all_holds_at_most_seven_int64_values_per_flow():
    """The scale benchmark scenario of master seed 1 over a quarter of its
    duration: 24,000 flows.  Beyond its input columns, ``enumerate_all``'s
    tracemalloc peak stays within 56 bytes, seven int64 values, per flow; a
    reply search over a table of the 2n forward and reversed pair keys
    peaked at 101."""
    scenario = ScenarioConfig(n_clients=200, n_web=10, n_db=4, n_dns=2, session_rate=4.0,
                              duration=1250, noise_flows=4000, epsilon_ms=1000,
                              rng_seed=derive_seed(1, "synth"))
    cols = FlowColumns(generate(scenario)[0])
    tracemalloc.start()
    try:
        enumerate_all(cols, ocfg())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cols) == 24000
    assert peak <= 56 * len(cols)


def test_rr3_expansion_peak_memory_stays_bounded():
    """The acceptance scenario of master seed 1 at epsilon 30000 has about
    662k raw RR3 witness triples, 17.6k of them distinct.  Expanded and
    deduplicated in chunks, the tracemalloc peak of ``enumerate_all`` stays
    within twice the 3.2 MB that the per-flow list indexes peaked at; one
    unchunked expansion peaked at 67.5 MB."""
    scenario = ScenarioConfig(n_clients=40, n_web=3, n_db=2, n_dns=1, session_rate=1.0,
                              duration=800, noise_flows=640, epsilon_ms=1000,
                              rng_seed=derive_seed(1, "synth"))
    flows = generate(scenario)[0]
    tracemalloc.start()
    try:
        records = enumerate_all(FlowColumns(flows), ocfg(epsilon=30000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.kind is DepKind.RR3 for r in records) == 1215
    assert peak < 2 * 3.2e6


def test_ground_truth_csv_round_trip(tmp_path):
    records = enumerate_all(FlowColumns(lr_fixture()), ocfg())
    path = tmp_path / "gt.csv"
    _write_dependencies(path, records)
    loaded = _read_rows(path, kind=DepKind, src=str, dst=str, witness_count=int)
    assert loaded == [(r.kind, r.src, r.dst, r.witness_count) for r in records]


def test_a_quoted_cell_keeps_its_line_break(tmp_path):
    # the csv module reads a quoted CRLF as written only when newline
    # translation is off
    path = tmp_path / "rows.csv"
    path.write_bytes(b'a,b\r\n"x\r\ny",z\r\n')
    assert _read_rows(path, a=str, b=str) == [("x\r\ny", "z")]
