import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refimpl
from conftest import ADDRESSES, flow, graph_from, repeat_pair, written_flows
from depwalk import walks as walks_module
from depwalk.errors import ConfigError, NegativeWalkError
from depwalk.flows import FlowRecord, Proto
from depwalk.walks import (Condition, RandomWalk, WalkConfig, WalkLabel,
                           cond_lr_open, cond_lr_return, cond_rev_return,
                           cond_rr_open, generate_negative_walks, generate_walks,
                           read_walks_jsonl, write_walks_jsonl)


def wcfg(**kwargs):
    defaults = dict(walk_length=5, walks_per_vertex=10, epsilon=500, n_t=1, rng_seed=1)
    defaults.update(kwargs)
    return WalkConfig(**defaults)


def test_config_validation():
    with pytest.raises(ConfigError):
        WalkConfig(walk_length=2)
    with pytest.raises(ConfigError):
        WalkConfig(walks_per_vertex=0)
    with pytest.raises(ConfigError):
        WalkConfig(epsilon=-1)
    with pytest.raises(ConfigError):
        WalkConfig(n_t=0)


# --- condition predicates ---------------------------------------------------

def test_lr_open_cases():
    assert cond_lr_open(flow("a", "b", 0, 10), flow("b", "c", 2, 8))
    assert not cond_lr_open(flow("a", "b", 0, 5), flow("b", "c", 6, 7))
    # boundaries are inclusive
    assert cond_lr_open(flow("a", "b", 0, 10), flow("b", "c", 0, 10))


def test_lr_return_cases():
    # walk went U -> W -> D -> W over forward flows; stepping back to U rides
    # the W->U flow that contains the D->W flow recorded on the previous step
    prefix = ["U", "W", "D", "W"]
    e_prev = flow("D", "W", 3, 7)
    e_next = flow("W", "U", 1, 9)
    assert cond_lr_return(e_prev, e_next, prefix, "U")
    # without the earlier (U, W) traversal the times alone are not enough
    assert not cond_lr_return(e_prev, e_next, ["X", "W", "D", "W"], "U")
    # containment reversed
    assert not cond_lr_return(flow("D", "W", 1, 9), flow("W", "U", 3, 7), prefix, "U")


def test_lr_return_needs_strictly_earlier_pair():
    # the pair formed by the triplet itself does not count
    assert not cond_lr_return(flow("W", "D", 3, 7), flow("D", "U", 1, 9), ["U", "W", "D"], "U")


def test_rr_open_cases():
    assert cond_rr_open(flow("u", "s1", 4000, 5000), flow("u", "s2", 5300, 6000), 500)
    assert not cond_rr_open(flow("u", "s1", 4000, 5000), flow("u", "s2", 5600, 6000), 500)
    assert not cond_rr_open(flow("u", "s1", 4000, 5000), flow("u", "s2", 4900, 6000), 500)


def test_rev_return_cases():
    fwd = flow("a", "b", 0, 10, sport=50000, dport=443)
    assert cond_rev_return(fwd, flow("b", "a", 2, 10, sport=443, dport=50000), 500)
    assert not cond_rev_return(fwd, flow("b", "a", 2, 10, sport=50000, dport=443), 500)
    assert not cond_rev_return(fwd, flow("b", "a", 2, 810, sport=443, dport=50000), 500)


# --- walk generation ---------------------------------------------------------

def lr_chain_graph(n_copies=3):
    # U->W flows [0,10] contain W->D flows [2,8]
    flows = (repeat_pair("U", "W", n_copies, 0, 10)
             + repeat_pair("W", "D", n_copies, 2, 8))
    return graph_from(flows)


def test_chain_walk_records_lr_open():
    g = lr_chain_graph()
    walks = generate_walks(g, wcfg(walk_length=3, n_t=3))
    from_u = [w for w in walks if w.vertices[0] == "U"]
    assert from_u and all(w.vertices == ("U", "W", "D") for w in from_u)
    assert all(Condition.LR_OPEN in w.condition_trace[0] for w in from_u)


def test_star_walk_records_rr_open():
    # four flows: U->S1 with its reply, then U->S2 shortly after; the walk
    # [U, S1, S2] must ride the (U, S2) edge under the follow-up condition
    flows = [
        flow("U", "S1", 4000, 5000, sport=50000, dport=443),
        flow("S1", "U", 4002, 5000, sport=443, dport=50000),
        flow("U", "S2", 5200, 6000, sport=50001, dport=80),
        flow("S2", "U", 5210, 6000, sport=80, dport=50001),
    ]
    g = graph_from(flows)
    walks = generate_walks(g, wcfg(walk_length=3, epsilon=500))
    seqs = {w.vertices for w in walks}
    assert ("U", "S1", "S2") in seqs
    for w in walks:
        if w.vertices == ("U", "S1", "S2"):
            assert Condition.RR_OPEN in w.condition_trace[0]
            # the recorded edge originates two steps back
            assert (w.step_edges[1].src_ip, w.step_edges[1].dst_ip) == ("U", "S2")
    for w in walks:
        assert not refimpl.check_positive_walk(g, w, wcfg(walk_length=3, epsilon=500))


def test_lr_return_emerges_in_walks():
    # U->W [0,20] contains W->D [3,7]; D->W [4,7] returns inside it; W->U [1,9]
    # closes the loop and the walk already holds (U, W)
    flows = [
        flow("U", "W", 0, 20, sport=1, dport=2),
        flow("W", "D", 3, 7, sport=3, dport=4),
        flow("D", "W", 4, 7, sport=4, dport=3),
        flow("W", "U", 1, 9, sport=2, dport=1),
    ]
    g = graph_from(flows)
    config = wcfg(walk_length=5, walks_per_vertex=50)
    walks = generate_walks(g, config)
    hits = [w for w in walks
            if w.vertices[:5] == ("U", "W", "D", "W", "U")
            and Condition.LR_RETURN in w.condition_trace[2]]
    assert hits
    for w in walks:
        assert not refimpl.check_positive_walk(g, w, config)


def test_isolated_vertex_gets_no_walks():
    g = graph_from(repeat_pair("A", "B", 2, 0, 1) + repeat_pair("B", "A", 2, 0, 1),
                   vertices={"A", "B", "Z"})
    walks = generate_walks(g, wcfg(walk_length=3))
    assert all(w.vertices[0] != "Z" for w in walks)


def test_walk_count_invariant():
    # every vertex keeps an outgoing edge, so nothing terminates short
    flows = (repeat_pair("A", "B", 2, 0, 1) + repeat_pair("B", "C", 2, 0, 1)
             + repeat_pair("C", "A", 2, 0, 1))
    g = graph_from(flows)
    config = wcfg(walk_length=4, walks_per_vertex=7)
    walks = generate_walks(g, config)
    starters = [v for v in g.vertices if g.out_degree(v) > 0]
    assert len(walks) == config.walks_per_vertex * len(starters)


def test_walks_are_deterministic():
    g = sparse_graph(n=30, rng_seed=8)  # branching graph, seed-sensitive
    a = generate_walks(g, wcfg(rng_seed=5))
    b = generate_walks(g, wcfg(rng_seed=5))
    c = generate_walks(g, wcfg(rng_seed=6))
    assert a == b
    assert a != c


def test_candidate_uniformity():
    # exactly three candidates satisfy containment at the second step
    flows = repeat_pair("U", "W", 1, 0, 100)
    for name in ("D1", "D2", "D3"):
        flows += repeat_pair("W", name, 1, 10, 20)
    g = graph_from(flows)
    trials = 10000
    walks = generate_walks(g, wcfg(walk_length=3, walks_per_vertex=trials))
    picks = Counter(w.vertices[2] for w in walks if w.vertices[0] == "U")
    assert sum(picks.values()) == trials
    p = 1 / 3
    bound = 4 * math.sqrt(p * (1 - p) / trials)
    for name in ("D1", "D2", "D3"):
        assert abs(picks[name] / trials - p) <= bound


def test_threshold_fallback_recorded():
    # no condition can hold (disjoint, far-apart intervals) but n_t is met
    flows = repeat_pair("A", "B", 3, 0, 10) + repeat_pair("B", "C", 3, 5000, 5010)
    g = graph_from(flows)
    walks = generate_walks(g, wcfg(walk_length=3, n_t=3, epsilon=10))
    from_a = [w for w in walks if w.vertices[0] == "A"]
    assert from_a
    for w in from_a:
        assert w.condition_trace[0] == frozenset({Condition.FALLBACK_THRESHOLD})
        assert not refimpl.check_positive_walk(g, w, wcfg(walk_length=3, n_t=3, epsilon=10))


def test_any_fallback_recorded():
    flows = repeat_pair("A", "B", 3, 0, 10) + [flow("B", "C", 5000, 5010)]
    g = graph_from(flows)
    walks = generate_walks(g, wcfg(walk_length=3, n_t=3, epsilon=10))
    from_a = [w for w in walks if w.vertices[0] == "A"]
    assert from_a
    for w in from_a:
        assert w.condition_trace[0] == frozenset({Condition.FALLBACK_ANY})


def test_soundness_on_a_messy_graph(rng):
    # random multigraph with clustered timestamps and port reuse
    addrs = [f"10.0.0.{i}" for i in range(1, 8)]
    flows = []
    for _ in range(300):
        a, b = rng.sample(addrs, 2)
        t = rng.randrange(0, 2000)
        flows.append(flow(a, b, t, t + rng.randrange(1, 120),
                          sport=rng.choice([50000, 50001, 443]),
                          dport=rng.choice([443, 53, 50000])))
    g = graph_from(flows)
    config = wcfg(walk_length=5, walks_per_vertex=20, n_t=3, epsilon=100, rng_seed=77)
    walks = generate_walks(g, config)
    assert walks
    for w in walks:
        assert refimpl.check_positive_walk(g, w, config) == []


# --- the candidate scan against its reference --------------------------------

NAMES = ("A", "B", "C", "D")


@st.composite
def flow_records(draw, src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES)):
    """A record built directly: few distinct times and ports, so starts tie
    and records repeat; zero-length, self-loop and ``t_end < t_start``
    records included."""
    t_start = draw(st.integers(0, 12))
    return FlowRecord(draw(src), draw(dst), draw(st.sampled_from((1, 2))),
                      draw(st.sampled_from((1, 2))), Proto.TCP,
                      t_start, t_start + draw(st.integers(-3, 8)))


@st.composite
def candidate_problems(draw):
    flows = draw(st.lists(flow_records(), min_size=1, max_size=40))
    flows += draw(st.lists(st.sampled_from(flows), max_size=10))  # duplicates
    g = graph_from(flows, vertices=NAMES)
    cfg = WalkConfig(epsilon=draw(st.sampled_from((0, 1, 3, 10))), n_t=draw(st.integers(1, 3)))
    prefix = draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=6))
    if draw(st.booleans()):  # ..., w, current, x, current: LR_RETURN may step back to w
        prefix += [draw(st.sampled_from(NAMES)), prefix[-1]]
    if draw(st.booleans()):
        e_prev = draw(st.sampled_from(flows))
    else:
        e_prev = draw(flow_records(dst=st.just(prefix[-1])))
    return g, cfg, prefix, e_prev


@settings(max_examples=400, deadline=None)
@given(candidate_problems())
def test_candidate_scan_equals_the_reference(problem):
    # dict equality compares each candidate's condition set and the order of
    # its instance list, which fixes the instance a walk draws
    g, cfg, prefix, e_prev = problem
    index = walks_module._qualified_pairs(g, cfg.n_t)
    assert walks_module._condition_candidates(index, cfg, prefix, e_prev) == \
        refimpl.candidate_map(g, cfg, prefix, e_prev)


def test_rescanned_pair_lists_each_instance_once():
    # a previous flow that leaves the current vertex makes the RR scan visit
    # the pairs the LR scan visited; both zero-length flows at its end meet
    # LR_OPEN and RR_OPEN, and each is listed once, in sorted order
    twins = [flow("A", "C", 10, 10, sport=1), flow("A", "C", 10, 10, sport=2)]
    g = graph_from(twins, vertices=NAMES)
    e_prev = FlowRecord("A", "A", 1, 1, Proto.TCP, 0, 10)
    cfg = wcfg(epsilon=0)
    found = walks_module._condition_candidates(walks_module._qualified_pairs(g, cfg.n_t), cfg,
                                               ["B", "A"], e_prev)
    assert found == {"C": ({Condition.LR_OPEN, Condition.RR_OPEN}, twins)}
    assert found == refimpl.candidate_map(g, cfg, ["B", "A"], e_prev)


@pytest.mark.parametrize("epsilon", [0, 100])
def test_walks_are_unchanged_under_the_reference_candidate_map(rng, epsilon):
    addrs = [f"10.0.0.{i}" for i in range(1, 7)]
    flows = []
    for _ in range(400):
        a, b = rng.sample(addrs, 2)
        t = rng.randrange(0, 1500)
        flows.append(flow(a, b, t, t + rng.randrange(0, 150),
                          sport=rng.choice([50000, 443]), dport=rng.choice([443, 50000])))
    g = graph_from(flows)
    config = wcfg(walk_length=6, walks_per_vertex=30, n_t=2, epsilon=epsilon, rng_seed=3)
    kernel = generate_walks(g, config)

    def reference(index, cfg, prefix, e_prev):
        return refimpl.candidate_map(g, cfg, prefix, e_prev)

    with mock.patch.object(walks_module, "_condition_candidates", reference):
        assert generate_walks(g, config) == kernel
    assert any(not conds & {Condition.FALLBACK_ANY, Condition.FALLBACK_THRESHOLD}
               for w in kernel for conds in w.condition_trace)


# --- negative walks ----------------------------------------------------------

def sparse_graph(n=100, rng_seed=3):
    import random
    r = random.Random(rng_seed)
    addrs = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(n)]
    flows = []
    for _ in range(n * 2):
        a, b = r.sample(addrs, 2)
        flows.append(flow(a, b, 0, 1))
    return graph_from(flows, vertices=addrs)


def test_negative_walks_match_positives():
    g = sparse_graph()
    config = wcfg(walk_length=5, walks_per_vertex=2, rng_seed=21)
    positives = generate_walks(g, config)
    negatives = generate_negative_walks(g, positives, config)
    assert len(negatives) == len(positives)
    for pos, neg in zip(positives, negatives):
        assert len(neg.vertices) == len(pos.vertices)
        assert neg.label is WalkLabel.NEGATIVE
        assert any(not g.has_edge(a, b) for a, b in zip(neg.vertices, neg.vertices[1:]))
        assert all(a != b for a, b in zip(neg.vertices, neg.vertices[1:]))


def test_negative_walks_deterministic():
    g = sparse_graph()
    config = wcfg(walk_length=4, walks_per_vertex=1, rng_seed=13)
    positives = generate_walks(g, config)
    assert generate_negative_walks(g, positives, config) == \
        generate_negative_walks(g, positives, config)


def test_negative_walks_exhaust_on_complete_graph():
    flows = repeat_pair("A", "B", 2, 0, 1) + repeat_pair("B", "A", 2, 0, 1)
    g = graph_from(flows)
    positives = generate_walks(g, wcfg(walk_length=3))
    with pytest.raises(NegativeWalkError) as err:
        generate_negative_walks(g, positives, wcfg(walk_length=3))
    assert "300" in str(err.value)  # 100 * walk_length retry budget, by name


def test_negative_walks_empty_positives():
    g = sparse_graph()
    assert generate_negative_walks(g, [], wcfg()) == []


# --- serialization -----------------------------------------------------------

def test_walk_jsonl_round_trip(tmp_path):
    # the reader holds step edges to the address checks of parsing
    user, web, db = "10.0.0.1", "10.0.0.2", "10.0.0.3"
    g = graph_from(repeat_pair(user, web, 3, 0, 10) + repeat_pair(web, db, 3, 2, 8))
    config = wcfg(walk_length=3, n_t=3)
    walks = generate_walks(g, config)
    walks += generate_negative_walks(g, walks, config)
    path = tmp_path / "walks.jsonl"
    write_walks_jsonl(g.vertices, walks, path)
    assert read_walks_jsonl(path) == (list(g.vertices), walks)


@st.composite
def any_walks(draw) -> RandomWalk:
    """A walk as the encoder sees it: IPv4 and IPv6 vertices, step edges,
    a label and a set of conditions per step, whether or not they agree."""
    vertices = draw(st.lists(ADDRESSES, min_size=2, max_size=6, unique=True))
    return RandomWalk(tuple(vertices),
                      tuple(draw(st.lists(written_flows(st.sampled_from(vertices)), max_size=4))),
                      draw(st.sampled_from(WalkLabel)),
                      tuple(draw(st.lists(st.frozensets(st.sampled_from(Condition)), max_size=4))))


@settings(max_examples=100, deadline=None)
@given(st.lists(ADDRESSES, max_size=4), st.lists(any_walks(), max_size=5))
def test_walk_template_writes_the_bytes_of_the_sort_keyed_encoder(vertices, walks):
    with tempfile.TemporaryDirectory() as tmp:
        write_walks_jsonl(vertices, walks, Path(tmp) / "walks.jsonl")
        refimpl.reference_write_walks_jsonl(vertices, walks, Path(tmp) / "reference.jsonl")
        assert (Path(tmp) / "walks.jsonl").read_bytes() == (Path(tmp) / "reference.jsonl").read_bytes()
