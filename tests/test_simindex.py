import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refimpl
from conftest import flow, graph_from
from depwalk.simindex import INDICES, baseline_report, index_scores, kendall_tau, spearman

# a -> v, b -> v, v -> y, v -> z
DIAMOND = [flow("a", "v", 0, 1), flow("b", "v", 0, 1),
           flow("v", "y", 0, 1), flow("v", "z", 0, 1)]


def scores(g, x, y) -> dict[str, float]:
    return dict(zip(INDICES, index_scores(g, x, y)))


def test_common_neighbors():
    g = graph_from(DIAMOND)
    assert scores(g, "a", "y")["CN"] == 1.0


def test_resource_allocation():
    g = graph_from(DIAMOND)
    assert scores(g, "a", "y")["RA"] == pytest.approx(0.5)


def test_preferential_attachment():
    g = graph_from(DIAMOND)
    assert scores(g, "a", "y")["PA"] == 1.0


def test_adamic_adar_natural_log():
    g = graph_from(DIAMOND)
    assert scores(g, "a", "y")["AA"] == pytest.approx(1.0 / math.log(2))


def test_adamic_adar_skips_single_successor_intermediates():
    flows = [flow("a", "v", 0, 1), flow("v", "y", 0, 1)]  # |successors(v)| == 1
    g = graph_from(flows)
    assert scores(g, "a", "y")["AA"] == 0.0
    assert scores(g, "a", "y")["CN"] == 1.0


def test_empty_neighborhoods_scored_zero():
    g = graph_from(DIAMOND)
    assert index_scores(g, "y", "a") == (0.0, 0.0, 0.0, 0.0)


def test_scores_are_floats_where_nothing_is_summed():
    # (a, z): no common intermediate; (a, y): the only one, v, has out-degree 1
    g = graph_from([flow("a", "v", 0, 1), flow("v", "y", 0, 1), flow("a", "z", 0, 1)])
    for pair in (("a", "z"), ("a", "y")):
        assert [type(s) for s in index_scores(g, *pair)] == [float] * 4, pair


def test_index_bounds_on_random_graphs(rng):
    addrs = [f"10.0.0.{i}" for i in range(1, 9)]
    flows = [flow(*rng.sample(addrs, 2), 0, 1) for _ in range(60)]
    g = graph_from(flows)
    for _ in range(50):
        x, y = rng.sample(addrs, 2)
        pair = scores(g, x, y)
        assert pair["CN"] <= min(g.out_degree(x), len(g.in_neighbors(y)))
        assert pair["RA"] <= pair["CN"]
        assert min(pair.values()) >= 0.0


def test_extra_out_edge_never_decreases_cn():
    g = graph_from(DIAMOND)
    before = scores(g, "a", "y")["CN"]
    g2 = graph_from(DIAMOND + [flow("a", "w", 0, 1), flow("w", "y", 0, 1)])
    assert scores(g2, "a", "y")["CN"] >= before


ADDRS = "abcdefghij"
# intermediates c, d, e of out-degrees 2, 2, 6: both sums round
# differently when taken in reverse order
ORDER_SENSITIVE = [("a", "c"), ("a", "d"), ("a", "e"), ("c", "b"), ("d", "b"), ("c", "f"),
                   ("d", "f"), *(("e", z) for z in "bfghij")]


@settings(max_examples=300, deadline=None)
@example(ORDER_SENSITIVE, "a", "b", False)
@example(ORDER_SENSITIVE, "a", "b", True)
@given(st.lists(st.tuples(st.sampled_from(ADDRS), st.sampled_from(ADDRS)).filter(lambda e: e[0] != e[1]),
                max_size=60),
       st.sampled_from(ADDRS), st.sampled_from(ADDRS), st.booleans())
def test_index_scores_match_the_edge_list_reference_exactly(edges, x, y, lone):
    # repeated edges make a multigraph; with ``lone`` the path x -> v -> y
    # adds a common intermediate v of out-degree 1
    if lone:
        edges = edges + [(x, "v"), ("v", y)]
    g = graph_from([flow(src, dst, 0, 1) for src, dst in edges], vertices=ADDRS + "v")
    assert index_scores(g, x, y) == refimpl.reference_index_scores(edges, x, y)


# --- rank correlations -----------------------------------------------------------

def test_spearman_extremes():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, xs) == 1.0
    assert spearman(xs, list(reversed(xs))) == -1.0


def test_spearman_tied_example_matches_reference():
    xs = [1, 2, 2, 4]
    ys = [1, 3, 2, 4]
    assert spearman(xs, ys) == refimpl.spearman_reference(xs, ys)


def test_spearman_undefined_on_constant_input():
    assert spearman([1, 1, 1], [1, 2, 3]) is None
    assert spearman([1, 2, 3], [7, 7, 7]) is None


def test_kendall_extremes():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert kendall_tau(xs, xs) == 1.0
    assert kendall_tau(xs, list(reversed(xs))) == -1.0


def test_kendall_undefined_on_all_ties():
    assert kendall_tau([5, 5, 5], [1, 2, 3]) is None


def test_rank_correlations_match_references_exactly(rng):
    for _ in range(30):
        n = rng.randint(5, 50)
        xs = [rng.choice([0.0, 0.5, 1.0, 2.5, 7.0, rng.random()]) for _ in range(n)]
        ys = [rng.choice([0.0, 0.5, 1.0, 2.5, 7.0, rng.random()]) for _ in range(n)]
        assert spearman(xs, ys) == refimpl.spearman_reference(xs, ys)
        assert kendall_tau(xs, ys) == refimpl.kendall_reference(xs, ys)


def test_symmetry_and_monotone_invariance(rng):
    xs = [rng.random() for _ in range(30)]
    ys = [rng.random() for _ in range(30)]
    assert spearman(xs, ys) == spearman(ys, xs)
    assert kendall_tau(xs, ys) == kendall_tau(ys, xs)
    stretched = [3.0 * x + 1.0 for x in xs]
    assert spearman(stretched, ys) == spearman(xs, ys)
    assert kendall_tau(stretched, ys) == kendall_tau(xs, ys)


def test_input_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        kendall_tau([1.0, 2.0], [1.0])


def test_baseline_report_shape():
    g = graph_from(DIAMOND)
    scored = [("a", "y", 0.8), ("b", "y", 0.6), ("a", "z", 0.3), ("b", "z", 0.1)]
    rows, correlations = baseline_report(g, scored)
    assert INDICES == ("AA", "CN", "PA", "RA")
    assert rows[0] == ("a", "y", *index_scores(g, "a", "y"), 0.8)
    assert [row[:2] + row[-1:] for row in rows] == scored
    assert set(correlations) == set(INDICES)
    for stats in correlations.values():
        assert set(stats) == {"spearman", "kendall"}
