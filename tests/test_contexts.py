import pytest

from depwalk.contexts import split_walk
from depwalk.walks import RandomWalk, WalkLabel


def walk_of(*vertices):
    return RandomWalk(tuple(vertices), (), WalkLabel.POSITIVE, ())


def test_documented_chain_example():
    assert split_walk(walk_of("11", "12", "13", "16"), 3) == \
        [("11", "12"), ("11", "13"), ("12", "13"), ("12", "16")]


def test_short_walk_yields_single_truncated_window():
    assert split_walk(walk_of("A", "B"), 4) == [("A", "B")]


def test_head_equals_member_skipped():
    assert split_walk(walk_of("A", "B", "A"), 3) == [("A", "B")]


def test_pair_count_formula_without_repeats():
    walk = walk_of(*"ABCDEFG")
    for size in (2, 3, 4, 5):
        expected = (len(walk.vertices) - size + 1) * (size - 1)
        assert len(split_walk(walk, size)) == expected


def test_one_sidedness():
    walk = walk_of(*"ABCDE")
    order = {v: i for i, v in enumerate(walk.vertices)}
    for head, member in split_walk(walk, 3):
        assert order[head] < order[member]


def test_duplicates_are_retained():
    pairs = split_walk(walk_of("A", "B", "A", "B"), 2)
    assert pairs == [("A", "B"), ("B", "A"), ("A", "B")]


def test_invalid_inputs():
    with pytest.raises(ValueError):
        split_walk(walk_of("A", "B", "C"), 1)
    with pytest.raises(ValueError):
        split_walk(walk_of("A"), 3)
