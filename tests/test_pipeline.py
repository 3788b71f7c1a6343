"""Every CSV artifact the pipeline writes reads back as the rows written."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADDRESSES
from depwalk.oracle import DependencyRecord, DepKind
from depwalk.pipeline import _address, _label, _probability, _read_pairs, _read_rows, _write_rows
from depwalk.simindex import INDICES

# Two distinct addresses, IPv4 or IPv6, in the canonical text ingest writes.
PAIRS = st.lists(ADDRESSES, min_size=2, max_size=2, unique=True).map(tuple)
# Probabilities whose shortest text has many digits, or is subnormal.
PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, 0.1 + 0.2, 5e-324, 1 - 2**-53]),
                          st.floats(0.0, 1.0))
SCORES = st.one_of(st.sampled_from([0.0, 5e-324, 1 / 3]),
                   st.floats(0.0, allow_nan=False, allow_infinity=False))


def read_back(columns, rows, read):
    """What ``read`` gives for the file ``_write_rows`` made of ``rows``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        _write_rows(path, columns, rows)
        return read(path)


def vertices_of(rows) -> set[str]:
    return {address for row in rows for address in row[:2]}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DepKind), PAIRS, st.integers(1, 2**63 - 1))))
def test_ground_truth_reads_back_as_written(drawn):
    records = sorted(DependencyRecord(kind, src, dst, count) for kind, (src, dst), count in drawn)
    address = _address()
    assert read_back(DependencyRecord._fields, records,
                     lambda path: _read_rows(path, kind=DepKind, src=address, dst=address,
                                             witness_count=int)) == records


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PAIRS, st.booleans())))
def test_labels_read_back_as_written(drawn):
    rows = [(src, dst, label) for (src, dst), label in drawn]
    assert read_back(("src", "dst", "label"), [(src, dst, int(label)) for src, dst, label in rows],
                     lambda path: _read_pairs(vertices_of(rows), path, label=_label)) == rows


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PAIRS, PROBABILITIES)))
def test_predictions_read_back_as_written(drawn):
    rows = [(src, dst, p) for (src, dst), p in drawn]
    assert read_back(("src", "dst", "probability"), rows,
                     lambda path: _read_pairs(vertices_of(rows), path,
                                              probability=_probability)) == rows


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PAIRS, st.tuples(SCORES, SCORES, SCORES, SCORES), PROBABILITIES)))
def test_baseline_reads_back_as_written(drawn):
    rows = [(src, dst, *scores, p) for (src, dst), scores, p in drawn]
    columns = (*INDICES, "model_probability")
    assert read_back(("src", "dst", *columns), rows,
                     lambda path: _read_pairs(vertices_of(rows), path,
                                              **dict.fromkeys(columns, float))) == rows
