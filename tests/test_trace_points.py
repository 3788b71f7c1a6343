"""The benchmark's traced run (perfbench/tracing.py) patches module
attributes by name; this checks that a refactor keeps every patch point
alive, so each stage still shows up as exactly one span and every forest
fit and scored row is still counted."""

import importlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from depwalk.cli import main
from depwalk.config import load_config
from depwalk.evaluation import split
from test_cli import write_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One ``pipeline --synth`` run of the small scenario under the tracer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
    originals = [(module, attr, getattr(importlib.import_module(module), attr))
                 for module, attr, *_ in tracing.TARGETS]
    tmp_path = tmp_path_factory.mktemp("traced")
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    with tracing.Tracer() as tracer:
        status = main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"])
    return SimpleNamespace(tracing=tracing, tracer=tracer, status=status, originals=originals,
                           cfg=load_config(cfg_path), workdir=workdir)


def _data_rows(path) -> int:
    return len(path.read_text().splitlines()) - 1  # minus the header


def test_traced_pipeline_has_one_span_per_stage_and_restores_modules(traced_run):
    assert traced_run.status == 0
    counts = Counter(span["name"] for span in traced_run.tracer.spans)
    stages = traced_run.tracing.STAGES
    assert {s: counts[f"stage.{s}"] for s in stages} == {s: 1 for s in stages}
    # ingest parses its input; sample and oracle take the records ingest
    # handed on, walks the graph and simindex the neighbour sets sample
    # handed on, and embed the vertex manifest and walks walks handed on:
    # no stage reads the graph or the walks back
    assert counts["flows.parse_flows"] == 1
    assert counts["graph.read_graph_jsonl"] == 0
    assert counts["walks.read_walks_jsonl"] == 0
    for module, attr, fn in traced_run.originals:
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"


def test_every_forest_fit_is_one_train_forest_span(traced_run):
    # train fits once; eval fits once per split and fraction, plus the
    # dedicated AUC/AP split
    spans = traced_run.tracer.spans
    fits = [span for span in spans if span["name"] == "forest.train_forest"]
    settings = traced_run.cfg.evaluation
    assert len(fits) == 1 + settings.n_splits * len(settings.fractions) + 1
    assert all(spans[fit["parent"]]["name"] != "forest.train_forest" for fit in fits)


def test_every_scored_row_is_one_predict_proba_call(traced_run):
    n_labels = _data_rows(traced_run.workdir / "labels.csv")
    settings = traced_run.cfg.evaluation
    eval_rows = sum(settings.n_splits * len(split(range(n_labels), fraction, 0)[1])
                    for fraction in settings.fractions)
    eval_rows += len(split(range(n_labels), 0.5, 0)[1])
    predict_rows = _data_rows(traced_run.workdir / "predictions.csv")
    calls = sum(entry[0] for (name, _), entry in traced_run.tracer.aggregates.items()
                if name == "forest.predict_proba")
    # simindex ranks predictions.csv and scores nothing itself
    assert calls == predict_rows + eval_rows


def test_only_predict_loads_the_model(traced_run):
    spans = traced_run.tracer.spans

    def loaders(name):
        return [spans[span["parent"]]["name"] for span in spans if span["name"] == name]

    assert loaders("embedding.load_embedding") == ["stage.train", "stage.predict", "stage.eval"]
    assert loaders("forest.load_forest") == ["stage.predict"]


def test_one_enumerate_td_span_counts_every_preprocessed_flow(traced_run):
    # oracle.td_s_per_kflow divides the TD time by this counter
    spans = traced_run.tracer.spans
    td = [span for span in spans if span["name"] == "oracle.enumerate_td"]
    assert len(td) == 1
    assert spans[td[0]["parent"]]["name"] == "oracle.enumerate_all"
    flows = len((traced_run.workdir / "flows.csv").read_text().splitlines())  # no header
    assert flows > 0 and td[0]["counters"] == {"flows": flows}
