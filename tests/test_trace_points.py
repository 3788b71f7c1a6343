"""The benchmark's traced run (perfbench/tracing.py) patches module
attributes by name; this checks that a refactor keeps every patch point
alive, so each stage still shows up as exactly one span."""

import importlib
from collections import Counter
from pathlib import Path

from depwalk.cli import main
from test_cli import write_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_pipeline_has_one_span_per_stage_and_restores_modules(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = [(module, attr, getattr(importlib.import_module(module), attr))
                 for module, attr, *_ in tracing.TARGETS]
    cfg_path = write_config(tmp_path)

    with tracing.Tracer() as tracer:
        status = main(["-c", str(cfg_path), "-w", str(tmp_path / "out"), "pipeline", "--synth"])

    assert status == 0
    counts = Counter(span["name"] for span in tracer.spans)
    assert {s: counts[f"stage.{s}"] for s in tracing.STAGES} == {s: 1 for s in tracing.STAGES}
    assert counts["flows.parse_flows"] == 3
    for module, attr, fn in originals:
        assert getattr(importlib.import_module(module), attr) is fn, f"{module}.{attr}"
