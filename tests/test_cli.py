import hashlib
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml

from depwalk import config, oracle, pipeline
from depwalk.cli import main
from depwalk.config import PipelineConfig, load_config
from depwalk.errors import ConfigError
from depwalk.flows import CSV_COLUMNS, FlowColumns
from depwalk.graph import Neighbours, read_graph_jsonl
from depwalk.seeds import derive_seed
from depwalk.simindex import baseline_report

SMALL_SCENARIO = {
    "master_seed": 11,
    "sampler": {"n_internal": 20, "m_external": 4, "k_edges": 5000,
                "internal_prefixes": ["10.0.0.0/16"]},
    "walks": {"walk_length": 5, "walks_per_vertex": 8, "epsilon": 500, "n_t": 4},
    "context": {"size": 4},
    "embedding": {"dims": 12, "epochs": 3, "learning_rate": 0.3},
    "forest": {"n_trees": 20},
    "oracle": {"n_t_dd": 6, "n_t_rr": 6, "epsilon": 500},
    "evaluation": {"n_splits": 3},
    "synth": {"n_clients": 6, "n_web": 2, "n_db": 1, "n_dns": 1,
              "session_rate": 1.0, "duration": 60, "noise_flows": 30,
              "epsilon_ms": 500},
}


def write_config(tmp_path, doc=SMALL_SCENARIO) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_pipeline_produces_all_artifacts(tmp_path):
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    status = main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"])
    assert status == 0
    for name in ("synth_flows.csv", "flows.csv", "graph.jsonl", "walks.jsonl",
                 "embedding.bin", "embedding.json", "ground_truth.csv", "labels.csv",
                 "model.json", "predictions.csv", "eval_report.json",
                 "baseline.csv", "baseline_summary.json"):
        assert (workdir / name).exists(), name
    report = json.loads((workdir / "eval_report.json").read_text())
    assert 0.0 <= report["chance_level"] <= 1.0
    assert report["roc_auc"] is None or 0.0 <= report["roc_auc"] <= 1.0


def test_missing_input_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    status = main(["-c", str(cfg_path), "-w", str(tmp_path / "out"),
                   "ingest", "--flows", str(tmp_path / "nope.csv")])
    assert status == 2
    assert "nope.csv" in capsys.readouterr().err


def test_a_workdir_that_is_a_file_exits_1_naming_it(tmp_path, capsys):
    taken = tmp_path / "out"
    taken.write_text("")
    assert main(["-c", str(write_config(tmp_path)), "-w", str(taken), "synth"]) == 1
    assert capsys.readouterr().err == f"depwalk: synth failed: [Errno 17] File exists: '{taken}'\n"


@pytest.mark.parametrize("inputs", [[], ["--flows", "missing.csv", "--synth"]],
                         ids=["neither", "both"])
def test_pipeline_takes_exactly_one_input(tmp_path, capsys, inputs):
    cfg_path = write_config(tmp_path)
    with pytest.raises(SystemExit) as usage:
        main(["-c", str(cfg_path), "-w", str(tmp_path / "out"), "pipeline", *inputs])
    assert usage.value.code == 2
    assert "--flows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_config_exits_2_and_lists_problems(tmp_path, capsys):
    doc = dict(SMALL_SCENARIO)
    doc["walks"] = {"walk_length": 2, "epsilon": -5}
    doc["context"] = {"size": 9}
    path = write_config(tmp_path, doc)
    status = main(["-c", str(path), "pipeline", "--synth"])
    assert status == 2
    err = capsys.readouterr().err
    assert "walk_length" in err and "epsilon" in err


# (stage, its first input, the stage that produces that input)
PREREQUISITES = [
    ("sample", "flows.csv", "ingest"),
    ("walks", "graph.jsonl", "sample"),
    ("embed", "walks.jsonl", "walks"),
    ("oracle", "flows.csv", "ingest"),
    ("train", "ground_truth.csv", "oracle"),
    ("predict", "embedding.bin", "embed"),
    ("eval", "embedding.bin", "embed"),
    ("simindex", "graph.jsonl", "sample"),
]


def test_prerequisites_cover_every_stage_with_inputs():
    assert [s.name for s in pipeline.STAGES if s.inputs] == [p[0] for p in PREREQUISITES]


@pytest.mark.parametrize("stage,first_input,producer", PREREQUISITES,
                         ids=[p[0] for p in PREREQUISITES])
def test_stage_without_prerequisites_exits_2(tmp_path, capsys, stage, first_input, producer):
    cfg_path = write_config(tmp_path)
    status = main(["-c", str(cfg_path), "-w", str(tmp_path / "fresh"), stage])
    assert status == 2
    err = capsys.readouterr().err
    assert f"{first_input} not found (run {producer} first)" in err
    assert str(tmp_path / "fresh" / first_input) in err


def test_config_unknown_keys_rejected(tmp_path):
    doc = dict(SMALL_SCENARIO)
    doc["walks"] = {"walk_lenght": 5}
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert "walk_lenght" in str(err.value)


# Keys older versions accepted with one useful value each, now unknown.
REMOVED_KEYS = [("oracle", "max_chain_vertices", 4),
                ("sampler", "exclude_scanners", False),
                ("sampler", "scan_max_unanswered", 0.25),
                ("walks", "neg_retry_factor", 100),
                ("context", "include_trailing", False),
                ("evaluation", "threshold", 0.5),
                ("forest", "max_depth", 8),
                ("forest", "min_samples_leaf", 1),
                ("forest", "features_per_split", 8),
                ("forest", "bootstrap", True),
                ("evaluation", "unordered_pairs", False),
                ("ingest", "format", "jsonl"),
                ("synth", "latency_ms", [5, 50]),
                ("ingest", "split_mode", "same"),
                ("synth", "lr_web_db", True),
                ("synth", "rr_dns_web", True)]


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS,
                         ids=[f"{section}.{key}" for section, key, _ in REMOVED_KEYS])
def test_removed_key_rejected(tmp_path, section, key, value):
    doc = dict(SMALL_SCENARIO)
    doc[section] = {**SMALL_SCENARIO.get(section, {}), key: value}
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    assert f"{section}: unknown key {key!r}" in str(err.value)


def test_readme_lists_exactly_the_removed_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    intro = "keys that older versions accepted:\n\n"
    listing = readme[readme.index(intro) + len(intro):].split("\n\n")[0]
    # each bullet names its keys before the first colon
    heads = [bullet.split(":")[0] for bullet in listing.split("\n* ")]
    listed = {key for head in heads for key in re.findall(r"`(\w+\.\w+)`", head)}
    assert listed == {f"{section}.{key}" for section, key, _ in REMOVED_KEYS}


# A config document with one mistyped value, and the problem it reports: the
# key and the type it expects.  Then documents of the wrong shape, and no
# document: a config file that does not exist.
MISTYPED = [({"master_seed": "abc"}, "master_seed: expected int, got 'abc'"),
            ({"context": {"size": "4"}}, "context.size: expected int, got '4'"),
            ({"evaluation": {"n_splits": "3"}}, "evaluation.n_splits: expected int, got '3'"),
            ({"walks": {"walk_length": "5"}}, "walks.walk_length: expected int, got '5'"),
            ({"sampler": {"internal_prefixes": "10.0.0.0/8"}},
             "sampler.internal_prefixes: expected tuple[str, ...], got '10.0.0.0/8'"),
            ({"x": {}}, "unknown section 'x'"),
            ({"walks": [5]}, "walks: section must be a mapping"),
            ([5], "config.yaml: top level must be a mapping"),
            (None, "config file not found: config.yaml")]


@pytest.mark.parametrize("doc,problem", MISTYPED, ids=[m[1].split(":")[0] for m in MISTYPED])
def test_mistyped_value_is_a_config_error_naming_its_key(tmp_path, capsys, monkeypatch,
                                                         doc, problem):
    monkeypatch.chdir(tmp_path)  # the problems name the config file as given
    if doc is not None:
        write_config(tmp_path, doc)
    status = main(["-c", "config.yaml", "-w", str(tmp_path / "out"), "synth"])
    assert status == 2
    heading = "" if doc is None else "invalid configuration:\n"
    assert capsys.readouterr().err == f"depwalk: {heading}{problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,value", [("2e2", 200.0), ("-1E-3", -0.001), (".5e1", 5.0)])
def test_a_float_with_an_unsigned_exponent_is_a_number(text, value):
    # YAML 1.1 reads these as strings; JSON and YAML 1.2 read them as numbers
    loaded = yaml.load(f"x: {text}", Loader=config._Loader)["x"]
    assert type(loaded) is float and loaded == value


@pytest.mark.parametrize("text,problem", [
    ('{"synth": {"duration": 2e2}}', None),
    ('{"synth": {"duration": "2e2"}}', "synth.duration: expected float, got '2e2'"),
    ("walks: {walk_length: 5e0}", "walks.walk_length: expected int, got 5.0"),
], ids=["json", "quoted", "int-key"])
def test_a_config_reads_exponent_floats_as_json_does(tmp_path, text, problem):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    if problem is None:
        assert load_config(path).synth.duration == 200.0
    else:
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == problem


# (section, key, a value just out of its bound): one entry per bound the
# sections declare in depwalk/config.py
BOUNDS = [("sampler", "n_internal", -1), ("sampler", "m_external", -1), ("sampler", "k_edges", 0),
          ("walks", "walk_length", 2), ("walks", "walks_per_vertex", 0), ("walks", "epsilon", -1),
          ("walks", "n_t", 0), ("context", "size", 1),
          ("embedding", "dims", 0), ("embedding", "epochs", 0),
          ("embedding", "neg_samples_per_positive", -1), ("embedding", "learning_rate", 0),
          ("forest", "n_trees", 0), ("oracle", "n_t_dd", 0), ("oracle", "n_t_rr", 0),
          ("oracle", "epsilon", -1), ("oracle", "epsilon", 2**63), ("evaluation", "n_splits", 0),
          *(("synth", key, value) for key in ("n_clients", "n_web", "n_db", "n_dns")
            for value in (-1, 251)),
          ("synth", "session_rate", -1), ("synth", "noise_flows", -1), ("synth", "epsilon_ms", 11),
          ("synth", "duration", 0)]


def test_bounds_cover_every_declared_bound():
    declared = set()
    for section, section_type in get_type_hints(PipelineConfig).items():
        for attr, step in (("_MIN", -1), ("_ABOVE", 0), ("_MAX", 1)):
            declared |= {(section, key, bound + step)
                         for key, bound in getattr(section_type, attr, {}).items()}
    assert declared == set(BOUNDS)


@pytest.mark.parametrize("section,key,value", BOUNDS,
                         ids=[f"{section}.{key}={value}" for section, key, value in BOUNDS])
def test_out_of_bound_value_is_a_config_error_naming_its_key(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=rf"\b{key} must be "):
        get_type_hints(PipelineConfig)[section](**{key: value})
    with pytest.raises(ConfigError, match=rf"(?m)^{section}: {key} must be "):
        load_config(write_config(tmp_path, {section: {key: value}}))


@pytest.mark.parametrize("synth,problem", [
    ({"n_web": 0}, "planted sessions need clients and web servers"),
], ids=["n_web"])
def test_planted_sessions_without_their_servers_exit_2_at_load(tmp_path, capsys, synth, problem):
    status = main(["-c", str(write_config(tmp_path, {"synth": synth})), "-w", str(tmp_path / "out"),
                   "synth"])
    assert status == 2
    assert capsys.readouterr().err == f"depwalk: invalid configuration:\nsynth: {problem}\n"
    assert not (tmp_path / "out").exists()


def test_a_scenario_whose_flows_pass_the_int64_range_exits_2_at_load(tmp_path, capsys):
    # ingest would drop the late flows, while planted_truth.csv lists them all:
    # the last of 1e20 ms of starts plus a 5 s noise flow
    synth = {"duration": 1.0e17, "session_rate": 1.0e-14, "noise_flows": 5}
    status = main(["-c", str(write_config(tmp_path, {"synth": synth})), "-w", str(tmp_path / "out"),
                   "synth"])
    assert status == 2
    assert capsys.readouterr().err == (
        "depwalk: invalid configuration:\nsynth: flows would end as late as "
        f"{10**20 - 1 + 5000} ms, but ingest reads timestamps below {2**63 - 1}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [("synth", "duration", math.inf),
                                               ("synth", "session_rate", math.inf),
                                               ("synth", "session_rate", math.nan),
                                               ("embedding", "learning_rate", math.inf)],
                         ids=["synth.duration=inf", "synth.session_rate=inf",
                              "synth.session_rate=nan", "embedding.learning_rate=inf"])
def test_non_finite_float_exits_2_at_load_naming_its_key(tmp_path, capsys, section, key, value):
    status = main(["-c", str(write_config(tmp_path, {section: {key: value}})),
                   "-w", str(tmp_path / "out"), "synth"])
    assert status == 2
    assert capsys.readouterr().err == f"depwalk: invalid configuration:\n{section}: {key} must be finite\n"
    assert not (tmp_path / "out").exists()


def test_planted_session_checks_apply_only_to_planted_sessions(tmp_path):
    for synth in ({"n_db": 0, "n_dns": 0}, {"n_web": 0, "session_rate": 0}):
        load_config(write_config(tmp_path, {"synth": synth}))


SECTIONS = [f.name for f in fields(PipelineConfig) if f.name not in ("master_seed", "workdir")]


def test_each_seeded_section_gets_its_derived_seed(tmp_path):
    # a section written with no value (YAML null) takes its defaults
    bare = tmp_path / "bare.yaml"
    bare.write_text("".join(f"{name}:\n" for name in SECTIONS))
    for master in (0, 11, 2**40 + 3):
        cfg = load_config(master_seed=master)
        assert load_config(bare, master_seed=master) == cfg
        seeded = {name: getattr(cfg, name).rng_seed for name in SECTIONS
                  if hasattr(getattr(cfg, name), "rng_seed")}
        assert seeded == {name: derive_seed(master, name)
                          for name in ("sampler", "walks", "embedding", "forest", "synth")}


def test_rng_seed_is_not_a_config_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, {name: {"rng_seed": 1} for name in SECTIONS}))
    for name in SECTIONS:
        assert f"{name}: unknown key 'rng_seed'" in str(err.value)


def test_readme_config_blocks_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for block in blocks:
        path = tmp_path / "config.yaml"
        path.write_text(block)
        load_config(path)


def test_pipeline_deterministic_across_workdirs(tmp_path):
    cfg_path = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["-c", str(cfg_path), "-w", str(out_a), "pipeline", "--synth"]) == 0
    assert main(["-c", str(cfg_path), "-w", str(out_b), "pipeline", "--synth"]) == 0
    for name in ("eval_report.json", "ground_truth.csv", "labels.csv",
                 "predictions.csv", "baseline_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_stagewise_equals_pipeline(tmp_path):
    # One process per stage, so that no stage can take a value an earlier
    # stage kept in memory: every input is decoded from its file.
    cfg_path = write_config(tmp_path)
    out_pipe = tmp_path / "pipe"
    assert main(["-c", str(cfg_path), "-w", str(out_pipe), "pipeline", "--synth"]) == 0
    out_step = tmp_path / "step"
    src = Path(pipeline.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    base = [sys.executable, "-m", "depwalk.cli", "-c", str(cfg_path), "-w", str(out_step)]
    for stage in pipeline.STAGES:
        args = ["--flows", str(out_step / "synth_flows.csv")] if stage.name == "ingest" else []
        done = subprocess.run(base + [stage.name, *args], env=env, capture_output=True, text=True)
        assert done.returncode == 0, (stage.name, done.stderr)
    for name in (name for stage in pipeline.STAGES for name in stage.outputs):
        assert (out_pipe / name).read_bytes() == (out_step / name).read_bytes(), name


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One ``pipeline --synth`` run of SMALL_SCENARIO: its config and work directory."""
    tmp_path = tmp_path_factory.mktemp("small")
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 0
    return cfg_path, workdir


# Every artifact of SMALL_SCENARIO, in stage order.  A change to the bytes
# of a file up to walks.jsonl is a change to the scenario, ingest, sampling
# or walk specification, one to the embedding or ground truth a change to
# embedding training or the oracle, and one to a later file a change to
# labelling, forest training, scoring or evaluation: record why, then
# update the digest.
PINNED_SHA256 = {
    "synth_flows.csv": "6fda6860022487830bf9da69946034d9f41d6a11fb45282e1e4b03bcd611a37b",
    "planted_truth.csv": "b1b04630d784cd648a2bac0fc1d71996b2b97587c75e14f421b2d7412e1f5602",
    "flows.csv": "6fda6860022487830bf9da69946034d9f41d6a11fb45282e1e4b03bcd611a37b",
    "graph.jsonl": "df9908e1e6e3c08360756c22d0e480c181e9e72ee41f9efe72f354e9ec86e6f0",
    "walks.jsonl": "53dc74b752997b9f62fa276e99e72e511647f433b244a0d581eaadb99f84e1de",
    "embedding.bin": "3c0ecd1939659c77368c87d77f359338da93e876987d7018087e79894c09d2f4",
    "embedding.json": "6613c8a937628dff8e7da322c2adf27a3805be42ef3f6d5a8bae4b1bc07036c9",
    "ground_truth.csv": "b1b04630d784cd648a2bac0fc1d71996b2b97587c75e14f421b2d7412e1f5602",
    "labels.csv": "5ad7b12cd270fc44785eeea4c7268a83a89963059003fead69e15142c5176a93",
    "model.json": "a1e9b97e3f119782f683555fdc298da56b2f2a98e803f7c463f61d4fd03e6fba",
    "predictions.csv": "d9fe817b9637934ec3d7f65668ec0114eff5e92d86ecca98d3a8743341e40983",
    "eval_report.json": "a519c1dca6c05ee9c9b493f2bfc45871b8213ab376a9e34671db8c8a8403c3b1",
    "baseline.csv": "9c732726a1aed705f088e8c9b53cd7d73ab39aa9c50bad7eb7eab59b2eb8050d",
    "baseline_summary.json": "d3f42ad06ec27f6003f608bbd46b5a785c4699b5629bd1c1b4d4ceb33753b9f6",
}


def test_small_run_artifacts_keep_their_pinned_bytes(small_run):
    _, workdir = small_run
    assert {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in PINNED_SHA256} == PINNED_SHA256


def test_pipeline_on_a_flow_file_writes_what_the_synth_run_wrote_from_it(small_run, tmp_path):
    # the run on your own flow file, and the benchmark's timed command: every
    # stage but synth, with the same artifacts and no synth outputs
    cfg_path, workdir = small_run
    out = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(out), "pipeline",
                 "--flows", str(workdir / "synth_flows.csv")]) == 0
    written = [name for stage in pipeline.STAGES[1:] for name in stage.outputs]
    assert len(written) == 12 and sorted(path.name for path in out.iterdir()) == sorted(written)
    for name in written:
        assert (out / name).read_bytes() == (workdir / name).read_bytes(), name


def copy_inputs(stage: pipeline.Stage, workdir: Path, fresh: Path) -> None:
    fresh.mkdir()
    for name in stage.inputs:
        shutil.copyfile(workdir / name, fresh / name)


STAGES_WITH_INPUTS = [stage for stage in pipeline.STAGES if stage.inputs]


@pytest.mark.parametrize("stage", STAGES_WITH_INPUTS, ids=[s.name for s in STAGES_WITH_INPUTS])
def test_stage_rebuilds_its_outputs_from_its_declared_inputs(small_run, tmp_path, stage):
    cfg_path, workdir = small_run
    copy_inputs(stage, workdir, tmp_path / "fresh")
    assert main(["-c", str(cfg_path), "-w", str(tmp_path / "fresh"), stage.name]) == 0
    for name in stage.outputs:
        assert (tmp_path / "fresh" / name).read_bytes() == (workdir / name).read_bytes(), name


def test_simindex_ranks_the_pairs_predict_scored(small_run, tmp_path):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    shutil.copyfile(workdir / "graph.jsonl", fresh / "graph.jsonl")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("src,dst\n10.0.0.1,10.0.1.1\n10.0.0.2,10.0.0.1\n10.0.1.1,10.0.0.3\n")
    base = ["-c", str(cfg_path), "-w", str(fresh)]
    assert main(base + ["predict", "--pairs", str(pairs)]) == 0
    assert main(base + ["simindex"]) == 0
    predictions = [line.split(",") for line in (fresh / "predictions.csv").read_text().splitlines()]
    baseline = [line.split(",") for line in (fresh / "baseline.csv").read_text().splitlines()]
    assert [row[:2] + row[-1:] for row in baseline[1:]] == predictions[1:]
    assert len(predictions) == 4


def test_simindex_on_one_scored_pair_has_no_rank_correlation(small_run, tmp_path):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    shutil.copyfile(workdir / "graph.jsonl", fresh / "graph.jsonl")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("src,dst\n10.0.0.1,10.0.1.1\n")
    base = ["-c", str(cfg_path), "-w", str(fresh)]
    assert main(base + ["predict", "--pairs", str(pairs)]) == 0
    assert main(base + ["simindex"]) == 0
    summary = json.loads((fresh / "baseline_summary.json").read_text())
    assert summary == {"n_pairs": 1, "correlations": dict.fromkeys(
        ("AA", "CN", "PA", "RA"), {"kendall": None, "spearman": None})}


def test_pipeline_resume_skips_existing(tmp_path):
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 0
    stamp = (workdir / "eval_report.json").stat().st_mtime_ns
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth",
                 "--resume"]) == 0
    assert (workdir / "eval_report.json").stat().st_mtime_ns == stamp


def test_resume_reruns_a_stage_with_a_missing_output(tmp_path):
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 0
    summary = (workdir / "baseline_summary.json").read_bytes()
    stamps = {name: (workdir / name).stat().st_mtime_ns
              for name in ("baseline.csv", "eval_report.json")}
    (workdir / "baseline_summary.json").unlink()
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth",
                 "--resume"]) == 0
    assert (workdir / "baseline_summary.json").read_bytes() == summary
    assert (workdir / "baseline.csv").stat().st_mtime_ns != stamps["baseline.csv"]
    assert (workdir / "eval_report.json").stat().st_mtime_ns == stamps["eval_report.json"]


def test_small_scenario_names_the_failing_stage_and_the_one_class_split(tmp_path, capsys):
    # 60 simulated seconds give each of the ten default clients six sessions,
    # below the oracle's witness threshold: four labelled pairs, so some
    # unstratified split leaves a one-class training side.
    cfg_path = write_config(tmp_path, {"synth": {"duration": 60}})
    status = main(["-c", str(cfg_path), "-w", str(tmp_path / "out"), "-s", "1",
                   "pipeline", "--synth"])
    assert status == 1
    err = capsys.readouterr().err
    assert "depwalk: eval failed: test fraction 0.5, split 5:" in err
    assert "2 positive and 2 negative" in err
    assert "sampler.n_internal" in err


@pytest.mark.parametrize("seed", range(1, 9))
def test_bare_defaults_run_cleanly(tmp_path, seed):
    workdir = tmp_path / "out"
    assert main(["-w", str(workdir), "-s", str(seed), "pipeline", "--synth"]) == 0
    # margin: with 40 labelled pairs or more, a one-class training side has a
    # chance below 1e-10 per split
    labels = (workdir / "labels.csv").read_text().splitlines()[1:]
    assert len(labels) >= 40
    assert json.loads((workdir / "eval_report.json").read_text())["roc_auc"] is not None
    # the embedding trains: a loss that stays at ln 2 = 0.693 fails here
    losses = json.loads((workdir / "embedding.json").read_text())["epoch_losses"]
    assert losses[-1] < 0.6
    assert max(losses) <= losses[0]


def test_master_seed_changes_output(tmp_path):
    cfg_path = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["-c", str(cfg_path), "-w", str(out_a), "-s", "1", "pipeline", "--synth"]) == 0
    assert main(["-c", str(cfg_path), "-w", str(out_b), "-s", "2", "pipeline", "--synth"]) == 0
    assert (out_a / "eval_report.json").read_bytes() != (out_b / "eval_report.json").read_bytes()


def test_biflow_ingest_splits_directions(tmp_path):
    doc = dict(SMALL_SCENARIO)
    doc["ingest"] = {"biflows": True}
    cfg_path = write_config(tmp_path, doc)
    biflows = tmp_path / "biflows.csv"
    biflows.write_text("0,10,10.0.0.1,10.0.0.2,50000,443,TCP\n"
                       "5,9,10.0.0.3,10.0.0.4,40000,53,UDP,10,20,1,2\n")
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir),
                 "ingest", "--flows", str(biflows)]) == 0
    lines = (workdir / "flows.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "0,10,10.0.0.1,10.0.0.2,50000,443,TCP"
    assert lines[1] == "0,10,10.0.0.2,10.0.0.1,443,50000,TCP"


def test_ingest_logs_each_invalid_line_and_the_dropped_self_loops(tmp_path, caplog):
    flows = tmp_path / "flows.csv"
    flows.write_text("0,10,10.0.0.1,10.0.0.2,50000,443,TCP\n"
                     "5,9,10.0.0.3,10.0.0.4,40000,70000,UDP\n"
                     "6,8,10.0.0.5,10.0.0.5,40000,53,UDP\n"
                     "7,9,10.0.0.3,10.0.0.4,40000,53,UDP\n"
                     "8,9,10.0.0.3,10.0.0.4,0,0,ICMP\n")
    workdir = tmp_path / "out"
    with caplog.at_level(logging.INFO):
        assert main(["-c", str(write_config(tmp_path)), "-w", str(workdir),
                     "ingest", "--flows", str(flows)]) == 0
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, f"{flows}:2: dst_port 70000 out of range 0-65535"),
        (logging.INFO, "dropped 1 self-loop records"),
        (logging.INFO, "ingest: 3 records parsed, 2 TCP/UDP flows kept")]
    assert (workdir / "flows.csv").read_text() == ("0,10,10.0.0.1,10.0.0.2,50000,443,TCP\n"
                                                   "7,9,10.0.0.3,10.0.0.4,40000,53,UDP\n")


def test_a_flow_line_that_is_not_utf8_is_warned_and_skipped(small_run, tmp_path, caplog):
    # like any other bad input line: ingest names it, drops it and goes on
    cfg_path, workdir = small_run
    lines = (workdir / "flows.csv").read_bytes().splitlines(keepends=True)
    flows = tmp_path / "flows.csv"
    flows.write_bytes(b"".join(lines))
    undecodable(200)(flows)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert main(["-c", str(cfg_path), "-w", str(out), "ingest", "--flows", str(flows)]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        f"{flows}:200: {NOT_UTF8}"]
    assert (out / "flows.csv").read_bytes() == b"".join(lines[:199] + lines[200:])


def test_ingest_hands_its_read_only_columns_to_sample_and_oracle(tmp_path, monkeypatch):
    # a pipeline holds no record per input flow: ingest parses the flows into
    # columns, and sample and oracle both take that one value
    handed, taken = {}, []
    hand_off, select, enumerate_all = (pipeline._hand_off, pipeline.select_top_addresses,
                                       oracle.enumerate_all)
    monkeypatch.setattr(pipeline, "_hand_off",
                        lambda path, **readers: handed.update({path.name: readers}) or
                        hand_off(path, **readers))
    monkeypatch.setattr(pipeline, "select_top_addresses",
                        lambda flows, cfg: taken.append(flows) or select(flows, cfg))
    monkeypatch.setattr(oracle, "enumerate_all",
                        lambda flows, cfg: taken.append(flows) or enumerate_all(flows, cfg))
    assert main(["-c", str(write_config(tmp_path)), "-w", str(tmp_path / "out"),
                 "pipeline", "--synth"]) == 0
    flows = handed["flows.csv"]["sample"]
    assert isinstance(flows, FlowColumns) and handed["flows.csv"]["oracle"] is flows
    assert len(taken) == 2 and all(value is flows for value in taken)
    with pytest.raises(ValueError, match="read-only"):
        flows.t_start[0] = 0


def test_an_input_without_a_tcp_or_udp_flow_is_a_named_sample_error(tmp_path, capsys):
    flows = tmp_path / "icmp.csv"
    flows.write_text("0,10,10.0.0.1,10.0.0.2,0,0,ICMP\n")
    workdir = tmp_path / "out"
    assert main(["-c", str(write_config(tmp_path)), "-w", str(workdir),
                 "pipeline", "--flows", str(flows)]) == 1
    assert capsys.readouterr().err == "depwalk: sample failed: selected address set is empty\n"
    assert (workdir / "flows.csv").read_text() == ""
    assert not (workdir / "graph.jsonl").exists()


def test_predict_with_explicit_pairs(tmp_path):
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 0
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("src,dst\n10.0.0.1,10.0.1.1\n10.0.0.2,10.0.0.1\n")
    assert main(["-c", str(cfg_path), "-w", str(workdir),
                 "predict", "--pairs", str(pairs)]) == 0
    lines = (workdir / "predictions.csv").read_text().splitlines()
    assert lines[0] == "src,dst,probability"
    assert len(lines) == 3
    for line in lines[1:]:
        prob = float(line.split(",")[2])
        assert 0.0 <= prob <= 1.0


def test_predict_short_pairs_row_is_an_error_naming_its_line(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    base = ["-c", str(cfg_path), "-w", str(tmp_path / "out")]
    assert main(base + ["synth"]) == 0
    assert main(base + ["ingest", "--flows", str(tmp_path / "out" / "synth_flows.csv")]) == 0
    for stage in ("sample", "walks", "embed", "oracle", "train"):
        assert main(base + [stage]) == 0, stage
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("src,dst\n10.0.0.1\n")
    assert main(base + ["predict", "--pairs", str(pairs)]) == 1
    err = capsys.readouterr().err
    assert f"depwalk: predict failed: {pairs}:2: expected src,dst columns" in err


def flows_as_jsonl(workdir: Path) -> str:
    """The flows of ``workdir``'s flows.csv as JSON lines."""
    integers = {"t_start", "t_end", "src_port", "dst_port"}
    return "".join(json.dumps({k: int(v) if k in integers else v
                               for k, v in zip(CSV_COLUMNS, line.split(","))}) + "\n"
                   for line in (workdir / "flows.csv").read_text().splitlines())


def test_jsonl_flows_ingest_like_their_csv(small_run, tmp_path):
    cfg_path, workdir = small_run
    jsonl = tmp_path / "flows.jsonl"
    jsonl.write_text(flows_as_jsonl(workdir))
    out = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(out), "ingest", "--flows", str(jsonl)]) == 0
    assert (out / "flows.csv").read_bytes() == (workdir / "flows.csv").read_bytes()


@pytest.mark.parametrize("form", ["csv", "jsonl"])
def test_flow_file_with_a_byte_order_mark_ingests_like_one_without(small_run, tmp_path, caplog, form):
    cfg_path, workdir = small_run
    text = (",".join(CSV_COLUMNS) + "\n" + (workdir / "flows.csv").read_text() if form == "csv"
            else flows_as_jsonl(workdir))
    flows = tmp_path / f"flows.{form}"
    flows.write_text("\ufeff" + text, encoding="utf-8")
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert main(["-c", str(cfg_path), "-w", str(out), "ingest", "--flows", str(flows)]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert (out / "flows.csv").read_bytes() == (workdir / "flows.csv").read_bytes()


def test_pairs_file_with_a_byte_order_mark_scores_like_one_without(small_run, tmp_path):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("\ufeff" + (workdir / "labels.csv").read_text(), encoding="utf-8")
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict", "--pairs", str(pairs)]) == 0
    assert (fresh / "predictions.csv").read_bytes() == (workdir / "predictions.csv").read_bytes()


def test_pairs_file_reads_addresses_as_ingest_does(small_run, tmp_path):
    # cells padded with blanks, as ingest accepts them, score like the canonical text
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    rows = [line.split(",") for line in (workdir / "labels.csv").read_text().splitlines()[1:]]
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("src,dst\n" + "".join(f" {src}, {dst} \n" for src, dst, _ in rows))
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict", "--pairs", str(pairs)]) == 0
    assert (fresh / "predictions.csv").read_bytes() == (workdir / "predictions.csv").read_bytes()


def test_pairs_file_with_a_byte_that_is_not_utf8_names_its_line(small_run, tmp_path, capsys):
    # after a byte-order mark, which is skipped; the position is the line's,
    # quotes included
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    lines = (workdir / "labels.csv").read_bytes().splitlines(keepends=True)
    lines[2] = b'"' + lines[2].replace(b",", b'",\xff', 1)
    position = lines[2].index(b"\xff")
    pairs = tmp_path / "pairs.csv"
    pairs.write_bytes("\ufeff".encode() + b"".join(lines))
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict", "--pairs", str(pairs)]) == 1
    assert capsys.readouterr().err == (
        f"depwalk: predict failed: {pairs}:3: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte\n")
    assert not (fresh / "predictions.csv").exists()


def test_pairs_file_with_a_self_pair_names_its_line(small_run, tmp_path, capsys):
    # train rejects the same pair in ground_truth.csv; a pair is two addresses
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("10.0.0.1,10.0.0.2\n10.0.0.1, 10.0.0.1\n")
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict", "--pairs", str(pairs)]) == 1
    assert capsys.readouterr().err == f"depwalk: predict failed: {pairs}:2: self pair: 10.0.0.1\n"
    assert not (fresh / "predictions.csv").exists()


def test_readme_library_use_runs(small_run, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    _, workdir = small_run
    monkeypatch.chdir(workdir)  # the block reads flows.csv
    names: dict = {}
    exec(block, names)
    assert names["report"].ok and names["features"].shape == (1, names["emb"].dims)


def unknown_address_pairs(workdir: Path, path: Path) -> Path:
    """A pairs file whose line 2 is a labelled pair and line 3 names an
    address outside the sample."""
    known = (workdir / "labels.csv").read_text().splitlines()[1].split(",")[:2]
    path.write_text(f"src,dst\n{','.join(known)}\n1.2.3.4,{known[1]}\n")
    return path


def test_predict_unknown_address_is_an_error_naming_its_line(small_run, tmp_path, capsys):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    pairs = unknown_address_pairs(workdir, tmp_path / "pairs.csv")
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict", "--pairs", str(pairs)]) == 1
    assert capsys.readouterr().err == (
        f"depwalk: predict failed: {pairs}:3: unknown address: 1.2.3.4\n")


def test_train_without_a_usable_ground_truth_pair_exits_1_naming_the_cause(small_run, tmp_path,
                                                                         capsys):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["train"], workdir, fresh)
    (fresh / "ground_truth.csv").write_text("kind,src,dst,witness_count\n"
                                            "DD,1.2.3.4,5.6.7.8,10\n")
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), "train"]) == 1
    assert capsys.readouterr().err == ("depwalk: train failed: no ground-truth pair has both "
                                       "endpoints among the sampled vertices\n")


def test_a_failed_stage_leaves_no_output_for_resume(small_run, tmp_path):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    shutil.copytree(workdir, fresh)
    pairs = unknown_address_pairs(workdir, tmp_path / "pairs.csv")
    base = ["-c", str(cfg_path), "-w", str(fresh)]
    assert main(base + ["predict", "--pairs", str(pairs)]) == 1
    assert not (fresh / "predictions.csv").exists()
    (fresh / "baseline.csv").unlink()
    assert main(base + ["pipeline", "--synth", "--resume"]) == 0
    n_labels = len((fresh / "labels.csv").read_text().splitlines()) - 1
    assert json.loads((fresh / "baseline_summary.json").read_text())["n_pairs"] == n_labels


def test_an_interrupted_stage_leaves_no_output_for_resume(small_run, tmp_path, monkeypatch):
    # an exception that is not a stage failure still deletes the partial
    # output, and then reaches the caller as it was raised
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    shutil.copytree(workdir, fresh)

    def interrupted_sample(cfg, flows_csv, graph_jsonl):
        graph_jsonl.write_text(workdir.joinpath("graph.jsonl").read_text()[:100])
        raise KeyboardInterrupt

    base = ["-c", str(cfg_path), "-w", str(fresh)]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "stage_sample", interrupted_sample)
        with pytest.raises(KeyboardInterrupt):
            main(base + ["sample"])
    assert not (fresh / "graph.jsonl").exists()
    assert main(base + ["pipeline", "--synth", "--resume"]) == 0
    digest = hashlib.sha256((fresh / "graph.jsonl").read_bytes()).hexdigest()
    assert digest == PINNED_SHA256["graph.jsonl"]


def edit_json_line(lineno, change):
    """Apply ``change`` to the JSON object on line ``lineno``."""
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[lineno - 1])
        change(obj)
        lines[lineno - 1] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
    return corrupt


def drop_field(lineno, key):
    return edit_json_line(lineno, lambda obj: obj.pop(key))


def edit_edge(**fields):
    """Set ``fields`` of the first edge of a graph file."""
    return edit_json_line(2, lambda obj: obj.update(fields))


def edit_first_row(change):
    """Replace the cells of a CSV file's first data row by ``change(cells)``."""
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = ",".join(change(lines[1].rstrip("\r\n").split(","))) + "\r\n"
        path.write_text("".join(lines))
    return corrupt


def undecodable(lineno):
    """Overwrite the first byte of line ``lineno`` with 0xff, a byte UTF-8 never uses."""
    def corrupt(path):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = b"\xff" + lines[lineno - 1][1:]
        path.write_bytes(b"".join(lines))
    return corrupt


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def edit_tree(change):
    """Apply ``change`` to the first tree of a model file."""
    def corrupt(path):
        obj = json.loads(path.read_text())
        change(obj["trees"][0])
        path.write_text(json.dumps(obj))
    return corrupt


def truncate(size):
    def corrupt(path):
        path.write_bytes(path.read_bytes()[:size])
    return corrupt


def append(tail):
    def corrupt(path):
        path.write_bytes(path.read_bytes() + tail)
    return corrupt


def embedding_header(dims, vertices=None):
    """Rewrite an embedding file's header to ``dims`` dimensions and its
    first ``vertices`` addresses (all of them by default), with no vector
    bytes after them.  A header of no dimensions then describes the file
    exactly; one of very many dimensions asks for far more bytes than the
    file holds."""
    def corrupt(path):
        data = path.read_bytes()
        count = struct.unpack_from("<I", data, 12)[0] if vertices is None else vertices
        end = 16
        for _ in range(count):
            end += 2 + struct.unpack_from("<H", data, end)[0]
        path.write_bytes(data[:8] + struct.pack("<II", dims, count) + data[16:end])
    return corrupt


# (stage, the input it reads, how the input is damaged, the error after the
# file's name)
DAMAGED_INPUTS = [
    pytest.param("walks", "graph.jsonl", drop_field(2, "dst_ip"),
                 ":2: missing field 'dst_ip'", id="graph-edge-field"),
    pytest.param("walks", "graph.jsonl", edit_edge(t_start=20, t_end=10),
                 ":2: t_end 10 earlier than t_start 20", id="graph-edge-interval"),
    pytest.param("walks", "graph.jsonl", edit_edge(src_port=70000),
                 ":2: src_port 70000 out of range 0-65535", id="graph-edge-port"),
    pytest.param("walks", "graph.jsonl", edit_edge(src_ip="10.0.1.1", dst_ip="10.0.1.1"),
                 ":2: self-loop flow 10.0.1.1->10.0.1.1", id="graph-edge-self-loop"),
    pytest.param("walks", "graph.jsonl", edit_edge(src_ip="9.9.9.9", dst_ip="10.0.1.1"),
                 ":2: edge endpoint outside vertex set: 9.9.9.9->10.0.1.1",
                 id="graph-edge-endpoint"),
    pytest.param("walks", "graph.jsonl", edit_edge(src_port=443.9),
                 ":2: invalid src_port 443.9", id="graph-edge-float-port"),
    pytest.param("walks", "graph.jsonl", edit_edge(t_start=20.5),
                 ":2: invalid timestamp 20.5", id="graph-edge-float-start"),
    pytest.param("walks", "graph.jsonl", edit_edge(src_ip="not-an-ip"),
                 ":2: invalid IP address 'not-an-ip'", id="graph-edge-address"),
    pytest.param("walks", "graph.jsonl", lambda path: path.write_text(""),
                 ": empty file, no vertex manifest", id="graph-empty"),
    pytest.param("walks", "graph.jsonl",
                 edit_json_line(1, lambda manifest: manifest["vertices"].__setitem__(0, "not-an-ip")),
                 ":1: invalid IP address 'not-an-ip'", id="graph-manifest-address"),
    pytest.param("walks", "graph.jsonl", edit_json_line(1, lambda manifest: manifest.update(x=1)),
                 ":1: not a vertex manifest", id="graph-manifest-key"),
    pytest.param("embed", "walks.jsonl", lambda path: path.write_text(""),
                 ": empty file, no vertex manifest", id="walks-empty"),
    # a walks file written before the manifest line: its first walk is no manifest
    pytest.param("embed", "walks.jsonl",
                 lambda path: path.write_text("".join(path.read_text().splitlines(True)[1:])),
                 ":1: not a vertex manifest", id="walks-no-manifest"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(1, lambda manifest: manifest["vertices"].__setitem__(0, "not-an-ip")),
                 ":1: invalid IP address 'not-an-ip'", id="walks-manifest-address"),
    pytest.param("embed", "walks.jsonl", drop_field(2, "vertices"),
                 ":2: missing field 'vertices'", id="walk-field"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(2, lambda walk: walk["vertices"].__setitem__(0, "not-an-ip")),
                 ":2: invalid IP address 'not-an-ip'", id="walk-vertex-address"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(2, lambda walk: walk["vertices"].__setitem__(0, "9.9.9.9")),
                 ":2: unknown address: 9.9.9.9", id="walk-vertex-unknown"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(2, lambda walk: walk.update(vertices=walk["vertices"][:1])),
                 ":2: a walk needs at least three vertices, got 1", id="walk-one-vertex"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(2, lambda walk: walk["step_edges"][0].update(dst_port=-1)),
                 ":2: dst_port -1 out of range 0-65535", id="walk-step-edge-port"),
    pytest.param("embed", "walks.jsonl",
                 edit_json_line(2, lambda walk: walk["step_edges"][0].update(dst_ip="not-an-ip")),
                 ":2: invalid IP address 'not-an-ip'", id="walk-step-edge-address"),
    pytest.param("sample", "flows.csv", edit_first_row(lambda cells: cells[:6]),
                 ":2: expected 7 columns, got 6; 1 invalid line in a pipeline artifact",
                 id="flows-short-row"),
    pytest.param("oracle", "flows.csv", edit_first_row(lambda cells: cells[:6]),
                 ":2: expected 7 columns, got 6; 1 invalid line in a pipeline artifact",
                 id="oracle-flows-short-row"),
    pytest.param("sample", "flows.csv",
                 edit_first_row(lambda cells: cells[:2] + [" 010.0.0.1 "] + cells[3:]),
                 ":2: invalid IP address '010.0.0.1'; 1 invalid line in a pipeline artifact",
                 id="flows-address"),
    pytest.param("sample", "flows.csv", edit_first_row(lambda cells: cells[:4] + ["70000"] + cells[5:]),
                 ":2: src_port 70000 out of range 0-65535; 1 invalid line in a pipeline artifact",
                 id="flows-port"),
    pytest.param("sample", "flows.csv", edit_first_row(lambda cells: ["20", "10"] + cells[2:]),
                 ":2: t_end 10 earlier than t_start 20; 1 invalid line in a pipeline artifact",
                 id="flows-interval"),
    pytest.param("walks", "graph.jsonl", undecodable(1), f":1: {NOT_UTF8}",
                 id="graph-manifest-not-utf8"),
    pytest.param("walks", "graph.jsonl", undecodable(2), f":2: {NOT_UTF8}", id="graph-edge-not-utf8"),
    pytest.param("simindex", "graph.jsonl", undecodable(9), f":9: {NOT_UTF8}",
                 id="simindex-graph-not-utf8"),
    pytest.param("embed", "walks.jsonl", undecodable(2), f":2: {NOT_UTF8}", id="walk-not-utf8"),
    pytest.param("sample", "flows.csv", undecodable(2),
                 f":2: {NOT_UTF8}; 1 invalid line in a pipeline artifact", id="flows-not-utf8"),
    pytest.param("oracle", "flows.csv", undecodable(150),
                 f":150: {NOT_UTF8}; 1 invalid line in a pipeline artifact",
                 id="oracle-flows-not-utf8"),
    pytest.param("predict", "model.json", drop_field(1, "trees"),
                 ": missing field 'trees'", id="model-trees"),
    pytest.param("predict", "model.json", edit_json_line(1, lambda model: model.update(version=2)),
                 ": not a version-1 forest file", id="model-format"),
    pytest.param("predict", "model.json", edit_json_line(1, lambda model: model.update(trees=[])),
                 ": no trees", id="model-no-trees"),
    pytest.param("predict", "model.json", edit_json_line(1, lambda model: model.update(n_features="12")),
                 ": n_features '12' is not an integer", id="model-n-features"),
    pytest.param("predict", "model.json", edit_tree(lambda tree: tree["feature"].__setitem__(0, 99)),
                 ": tree 0: node 0: feature 99 is neither -1 nor in [0, 12)", id="model-feature"),
    pytest.param("predict", "model.json",
                 edit_tree(lambda tree: tree.update(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
                                                    left=[1, -1], right=[2, -1, -1],
                                                    leaf_p=[0.0, 1.0, 0.0])),
                 ": tree 0: 2 left entries for 3 nodes", id="model-short-left"),
    pytest.param("predict", "model.json",
                 edit_json_line(1, lambda model: model.update(
                     n_features=-3, trees=[{"feature": [-1], "threshold": [0.0], "left": [-1],
                                            "right": [-1], "leaf_p": [0.5]}])),
                 ": n_features -3 is below 1", id="model-n-features-negative"),
    pytest.param("eval", "embedding.bin",
                 lambda path: path.write_bytes(b"DEPEMB99" + path.read_bytes()[8:]),
                 ": not an embedding file (bad magic b'DEPEMB99')", id="embedding-magic"),
    pytest.param("eval", "embedding.bin", truncate(100),
                 ": truncated or damaged embedding file (unpack requires a buffer of 2 bytes)",
                 id="embedding-truncated"),
    pytest.param("eval", "embedding.bin", append(b"\0" * 7),
                 ": truncated or damaged embedding file (bytes after the last row)",
                 id="embedding-trailing-bytes"),
    pytest.param("eval", "embedding.bin", embedding_header(0),
                 ": truncated or damaged embedding file (0 dimensions)", id="embedding-no-dims"),
    pytest.param("eval", "embedding.bin", embedding_header(2**32 - 1, vertices=3),
                 ": truncated or damaged embedding file (3 vectors of 4294967295 dimensions "
                 "need 51539607540 bytes, 0 left)", id="embedding-huge-dims"),
    # a float32 NaN in place of the last vertex's last value
    pytest.param("predict", "embedding.bin",
                 lambda path: path.write_bytes(path.read_bytes()[:-4] + b"\0\0\xc0\x7f"),
                 ": vertex 172.16.115.76 has a non-finite vector", id="embedding-nan"),
    pytest.param("train", "ground_truth.csv", edit_first_row(lambda cells: cells[:2]),
                 ":2: expected kind,src,dst,witness_count columns", id="ground-truth-short-row"),
    pytest.param("train", "ground_truth.csv", edit_first_row(lambda cells: ["XX"] + cells[1:]),
                 ":2: 'XX' is not a valid DepKind", id="ground-truth-kind"),
    pytest.param("train", "ground_truth.csv", edit_first_row(lambda cells: cells[:3] + ["many"]),
                 ":2: invalid literal for int() with base 10: 'many'", id="ground-truth-count"),
    pytest.param("train", "ground_truth.csv",
                 edit_first_row(lambda cells: ["DD", "10.0.0.1", "10.0.0.1", "20"]),
                 ":2: self pair: 10.0.0.1", id="ground-truth-self-pair"),
    pytest.param("train", "ground_truth.csv",
                 edit_first_row(lambda cells: cells[:2] + ["not-an-ip", cells[3]]),
                 ":2: invalid IP address 'not-an-ip'", id="ground-truth-address"),
    pytest.param("train", "ground_truth.csv", undecodable(2), f":2: {NOT_UTF8}",
                 id="ground-truth-not-utf8"),
    pytest.param("eval", "labels.csv", edit_first_row(lambda cells: cells[:2] + ["yes"]),
                 ":2: label must be 0 or 1, got 'yes'", id="label"),
    pytest.param("eval", "labels.csv", edit_first_row(lambda cells: ["1.2.3.4"] + cells[1:]),
                 ":2: unknown address: 1.2.3.4", id="label-unknown-address"),
    pytest.param("eval", "labels.csv", edit_first_row(lambda cells: ["10.0.0.1.5"] + cells[1:]),
                 ":2: invalid IP address '10.0.0.1.5'", id="label-address"),
    pytest.param("eval", "labels.csv", undecodable(30), f":30: {NOT_UTF8}", id="labels-not-utf8"),
    pytest.param("eval", "labels.csv", edit_first_row(lambda cells: ["10.0.0.1"] * 2 + cells[2:]),
                 ":2: self pair: 10.0.0.1", id="labels-self-pair"),
    # labels.csv is the pairs file predict scores when it is given none
    pytest.param("predict", "labels.csv", undecodable(3), f":3: {NOT_UTF8}", id="pairs-not-utf8"),
    pytest.param("predict", "labels.csv", edit_first_row(lambda cells: ["10.0.0.1"] * 2 + cells[2:]),
                 ":2: self pair: 10.0.0.1", id="pairs-self-pair"),
    pytest.param("simindex", "predictions.csv", edit_first_row(lambda cells: ["9.9.9.9"] + cells[1:]),
                 ":2: unknown address: 9.9.9.9", id="prediction-unknown-address"),
    pytest.param("simindex", "predictions.csv", undecodable(2), f":2: {NOT_UTF8}",
                 id="predictions-not-utf8"),
    pytest.param("simindex", "predictions.csv",
                 edit_first_row(lambda cells: ["10.0.0.1"] * 2 + cells[2:]),
                 ":2: self pair: 10.0.0.1", id="predictions-self-pair"),
    pytest.param("simindex", "predictions.csv", edit_first_row(lambda cells: cells[:2] + ["abc"]),
                 ":2: could not convert string to float: 'abc'", id="probability"),
    pytest.param("simindex", "predictions.csv", edit_first_row(lambda cells: cells[:2] + ["nan"]),
                 ":2: probability must be in [0, 1], got 'nan'", id="probability-nan"),
]


@pytest.mark.parametrize("stage,name,corrupt,problem", DAMAGED_INPUTS)
def test_damaged_input_is_a_stage_error_naming_the_file(small_run, tmp_path, capsys,
                                                        stage, name, corrupt, problem):
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE[stage], workdir, fresh)
    corrupt(fresh / name)
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), stage]) == 1
    err = capsys.readouterr().err
    assert f"depwalk: {stage} failed: {fresh / name}{problem}\n" in err
    assert "Traceback" not in err


def test_predict_with_a_model_of_another_width_names_both_files(small_run, tmp_path, capsys):
    # the embedding is trained again at 8 dimensions; the model was fitted on 12
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["predict"], workdir, fresh)
    for name in pipeline.STAGE["embed"].inputs:
        shutil.copyfile(workdir / name, fresh / name)
    narrow = write_config(tmp_path, {**SMALL_SCENARIO,
                                     "embedding": {**SMALL_SCENARIO["embedding"], "dims": 8}})
    assert main(["-c", str(narrow), "-w", str(fresh), "embed"]) == 0
    capsys.readouterr()
    assert main(["-c", str(cfg_path), "-w", str(fresh), "predict"]) == 1
    assert capsys.readouterr().err == (
        f"depwalk: predict failed: {fresh / 'model.json'} takes 12 features, but the vectors of "
        f"{fresh / 'embedding.bin'} have 8 dimensions\n")
    assert not (fresh / "predictions.csv").exists()


def overwrite_byte(path, lineno, find, new):
    """Overwrite in place, keeping the file's length, the last byte of the
    first ``find`` on line ``lineno`` with the byte ``new``."""
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(map(len, lines[:lineno - 1])) + lines[lineno - 1].index(find) + len(find) - 1
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(new)


def test_in_place_damage_after_a_pipeline_is_still_a_named_error(tmp_path, capsys):
    # A one-byte edit of the same length, made at once, changes neither size
    # nor (at its granularity) mtime; the stages run after the pipeline must
    # still reach the checked decode and its DAMAGED_INPUTS error.
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    base = ["-c", str(cfg_path), "-w", str(workdir)]
    assert main(base + ["pipeline", "--synth"]) == 0
    overwrite_byte(workdir / "flows.csv", 2, b",", b";")  # 6 columns
    overwrite_byte(workdir / "graph.jsonl", 2, b'"dst_ip', b"X")  # no dst_ip field
    problems = {case.id: case.values[3] for case in DAMAGED_INPUTS}
    # a failed stage deletes its outputs, so sample (which writes graph.jsonl) runs last
    for stage, name, case in (("walks", "graph.jsonl", "graph-edge-field"),
                              ("simindex", "graph.jsonl", "graph-edge-field"),
                              ("oracle", "flows.csv", "oracle-flows-short-row"),
                              ("sample", "flows.csv", "flows-short-row")):
        capsys.readouterr()
        assert main(base + [stage]) == 1, stage
        assert f"depwalk: {stage} failed: {workdir / name}{problems[case]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("stage,name,find,new,case", [
    ("sample", "flows.csv", b",", b";", "flows-short-row"),
    ("oracle", "flows.csv", b",", b";", "oracle-flows-short-row"),
    ("walks", "graph.jsonl", b'"dst_ip', b"X", "graph-edge-field"),
    ("embed", "walks.jsonl", b'"vertices', b"X", "walk-field"),
    ("simindex", "graph.jsonl", b'"dst_ip', b"X", "graph-edge-field"),
])
def test_in_place_damage_within_a_pipeline_run_is_a_named_error(tmp_path, capsys, monkeypatch,
                                                                  stage, name, find, new, case):
    # The file a reader would take from the stage that wrote it is damaged
    # in place, on the line the expected message names, just before the
    # reader runs: the reader must decode it, with every check, and the run
    # must end with nothing handed on left over.
    problem = next(case_.values[3] for case_ in DAMAGED_INPUTS if case_.id == case)
    run = getattr(pipeline, f"stage_{stage}")

    def damaged_first(cfg, **files):
        overwrite_byte(files[name.replace(".", "_")], int(problem.split(":")[1]), find, new)
        run(cfg, **files)
    monkeypatch.setattr(pipeline, f"stage_{stage}", damaged_first)
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 1
    assert f"depwalk: {stage} failed: {workdir / name}{problem}\n" in capsys.readouterr().err
    assert pipeline._handoff is None


def test_a_walk_naming_an_address_missing_from_its_manifest_within_a_pipeline_run_is_named(
        tmp_path, capsys, monkeypatch):
    # embed takes the manifest and walks that walks handed on; here the
    # manifest of walks.jsonl loses the first walk's first vertex after walks
    # ran, so embed decodes the file, and the read names the walk
    run = pipeline.stage_embed
    dropped = []

    def manifest_edited_first(cfg, walks_jsonl, **files):
        manifest, first, *rest = walks_jsonl.read_text().splitlines(keepends=True)
        vertices = json.loads(manifest)["vertices"]
        dropped.append(json.loads(first)["vertices"][0])
        vertices.remove(dropped[0])
        walks_jsonl.write_text(json.dumps({"vertices": vertices}) + "\n" + first + "".join(rest))
        run(cfg, walks_jsonl=walks_jsonl, **files)
    monkeypatch.setattr(pipeline, "stage_embed", manifest_edited_first)
    cfg_path = write_config(tmp_path)
    workdir = tmp_path / "out"
    assert main(["-c", str(cfg_path), "-w", str(workdir), "pipeline", "--synth"]) == 1
    assert (f"depwalk: embed failed: {workdir / 'walks.jsonl'}:2: unknown address: {dropped[0]}\n"
            in capsys.readouterr().err)
    assert pipeline._handoff is None


def test_every_hand_off_names_readers_of_its_file_and_all_are_taken(tmp_path, monkeypatch):
    # each reader a stage hands a value to must read that file in the stage
    # table, and by the end of simindex every value must have been taken:
    # one left over would stay alive to the end of the run
    handed, left = [], []
    hand_off, run = pipeline._hand_off, pipeline.stage_simindex

    def recorded(path, **readers):
        handed.append((path.name, set(readers)))
        hand_off(path, **readers)

    def simindex_then_look(cfg, **files):
        run(cfg, **files)
        left.extend((name, reader) for name, (_, values) in pipeline._handoff.items()
                    for reader in values)
    monkeypatch.setattr(pipeline, "_hand_off", recorded)
    monkeypatch.setattr(pipeline, "stage_simindex", simindex_then_look)
    cfg_path = write_config(tmp_path)
    assert main(["-c", str(cfg_path), "-w", str(tmp_path / "out"), "pipeline", "--synth"]) == 0
    assert [name for name, _ in handed] == ["flows.csv", "graph.jsonl", "walks.jsonl"]
    for name, readers in handed:
        assert readers <= {stage.name for stage in pipeline.STAGES if name in stage.inputs}, name
    assert left == []


def test_simindex_reports_the_same_on_the_handed_on_neighbour_sets_as_on_the_read_graph(
        small_run, tmp_path, monkeypatch):
    # sample hands simindex the neighbour sets alone, not the graph with its
    # flows; the report must equal the one over the checked read of the file
    cfg_path, workdir = small_run
    fresh = tmp_path / "fresh"
    copy_inputs(pipeline.STAGE["sample"], workdir, fresh)
    cfg = load_config(cfg_path, workdir=str(fresh))
    monkeypatch.setattr(pipeline, "_handoff", {})
    pipeline.stage_sample(cfg, fresh / "flows.csv", fresh / "graph.jsonl")
    assert (fresh / "graph.jsonl").read_bytes() == (workdir / "graph.jsonl").read_bytes()
    handed = pipeline._handoff["graph.jsonl"][1]["simindex"]
    assert type(handed) is Neighbours
    scored = pipeline._read_pairs(set(handed.vertices), workdir / "predictions.csv",
                                  probability=float)
    assert scored
    graph = read_graph_jsonl(workdir / "graph.jsonl")
    assert handed == graph.neighbours
    assert baseline_report(handed, scored) == baseline_report(graph, scored)
