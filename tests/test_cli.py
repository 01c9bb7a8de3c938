"""Command-line behavior: exit codes, file glue, and reproducibility."""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probeflow import mapmatch, network, refine
from probeflow.assignment import read_demand
from probeflow.cli import (
    _COMMANDS,
    _SECTIONS,
    _sha256,
    PipelineConfig,
    UsageError,
    build_parser,
    main,
    stage_seed,
)
from probeflow.errors import InputDataError
from probeflow.mapmatch import read_matched
from probeflow.odestim import read_states, write_states
from probeflow.params import RANGES
from probeflow.network import Node, RoadNetwork, Taz, TimeGrid, read_network, write_network, write_tazs
from probeflow.completion import COMPLETED_COLUMNS
from probeflow.evaluation import export_geojson, read_voc
from probeflow.refine import DIAGNOSTICS_COLUMNS
from probeflow.tables import read_table
from probeflow.tracegen import read_traces, read_trips
from probeflow.ttinfer import read_estimates, write_estimates

from conftest import make_grid_network, run_baseline

BASE_CONFIG = {
    "seed": 42,
    "grid": {"interval_seconds": 75600, "interval_count": 8},
    "gravity": {"deterrence_scale": 1000.0, "total_trips": 60.0},
    "probe": {"sampling_period": 30.0, "gps_sigma": 5.0, "penetration": 0.1},
    "schedule": [0, 0, 0, 0, -1, -1, -1, -1],
    "multipliers": [1.2],
    "spsa": {"max_outer": 5},
    "od": {"ue_tol": 1e-3, "ue_max_iter": 300},
    "refine": {"max_iters": 3},
}
GRID = TimeGrid(**BASE_CONFIG["grid"])


def write_config(directory, **overrides) -> str:
    doc = dict(BASE_CONFIG)
    doc.update(overrides)
    path = directory / f"config_{len(list(directory.glob('config_*.json')))}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Grid fixture data generated through the CLI itself, plus one pipeline run."""
    root = tmp_path_factory.mktemp("cli_world")
    net = make_grid_network(3, 3, spacing=300.0, speed=10.0, capacity=1200.0)
    network = root / "network.json"
    write_network(net, network)
    tazs = root / "tazs.csv"
    write_tazs([Taz(id=0, centroid_node=0, name="sw"),
                Taz(id=1, centroid_node=8, name="ne")], tazs)

    gen = root / "gen"
    paths = {
        "network": str(network),
        "tazs": str(tazs),
        "demand": str(gen / "demand.csv"),
        "traces": str(gen / "traces.csv"),
        "truth": str(gen / "truth_000.csv"),
        "trips": str(gen / "trips.csv"),
    }
    cfg = write_config(root, out_dir=str(gen), **paths)
    assert main(["gen-demand", "--config", cfg]) == 0
    assert main(["gen-scenarios", "--config", cfg]) == 0
    assert main(["gen-traces", "--config", cfg]) == 0

    pipe = root / "pipe"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(pipe)]) == 0
    return SimpleNamespace(root=root, net=net, paths=paths, cfg=cfg, gen=gen, pipe=pipe)


@pytest.fixture(scope="module")
def congested_world(world, tmp_path_factory):
    """The test world on roads of a fortieth of its capacity, plus one pipeline run.

    The test world's roads are so wide that refine stops after pass 0;
    here the times rise above free flow, and with a stop tolerance no pass
    reaches, refine makes at least two passes: it rematches under
    inferred times and compares passes (``refine._changed``).
    """
    root = tmp_path_factory.mktemp("cli_congested")
    write_network(make_grid_network(3, 3, spacing=300.0, speed=10.0, capacity=30.0),
                  root / "network.json")
    gen = root / "gen"
    paths = {**world.paths, "network": str(root / "network.json"),
             **{key: str(gen / Path(world.paths[key]).name)
                for key in ("demand", "traces", "truth", "trips")}}
    cfg = write_config(root, refine={"max_iters": 3, "stop_tol": 1e-12}, **paths)
    for command in ("gen-demand", "gen-scenarios", "gen-traces"):
        assert main([command, "--config", cfg, "--out-dir", str(gen)]) == 0
    pipe = root / "pipe"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(pipe)]) == 0
    assert len(read_table(pipe / "diagnostics.csv", DIAGNOSTICS_COLUMNS)[0]) >= 2
    return SimpleNamespace(cfg=cfg, gen=gen, pipe=pipe)


# ---------------------------------------------------------------------------
# Usage and configuration errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(world, tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    # A single matching pass is refine with refine.max_iters 1; match is gone.
    capsys.readouterr()
    assert main(["match", "--network", world.paths["network"],
                 "--traces", world.paths["traces"], "--out-dir", str(tmp_path)]) == 1
    assert "invalid choice: 'match'" in capsys.readouterr().err
    assert main(["refine"]) == 1
    assert main(["refine", "--config", str(tmp_path / "missing.json")]) == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["refine", "--config", str(bad_json)]) == 1

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"no_such_key": 1}))
    assert main(["refine", "--config", str(unknown_key)]) == 1

    bad_param = tmp_path / "param.json"
    bad_param.write_text(json.dumps({"match": {"gps_sigma": -1.0}}))
    assert main(["refine", "--config", str(bad_param)]) == 1

    # Keys that no longer exist, values of the wrong type, and numbers
    # RFC 8259 JSON does not have, with inputs that would let the command
    # run if the config were valid.
    inputs = ["--network", world.paths["network"], "--traces", world.paths["traces"]]
    for i, text in enumerate([
        json.dumps({"probe": {"rng_seed": 5}}),
        json.dumps({"threads": 2}),
        json.dumps({"scenario_name": "x"}),
        json.dumps({"spsa": {"max_outer": 2.5}}),
        json.dumps({"od": {"weight_by_support": 1}}),
        json.dumps({"refine": {"max_iters": True}}),
        json.dumps({"infer": {"tol": 1e-8}}),
        json.dumps({"infer": {"max_iter": 20000}}),
        json.dumps({"probe": {"sampling_period": float("nan")}}),
        json.dumps({"match": {"gps_sigma": float("nan")}}),
        '{"match": {"radius": Infinity}}',
        '{"od": {"ue_tol": -Infinity}}',
        '{"multipliers": [1e999]}',
        '{"multipliers": [1' + "0" * 400 + ']}',
        '{"multipliers": [true]}',
    ]):
        path = tmp_path / f"rejected_{i}.json"
        path.write_text(text)
        rc = main(["refine", "--config", str(path), "--out-dir", str(tmp_path), *inputs])
        assert rc == 1, text
    assert not (tmp_path / "matched.csv").exists()

    # Settings that became constants are unknown keys of their section.
    for section, key, value in [
        ("spsa", "a0", 0.2), ("spsa", "c0", 0.2), ("spsa", "alpha_decay", 0.7),
        ("spsa", "gamma_decay", 0.2), ("spsa", "max_log_step", 1.0),
        ("completion", "step", 1.0), ("completion", "max_iter", 100),
        ("completion", "tol", 1e-3), ("match", "max_candidates", 8),
    ]:
        path = tmp_path / f"removed_{section}_{key}.json"
        path.write_text(json.dumps({section: {key: value}}))
        capsys.readouterr()
        rc = main(["refine", "--config", str(path), "--out-dir", str(tmp_path), *inputs])
        err = capsys.readouterr().err
        assert rc == 1, (section, key, err)
        assert f"config section {section!r}: unknown key {key!r}" in err, err
        assert "__init__" not in err, err
    assert not (tmp_path / "matched.csv").exists()

    assert main(["refine", "--network", str(tmp_path / "nowhere.json"),
                 "--traces", str(tmp_path / "nowhere.csv")]) == 1


def _float_fields():
    """(section class, field) of every float parameter of the config sections."""
    return [pytest.param(cls, f.name, id=f"{name}.{f.name}")
            for name, cls in _SECTIONS.items() for f in fields(cls)
            if f.type in ("float", "float | None")]


@pytest.mark.parametrize("cls, name", _float_fields())
def test_parameter_dataclasses_reject_nan(cls, name):
    # Config files cannot hold NaN; the Python API can, and a check
    # written as x <= 0 lets it through.
    with pytest.raises(InputDataError):
        cls(**{name: float("nan")})


def test_every_config_field_but_a_bool_declares_its_range():
    for name, cls in _SECTIONS.items():
        # The sections are declared in one module; the grid keeps its own.
        assert cls.__module__ == ("probeflow.network" if cls is TimeGrid else "probeflow.params")
        for f in fields(cls):
            assert (f.type == "bool") == ("range" not in f.metadata), f"{name}.{f.name}"
            assert f.type == "bool" or f.metadata["range"] in RANGES, f"{name}.{f.name}"


# Config values of the wrong JSON type for each annotated field type.
_WRONG_TYPES = {"int": (2.5, True), "float": (True, "1"), "float | None": (True, "1"),
                "bool": (1,)}
# A value just outside each range, of the type the field takes.
_OUTSIDE = {"> 0": 0, ">= 0": -5e-324, ">= 1": 0, "in (0, 1]": math.nextafter(1.0, 2.0)}


@pytest.mark.parametrize("section, f", [
    pytest.param(name, f, id=f"{name}.{f.name}")
    for name, cls in _SECTIONS.items() for f in fields(cls)])
def test_config_rejects_wrong_value_types(section, f):
    outside = [_OUTSIDE[f.metadata["range"]]] if "range" in f.metadata else []
    for value in [*_WRONG_TYPES[f.type], *outside]:
        with pytest.raises(UsageError, match=rf"^config section '{section}': {f.name} must be "):
            PipelineConfig.from_dict({section: {f.name: value}})


def test_each_command_takes_exactly_its_input_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)
    common = {"-h", "--help", "--config", "--seed", "--threads", "--out-dir"}
    for command, (_, keys) in _COMMANDS.items():
        flags = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
        assert flags == common | {f"--{key.replace('_', '-')}" for key in keys}, command


def test_flag_path_overrides_the_config_path(world, tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    cfg = write_config(tmp_path, **{**world.paths, "estimates": str(missing)})
    out = tmp_path / "out"
    assert main(["complete", "--config", cfg, "--out-dir", str(out)]) == 1
    assert f"estimates file not found: {missing}" in capsys.readouterr().err
    assert main(["complete", "--config", cfg, "--out-dir", str(out),
                 "--estimates", str(world.pipe / "estimates.csv")]) == 0
    assert (out / "completed.csv").read_bytes() == (world.pipe / "completed.csv").read_bytes()


@pytest.mark.parametrize("command", ["estimate-od", "pipeline"])
def test_missing_demand_exits_1_before_any_output(world, tmp_path, capsys, command):
    # gen-demand is the one writer of the seed demand; nothing falls back to gravity.
    cfg = write_config(tmp_path, **{k: v for k, v in world.paths.items() if k != "demand"})
    out = tmp_path / "out"
    estimates = ["--estimates", str(world.pipe / "estimates.csv")]
    rc = main([command, "--config", cfg, "--out-dir", str(out),
               *(estimates if command == "estimate-od" else [])])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no demand file given (use --demand or config key 'demand')" in err
    assert "Traceback" not in err
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_column(header: str, column: int = 0) -> list[str]:
    """One column's cells, backticks stripped, of README's table with this header row."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])
    return [row.split("|")[column + 1].strip().strip("`") for row in rows]


def test_readme_lists_every_config_key_and_command():
    params = [(f"{name}.{f.name}", f) for name, cls in _SECTIONS.items() for f in fields(cls)]
    assert len(params) == 23
    header = "| Key | Default | Allowed | What it sets |"
    assert readme_column(header) == [key for key, _ in params]
    defaults = [json.loads(cell) for cell in readme_column(header, 1)]
    assert [(type(d), d) for d in defaults] == [(type(f.default), f.default) for _, f in params]
    assert readme_column(header, 2) == [
        "true or false" if f.type == "bool" else
        f.metadata["range"] + (" or null" if f.type == "float | None" else "") for _, f in params]
    assert sorted(readme_column("| Command | What it does |")) == sorted(_COMMANDS)


def test_readme_file_formats_name_every_pipeline_artifact(world):
    """Per-interval names collapse to their ``*`` pattern, as README writes them."""
    artifacts = {*json.loads((world.pipe / "manifest.json").read_text())["artifacts"],
                 "manifest.json"}
    listed = {name.strip().strip("`") for cell in readme_column("| File | Contents |")
              for name in cell.split(",")}
    missing = {re.sub(r"_\d+\.csv$", "_*.csv", name) for name in artifacts} - listed
    assert not missing, missing


def test_threads_must_be_positive(world):
    assert main(["infer", "--config", world.cfg, "--threads", "0"]) == 1


def test_nonpositive_multiplier_exits_1(world, tmp_path):
    cfg = write_config(tmp_path, multipliers=[1.0, 0.0], **world.paths)
    assert main(["gen-scenarios", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("truth_*.csv"))


def test_complete_rejects_infinite_threshold_before_any_output(world, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"completion": {"svt_threshold": float("inf")}}))
    rc = main(["complete", "--config", str(cfg), "--out-dir", str(tmp_path),
               "--network", world.paths["network"],
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 1
    assert not (tmp_path / "matrix.csv").exists()


def test_schedule_validation(world, tmp_path):
    cfg = write_config(tmp_path, schedule=[0, 0], **world.paths)
    assert main(["gen-traces", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    cfg = write_config(tmp_path, schedule=[9] * 8, **world.paths)
    assert main(["gen-traces", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    cfg = write_config(tmp_path, schedule=[-1] * 8, **world.paths)
    assert main(["gen-traces", "--config", cfg, "--out-dir", str(tmp_path)]) == 1


def test_refine_on_empty_trace_file_exits_2_naming_it(world, tmp_path, capsys):
    empty = tmp_path / "empty_traces.csv"
    empty.write_text("vehicle_id,timestamp,lat,lon\n")
    rc = main(["refine", "--network", world.paths["network"],
               "--traces", str(empty), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "empty_traces.csv" in capsys.readouterr().err


def test_refine_on_short_trace_row_exits_2_naming_it(world, tmp_path, capsys):
    short = tmp_path / "short_traces.csv"
    short.write_text("vehicle_id,timestamp,lat,lon\n1,0.0,37.75,-122.45\n1,30.0\n")
    rc = main(["refine", "--network", world.paths["network"],
               "--traces", str(short), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "short_traces.csv, line 3" in capsys.readouterr().err


# A value out of its range is named by line; timestamps that do not increase, by vehicle.
@pytest.mark.parametrize("rows, message", [
    ("1,0.0,nan,-122.45\n1,30.0,37.75,-122.45", ", line 2: lat must be in [-90, 90], got nan"),
    ("1,0.0,37.75,-122.45\n1,30.0,37.75,nan", ", line 3: lon must be in [-180, 180], got nan"),
    ("1,0.0,95.0,-122.45", ", line 2: lat must be in [-90, 90], got 95.0"),
    ("1,0.0,37.75,-122.45\n1,30.0,37.75,180.5", ", line 3: lon must be in [-180, 180], got 180.5"),
    ("1,0.0,37.75,-122.45\n1,inf,37.75,-122.45", ", line 3: timestamp must be finite, got inf"),
    ("1,30.0,37.75,-122.45\n1,0.0,37.75,-122.45", ": vehicle 1: timestamps must strictly increase"),
    ("1,30.0,37.75,-122.45\n1,30.0,37.75,-122.44",
     ": vehicle 1: timestamps must strictly increase"),
    # Vehicle 2's fixes are fine; vehicle 1's second fix, after vehicle 2's
    # rows, repeats its first instant.
    ("1,0.0,37.75,-122.45\n2,0.0,37.75,-122.45\n2,30.0,37.75,-122.45\n"
     "1,0.0,37.75,-122.44", ": vehicle 1: timestamps must strictly increase"),
], ids=["nan-latitude", "nan-longitude", "latitude-out-of-range", "longitude-out-of-range",
        "infinite-timestamp", "decreasing-timestamps", "repeated-timestamp",
        "repeated-timestamp-across-vehicles"])
def test_refine_on_bad_trace_values_exits_2_naming_the_file(world, tmp_path, capsys, rows,
                                                            message):
    bad = tmp_path / "bad_traces.csv"
    bad.write_text(f"vehicle_id,timestamp,lat,lon\n{rows}\n")
    rc = main(["refine", "--network", world.paths["network"],
               "--traces", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad_traces.csv{message}" in err and "Traceback" not in err


def test_refine_on_interleaved_trace_rows_equals_the_sorted_file(world, tmp_path):
    """Vehicles' rows may interleave in traces.csv; each vehicle's keep their order."""
    lines = Path(world.paths["traces"]).read_text(encoding="utf-8").splitlines(keepends=True)
    rows: dict[str, list[str]] = {}
    for line in lines[1:]:
        rows.setdefault(line.split(",")[0], []).append(line)
    # Round robin over the vehicles, the last vehicle first.
    queues = list(rows.values())[::-1]
    interleaved = [q[k] for k in range(max(map(len, queues))) for q in queues if k < len(q)]
    assert len(queues) >= 2 and sorted(interleaved) == sorted(lines[1:])
    traces = tmp_path / "interleaved.csv"
    traces.write_text(lines[0] + "".join(interleaved), encoding="utf-8")
    rc = main(["refine", "--config", world.cfg, "--traces", str(traces),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "matched.csv").read_bytes() == (world.pipe / "matched.csv").read_bytes()


def test_import_osm_round_trip(tmp_path):
    xml = """<osm>
      <node id="1" lat="47.600" lon="-122.330"/>
      <node id="2" lat="47.601" lon="-122.330"/>
      <node id="3" lat="47.602" lon="-122.330"/>
      <way id="10">
        <nd ref="1"/><nd ref="2"/><nd ref="3"/>
        <tag k="highway" v="residential"/>
      </way>
    </osm>"""
    source = tmp_path / "city.osm"
    source.write_text(xml)
    assert main(["import-osm", "--osm", str(source), "--out-dir", str(tmp_path)]) == 0
    net = read_network(tmp_path / "network.json")
    assert net.n_segments == 4

    source.write_text("<osm><node id=")
    assert main(["import-osm", "--osm", str(source), "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------


def test_one_pass_refine_then_infer(world, tmp_path):
    # refine at max_iters 1 is the single free-flow matching pass; infer
    # on its matched file reproduces its estimates byte for byte.
    cfg = write_config(tmp_path, refine={"max_iters": 1}, **world.paths)
    assert main(["refine", "--config", cfg, "--out-dir", str(tmp_path / "refine")]) == 0
    matched = tmp_path / "refine" / "matched.csv"
    assert len(read_matched(matched, world.net).log_score)

    assert main(["infer", "--config", cfg, "--out-dir", str(tmp_path / "infer"),
                 "--matched", str(matched)]) == 0
    estimates = tmp_path / "infer" / "estimates.csv"
    assert estimates.read_bytes() == (tmp_path / "refine" / "estimates.csv").read_bytes()
    by_interval = read_estimates(estimates, world.net, GRID)
    assert set(by_interval) <= set(range(8))
    assert any(any(n > 0 for n in e.support) for e in by_interval.values())


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_infer_on_non_finite_entry_time_exits_2_naming_it(world, tmp_path, capsys, bad):
    matched = tmp_path / "bad_matched.csv"
    matched.write_text(f"vehicle_id,piece,segment_id,entry_time_s\n1,0,0,0.0\n1,0,2,{bad}\n")
    rc = main(["infer", "--config", world.cfg, "--out-dir", str(tmp_path),
               "--matched", str(matched)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_matched.csv" in err and "Traceback" not in err
    assert not (tmp_path / "estimates.csv").exists()


@pytest.mark.parametrize("command", ["infer", "evaluate"])
def test_entry_times_going_backwards_exit_2_naming_them(world, tmp_path, capsys, command):
    matched = tmp_path / "backwards_matched.csv"
    matched.write_text("vehicle_id,piece,segment_id,entry_time_s\n"
                       "1,0,0,100.0\n1,0,1,120.0\n1,0,2,30.0\n")
    estimates = ["--estimates", str(world.pipe / "estimates.csv")] if command == "evaluate" else []
    out = tmp_path / "out"
    rc = main([command, "--config", world.cfg, "--out-dir", str(out),
               "--matched", str(matched), *estimates])
    assert rc == 2
    err = capsys.readouterr().err
    assert "backwards_matched.csv: vehicle 1, piece 0: entry time 30.0 is below" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_refine_outputs(world, tmp_path):
    out = str(tmp_path)
    assert main(["refine", "--config", world.cfg, "--out-dir", out]) == 0
    assert len(read_matched(tmp_path / "matched.csv", world.net).log_score)
    assert read_estimates(tmp_path / "estimates.csv", world.net, GRID)
    assert read_estimates(tmp_path / "baseline.csv", world.net, GRID)
    assert list(zip(*read_table(tmp_path / "diagnostics.csv", DIAGNOSTICS_COLUMNS)))


def test_complete_command(world, tmp_path):
    out = str(tmp_path)
    rc = main(["complete", "--config", world.cfg, "--out-dir", out,
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 0
    # Same inputs as the pipeline's completion stage, same bytes out.
    assert (tmp_path / "completed.csv").read_bytes() == (world.pipe / "completed.csv").read_bytes()
    rows = list(zip(*read_table(tmp_path / "completed.csv", COMPLETED_COLUMNS)))
    assert {iv for _sid, iv, _t, _imputed in rows} == set(range(8))
    assert any(imputed for *_, imputed in rows)


def test_evaluate_report_full_beats_or_ties_baseline(world):
    doc = json.loads((world.pipe / "report.json").read_text())
    assert doc["mean"]["gain_pct"] >= 0.0
    assert 0.0 <= doc["mean"]["matching_accuracy_pct"] <= 100.0
    assert doc["mean"]["mse"] >= 0.0


def test_export_voc_and_geojson(world, tmp_path):
    out = str(tmp_path)
    states = str(world.pipe / "states.csv")
    rc = main(["export-voc", "--config", world.cfg, "--out-dir", out, "--states", states])
    assert rc == 0
    series = read_voc(tmp_path / "voc.csv")
    assert set(series) == {"secondary"}
    assert len(series["secondary"]) == 8
    assert all(v >= 0.0 for v in series["secondary"])
    assert series["secondary"][4:] == [0.0] * 4  # no traffic scheduled there

    rc = main(["export-geojson", "--config", world.cfg, "--out-dir", out, "--states", states])
    assert rc == 0
    doc = json.loads((tmp_path / "voc.geojson").read_text())
    assert len(doc["features"]) == world.net.n_segments

    # A missing input file is a usage error, as for every other input.
    assert main(["export-voc", "--config", world.cfg, "--out-dir", out,
                 "--states", str(tmp_path / "void.csv")]) == 1


def geojson_vocs(cfg, states, out) -> list[float]:
    assert main(["export-geojson", "--config", cfg, "--out-dir", str(out),
                 "--states", str(states)]) == 0
    return [f["properties"]["voc"]
            for f in json.loads((out / "voc.geojson").read_text())["features"]]


def test_export_geojson_maps_each_segments_peak_voc(world, tmp_path):
    """On the pipeline's states table, on one whose peaks fall in different
    intervals, and on a table of one interval, whose map is that interval's."""
    table = read_states(world.pipe / "states.csv", world.net, GRID)
    assert len(table) > 1
    cap = world.net.seg_capacity
    peak = np.max([flow / cap for flow, _ in table.values()], axis=0)
    assert geojson_vocs(world.cfg, world.pipe / "states.csv", tmp_path) == peak.tolist()

    # The map takes VOC from flow_vph, as export-voc does, not from the voc column.
    header, *rows = (world.pipe / "states.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "zeroed.csv").write_text(
        "\n".join([header, *(row.rsplit(",", 1)[0] + ",0.0" for row in rows)]) + "\n")
    assert geojson_vocs(world.cfg, tmp_path / "zeroed.csv", tmp_path / "z") == peak.tolist()

    first = min(table)
    flow, time = table[first]
    voc = flow / cap
    bump = np.resize([100.0, 0.0], len(flow))
    write_states({first: (flow + bump, time), 7: (flow + 100.0 - bump, time)}, world.net,
                 tmp_path / "mixed.csv")
    a, b = (f / cap for f, _ in read_states(tmp_path / "mixed.csv", world.net, GRID).values())
    assert np.any(a > b) and np.any(b > a)
    assert geojson_vocs(world.cfg, tmp_path / "mixed.csv", tmp_path) == np.maximum(a, b).tolist()

    lines = (world.pipe / "states.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    one = tmp_path / "one.csv"
    one.write_text("".join(lines[:1] + [line for line in lines[1:]
                                        if line.startswith(f"{first},")]), encoding="utf-8")
    geojson_vocs(world.cfg, one, tmp_path / "one")
    export_geojson(world.net, voc, tmp_path / "expected.geojson")
    assert (tmp_path / "one" / "voc.geojson").read_bytes() == (
        tmp_path / "expected.geojson").read_bytes()


def _off_grid(rows: list[str]) -> list[str]:
    """The first interval's rows moved to interval 8, one past the grid."""
    first = rows[0].split(",")[0]
    return [("8" + row[len(first):]) if row.split(",")[0] == first else row for row in rows]


def _first_row(flow: str, time: str):
    """An edit that sets the flow_vph and time_s fields of the first row."""
    def edit(rows: list[str]) -> list[str]:
        iv, sid, old_flow, old_time, voc = rows[0].split(",")
        return [",".join([iv, sid, flow or old_flow, time or old_time, voc]), *rows[1:]]
    return edit


@pytest.mark.parametrize("edit,message", [
    (_off_grid, "interval 8 not in 0..7"),
    (lambda rows: rows[:1] + rows, "listed more than once"),
    (lambda rows: rows[1:], "missing"),
    (lambda rows: [rows[0].rsplit(",", 1)[0] + ",nan", *rows[1:]],
     ", line 2: voc must be finite, got nan"),
    (lambda rows: [], "no rows"),
    (_first_row("-50", "-7"), ", line 2: flow_vph must be >= 0, got -50.0"),
    (_first_row("-50", ""), ", line 2: flow_vph must be >= 0, got -50.0"),
    (_first_row("", "0"), ", line 2: time_s must be > 0, got 0.0"),
], ids=["off-grid-interval", "repeated-segment", "missing-segment", "non-finite", "header-only",
        "negative-flow-and-time", "negative-flow", "zero-time"])
def test_export_voc_rejects_malformed_states_table(world, tmp_path, capsys, edit, message):
    """A bad table exits 2 naming the file, and for a bad value its line."""
    header, *rows = (world.pipe / "states.csv").read_text(encoding="utf-8").splitlines()
    states = tmp_path / "states.csv"
    states.write_text("\n".join([header, *edit(rows)]) + "\n", encoding="utf-8")
    rc = main(["export-voc", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--states", str(states)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(states) in err and message in err and "Traceback" not in err
    assert not (tmp_path / "out" / "voc.csv").exists()


def forbid_matching(monkeypatch):
    """Make any map matching or candidate search raise."""
    def matching(*args, **kwargs):
        raise AssertionError("evaluate matched traces")

    monkeypatch.setattr(refine, "match_traces", matching)
    monkeypatch.setattr(mapmatch, "project_to_candidates", matching)


def test_evaluate_on_unknown_trip_segment_exits_2_naming_it(world, tmp_path, capsys,
                                                            monkeypatch):
    trips = tmp_path / "bad_trips.csv"
    trips.write_bytes(Path(world.paths["trips"]).read_bytes() + b"99999,0.0,0/99999\r\n")
    forbid_matching(monkeypatch)
    rc = main(["evaluate", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--trips", str(trips), "--matched", str(world.pipe / "matched.csv"),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_trips.csv: unknown segment id 99999" in err and "Traceback" not in err


def test_evaluate_on_repeated_trip_exits_2_naming_the_file(world, tmp_path, capsys):
    text = Path(world.paths["trips"]).read_text(encoding="utf-8")
    trips = tmp_path / "twice.csv"
    trips.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
    vid = text.splitlines()[1].split(",")[0]
    rc = main(["evaluate", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--trips", str(trips), "--matched", str(world.pipe / "matched.csv"),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{trips}: vehicle {vid} has more than one trip" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()

    # A departure is the one time a trip keeps; nan is no departure.
    header, first, *rest = text.splitlines()
    vid, _, path = first.split(",")
    nan = tmp_path / "nan.csv"
    nan.write_text("\n".join([header, f"{vid},nan,{path}", *rest]) + "\n", encoding="utf-8")
    rc = main(["evaluate", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--trips", str(nan), "--matched", str(world.pipe / "matched.csv"),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{nan}, line 2: departure_s must be finite, got nan" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_evaluate_scores_files_without_matching(world, tmp_path, monkeypatch):
    forbid_matching(monkeypatch)
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", world.cfg, "--out-dir", str(out),
               "--matched", str(world.pipe / "matched.csv"),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 0
    assert (out / "report.json").read_bytes() == (world.pipe / "report.json").read_bytes()


def test_evaluate_without_baseline_file_exits_1_naming_it(world, tmp_path, capsys):
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "estimates.csv").write_bytes((world.pipe / "estimates.csv").read_bytes())
    rc = main(["evaluate", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--matched", str(world.pipe / "matched.csv"),
               "--estimates", str(alone / "estimates.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"baseline file not found: {alone / 'baseline.csv'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_pipeline_baseline_equals_the_tandem_oracle(world, tmp_path):
    net = read_network(world.paths["network"])
    _, want, _ = run_baseline(read_traces(world.paths["traces"]), net, GRID)
    write_estimates([want[iv] for iv in sorted(want)], tmp_path / "baseline.csv", net)
    assert (world.pipe / "baseline.csv").read_bytes() == (tmp_path / "baseline.csv").read_bytes()
    manifest = json.loads((world.pipe / "manifest.json").read_text())["artifacts"]
    assert manifest["baseline.csv"] == sha256(world.pipe / "baseline.csv")


def test_unroutable_od_pair_exits_2_naming_both_nodes(world, tmp_path, capsys):
    """A zone on an isolated node is bad input under any demand, not a solver failure."""
    island = Node(id=999, lat=world.net.nodes[8].lat + 0.01, lon=world.net.nodes[8].lon)
    network_path = tmp_path / "network.json"
    write_network(RoadNetwork([*world.net.nodes.values(), island], world.net.segments),
                  network_path)
    tazs = tmp_path / "tazs.csv"
    write_tazs([Taz(id=0, centroid_node=0, name="sw"), Taz(id=1, centroid_node=8, name="ne"),
                Taz(id=2, centroid_node=999, name="island")], tazs)
    cfg = write_config(tmp_path, **{**world.paths, "network": str(network_path),
                                    "tazs": str(tazs), "demand": str(tmp_path / "demand.csv")})
    assert main(["gen-demand", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    rc = main(["estimate-od", "--config", cfg, "--out-dir", str(out),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no route from node 0 to node 999" in err and "Traceback" not in err
    assert not list(tmp_path.rglob("*.partial"))


@pytest.mark.parametrize("section,key,literal", [
    ("nodes", "id", "1e400"),
    ("nodes", "id", "{}.5"),
    ("segments", "from", "{}.0"),
    ("segments", "id", str(2**63)),
    ("segments", "to", '"{}"'),
])
def test_refine_on_non_integer_network_id_exits_2_naming_it(world, tmp_path, capsys,
                                                            section, key, literal):
    doc = json.loads(Path(world.paths["network"]).read_text(encoding="utf-8"))
    value = doc[section][0][key]
    doc[section][0][key] = "@odd@"
    bad = tmp_path / "bad_network.json"
    bad.write_text(json.dumps(doc).replace('"@odd@"', literal.format(value)), encoding="utf-8")
    rc = main(["refine", "--network", str(bad), "--traces", world.paths["traces"],
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad_network.json" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Solver failure
# ---------------------------------------------------------------------------


def test_estimate_od_unknown_segment_exits_2(world, tmp_path, capsys):
    estimates = tmp_path / "estimates.csv"
    estimates.write_bytes((world.pipe / "estimates.csv").read_bytes() + b"0,99999,50.0,3\r\n")
    rc = main(["estimate-od", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--estimates", str(estimates)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "estimates.csv" in err and "99999" in err


def test_estimate_od_on_nan_time_exits_2_naming_it(world, tmp_path, capsys):
    header, *rows = (world.pipe / "estimates.csv").read_text().splitlines()
    fields = [r.split(",") for r in rows]
    bad = next(f for f in fields if int(f[3]) > 0)  # a supported segment
    bad[2] = "nan"
    estimates = tmp_path / "estimates.csv"
    estimates.write_text("\n".join([header, *(",".join(f) for f in fields)]) + "\n")
    rc = main(["estimate-od", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--estimates", str(estimates)])
    assert rc == 2
    err = capsys.readouterr().err
    line = 2 + fields.index(bad)
    assert f"estimates.csv, line {line}: time_s must be > 0, got nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["estimate-od", "complete", "evaluate"])
@pytest.mark.parametrize("interval", ["999", "-3"])
def test_estimates_off_the_grid_exit_2_naming_file_and_interval(world, tmp_path, capsys,
                                                                command, interval):
    header, *rows = (world.pipe / "estimates.csv").read_text().splitlines()
    rows = [",".join([interval, *r.split(",")[1:]]) if r.startswith("0,") else r for r in rows]
    estimates = tmp_path / "off_grid_estimates.csv"
    estimates.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "out"
    matched = ["--matched", str(world.pipe / "matched.csv")] if command == "evaluate" else []
    rc = main([command, "--config", world.cfg, "--out-dir", str(out),
               "--estimates", str(estimates), *matched])
    assert rc == 2
    err = capsys.readouterr().err
    assert "off_grid_estimates.csv" in err and f"interval {interval} not in 0..7" in err
    assert "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("row, message", [
    ("0,0,-5.0,3", "time_s must be > 0, got -5.0"),
    ("0,0,0.0,3", "time_s must be > 0, got 0.0"),
    ("0,1,10.0,-2", "support must be >= 0, got -2"),
], ids=["negative-time", "zero-time", "negative-support"])
def test_complete_on_bad_estimate_row_exits_2_naming_it(world, tmp_path, capsys, row, message):
    # Unchecked, a non-positive time would become an observed free-flow
    # cell of the matrix, and a negative support would count as observed.
    header, *rows = (world.pipe / "estimates.csv").read_text().splitlines()
    prefix = row[:row.index(",", 2) + 1]  # the interval and segment the row replaces
    assert sum(r.startswith(prefix) for r in rows) == 1
    line = 2 + next(i for i, r in enumerate(rows) if r.startswith(prefix))
    estimates = tmp_path / "bad_estimates.csv"
    estimates.write_text("\n".join([header, *(row if r.startswith(prefix) else r for r in rows)])
                         + "\n")
    out = tmp_path / "out"
    rc = main(["complete", "--config", world.cfg, "--out-dir", str(out),
               "--estimates", str(estimates)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"bad_estimates.csv, line {line}: {message}" in err and "Traceback" not in err
    assert not out.exists() or not list(out.iterdir())


def test_estimate_od_on_int_beyond_int64_exits_2_naming_it(world, tmp_path, capsys):
    header, *rows = (world.pipe / "estimates.csv").read_text().splitlines()
    fields = rows[0].split(",")
    fields[3] = "9" * 401
    estimates = tmp_path / "estimates.csv"
    estimates.write_text("\n".join([header, ",".join(fields), *rows[1:]]) + "\n")
    rc = main(["estimate-od", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--estimates", str(estimates)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "estimates.csv, line 2" in err and "int64" in err and "Traceback" not in err


def sabotage_od(tmp_path, world):
    """A config whose lower-level equilibrium cannot converge.

    Heavy gravity seed demand, which gen-demand writes under this config,
    with a one-iteration budget at an unreachable tolerance.
    """
    demand = tmp_path / "seed" / "demand.csv"
    cfg = write_config(tmp_path, od={"ue_tol": 1e-12, "ue_max_iter": 1},
                       gravity={"deterrence_scale": 1000.0, "total_trips": 5000.0},
                       **{**world.paths, "demand": str(demand)})
    assert main(["gen-demand", "--config", cfg, "--out-dir", str(demand.parent)]) == 0
    return cfg


def test_estimate_od_solver_failure_exits_3_with_partial(world, tmp_path, capsys, caplog):
    cfg = sabotage_od(tmp_path, world)
    rc = main(["estimate-od", "--config", cfg, "--out-dir", str(tmp_path),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 3
    partials = sorted(p.name for p in tmp_path.glob("od_demand_*.csv.partial"))
    assert len(partials) > 1
    assert "" != capsys.readouterr().err
    # The seed equilibrium is solved once, and retried once at ten times
    # ue_tol; its failure fails every interval.
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                and r.name == "probeflow.odestim"]
    assert len(warnings) == 1
    assert "retrying at 1.0e-11" in warnings[0]
    # The state and objective tables are written, holding no interval.
    assert (tmp_path / "states.csv").read_text() == "interval,segment_id,flow_vph,time_s,voc\n"
    assert (tmp_path / "objective.csv").read_text() == "interval,outer_iter,objective\n"


def test_gen_scenarios_with_overflowing_costs_exits_3_naming_the_segment(world, tmp_path,
                                                                        capsys):
    """On a connected grid an absurd multiplier overflows a cost; it is no missing route."""
    cfg = write_config(tmp_path, multipliers=[1e290], **world.paths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow itself warns nothing
        rc = main(["gen-scenarios", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.search(r"cost of segment \d+ is not finite", err)
    assert "no route" not in err and "Traceback" not in err


def test_estimate_od_with_overflowing_costs_exits_3_with_partial(world, tmp_path, capsys):
    demand = tmp_path / "demand.csv"
    demand.write_text("origin_taz,dest_taz,trips_per_hour\n0,1,1e300\n")
    cfg = write_config(tmp_path, **{**world.paths, "demand": str(demand)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["estimate-od", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                   "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.search(r"cost of segment \d+ is not finite", err)
    assert "no route" not in err and "Traceback" not in err
    partials = sorted((tmp_path / "out").glob("od_demand_*.csv.partial"))
    assert partials and all(read_demand(p) == {(0, 1): 1e300} for p in partials)


def test_pipeline_solver_failure_writes_partial_manifest(world, tmp_path):
    cfg = sabotage_od(tmp_path, world)
    rc = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json.partial").read_text())
    names = set(manifest["artifacts"])
    assert "matched.csv" in names  # refine stage finished normally
    assert any(name.endswith(".partial") for name in names)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------


def test_commands_load_only_the_libraries_they_use(congested_world, tmp_path):
    """No command loads scipy, Expat or numpy.ma, and only gen-traces loads OpenSSL or numpy.random.

    Each costs resident memory and start-up time in every process that
    imports it: scipy tens of MB, OpenSSL (``_hashlib``) 3.6 MB, and
    numpy.ma 2 MB. A fresh interpreter shows what importing the CLI
    pulls in, and what running refine, complete, pipeline and then
    gen-traces on the test world adds. Refine gets three passes and a
    stop tolerance no pass reaches, so it compares passes
    (``refine._changed``) too. The per-stage seed and the manifest hash
    with CPython's built-in SHA-256; gen-traces still maps OpenSSL, but
    only through numpy.random (``secrets`` imports ``hmac``). The world
    is ``congested_world``.
    """
    cfg, gen = congested_world.cfg, congested_world.gen
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from probeflow.cli import main, stage_seed\n"
        "cfg, out, estimates, truth_dir = sys.argv[1:]\n"
        "unused = ('scipy', '_hashlib', 'xml.etree', 'pyexpat', 'numpy.ma', 'numpy.random')\n"
        "def loaded(unused=unused):\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if any(m == u or m.startswith(u + '.') for u in unused))\n"
        "assert not loaded(), f'import probeflow.cli loads {loaded()}'\n"
        "assert main(['refine', '--config', cfg, '--out-dir', out]) == 0\n"
        "assert main(['complete', '--config', cfg, '--out-dir', out,\n"
        "             '--estimates', estimates]) == 0\n"
        "assert not loaded(), f'refine and complete load {loaded()}'\n"
        "assert main(['pipeline', '--config', cfg, '--out-dir', out + '/pipe']) == 0\n"
        "stage_seed('gen-traces', 0)\n"
        "assert not loaded(), f'pipeline or stage_seed loads {loaded()}'\n"
        "assert main(['gen-traces', '--config', cfg, '--out-dir', out + '/gen',\n"
        "             '--truth-dir', truth_dir]) == 0\n"
        "unused = ('scipy', 'xml.etree', 'pyexpat', 'numpy.ma')\n"
        "assert not loaded(unused), f'gen-traces loads {loaded(unused)}'\n"
    )
    src = str(Path(network.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code, cfg, str(out), str(out / "estimates.csv"),
                    str(gen)], env={**os.environ, "PYTHONPATH": path}, check=True)
    passes = read_table(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS)[0]
    assert len(passes) >= 2


@settings(max_examples=25, deadline=None)
@given(data=st.binary(max_size=3000))
@example(data=b"")
@example(data=b"\x00")
def test_builtin_digest_equals_hashlib(data):
    """The built-in SHA-256 that the seeds and the manifest use equals OpenSSL's."""
    assert _sha256()(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_sha256_falls_back_to_hashlib_without_the_builtin_module(monkeypatch):
    """A build without ``_sha2``/``_sha256`` hashes with ``hashlib`` instead of failing."""
    monkeypatch.setitem(sys.modules, "_sha2", None)  # None makes the import raise
    monkeypatch.setitem(sys.modules, "_sha256", None)
    sha256 = _sha256.__wrapped__()
    assert sha256 is hashlib.sha256
    assert sha256(b"abc").hexdigest() == hashlib.sha256(b"abc").hexdigest()


def test_stage_seed_is_frozen():
    assert stage_seed("gen-traces", 42) == 4319065301867439143
    assert stage_seed("estimate-od/3", 0) == 13833148127686459420
    assert stage_seed("gen-traces", 42) != stage_seed("gen-traces", 43)
    assert stage_seed("gen-traces", 42) != stage_seed("estimate-od", 42)


def test_gen_traces_reruns_are_byte_identical(world, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-traces", "--config", world.cfg, "--out-dir", str(out),
                     "--truth-dir", str(world.gen)]) == 0
    assert (a / "traces.csv").read_bytes() == (b / "traces.csv").read_bytes()

    c = tmp_path / "c"
    assert main(["gen-traces", "--config", world.cfg, "--out-dir", str(c),
                 "--truth-dir", str(world.gen), "--seed", "7"]) == 0
    assert (a / "traces.csv").read_bytes() != (c / "traces.csv").read_bytes()


def test_gen_demand_on_unknown_centroid_exits_2_naming_the_file(world, tmp_path, capsys):
    tazs = tmp_path / "bad.csv"
    write_tazs([Taz(id=0, centroid_node=0), Taz(id=1, centroid_node=999)], tazs)
    rc = main(["gen-demand", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--tazs", str(tazs)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{tazs}: TAZ 1: centroid node 999 not in network" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "demand.csv").exists()


def test_gen_traces_on_unknown_demand_taz_exits_2_naming_it(world, tmp_path, capsys):
    demand = tmp_path / "demand.csv"
    demand.write_text(Path(world.paths["demand"]).read_text() + "0,99,5.0\n")
    cfg = write_config(tmp_path, **{**world.paths, "demand": str(demand)})
    rc = main(["gen-traces", "--config", cfg, "--out-dir", str(tmp_path),
               "--truth-dir", str(world.gen)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown TAZ 99" in err and "Traceback" not in err
    assert not (tmp_path / "traces.csv").exists()


def test_gen_traces_on_zero_truth_time_exits_2_naming_it(world, tmp_path, capsys):
    header, first, *rest = (world.gen / "truth_000.csv").read_text().splitlines()
    sid, _, flow = first.split(",")
    (tmp_path / "truth_000.csv").write_text("\n".join([header, f"{sid},0.0,{flow}", *rest]) + "\n")
    rc = main(["gen-traces", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--truth-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'truth_000.csv'}, line 2: time_s must be > 0, got 0.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "traces.csv").exists()


def test_gen_traces_builds_one_tree_per_scenario_and_origin(world, tmp_path, monkeypatch):
    """The trips of one scenario share a router, so each origin starts one search tree."""
    calls = []

    class Counted(network._Tree):
        __slots__ = ()

        def __init__(self, source):
            calls.append(source)
            super().__init__(source)

    monkeypatch.setattr(network, "_Tree", Counted)
    out = tmp_path / "gen"
    assert main(["gen-traces", "--config", world.cfg, "--out-dir", str(out),
                 "--truth-dir", str(world.gen)]) == 0
    trips = read_trips(out / "trips.csv", world.net)
    origins = {world.net.segments[j].from_node for j in trips.segment[trips.bounds[:-1]].tolist()}
    scenarios = len({sid for sid in BASE_CONFIG["schedule"] if sid >= 0})
    assert len(trips.log_score) > scenarios * len(origins)
    assert len(calls) <= scenarios * len(origins)


def test_pipeline_rerun_manifest_identical(world, tmp_path):
    rerun = tmp_path / "rerun"
    assert main(["pipeline", "--config", world.cfg, "--out-dir", str(rerun)]) == 0
    first = (world.pipe / "manifest.json").read_bytes()
    second = (rerun / "manifest.json").read_bytes()
    assert first == second


def test_pipeline_matches_under_free_flow_once(world, tmp_path, monkeypatch):
    """Candidates are searched once per trace point per refine pass.

    The tandem baseline comes from refine's first pass, so evaluate adds
    no matching pass of its own.
    """
    calls = []
    search = mapmatch.project_to_candidates

    def counted(net, lats, lons, *args, **kwargs):
        calls.append(len(lats))
        return search(net, lats, lons, *args, **kwargs)

    monkeypatch.setattr(mapmatch, "project_to_candidates", counted)
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", world.cfg, "--out-dir", str(out)]) == 0
    passes = len(list(zip(*read_table(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS))))
    points = len(read_traces(world.paths["traces"]).t)
    assert passes >= 1 and points > 0
    assert sum(calls) == passes * points


@pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
def test_out_dir_that_cannot_be_a_directory_exits_1_naming_it(world, tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if under else blocker
    rc = main(["gen-demand", "--config", world.cfg, "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("fixture", ["world", "congested_world"])
def test_pipeline_equals_split_run(fixture, request, tmp_path):
    """The standalone commands write the pipeline's bytes, also after several refine passes."""
    world = request.getfixturevalue(fixture)
    split = tmp_path / "split"
    out = str(split)
    cfg = world.cfg
    assert main(["refine", "--config", cfg, "--out-dir", out]) == 0
    common = ["--matched", str(split / "matched.csv"),
              "--estimates", str(split / "estimates.csv")]
    assert main(["estimate-od", "--config", cfg, "--out-dir", out, *common[2:]]) == 0
    assert main(["complete", "--config", cfg, "--out-dir", out, *common[2:]]) == 0
    assert main(["evaluate", "--config", cfg, "--out-dir", out, *common]) == 0

    manifest = json.loads((world.pipe / "manifest.json").read_text())["artifacts"]
    produced = {p.name for p in split.iterdir()}
    assert produced == set(manifest)
    for name, digest in manifest.items():
        assert sha256(split / name) == digest, name
