"""Command-line behavior: exit codes, file glue, and reproducibility."""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from probeflow import mapmatch, network, refine
from probeflow.assignment import read_demand
from probeflow.cli import _SECTIONS, PipelineConfig, UsageError, main, stage_seed
from probeflow.errors import InputDataError
from probeflow.mapmatch import read_matched
from probeflow.network import Node, RoadNetwork, Taz, TimeGrid, read_network, write_network, write_tazs
from probeflow.completion import COMPLETED_COLUMNS
from probeflow.evaluation import read_voc
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


# ---------------------------------------------------------------------------
# Usage and configuration errors
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(world, tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["match"]) == 1
    assert main(["match", "--config", str(tmp_path / "missing.json")]) == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["match", "--config", str(bad_json)]) == 1

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"no_such_key": 1}))
    assert main(["match", "--config", str(unknown_key)]) == 1

    bad_param = tmp_path / "param.json"
    bad_param.write_text(json.dumps({"match": {"gps_sigma": -1.0}}))
    assert main(["match", "--config", str(bad_param)]) == 1

    # Keys that no longer exist, values of the wrong type, and numbers
    # RFC 8259 JSON does not have, with inputs that would let the command
    # run if the config were valid.
    inputs = ["--network", world.paths["network"], "--traces", world.paths["traces"]]
    for i, text in enumerate([
        json.dumps({"probe": {"rng_seed": 5}}),
        json.dumps({"threads": 2}),
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
        rc = main(["match", "--config", str(path), "--out-dir", str(tmp_path), *inputs])
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
        rc = main(["match", "--config", str(path), "--out-dir", str(tmp_path), *inputs])
        err = capsys.readouterr().err
        assert rc == 1, (section, key, err)
        assert f"config section {section!r}: unknown key {key!r}" in err, err
        assert "__init__" not in err, err
    assert not (tmp_path / "matched.csv").exists()

    assert main(["match", "--network", str(tmp_path / "nowhere.json"),
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


# Config values of the wrong JSON type for each annotated field type.
_WRONG_TYPES = {"int": (2.5, True), "float": (True, "1"), "float | None": (True, "1"),
                "bool": (1,)}


@pytest.mark.parametrize("section, f", [
    pytest.param(name, f, id=f"{name}.{f.name}")
    for name, cls in _SECTIONS.items() for f in fields(cls)])
def test_config_rejects_wrong_value_types(section, f):
    for value in _WRONG_TYPES[f.type]:
        with pytest.raises(UsageError, match=f.name):
            PipelineConfig.from_dict({section: {f.name: value}})


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


def test_match_on_empty_trace_file_exits_2_naming_it(world, tmp_path, capsys):
    empty = tmp_path / "empty_traces.csv"
    empty.write_text("vehicle_id,timestamp,lat,lon\n")
    rc = main(["match", "--network", world.paths["network"],
               "--traces", str(empty), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "empty_traces.csv" in capsys.readouterr().err


def test_match_on_short_trace_row_exits_2_naming_it(world, tmp_path, capsys):
    short = tmp_path / "short_traces.csv"
    short.write_text("vehicle_id,timestamp,lat,lon\n1,0.0,37.75,-122.45\n1,30.0\n")
    rc = main(["match", "--network", world.paths["network"],
               "--traces", str(short), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "short_traces.csv, line 3" in capsys.readouterr().err


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


def test_match_then_infer(world, tmp_path):
    out = str(tmp_path)
    assert main(["match", "--config", world.cfg, "--out-dir", out]) == 0
    matched = read_matched(tmp_path / "matched.csv", world.net)
    assert matched

    assert main(["infer", "--config", world.cfg, "--out-dir", out,
                 "--matched", str(tmp_path / "matched.csv")]) == 0
    estimates = read_estimates(tmp_path / "estimates.csv", world.net, GRID)
    assert set(estimates) <= set(range(8))
    assert any(any(n > 0 for n in e.support) for e in estimates.values())


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


def test_refine_outputs(world, tmp_path):
    out = str(tmp_path)
    assert main(["refine", "--config", world.cfg, "--out-dir", out]) == 0
    assert read_matched(tmp_path / "matched.csv", world.net)
    assert read_estimates(tmp_path / "estimates.csv", world.net, GRID)
    assert read_estimates(tmp_path / "baseline.csv", world.net, GRID)
    assert list(read_table(tmp_path / "diagnostics.csv", DIAGNOSTICS_COLUMNS))


def test_complete_command(world, tmp_path):
    out = str(tmp_path)
    rc = main(["complete", "--config", world.cfg, "--out-dir", out,
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 0
    # Same inputs as the pipeline's completion stage, same bytes out.
    assert (tmp_path / "completed.csv").read_bytes() == (world.pipe / "completed.csv").read_bytes()
    rows = list(read_table(tmp_path / "completed.csv", COMPLETED_COLUMNS))
    assert {iv for _sid, iv, _t, _imputed in rows} == set(range(8))
    assert any(imputed for *_, imputed in rows)


def test_evaluate_report_full_beats_or_ties_baseline(world):
    doc = json.loads((world.pipe / "report.json").read_text())
    assert doc["mean"]["gain_pct"] >= 0.0
    assert 0.0 <= doc["mean"]["matching_accuracy_pct"] <= 100.0
    assert doc["mean"]["mse"] >= 0.0


def test_export_voc_and_geojson(world, tmp_path):
    out = str(tmp_path)
    rc = main(["export-voc", "--config", world.cfg, "--out-dir", out,
               "--states-dir", str(world.pipe)])
    assert rc == 0
    series = read_voc(tmp_path / "voc.csv")
    assert set(series) == {"secondary"}
    assert len(series["secondary"]) == 8
    assert all(v >= 0.0 for v in series["secondary"])
    assert series["secondary"][4:] == [0.0] * 4  # no traffic scheduled there

    rc = main(["export-geojson", "--config", world.cfg, "--out-dir", out,
               "--state", str(world.pipe / "state_000.csv")])
    assert rc == 0
    doc = json.loads((tmp_path / "voc.geojson").read_text())
    assert len(doc["features"]) == world.net.n_segments

    assert main(["export-voc", "--config", world.cfg, "--out-dir", out,
                 "--states-dir", str(tmp_path / "void")]) == 2


def test_export_voc_rejects_stray_state_file(world, tmp_path, capsys):
    states = tmp_path / "states"
    states.mkdir()
    (states / "state_000.csv").write_bytes((world.pipe / "state_000.csv").read_bytes())
    (states / "state_old.csv").write_bytes((world.pipe / "state_000.csv").read_bytes())
    rc = main(["export-voc", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--states-dir", str(states)])
    assert rc == 2
    assert "state_old.csv" in capsys.readouterr().err


@pytest.mark.parametrize("names,named", [
    (["state_003.csv", "state_0003.csv"], ["state_003.csv", "state_0003.csv"]),
    (["state_000.csv", "state_008.csv"], ["state_008.csv"]),
], ids=["repeated-interval", "outside-grid"])
def test_export_voc_rejects_repeated_or_off_grid_interval(world, tmp_path, capsys, names, named):
    states = tmp_path / "states"
    states.mkdir()
    for name in names:
        (states / name).write_bytes((world.pipe / "state_000.csv").read_bytes())
    rc = main(["export-voc", "--config", world.cfg, "--out-dir", str(tmp_path / "out"),
               "--states-dir", str(states)])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named) and "Traceback" not in err
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
    paths = {k: v for k, v in world.paths.items() if k != "demand"}
    cfg = write_config(tmp_path, **{**paths, "network": str(network_path), "tazs": str(tazs)})
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
def test_match_on_non_integer_network_id_exits_2_naming_it(world, tmp_path, capsys,
                                                           section, key, literal):
    doc = json.loads(Path(world.paths["network"]).read_text(encoding="utf-8"))
    value = doc[section][0][key]
    doc[section][0][key] = "@odd@"
    bad = tmp_path / "bad_network.json"
    bad.write_text(json.dumps(doc).replace('"@odd@"', literal.format(value)), encoding="utf-8")
    rc = main(["match", "--network", str(bad), "--traces", world.paths["traces"],
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
    assert "estimates.csv" in err and f"segment {bad[1]}" in err and "Traceback" not in err


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

    Heavy gravity demand (no demand file, so the seed comes from
    gravity) with a one-iteration budget at an unreachable tolerance.
    """
    paths = {k: v for k, v in world.paths.items() if k != "demand"}
    return write_config(tmp_path, od={"ue_tol": 1e-12, "ue_max_iter": 1},
                        gravity={"deterrence_scale": 1000.0, "total_trips": 5000.0},
                        **paths)


def test_estimate_od_solver_failure_exits_3_with_partial(world, tmp_path, capsys, caplog):
    cfg = sabotage_od(tmp_path, world)
    rc = main(["estimate-od", "--config", cfg, "--out-dir", str(tmp_path),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 3
    partials = sorted(p.name for p in tmp_path.glob("od_demand_*.csv.partial"))
    assert partials
    assert "" != capsys.readouterr().err
    # Each failed interval retried its lower level once, at ten times ue_tol.
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"
                and r.name == "probeflow.odestim"]
    assert len(warnings) == len(partials)
    assert all("retrying at 1.0e-11" in w for w in warnings)


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


def test_gen_traces_on_unknown_demand_taz_exits_2_naming_it(world, tmp_path, capsys):
    demand = tmp_path / "demand.csv"
    demand.write_text(open(world.paths["demand"]).read() + "0,99,5.0\n")
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
    assert str(tmp_path / "truth_000.csv") in err and f"segment {sid}" in err
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
    origins = {world.net.segments[trip.path[0]].from_node for trip in trips}
    scenarios = len({sid for sid in BASE_CONFIG["schedule"] if sid >= 0})
    assert len(trips) > scenarios * len(origins)
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
    passes = len(list(read_table(out / "diagnostics.csv", DIAGNOSTICS_COLUMNS)))
    points = sum(len(trace) for trace in read_traces(world.paths["traces"]))
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


def test_pipeline_equals_split_run(world, tmp_path):
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
