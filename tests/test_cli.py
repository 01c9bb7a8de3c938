"""Command-line behavior: exit codes, file glue, and reproducibility."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

from probeflow.cli import main, stage_seed
from probeflow.mapmatch import read_matched
from probeflow.network import Taz, read_network, write_network, write_tazs
from probeflow.completion import read_completed
from probeflow.evaluation import read_voc
from probeflow.refine import read_diagnostics
from probeflow.ttinfer import read_estimates

from conftest import make_grid_network

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


def test_usage_errors_exit_1(tmp_path):
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

    assert main(["match", "--network", str(tmp_path / "nowhere.json"),
                 "--traces", str(tmp_path / "nowhere.csv")]) == 1


def test_threads_must_be_positive(world):
    assert main(["infer", "--config", world.cfg, "--threads", "0"]) == 1


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
    matched = read_matched(tmp_path / "matched.csv")
    assert matched

    assert main(["infer", "--config", world.cfg, "--out-dir", out,
                 "--matched", str(tmp_path / "matched.csv")]) == 0
    estimates = read_estimates(tmp_path / "estimates.csv", world.net)
    assert set(estimates) <= set(range(8))
    assert any(any(n > 0 for n in e.support) for e in estimates.values())


def test_infer_threads_do_not_change_bytes(world, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    matched = str(world.pipe / "matched.csv")
    for out, threads in ((a, "1"), (b, "4")):
        rc = main(["infer", "--config", world.cfg, "--out-dir", str(out),
                   "--matched", matched, "--threads", threads])
        assert rc == 0
    assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()


def test_refine_outputs(world, tmp_path):
    out = str(tmp_path)
    assert main(["refine", "--config", world.cfg, "--out-dir", out]) == 0
    assert read_matched(tmp_path / "matched.csv")
    assert read_estimates(tmp_path / "estimates.csv", world.net)
    diag = read_diagnostics(tmp_path / "diagnostics.csv")
    assert diag.records


def test_complete_command(world, tmp_path):
    out = str(tmp_path)
    rc = main(["complete", "--config", world.cfg, "--out-dir", out,
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 0
    # Same inputs as the pipeline's completion stage, same bytes out.
    assert (tmp_path / "completed.csv").read_bytes() == (world.pipe / "completed.csv").read_bytes()
    times, imputed = read_completed(tmp_path / "completed.csv")
    assert len(times) == 8
    assert imputed


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


def sabotage_od(tmp_path, world):
    """A config whose lower-level equilibrium cannot converge.

    Heavy gravity demand (no demand file, so the seed comes from
    gravity) with a one-iteration budget at an unreachable tolerance.
    """
    paths = {k: v for k, v in world.paths.items() if k != "demand"}
    return write_config(tmp_path, od={"ue_tol": 1e-12, "ue_max_iter": 1},
                        gravity={"deterrence_scale": 1000.0, "total_trips": 5000.0},
                        **paths)


def test_estimate_od_solver_failure_exits_3_with_partial(world, tmp_path, capsys):
    cfg = sabotage_od(tmp_path, world)
    rc = main(["estimate-od", "--config", cfg, "--out-dir", str(tmp_path),
               "--estimates", str(world.pipe / "estimates.csv")])
    assert rc == 3
    partials = sorted(p.name for p in tmp_path.glob("od_demand_*.csv.partial"))
    assert partials
    assert "" != capsys.readouterr().err


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


def test_pipeline_rerun_manifest_identical(world, tmp_path):
    rerun = tmp_path / "rerun"
    assert main(["pipeline", "--config", world.cfg, "--out-dir", str(rerun)]) == 0
    first = (world.pipe / "manifest.json").read_bytes()
    second = (rerun / "manifest.json").read_bytes()
    assert first == second


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
