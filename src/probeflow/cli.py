"""Command-line front end gluing the pipeline stages to files on disk.

Commands fall into three groups: data preparation (import-osm,
gen-demand, gen-scenarios, gen-traces), the estimation chain (refine,
infer, estimate-od, complete), and reporting (evaluate, export-voc,
export-geojson). A single free-flow matching pass is ``refine`` with
``refine.max_iters`` 1; ``infer`` re-infers an existing matched file.
``pipeline`` chains refine, per-interval demand estimation, completion,
and evaluation over one input set and writes a manifest of SHA-256
content hashes for every artifact it produced. Demand estimation starts
from the seed demand of its ``demand`` input, which ``gen-demand`` writes.

One table, ``_COMMANDS``, names each command's handler and the input
paths it reads; it gives each command its path flags and ``pipeline``
its up-front input check. Configuration comes from a JSON file named
with ``--config`` plus command-line flags; flags win over file values.
Every randomized stage derives its own seed by hashing the stage name
together with the global seed, so stages are statistically independent
while the whole run stays a pure function of one integer. All writers
emit shortest round-trip float text, which makes byte-identical reruns
the expected behavior and hash comparison a meaningful regression check.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed
input data, 3 solver non-convergence. On exit 3 whatever artifacts were
still computable are written with a ``.partial`` suffix so downstream
tooling never mistakes them for converged results.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .assignment import AssignParams, read_demand, write_demand
from .completion import (
    CompletionParams,
    assemble_matrix,
    complete,
    write_completed,
    write_matrix,
)
from .errors import InputDataError, SolverError
from .evaluation import (
    ScenarioMetrics,
    aggregate_error_pct,
    build_report,
    export_geojson,
    gain_pct,
    matching_accuracy_pct,
    mse,
    voc_series,
    write_report,
    write_voc,
)
from .mapmatch import MatchParams, concat_fixes, read_matched, write_matched
from .network import RoadNetwork, TimeGrid, import_osm, read_network, read_tazs, write_network
from .odestim import (
    GravityParams,
    OdSolveParams,
    SpsaParams,
    estimate_od,
    read_state,
    seed_equilibrium,
    seed_gravity,
    write_objective_trace,
    write_state,
)
from .refine import RefineParams, refine, write_diagnostics
from .tracegen import (
    GroundTruthScenario,
    ProbeConfig,
    gen_scenarios,
    generate_probe_data,
    read_traces,
    read_trips,
    read_truth,
    write_traces,
    write_trips,
    write_truth,
)
from .ttinfer import (
    InferParams,
    SegmentTimeEstimate,
    infer_times,
    observations_from_matches,
    read_estimates,
    write_estimates,
)

logger = logging.getLogger(__name__)

NETWORK_FILE = "network.json"
DEMAND_FILE = "demand.csv"
TRACES_FILE = "traces.csv"
TRIPS_FILE = "trips.csv"
MATCHED_FILE = "matched.csv"
ESTIMATES_FILE = "estimates.csv"
BASELINE_FILE = "baseline.csv"
DIAGNOSTICS_FILE = "diagnostics.csv"
MATRIX_FILE = "matrix.csv"
COMPLETED_FILE = "completed.csv"
REPORT_FILE = "report.json"
VOC_FILE = "voc.csv"
GEOJSON_FILE = "voc.geojson"
MANIFEST_FILE = "manifest.json"


def truth_file(scenario_id: int) -> str:
    return f"truth_{scenario_id:03d}.csv"


def demand_file(interval: int) -> str:
    return f"od_demand_{interval:03d}.csv"


def state_file(interval: int) -> str:
    return f"state_{interval:03d}.csv"


def objective_file(interval: int) -> str:
    return f"objective_{interval:03d}.csv"


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# JSON value types each annotated section field accepts (bools only for bool).
_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "int": int, "float": (int, float), "float | None": (int, float, type(None)), "bool": bool,
}


@dataclass
class PipelineConfig:
    """Everything a command needs: file paths, parameters, and the seed.

    Built from the JSON config file and command-line overrides; all
    parameter validation happens here, before any file is read, so a
    bad configuration can never burn compute first. ``paths`` holds the
    input paths that were set, by their key in ``_COMMANDS``; each field
    typed by a parameter dataclass is one config section.
    """

    seed: int = 0
    out_dir: str = "."
    scenario_name: str = "default"
    multipliers: list[float] = field(default_factory=lambda: [1.0])
    schedule: list[int] | None = None
    paths: dict[str, str] = field(default_factory=dict)
    grid: TimeGrid = field(default_factory=TimeGrid)
    match: MatchParams = field(default_factory=MatchParams)
    infer: InferParams = field(default_factory=InferParams)
    spsa: SpsaParams = field(default_factory=SpsaParams)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    refine: RefineParams = field(default_factory=RefineParams)
    od: OdSolveParams = field(default_factory=OdSolveParams)
    completion: CompletionParams = field(default_factory=CompletionParams)
    assignment: AssignParams = field(default_factory=AssignParams)
    gravity: GravityParams = field(default_factory=GravityParams)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = set(_SECTIONS) | set(_PATH_KEYS) | {
            "seed", "out_dir", "scenario_name", "multipliers", "schedule",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")

        kwargs: dict = {}
        for key, section_type in _SECTIONS.items():
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise UsageError(f"config key {key!r} must be an object")
            unknown = sorted(set(section) - {f.name for f in fields(section_type)})
            if unknown:
                raise UsageError(f"config section {key!r}: unknown key {unknown[0]!r}")
            for f in fields(section_type):
                value = section.get(f.name)
                if f.name in section and (isinstance(value, bool) != (f.type == "bool")
                                          or not isinstance(value, _FIELD_TYPES[f.type])):
                    raise UsageError(f"config section {key!r}: {f.name} must be {f.type}, "
                                     f"got {value!r}")
            try:
                kwargs[key] = section_type(**section)
            except InputDataError as exc:
                raise UsageError(f"config section {key!r}: {exc}") from exc

        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise UsageError("config key 'seed' must be an integer")
        kwargs["seed"] = seed

        out_dir = doc.get("out_dir", ".")
        name = doc.get("scenario_name", "default")
        if not isinstance(out_dir, str) or not isinstance(name, str) or not name:
            raise UsageError("'out_dir' and 'scenario_name' must be non-empty strings")
        kwargs["out_dir"] = out_dir
        kwargs["scenario_name"] = name

        multipliers = doc.get("multipliers", [1.0])
        if (not isinstance(multipliers, list) or not multipliers
                or any(type(m) not in (int, float) or m <= 0 for m in multipliers)):
            raise UsageError("config key 'multipliers' must be a list of positive numbers")
        kwargs["multipliers"] = [float(m) for m in multipliers]

        schedule = doc.get("schedule")
        if schedule is not None:
            if not isinstance(schedule, list) or any(
                    not isinstance(s, int) or isinstance(s, bool) for s in schedule):
                raise UsageError("config key 'schedule' must be a list of integers")
            count = kwargs["grid"].interval_count
            if len(schedule) != count:
                raise UsageError(f"schedule length {len(schedule)} != interval count {count}")
            bad = [s for s in schedule if not -1 <= s < len(multipliers)]
            if bad:
                raise UsageError(f"schedule entry {bad[0]} is neither -1 (no traffic) nor "
                                 f"one of the {len(multipliers)} configured scenarios")
            if max(schedule) < 0:
                raise UsageError("schedule activates no scenario")
        kwargs["schedule"] = schedule

        kwargs["paths"] = {key: doc[key] for key in _PATH_KEYS if doc.get(key) is not None}
        for key, value in kwargs["paths"].items():
            if not isinstance(value, str):
                raise UsageError(f"config key {key!r} must be a string path")

        return cls(**kwargs)


# Config section name -> parameter dataclass, from PipelineConfig's fields.
_SECTIONS: dict[str, type] = {f.name: f.default_factory for f in fields(PipelineConfig)
                              if is_dataclass(f.default_factory)}


@functools.cache
def _sha256():
    """CPython's built-in SHA-256 constructor, or ``hashlib``'s on builds without it.

    ``hashlib`` would map OpenSSL, 3.6 MB of resident memory, for the
    same digest. The module is ``_sha2`` from Python 3.12 on and
    ``_sha256`` before: the one ``hashlib`` falls back to without OpenSSL.
    Builds that leave it out, such as OpenSSL-only ones, get ``hashlib``'s.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def stage_seed(stage: str, seed: int) -> int:
    """Per-stage seed: a stable hash of the stage name and the global seed."""
    digest = _sha256()(f"{stage}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _json_number(text: str) -> int | float:
    """JSON number hook that rejects literals beyond the float range."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value if any(c in text for c in ".eE") else int(text)


def _json_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file plus flag overrides; any bad value raises UsageError.

    Numbers must be finite: NaN, Infinity and literals that overflow a
    float are rejected as the file is read.
    """
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be a positive integer")
    doc: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"), parse_float=_json_number,
                             parse_int=_json_number, parse_constant=_json_constant)
        except ValueError as exc:  # json.JSONDecodeError included
            raise UsageError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"{path}: top level must be a JSON object")
    cfg = PipelineConfig.from_dict(doc)

    flags = {key: value for key in ("seed", "out_dir", *_COMMANDS[args.command][1])
             if (value := getattr(args, key)) is not None}
    return replace(cfg, seed=flags.pop("seed", cfg.seed), out_dir=flags.pop("out_dir", cfg.out_dir),
                   paths={**cfg.paths, **flags})


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _out(cfg: PipelineConfig) -> Path:
    path = Path(cfg.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {path} as the output directory: {exc.strerror}") from exc
    return path


def _input(cfg: PipelineConfig, key: str) -> Path:
    """Resolve a required input path, insisting that it exists."""
    value = cfg.paths.get(key)
    if value is None:
        flag = key.replace("_", "-")
        raise UsageError(f"no {key} file given (use --{flag} or config key {key!r})")
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"{key} file not found: {path}")
    return path


def _supported_intervals(estimates) -> list[int]:
    """Intervals whose estimate rests on at least one observation."""
    return sorted(iv for iv, est in estimates.items() if np.any(est.support > 0))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_import_osm(cfg: PipelineConfig, _: None, artifacts: list[Path]) -> None:
    net = import_osm(_input(cfg, "osm"))
    out = _out(cfg) / NETWORK_FILE
    write_network(net, out)
    artifacts.append(out)


def _cmd_gen_demand(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    tazs = read_tazs(_input(cfg, "tazs"), net)
    demand = seed_gravity(net, tazs, cfg.gravity)
    out = _out(cfg) / DEMAND_FILE
    write_demand(demand, out)
    artifacts.append(out)


def _cmd_gen_scenarios(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    tazs = read_tazs(_input(cfg, "tazs"), net)
    demand = read_demand(_input(cfg, "demand"))
    scenarios = gen_scenarios(net, demand, cfg.multipliers, tazs, cfg.assignment)
    out = _out(cfg)
    for scen in scenarios:
        path = out / truth_file(scen.id)
        write_truth(scen, net, path)
        artifacts.append(path)


def _cmd_gen_traces(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """Simulate probe data for the scheduled scenarios.

    Writes one trace file and one trip file covering the whole week,
    which is what the estimation chain reads.
    """
    tazs = read_tazs(_input(cfg, "tazs"), net)
    demand = read_demand(_input(cfg, "demand"))

    schedule = cfg.schedule if cfg.schedule is not None else [0] * cfg.grid.interval_count
    needed = sorted({s for s in schedule if s >= 0})
    truth_dir = Path(cfg.paths.get("truth_dir", cfg.out_dir))
    scenarios = []
    for sid in needed:
        path = truth_dir / truth_file(sid)
        if not path.is_file():
            raise UsageError(f"truth file not found: {path}")
        times, flows = read_truth(path, net)
        scenarios.append(GroundTruthScenario(
            id=sid, demand_multiplier=cfg.multipliers[sid], time=times, flow=flows))

    data = generate_probe_data(net, tazs, demand, scenarios, schedule, cfg.grid, cfg.probe,
                               rng_seed=stage_seed("gen-traces", cfg.seed))

    out = _out(cfg)
    write_traces(concat_fixes([data[sid][1] for sid in needed]), out / TRACES_FILE)
    write_trips([trip for sid in needed for trip in data[sid][0]], out / TRIPS_FILE, net)
    artifacts.extend([out / TRACES_FILE, out / TRIPS_FILE])


def _cmd_infer(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    matched = read_matched(_input(cfg, "matched"), net)
    obs = observations_from_matches(matched, cfg.grid)
    estimates = [infer_times(obs[iv], net, net.seg_fft, cfg.infer) for iv in sorted(obs)]
    out = _out(cfg) / ESTIMATES_FILE
    write_estimates(estimates, out, net)
    artifacts.append(out)


def _cmd_refine(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """Refine, writing matched paths, estimates, the tandem baseline and diagnostics.

    The baseline's estimates, decoded from refine's free-flow first pass,
    go to ``baseline.csv`` beside ``estimates.csv``, where evaluate reads
    them.
    """
    fixes = read_traces(_input(cfg, "traces"))
    baseline: dict[int, SegmentTimeEstimate] = {}
    pieces, estimates, diag = refine(fixes, net, cfg.grid, match_params=cfg.match,
                                     infer_params=cfg.infer, params=cfg.refine,
                                     baseline=baseline)
    out = _out(cfg)
    write_matched(pieces, out / MATCHED_FILE, net)
    write_estimates([estimates[iv] for iv in sorted(estimates)], out / ESTIMATES_FILE, net)
    write_estimates([baseline[iv] for iv in sorted(baseline)], out / BASELINE_FILE, net)
    write_diagnostics(diag, out / DIAGNOSTICS_FILE)
    artifacts.extend([out / MATCHED_FILE, out / ESTIMATES_FILE, out / BASELINE_FILE,
                      out / DIAGNOSTICS_FILE])


def _cmd_estimate_od(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """Demand estimation per supported interval.

    When the equilibrium solver gives up on an interval, that interval's
    seed demand is written with a .partial suffix, every other interval
    keeps its regular output, and the command fails with exit code 3
    afterwards.
    """
    tazs = read_tazs(_input(cfg, "tazs"), net)
    estimates = read_estimates(_input(cfg, "estimates"), net, cfg.grid)
    seed_demand = read_demand(_input(cfg, "demand"))

    intervals = _supported_intervals(estimates)
    if not intervals:
        raise InputDataError(f"{cfg.paths['estimates']}: no interval has observation support")

    out = _out(cfg)
    failures: dict[int, SolverError] = {}
    seed_state = None  # the seed's equilibrium, the same for every interval
    for iv in intervals:
        try:
            if seed_state is None:
                seed_state = seed_equilibrium(net, tazs, seed_demand, cfg.od)
            est = estimate_od(net, tazs, estimates[iv], seed_demand, spsa=cfg.spsa, od=cfg.od,
                              seed_state=seed_state)
        except SolverError as exc:
            failures[iv] = exc
            partial = out / (demand_file(iv) + ".partial")
            write_demand(seed_demand, partial)
            artifacts.append(partial)
            continue
        write_demand(est.demand, out / demand_file(iv))
        write_state(est.result, net, out / state_file(iv))
        write_objective_trace(est.objective_trace, out / objective_file(iv))
        artifacts.extend([out / demand_file(iv), out / state_file(iv), out / objective_file(iv)])
    if failures:
        first = min(failures)
        raise SolverError(f"interval {first}: {failures[first]}")


def _cmd_complete(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    estimates = read_estimates(_input(cfg, "estimates"), net, cfg.grid)
    mat = assemble_matrix({iv: e.time for iv, e in estimates.items()}, net, cfg.grid,
                          support_by_interval={iv: e.support for iv, e in estimates.items()})
    out = _out(cfg)
    write_matrix(mat, out / MATRIX_FILE, net)
    artifacts.append(out / MATRIX_FILE)
    result = complete(mat, cfg.completion)
    write_completed(result, out / COMPLETED_FILE, net)
    artifacts.append(out / COMPLETED_FILE)


def _cmd_evaluate(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """Score refined estimates against ground truth and the tandem baseline.

    The baseline is the ``baseline.csv`` that refine wrote beside the
    ``estimates`` input. Travel-time metrics average over the intervals
    that carry observations in both the refined and the baseline run;
    matching accuracy comes from the matched file against the truth trips.
    """
    truth_times, _ = read_truth(_input(cfg, "truth"), net)
    trips = read_trips(_input(cfg, "trips"), net)
    matched = read_matched(_input(cfg, "matched"), net)
    estimates = _input(cfg, "estimates")
    full = read_estimates(estimates, net, cfg.grid)
    baseline = estimates.parent / BASELINE_FILE
    if not baseline.is_file():
        raise UsageError(f"baseline file not found: {baseline} (refine writes it beside "
                         f"{ESTIMATES_FILE})")
    base_est = read_estimates(baseline, net, cfg.grid)

    intervals = [iv for iv in _supported_intervals(full) if iv in base_est]
    if not intervals:
        raise InputDataError("no interval carries observations in both runs")

    full_mse = math.fsum(mse(full[iv].time, truth_times) for iv in intervals) / len(intervals)
    base_mse = math.fsum(mse(base_est[iv].time, truth_times) for iv in intervals) / len(intervals)
    agg = math.fsum(aggregate_error_pct(full[iv].time, truth_times)
                    for iv in intervals) / len(intervals)
    metrics = ScenarioMetrics(
        mse=full_mse,
        gain_pct=gain_pct(full_mse, base_mse),
        aggregate_error_pct=agg,
        matching_accuracy_pct=matching_accuracy_pct(matched, trips, net),
    )
    report = build_report({cfg.scenario_name: metrics})
    out = _out(cfg) / REPORT_FILE
    write_report(report, out)
    artifacts.append(out)


def _cmd_export_voc(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """Per-class mean VOC series from the state files, at most one per grid interval."""
    states_dir = Path(cfg.paths.get("states_dir", cfg.out_dir))
    files: dict[int, Path] = {}
    for path in sorted(states_dir.glob("state_*.csv")):
        match = re.fullmatch(r"state_(\d+)", path.stem)
        if match is None:
            raise InputDataError(f"{path}: not a state_<interval>.csv file name")
        interval = int(match.group(1))
        if interval in files:
            raise InputDataError(f"{files[interval]} and {path} both hold interval {interval}")
        if interval >= cfg.grid.interval_count:
            raise InputDataError(f"{path}: interval {interval} not in 0..{cfg.grid.interval_count - 1}")
        files[interval] = path
    if not files:
        raise InputDataError(f"no state files found in {states_dir}")
    flows_by_interval = {iv: read_state(path, net)[0] for iv, path in files.items()}
    classes = sorted({s.road_class for s in net.segments})
    series = {cls: voc_series(flows_by_interval, net, cfg.grid, class_filter=cls)
              for cls in classes}
    out = _out(cfg) / VOC_FILE
    write_voc(series, out)
    artifacts.append(out)


def _cmd_export_geojson(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    _, _, vocs = read_state(_input(cfg, "state"), net)
    out = _out(cfg) / GEOJSON_FILE
    export_geojson(net, vocs, out)
    artifacts.append(out)


def _write_manifest(out: Path, artifacts: list[Path], partial: bool) -> None:
    doc = {"artifacts": {
        path.name: _sha256()(path.read_bytes()).hexdigest()
        for path in sorted(set(artifacts))
    }}
    name = MANIFEST_FILE + (".partial" if partial else "")
    with open(out / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_pipeline(cfg: PipelineConfig, net: RoadNetwork, artifacts: list[Path]) -> None:
    """refine, then per-interval demand estimation, completion, evaluation.

    The network is read once and handed to every stage. Each stage reads
    its other inputs from the files the previous stage wrote, exactly as
    the standalone commands would, so a split run and a single run
    produce identical bytes. The manifest records a SHA-256 hash per
    artifact, with CPython's built-in SHA-256 (``_sha256``) so that the
    run maps no OpenSSL; on solver failure it is written with a .partial
    suffix covering whatever completed.
    """
    for key in _COMMANDS["pipeline"][1]:
        _input(cfg, key)

    out = _out(cfg)
    staged = replace(cfg, paths={**cfg.paths, "matched": str(out / MATCHED_FILE),
                                 "estimates": str(out / ESTIMATES_FILE)})
    try:
        _cmd_refine(staged, net, artifacts)
        _cmd_estimate_od(staged, net, artifacts)
        _cmd_complete(staged, net, artifacts)
        _cmd_evaluate(staged, net, artifacts)
    except SolverError:
        _write_manifest(out, artifacts, partial=True)
        raise
    _write_manifest(out, artifacts, partial=False)


# Each command's handler and the input paths it reads. An input key is a
# config key and, with "-" for "_", a flag of that command; main reads
# the network before the handler runs when the command lists it.
_COMMANDS: dict[str, tuple[Callable[[PipelineConfig, RoadNetwork | None, list[Path]], None],
                           tuple[str, ...]]] = {
    "import-osm": (_cmd_import_osm, ("osm",)),
    "gen-demand": (_cmd_gen_demand, ("network", "tazs")),
    "gen-scenarios": (_cmd_gen_scenarios, ("network", "tazs", "demand")),
    "gen-traces": (_cmd_gen_traces, ("network", "tazs", "demand", "truth_dir")),
    "infer": (_cmd_infer, ("network", "matched")),
    "refine": (_cmd_refine, ("network", "traces")),
    "estimate-od": (_cmd_estimate_od, ("network", "tazs", "estimates", "demand")),
    "complete": (_cmd_complete, ("network", "estimates")),
    "evaluate": (_cmd_evaluate, ("network", "truth", "trips", "matched", "estimates")),
    "export-voc": (_cmd_export_voc, ("network", "states_dir")),
    "export-geojson": (_cmd_export_geojson, ("network", "state")),
    "pipeline": (_cmd_pipeline, ("network", "tazs", "traces", "truth", "trips", "demand")),
}

_PATH_KEYS = tuple(dict.fromkeys(key for _, keys in _COMMANDS.values() for key in keys))


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--seed", type=int, metavar="N", help="global random seed")
    common.add_argument("--threads", type=int, metavar="N",
                        help="accepted for compatibility and ignored; stages run on one thread")
    common.add_argument("--out-dir", metavar="PATH", help="directory for outputs")

    parser = _Parser(prog="probeflow",
                     description="Traffic state estimation from GPS probe traces.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common])
        for key in keys:
            p.add_argument(f"--{key.replace('_', '-')}", metavar="PATH")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        handler, keys = _COMMANDS[args.command]
        net = read_network(_input(cfg, "network")) if "network" in keys else None
        handler(cfg, net, [])
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
