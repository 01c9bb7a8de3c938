"""probeflow benchmark: runs the CLI as a user would and scores its outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is run from the checkout's ``src`` directory; nothing is
installed. Every command runs in a fresh process with ``--threads 1`` and
BLAS pinned to one thread, one after another (one client, closed loop).

``--trace 0`` alternates building the world and running the timed
command, for about ``--seconds`` and at least ``MIN_SAMPLES`` pairs;
``setup_s``, ``run_s`` and ``peak_rss_mb`` are medians over the pairs,
and the first run's outputs are scored. ``--trace 1`` builds the world once
under the tracer, runs the timed command once untraced, then once more
under the tracer, split into its standalone commands, and reports the
per-layer counters. The last line of stdout is the result object; the
line before it is the run record (versions, sizes, samples, failures),
which also goes to ``.perfbench/results/``.

A timed run fails when the command exits nonzero, leaves a required
artifact missing, or writes a manifest that does not match its files or
differs from the workload's first run. A later set-up fails when it
builds a different world; the traced split run fails when its artifacts
differ from the single run's manifest; the first run's scores fail when
they leave the workload's frozen limits. ``failed``/``attempted`` is
the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import matrix  # noqa: E402
import quality  # noqa: E402
import worlds  # noqa: E402

MIN_SAMPLES = 3
BUDGET_S = 170.0  # a run ends within this, with margin to the 180 s limit
SETUP_COMMANDS = ("gen-demand", "gen-scenarios", "gen-traces")
SPLIT_COMMANDS = ("refine", "estimate-od", "complete", "evaluate")
REQUIRED = {
    "pipeline": ("matched.csv", "estimates.csv", "diagnostics.csv", "matrix.csv",
                 "completed.csv", "report.json", "manifest.json"),
    "complete": ("matrix.csv", "completed.csv"),
}
WORLD_FILES = {
    "pipeline": ("demand.csv", "truth_*.csv", "traces.csv", "trips.csv"),
    "complete": ("estimates.csv",),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "quality.tt_rmse_s": "s",
    "quality.match_acc_pct": "%",
    "quality.od_rel_err": "ratio",
    "network.project_to_candidates.calls": "count",
    "network.project_to_candidates.s": "s",
    "network.candidates_per_call": "count",
    "mapmatch.match_trace.calls": "count",
    "mapmatch.match_trace.s": "s",
    "mapmatch.match_trace.self_s": "s",
    "mapmatch.match_trace.p50_ms": "ms",
    "mapmatch.match_trace.p99_ms": "ms",
    "mapmatch.route.calls": "count",
    "mapmatch.route.s": "s",
    "mapmatch.router_hit_ratio": "ratio",
    "mapmatch.dijkstra_trees": "count",
    "refine.s": "s",
    "refine.self_s": "s",
    "refine.iterations": "count",
    "evaluation.run_baseline.s": "s",
    "ttinfer.infer_times.calls": "count",
    "ttinfer.infer_times.s": "s",
    "odestim.estimate_od.calls": "count",
    "odestim.estimate_od.s": "s",
    "odestim.estimate_od.self_s": "s",
    "assignment.solve_ue.calls": "count",
    "assignment.solve_ue.s": "s",
    "assignment.fw_iters_per_solve": "count",
    "completion.complete.s": "s",
    "completion.complete.self_s": "s",
    "completion.complete.iterations": "count",
    "completion.jacobi_svd.calls": "count",
    "completion.jacobi_svd.s": "s",
    "tracegen.generate_probe_data.s": "s",
    "assignment.solve_so.s": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "stage.refine_s": "s",
    "stage.estimate_od_s": "s",
    "stage.complete_s": "s",
    "stage.evaluate_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


@dataclass
class Proc:
    """One finished child process."""

    status: int
    wall_s: float
    rss_mb: float


class Harness:
    """Runs child processes for one workload and seed and keeps the error count."""

    def __init__(self, root: Path, workload: worlds.Workload, seed: int, work: Path,
                 deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: bytes | None = None
        self._logs = work / "logs"
        self._logs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    # -- processes ----------------------------------------------------------

    def call(self, argv: list[str], cwd: Path, log: str) -> Proc:
        """Run argv to completion; wall time, exit code and max RSS come from wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Proc(status=-1, wall_s=0.0, rss_mb=0.0)
        with open(self._logs / f"{log}.log", "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(status=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0)

    def probeflow(self, args: list[str], cwd: Path, log: str) -> Proc:
        return self.call([sys.executable, "-m", "probeflow", *args], cwd, log)

    def traced(self, stats: Path, args: list[str], cwd: Path, log: str) -> Proc:
        return self.call([sys.executable, str(HERE / "tracer.py"), str(stats), *args], cwd, log)

    # -- outcomes -----------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failures)

    def outcome(self, what: str, problem: str | None) -> bool:
        """Count one attempted operation; record it as failed when problem is set."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"perfbench: {what}: {problem}", file=sys.stderr)
        return problem is None

    def manifest(self, out: Path) -> bytes:
        """The run's manifest: the program's own for pipeline, else one built here."""
        if self.workload.command == "pipeline":
            return (out / "manifest.json").read_bytes()
        return manifest_bytes(out, REQUIRED["complete"])

    def check(self, proc: Proc, out: Path, what: str) -> bool:
        """Exit code, artifacts and manifest of one timed run."""
        if proc.status != 0:
            return self.outcome(what, f"exit code {proc.status}")
        missing = [n for n in REQUIRED[self.workload.command] if not (out / n).is_file()]
        if missing:
            return self.outcome(what, f"missing {', '.join(missing)}")
        doc = self.manifest(out)
        listed = json.loads(doc)["artifacts"]
        stale = [n for n, digest in sorted(listed.items())
                 if not (out / n).is_file() or sha256(out / n) != digest]
        if stale:
            return self.outcome(what, f"manifest does not match {', '.join(stale)}")
        if self.reference is None:
            self.reference = doc
        elif doc != self.reference:
            return self.outcome(what, "manifest differs from the first run")
        return self.outcome(what, None)

    # -- world --------------------------------------------------------------

    def build_world(self, rep: int, tracer_dir: Path | None = None) -> tuple[Path, float]:
        """Write the inputs and run the set-up commands; returns (world, set-up seconds)."""
        w = self.workload
        world = self.work / f"world{rep}"
        worlds.write_inputs(w, self.seed, world)
        procs = []
        if w.command == "pipeline":
            for cmd in SETUP_COMMANDS:
                args = [cmd, "--config", worlds.CONFIG_FILE]
                if tracer_dir is None:
                    procs.append(self.probeflow(args, world, f"setup{rep}-{cmd}"))
                else:
                    procs.append(self.traced(tracer_dir / f"setup-{cmd}.json", args, world,
                                             f"setup{rep}-{cmd}"))
        else:
            procs.append(self.call([sys.executable, str(HERE / "matrix.py"), str(self.seed),
                                    str(w.rank), str(w.observed_share)],
                                   world, f"setup{rep}-matrix"))
        bad = [p.status for p in procs if p.status != 0]
        if bad:
            raise SetupError(f"set-up {rep} exited with {bad[0]}; see {self._logs}")
        return world, math.fsum(p.wall_s for p in procs)

    def world_digest(self, world: Path) -> dict[str, str]:
        files = sorted(p for pattern in WORLD_FILES[self.workload.command]
                       for p in world.glob(pattern))
        return {p.name: sha256(p) for p in files}

    # -- runs ---------------------------------------------------------------

    def timed_args(self, out: str) -> list[str]:
        return [self.workload.command, "--config", worlds.CONFIG_FILE, "--threads", "1",
                "--out-dir", out]

    def split_run(self, world: Path, stats_dir: Path) -> dict[str, float]:
        """The timed command as its standalone commands, each under the tracer."""
        split = world / "split"
        if self.workload.command == "pipeline":
            staged = {"refine": [], "estimate-od": ["--estimates", "split/estimates.csv"]}
            staged["complete"] = staged["estimate-od"]
            staged["evaluate"] = [*staged["estimate-od"], "--matched", "split/matched.csv"]
            steps = [(cmd, [cmd, *self.timed_args("split")[1:], *staged[cmd]])
                     for cmd in SPLIT_COMMANDS]
        else:
            steps = [("complete", self.timed_args("split"))]
        walls: dict[str, float] = {}
        for cmd, args in steps:
            proc = self.traced(stats_dir / f"run-{cmd}.json", args, world, f"split-{cmd}")
            walls[cmd] = proc.wall_s
            if proc.status != 0:
                self.outcome("traced split run", f"{cmd} exit code {proc.status}")
                return walls
        expected = json.loads(self.reference or b'{"artifacts": {}}')["artifacts"]
        produced = {p.name for p in split.iterdir() if p.is_file()}
        differing = sorted(n for n in set(expected) | produced
                           if n not in produced or n not in expected
                           or sha256(split / n) != expected[n])
        self.outcome("traced split run",
                     f"differs from the single run in {', '.join(differing)}" if differing
                     else None)
        return walls


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_bytes(out: Path, names) -> bytes:
    """A manifest in the program's format over the named files."""
    doc = {"artifacts": {n: sha256(out / n) for n in sorted(names)}}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Scores and derived metrics
# ---------------------------------------------------------------------------


def scores(h: Harness, world: Path, out: Path) -> dict[str, float]:
    """Quality of one run's outputs against the scheduled truth.

    A score outside the workload's frozen limits counts as a failed operation.
    """
    found = _scores(h, world, out)
    problems = [f"{name} {found.get(name)} outside {limit}"
                for name, limit in h.workload.limits.items()
                if not limit[0] <= found.get(name, math.nan) <= limit[1]]
    h.outcome("quality", "; ".join(problems) or None)
    return found


def _scores(h: Harness, world: Path, out: Path) -> dict[str, float]:
    w = h.workload
    if w.command == "complete":
        free_flow = np.array(quality.free_flow_times(world / worlds.NETWORK_FILE))
        truth, mask = matrix.truth_and_mask(h.seed, free_flow, w.interval_count, w.rank,
                                     w.observed_share)
        return {"tt_rmse_s": quality.tt_rmse_completed(out, truth, mask)}
    schedule = w.config["schedule"]
    return {"tt_rmse_s": quality.tt_rmse_pipeline(world, out, schedule),
            "match_acc_pct": quality.match_accuracy_pct(world, out),
            "od_rel_err": quality.od_rel_err(world, out, schedule, w.config["multipliers"])}


def merge_stats(paths: list[Path]) -> dict:
    """Sum the tracer's counters over several traced commands."""
    merged: dict = {}
    for path in paths:
        if not path.is_file():
            continue
        for key, stat in json.loads(path.read_text()).items():
            into = merged.setdefault(key, {})
            for field, value in stat.items():
                into[field] = into.get(field, [] if isinstance(value, list) else 0) + value
    return merged


def layer_metrics(run: dict, setup: dict) -> dict[str, float]:
    """Per-layer metrics from the run-phase and set-up-phase tracer counters."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_s": [], "units": 0}

    def stat(key: str, phase: dict = run) -> dict:
        return phase.get(key, empty)

    def per_call(key: str) -> float:
        s = stat(key)
        return s["units"] / s["calls"] if s["calls"] else 0.0

    m: dict[str, float] = {}
    for key in ("network.project_to_candidates", "mapmatch.match_trace", "mapmatch.route",
                "ttinfer.infer_times", "odestim.estimate_od", "assignment.solve_ue",
                "completion.jacobi_svd"):
        m[f"{key}.calls"] = stat(key)["calls"]
    for key in ("network.project_to_candidates", "mapmatch.match_trace", "mapmatch.route",
                "refine.refine", "evaluation.run_baseline", "ttinfer.infer_times",
                "odestim.estimate_od", "assignment.solve_ue", "completion.complete",
                "completion.jacobi_svd"):
        m[f"{key.replace('refine.refine', 'refine')}.s"] = stat(key)["total_s"]
    for key in ("mapmatch.match_trace", "refine.refine", "odestim.estimate_od",
                "completion.complete"):
        m[f"{key.replace('refine.refine', 'refine')}.self_s"] = stat(key)["self_s"]
    m["network.candidates_per_call"] = per_call("network.project_to_candidates")
    durations_ms = [1000.0 * d for d in stat("mapmatch.match_trace")["durations_s"]]
    m["mapmatch.match_trace.p50_ms"] = percentile(durations_ms, 50)
    m["mapmatch.match_trace.p99_ms"] = percentile(durations_ms, 99)
    routes = stat("mapmatch.route")["calls"]
    router = run.get("router", {"distinct_pairs": 0, "trees": 0})
    m["mapmatch.router_hit_ratio"] = 1.0 - router["distinct_pairs"] / routes if routes else 0.0
    m["mapmatch.dijkstra_trees"] = router["trees"]
    m["refine.iterations"] = stat("refine.refine")["units"]
    m["assignment.fw_iters_per_solve"] = per_call("assignment.solve_ue")
    m["completion.complete.iterations"] = stat("completion.complete")["units"]
    m["tracegen.generate_probe_data.s"] = stat("tracegen.generate_probe_data", setup)["total_s"]
    m["assignment.solve_so.s"] = stat("assignment.solve_so", setup)["total_s"]
    for kind in ("read", "write"):
        m[f"io.{kind}_s"] = math.fsum(s["self_s"] for key, s in run.items()
                                      if key.startswith("io.")
                                      and key.rpartition(".")[2].startswith(f"{kind}_"))
    return m


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(h: Harness, seconds: float, record: dict) -> dict[str, float]:
    """Untraced: (set-up, timed command) pairs filling `seconds`.

    Interleaving the pairs spreads both sets of samples over the whole
    window, so a slow spell of the machine weighs on both alike. After
    ``MIN_SAMPLES`` pairs, another pair starts only if it is expected to
    end nearer to `seconds` than stopping now, so every run measures
    about `seconds` and none overruns it by a whole pair. Every timed
    command runs in the first world; later worlds are only compared
    with it and deleted.
    """
    setup_s: list[float] = []
    samples: list[Proc] = []
    first: Path | None = None
    digest: dict[str, str] = {}
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        pair = elapsed / len(samples) if samples else 0.0
        if len(samples) >= MIN_SAMPLES and elapsed + pair / 2 > seconds:
            break
        if time.monotonic() + 1.5 * pair > h.deadline:
            break
        rep = len(samples)
        world, wall = h.build_world(rep)
        setup_s.append(wall)
        if first is None:
            first, digest = world, h.world_digest(world)
            record["input"].update(generated_size(h, world))
        else:
            h.outcome(f"set-up {rep}", None if h.world_digest(world) == digest
                      else "world differs from set-up 0")
            shutil.rmtree(world)
        out = f"run{rep}"
        proc = h.probeflow(h.timed_args(out), first, out)
        h.check(proc, first / out, out)
        samples.append(proc)
        if rep > 0:
            shutil.rmtree(first / out, ignore_errors=True)
    record.update(setup_s_samples=setup_s, run_s_samples=[p.wall_s for p in samples],
                  rss_mb_samples=[p.rss_mb for p in samples])

    ok = [p for p in samples if p.status == 0]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(p.wall_s for p in ok) if ok else math.nan,
        "peak_rss_mb": statistics.median(p.rss_mb for p in ok) if ok else math.nan,
    }
    record["scores"] = scores(h, first, first / "run0") if h.reference else {}
    return metrics


def trace(h: Harness, record: dict) -> dict[str, float]:
    """Traced: one traced set-up, one untraced run, one traced split run."""
    stats_dir = h.work / "stats"
    stats_dir.mkdir()
    traced_setup = stats_dir if h.workload.command == "pipeline" else None
    world, wall = h.build_world(0, tracer_dir=traced_setup)
    record["setup_s_samples"] = [wall]
    record["input"].update(generated_size(h, world))

    single = h.probeflow(h.timed_args("run0"), world, "run0")
    h.check(single, world / "run0", "run0")
    walls = h.split_run(world, stats_dir)
    record.update(run_s_samples=[single.wall_s], rss_mb_samples=[single.rss_mb],
                  split_walls=walls)

    run_stats = merge_stats(sorted(stats_dir.glob("run-*.json")))
    setup_stats = merge_stats(sorted(stats_dir.glob("setup-*.json")))
    metrics = layer_metrics(run_stats, setup_stats)
    record["scores"] = scores(h, world, world / "run0") if h.reference else {}
    for name in ("tt_rmse_s", "match_acc_pct", "od_rel_err"):
        metrics[f"quality.{name}"] = record["scores"].get(name, 0.0)
    for cmd in SPLIT_COMMANDS:
        metrics[f"stage.{cmd.replace('-', '_')}_s"] = walls.get(cmd, 0.0)
    traced_run = math.fsum(walls.values())
    metrics["trace.run_s"] = traced_run
    metrics["trace.untraced_run_s"] = single.wall_s
    metrics["trace.overhead_s"] = traced_run - single.wall_s
    record["stats"] = {"run": {k: {f: v for f, v in s.items() if f != "durations_s"}
                               for k, s in run_stats.items()}}
    return metrics


def generated_size(h: Harness, world: Path) -> dict:
    """Size of the generated inputs: trips and GPS fixes, or observed matrix cells."""
    def lines(name: str) -> int:
        with open(world / name, "rb") as fh:
            return sum(1 for _ in fh) - 1

    if h.workload.command == "pipeline":
        return {"trips": lines("trips.csv"), "fixes": lines("traces.csv")}
    cells = lines("estimates.csv")
    with open(world / "estimates.csv", newline="") as fh:
        observed = sum(1 for line in fh if not line.rstrip().endswith(",0")) - 1
    return {"cells": cells, "observed_cells": observed}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment(h: Harness) -> dict:
    """Versions and machine facts, read in a child from the checkout's package."""
    probe = (
        "import json, platform, numpy, scipy, probeflow, probeflow.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies'].get('blas', {})\n"
        "print(json.dumps({'package': probeflow.__file__, 'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=h.work, env=h.env,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise SetupError(f"the package does not import from {h.root / 'src'}:\n{out.stderr}")
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to((h.root / "src").resolve()):
        raise SetupError(f"probeflow imported from {info['package']}, not {h.root / 'src'}")
    sha = None
    if (h.root / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=h.root, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    info.update(git_sha=sha, nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                machine=platform.machine())
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "probeflow" / "cli.py").is_file():
        print(f"perfbench: no probeflow sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = worlds.WORKLOADS[args.workload]
    work = root / ".perfbench" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    h = Harness(root, workload, args.seed, work, time.monotonic() + BUDGET_S)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "input": worlds.input_size(workload)}
    try:
        record["environment"] = environment(h)
        if args.trace:
            metrics, units = trace(h, record), PER_LAYER_UNITS
        else:
            metrics, units = measure(h, args.seconds, record), END_TO_END_UNITS
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["failures"] = h.failures
    correct = h.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    # A metric with no successful sample reads 0; correct is false then.
    result = {"correct": correct, "attempted": h.attempted, "failed": h.failed,
              "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0,
                                 "unit": unit}
                          for name, unit in units.items()}}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
