"""Smoke test of the harness on the tiny world, in well under a minute.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that both modes print exactly the metrics BENCHMARK.json
names, each with its unit; that a tampered manifest and a missing
artifact are each counted as a failed run; and that the harness exits
nonzero, printing no result, where the package sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worlds  # noqa: E402

SEED = 3
problems: list[str] = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        problems.append(what)
        print(f"selftest: FAILED: {what}", file=sys.stderr)


def harness(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    """run.py as the benchmark command runs it, from cwd."""
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tiny", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(root: Path, spec: dict, trace: int) -> None:
    proc = harness(root, trace)
    expect(proc.returncode == 0, f"trace {trace}: exit code {proc.returncode}: {proc.stderr}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"trace {trace}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"trace {trace}: correct/attempted/failed {result}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"trace {trace}: metric names differ: "
           f"{sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        expect(entry.get("unit") == unit, f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        expect(isinstance(entry.get("value"), (int, float)), f"{name}: value {entry}")


def check_error_rate(root: Path) -> None:
    work = root / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    h = run.Harness(root, worlds.WORKLOADS["tiny"], SEED, work, time.monotonic() + 120.0)
    try:
        world, _ = h.build_world(0)
        runs = {}
        for name in ("first", "digest", "spacing", "missing"):
            runs[name] = h.probeflow(h.timed_args(name), world, name)
        expect(h.check(runs["first"], world / "first", "first"), "first run failed")

        manifest = world / "digest" / "manifest.json"
        doc = json.loads(manifest.read_text())
        name = sorted(doc["artifacts"])[0]
        doc["artifacts"][name] = "0" * 64
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        expect(not h.check(runs["digest"], world / "digest", "digest"),
               "a manifest with a wrong digest passed")

        manifest = world / "spacing" / "manifest.json"
        manifest.write_text(manifest.read_text() + "\n")
        expect(not h.check(runs["spacing"], world / "spacing", "spacing"),
               "a manifest that differs from the first run's passed")

        (world / "missing" / "report.json").unlink()
        expect(not h.check(runs["missing"], world / "missing", "missing"),
               "a run with a missing artifact passed")
        expect((h.attempted, h.failed) == (4, 3),
               f"error rate counted {h.failed}/{h.attempted}, expected 3/4")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory(root: Path) -> None:
    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = harness(bare, 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = Path.cwd().resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace in (0, 1):
        check_result(root, spec, trace)
    check_error_rate(root)
    check_bare_directory(root)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
