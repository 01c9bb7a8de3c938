"""Run one probeflow command with timing wrappers around its layers.

Usage (from a world directory, with the package on PYTHONPATH)::

    python3 tracer.py STATS.json COMMAND [ARGS...]

The wrappers live here, not in the package: each layer function is
replaced by a wrapper that counts calls and measures total time and
self time (total minus the time spent in other wrapped calls beneath
it). Modules import each other with ``from .x import y``, so every
module-level name bound to a wrapped function is rebound, not only the
defining one. The command's exit code is passed through; the counters
go to STATS.json even when the command fails.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import weakref

# (module, function) of every layer boundary with its own metrics. A
# name the package no longer has is skipped and reads as zero calls.
LAYERS = (
    ("network", "project_to_candidates"),
    ("mapmatch", "match_trace"),
    ("refine", "refine"),
    ("evaluation", "run_baseline"),
    ("ttinfer", "infer_times"),
    ("odestim", "estimate_od"),
    ("assignment", "solve_ue"),
    ("assignment", "solve_so"),
    ("completion", "complete"),
    ("completion", "jacobi_svd"),
    ("tracegen", "generate_probe_data"),
)

# Per-call counts some layers add: (module, function) -> f(result, args).
UNITS = {
    ("network", "project_to_candidates"): lambda res, args: len(res),
    ("assignment", "solve_ue"): lambda res, args: res.iterations,
    ("assignment", "solve_so"): lambda res, args: res.iterations,
    ("refine", "refine"): lambda res, args: len(res[2].records),
    ("completion", "complete"): lambda res, args: res.iterations,
}


def package_modules() -> dict:
    """Every loaded probeflow module by its short name."""
    importlib.import_module("probeflow.cli")
    return {name.rpartition(".")[2]: module for name, module in sorted(sys.modules.items())
            if name.startswith("probeflow.")}


class Stat:
    """Counters of one wrapped function."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.durations: list[float] = []
        self.units = 0  # a per-call count: candidates, FW iterations, ...

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "durations_s": self.durations, "units": self.units}


class Tracer:
    """Owns the counters and installs the wrappers."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._local = threading.local()
        self._router_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._pairs: set[tuple[int, int, int]] = set()
        self._trees: set[tuple[int, int]] = set()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn, units=None, keep_durations: bool = False):
        """A timing wrapper for fn, recorded under key.

        units(result, args) adds a per-call count to the stat. Recursive
        calls count as calls but add their time once.
        """
        stat = self.stats.setdefault(key, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            stat.depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat.depth -= 1
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if stat.depth == 0:
                    stat.total_s += dt
                if stack:
                    stack[-1] += dt
                if keep_durations:
                    stat.durations.append(dt)
            if units is not None:
                stat.units += units(result, args)
            return result

        return wrapper

    def _route_units(self, result, args) -> int:
        router, u, v = args[0], args[1], args[2]
        serial = self._router_ids.get(router)
        if serial is None:
            serial = self._router_ids[router] = next(self._serials)
        self._pairs.add((serial, u, v))
        if u != v:
            self._trees.add((serial, u))
        return 0

    def install(self) -> None:
        modules = package_modules()
        for mod, name in LAYERS:
            fn = getattr(modules.get(mod), name, None)
            if fn is not None:
                self._rebind(modules, fn, self.wrap(
                    f"{mod}.{name}", fn, units=UNITS.get((mod, name)),
                    keep_durations=(name == "match_trace")))
        for mod, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith(("read_", "write_")) and callable(fn)
                        and getattr(fn, "__module__", "") == module.__name__):
                    self._rebind(modules, fn, self.wrap(f"io.{mod}.{name}", fn))
        router = getattr(modules.get("mapmatch"), "Router", None)
        if router is not None:
            router.route = self.wrap("mapmatch.route", router.route, units=self._route_units)

    @staticmethod
    def _rebind(modules: dict, original, wrapper) -> None:
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def dump(self, path: str) -> None:
        doc = {key: stat.as_dict() for key, stat in self.stats.items()}
        doc["router"] = {"distinct_pairs": len(self._pairs), "trees": len(self._trees)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv: list[str]) -> int:
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["probeflow.cli"].main(command)
    finally:
        tracer.dump(stats_path)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    sys.exit(main(sys.argv[1:]))
