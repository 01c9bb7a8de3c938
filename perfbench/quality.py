"""Output scores computed by the harness from the program's files.

Travel times are scored against the truth of each interval's scheduled
scenario (not scenario 0 for every interval), and demand against the
scheduled multiple of the seed demand, so a speed-up that trades
accuracy moves these numbers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def segment_lengths(network_json: Path) -> dict[int, float]:
    doc = json.loads(network_json.read_text(encoding="utf-8"))
    return {int(s["id"]): float(s["length_m"]) for s in doc["segments"]}


def free_flow_times(network_json: Path) -> list[float]:
    """Free-flow time per segment, in id order."""
    doc = json.loads(network_json.read_text(encoding="utf-8"))
    segs = sorted(doc["segments"], key=lambda s: int(s["id"]))
    return [float(s["length_m"]) / float(s["ffs_mps"]) for s in segs]


def truth_times(world: Path, scenario: int) -> dict[int, float]:
    return {int(r["segment_id"]): float(r["time_s"])
            for r in _rows(world / f"truth_{scenario:03d}.csv")}


def tt_rmse_pipeline(world: Path, out: Path, schedule: list[int]) -> float:
    """RMSE (s) of the supported estimate cells against the scheduled truth."""
    truths: dict[int, dict[int, float]] = {}
    sq, n = 0.0, 0
    for r in _rows(out / "estimates.csv"):
        if int(r["support"]) <= 0:
            continue
        scenario = schedule[int(r["interval"])]
        if scenario not in truths:
            truths[scenario] = truth_times(world, scenario)
        err = float(r["time_s"]) - truths[scenario][int(r["segment_id"])]
        sq += err * err
        n += 1
    return math.sqrt(sq / n) if n else math.nan


def match_accuracy_pct(world: Path, out: Path) -> float:
    """Trip mean of the length-weighted overlap of matched and true segment sets."""
    length = segment_lengths(world / "network.json")
    truth = {int(r["vehicle_id"]): set(map(int, r["path"].split("/")))
             for r in _rows(world / "trips.csv")}
    matched: dict[int, set[int]] = {}
    for r in _rows(out / "matched.csv"):
        matched.setdefault(int(r["vehicle_id"]), set()).add(int(r["segment_id"]))
    scores = []
    for vid in sorted(set(truth) & set(matched)):
        inter = math.fsum(length[s] for s in truth[vid] & matched[vid])
        union = math.fsum(length[s] for s in truth[vid] | matched[vid])
        scores.append(100.0 * inter / union)
    return math.fsum(scores) / len(scores) if scores else math.nan


def _demand(path: Path) -> dict[tuple[int, int], float]:
    return {(int(r["origin_taz"]), int(r["dest_taz"])): float(r["trips_per_hour"])
            for r in _rows(path)}


def od_rel_err(world: Path, out: Path, schedule: list[int], multipliers: list[float]) -> float:
    """Mean over estimated intervals of |d_hat - m d0|_1 / |m d0|_1."""
    seed = _demand(world / "demand.csv")
    errs = []
    for path in sorted(out.glob("od_demand_*.csv")):
        m = multipliers[schedule[int(path.stem.rpartition("_")[2])]]
        est = _demand(path)
        num = math.fsum(abs(est.get(k, 0.0) - m * v) for k, v in seed.items())
        errs.append(num / math.fsum(m * v for v in seed.values()))
    return math.fsum(errs) / len(errs) if errs else math.nan


def tt_rmse_completed(out: Path, truth, mask) -> float:
    """RMSE (s) of the imputed cells of completed.csv against the truth matrix.

    Rows of truth and mask are segment ids, which run 0..n-1 in these worlds.
    """
    sq, n = 0.0, 0
    for r in _rows(out / "completed.csv"):
        i, j = int(r["segment_id"]), int(r["interval"])
        if mask[i, j]:
            continue
        err = float(r["time_s"]) - float(truth[i, j])
        sq += err * err
        n += 1
    return math.sqrt(sq / n) if n else math.nan
