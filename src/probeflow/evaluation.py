"""Accuracy metrics and congestion exports.

Three numbers summarize a run against ground truth: mean squared error
of segment travel times, the relative improvement of that error over the
classical match-once-infer-once sequence, and the aggregate network
travel-time error. Map-matching quality is scored separately as a
length-weighted overlap between matched and true paths, so one long
wrong detour cannot hide behind many short correct segments.

The baseline is the tandem pipeline: a single geometric matching pass
followed by a single inference pass. ``refine`` decodes it from its own
free-flow first pass with ``tt_tau`` set to 0, so baseline and refined
estimates share every line of matching and inference code, and the
``refine`` command writes it as ``baseline.csv``. This module only scores
the estimates it is handed.

Volume-over-capacity products turn estimated flows into the congestion
views worth plotting: per-interval class averages as CSV and a per-
segment GeoJSON map with VOC buckets.
"""

from __future__ import annotations

import json
import logging
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import InputDataError
from .mapmatch import Pieces
from .network import RoadNetwork, TimeGrid
from .tables import read_table, write_table
from .tracegen import TruthTrip

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Travel-time metrics
# ---------------------------------------------------------------------------


def mse(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over all segments (per-segment arrays of one network)."""
    if len(truth) == 0 or len(est) != len(truth):
        raise InputDataError(f"cannot score {len(est)} estimated against {len(truth)} true segments")
    return math.fsum((e - t) ** 2 for e, t in zip(est.tolist(), truth.tolist())) / len(truth)


def gain_pct(mse_ours: float, mse_baseline: float) -> float:
    """Relative improvement of ours over the baseline, in percent."""
    if not (mse_baseline > 0 and math.isfinite(mse_baseline)):
        raise InputDataError(f"baseline mse must be positive, got {mse_baseline}")
    if not (mse_ours >= 0 and math.isfinite(mse_ours)):
        raise InputDataError(f"mse must be >= 0, got {mse_ours}")
    return 100.0 * (mse_baseline - mse_ours) / mse_baseline


def aggregate_error_pct(est: np.ndarray, truth: np.ndarray) -> float:
    """Error of the summed network travel time, in percent.

    Per-segment errors of opposite sign cancel here by design; the
    metric scores the network total, not the profile.
    """
    if len(truth) == 0 or len(est) != len(truth):
        raise InputDataError(f"cannot score {len(est)} estimated against {len(truth)} true segments")
    total_truth = math.fsum(truth)
    if total_truth <= 0:
        raise InputDataError("aggregate truth travel time must be positive")
    total_est = math.fsum(est)
    return 100.0 * abs(total_est - total_truth) / total_truth


# ---------------------------------------------------------------------------
# Matching accuracy
# ---------------------------------------------------------------------------


def per_trip_overlap(
    matched: Pieces,
    truth: list[TruthTrip],
    net: RoadNetwork,
) -> tuple[dict[int, float], int]:
    """Length-weighted overlap percent per vehicle, plus the excluded count.

    Overlap of one trip is the total length of segments on both the
    matched and the true path divided by the total length of segments on
    either, as sets. Vehicles present on only one side are excluded and
    counted.
    """
    seen: dict[int, TruthTrip] = {}
    for trip in truth:
        if trip.vehicle_id in seen:
            raise InputDataError(f"duplicate truth trip for vehicle {trip.vehicle_id}")
        if not trip.path:
            raise InputDataError(f"truth trip of vehicle {trip.vehicle_id} has no path")
        seen[trip.vehicle_id] = trip

    got: dict[int, set[int]] = {}
    for vid, j in zip(matched.vehicle.tolist(), matched.segment.tolist()):
        got.setdefault(vid, set()).add(j)

    overlaps: dict[int, float] = {}
    excluded = 0
    for vid in sorted(set(seen) | set(got)):
        if vid not in seen or vid not in got:
            excluded += 1
            continue
        true_set = set(seen[vid].path)
        inter = math.fsum(net.seg_length[sorted(true_set & got[vid])].tolist())
        union = math.fsum(net.seg_length[sorted(true_set | got[vid])].tolist())
        overlaps[vid] = 100.0 * inter / union
    return overlaps, excluded


def matching_accuracy_pct(
    matched: Pieces,
    truth: list[TruthTrip],
    net: RoadNetwork,
) -> float:
    """Trip-mean of the length-weighted path overlap, in percent."""
    overlaps, excluded = per_trip_overlap(matched, truth, net)
    if not overlaps:
        raise InputDataError("no vehicle appears in both matched and truth trips")
    if excluded:
        logger.info("matching accuracy: %d trips excluded (one-sided)", excluded)
    return math.fsum(overlaps[v] for v in sorted(overlaps)) / len(overlaps)


# ---------------------------------------------------------------------------
# Congestion products
# ---------------------------------------------------------------------------


def voc_series(
    flows_by_interval: dict[int, np.ndarray],
    net: RoadNetwork,
    grid: TimeGrid,
    class_filter: str | None = None,
) -> list[float]:
    """Mean volume-over-capacity per interval, optionally per road class.

    Intervals absent from flows_by_interval count as carrying no flow;
    an interval that is present holds a flow for every segment.
    """
    idx = [j for j, s in enumerate(net.segments)
           if class_filter is None or s.road_class == class_filter]
    if not idx:
        raise InputDataError(f"no segments of road class {class_filter!r}")
    series = []
    for iv in range(grid.interval_count):
        flows = flows_by_interval.get(iv)
        if flows is None:
            series.append(0.0)
            continue
        if len(flows) != net.n_segments:
            raise InputDataError(
                f"interval {iv}: {len(flows)} flows for {net.n_segments} segments")
        series.append(math.fsum(flows[idx] / net.seg_capacity[idx]) / len(idx))
    return series


def voc_bucket(voc: float) -> str:
    """Congestion bucket label of one VOC value."""
    if not (voc >= 0 and math.isfinite(voc)):
        raise InputDataError(f"voc must be finite and >= 0, got {voc}")
    if voc < 0.4:
        return "[0,0.4)"
    if voc < 0.7:
        return "[0.4,0.7)"
    if voc < 0.9:
        return "[0.7,0.9)"
    return "[0.9,inf)"


# ---------------------------------------------------------------------------
# Reports and exports
# ---------------------------------------------------------------------------


class ScenarioMetrics(NamedTuple):
    """The metric quadruple of one evaluated scenario."""

    mse: float
    gain_pct: float
    aggregate_error_pct: float
    matching_accuracy_pct: float


def build_report(per_scenario: dict[str, ScenarioMetrics]) -> ScenarioMetrics:
    """Validate scenario metrics and return their means."""
    if not per_scenario:
        raise InputDataError("report needs at least one scenario")
    for name, m in sorted(per_scenario.items()):
        if m.gain_pct > 100.0:
            raise InputDataError(f"scenario {name}: gain above 100%")
        if m.aggregate_error_pct < 0.0:
            raise InputDataError(f"scenario {name}: negative aggregate error")
        if not 0.0 <= m.matching_accuracy_pct <= 100.0:
            raise InputDataError(f"scenario {name}: matching accuracy outside [0, 100]")
        if m.mse < 0.0:
            raise InputDataError(f"scenario {name}: negative mse")
    columns = zip(*(per_scenario[k] for k in sorted(per_scenario)))
    return ScenarioMetrics(*(math.fsum(c) / len(per_scenario) for c in columns))


def write_report(per_scenario: dict[str, ScenarioMetrics], path: str | os.PathLike) -> None:
    """Write the report as JSON: scenario means plus per-scenario values."""
    doc = {
        "mean": build_report(per_scenario)._asdict(),
        "scenarios": {name: m._asdict() for name, m in sorted(per_scenario.items())},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


VOC_COLUMNS = (("interval", int), ("road_class", str), ("mean_voc", float))


def write_voc(series_by_class: dict[str, list[float]], path: str | os.PathLike) -> None:
    """Write per-class VOC series as `interval,road_class,mean_voc` rows."""
    if not series_by_class:
        raise InputDataError("no voc series to write")
    lengths = {len(v) for v in series_by_class.values()}
    if len(lengths) != 1:
        raise InputDataError(f"voc series lengths differ: {sorted(lengths)}")
    classes = sorted(series_by_class)
    n = lengths.pop()
    write_table(path, VOC_COLUMNS, (np.repeat(np.arange(n), len(classes)), classes * n,
                                    np.column_stack([series_by_class[c] for c in classes]).ravel()))


def read_voc(path: str | os.PathLike) -> dict[str, list[float]]:
    """Read back per-class VOC series written by write_voc."""
    out: dict[str, list[float]] = {}
    for iv, cls, v in zip(*read_table(path, VOC_COLUMNS)):
        series = out.setdefault(cls, [])
        if iv != len(series):
            raise InputDataError(f"voc rows of class {cls} out of order in {path}")
        series.append(v)
    return out


def export_geojson(net: RoadNetwork, vocs: np.ndarray, path: str | os.PathLike) -> None:
    """Write segments with their VOC as a GeoJSON FeatureCollection.

    One LineString per segment, ordered by segment id, with properties
    segment_id, voc, and the voc_bucket label.
    """
    if len(vocs) == 0 or len(vocs) != net.n_segments:
        raise InputDataError(f"{len(vocs)} VOC values for {net.n_segments} segments")
    features = []
    for seg, voc in zip(net.segments, np.asarray(vocs, dtype=float).tolist()):
        a = net.nodes[seg.from_node]
        b = net.nodes[seg.to_node]
        features.append({
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[a.lon, a.lat], [b.lon, b.lat]],
            },
            "properties": {
                "segment_id": seg.id,
                "voc": voc,
                "voc_bucket": voc_bucket(voc),
            },
        })
    with open(path, "w") as fh:
        json.dump({"type": "FeatureCollection", "features": features},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")