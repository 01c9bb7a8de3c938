"""The week-matrix world: a low-rank hourly travel-time week, partly observed.

``truth_and_mask`` is a pure function of the seed, shared by the writer
below and by the harness, which scores the completed cells against it.

Run as a script from a world directory, with the package on PYTHONPATH,
it writes ``estimates.csv`` with the package's own writer: observed
cells carry their true time and support 1, the rest free flow and
support 0::

    python3 matrix.py SEED RANK OBSERVED_SHARE
"""

from __future__ import annotations

import sys

import numpy as np


def truth_and_mask(seed: int, free_flow: np.ndarray, intervals: int, rank: int,
                   observed_share: float) -> tuple[np.ndarray, np.ndarray]:
    """Truth (segments x intervals) of exact rank ``rank``, and the observed mask.

    Column factors are a constant plus daily peaks whose height varies
    by day; each segment scales them by its own weights, and times are
    free flow times (1 + that mix), so no cell falls below free flow.
    Every row has at least one observed cell.
    """
    rng = np.random.default_rng(seed)
    hour = np.arange(intervals) % 24
    day = np.arange(intervals) // 24
    n_days = int(day.max()) + 1
    factors = [np.ones(intervals)]
    for k in range(rank - 1):
        centre = 7.5 + 10.0 * k / max(rank - 2, 1) + rng.uniform(-0.5, 0.5)
        height = rng.uniform(0.5, 1.0, n_days)[day]
        factors.append(height * np.exp(-(((hour - centre) / 2.0) ** 2)))
    weights = np.column_stack([np.ones(len(free_flow))]
                              + [rng.uniform(0.0, 1.5, len(free_flow))
                                 for _ in range(rank - 1)])
    truth = free_flow[:, None] * (weights @ np.vstack(factors))
    mask = rng.random(truth.shape) < observed_share
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(intervals)] = True
    return truth, mask


def main(argv: list[str]) -> int:
    import json

    from probeflow.network import read_network
    from probeflow.ttinfer import SegmentTimeEstimate, write_estimates

    seed, rank, share = int(argv[0]), int(argv[1]), float(argv[2])
    with open("config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    net = read_network(config["network"])
    ids = [s.id for s in net.segments]
    free_flow = np.array([s.free_flow_time for s in net.segments])
    intervals = config["grid"]["interval_count"]
    truth, mask = truth_and_mask(seed, free_flow, intervals, rank, share)
    estimates = [
        SegmentTimeEstimate(
            time={sid: float(truth[i, j]) if mask[i, j] else float(free_flow[i])
                  for i, sid in enumerate(ids)},
            support={sid: int(mask[i, j]) for i, sid in enumerate(ids)},
            interval_index=j)
        for j in range(intervals)
    ]
    write_estimates(estimates, config["estimates"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
