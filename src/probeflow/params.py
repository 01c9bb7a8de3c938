"""The config sections, and the ranges that values read from outside must lie in.

Each config field and each ranged table column declares, beside its
name, a key of ``RANGES``. ``Params.__post_init__`` checks each field's
JSON type and range, for a config file and a direct call alike, and
``tables.read_table`` checks each column's range as the file is read.
Both report a value outside its range as ``gps_sigma must be > 0, got -1.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .errors import InputDataError

# Each range, as messages print it, and its test of a number or a numpy array.
# No range holds nan or an infinity.
RANGES: dict[str, Callable[[Any], Any]] = {
    "finite": lambda x: abs(x) < math.inf,
    "> 0": lambda x: (0 < x) & (x < math.inf),
    ">= 0": lambda x: (0 <= x) & (x < math.inf),
    ">= 1": lambda x: (1 <= x) & (x < math.inf),
    "in (0, 1]": lambda x: (0 < x) & (x <= 1),
    "in [-90, 90]": lambda x: abs(x) <= 90,
    "in [-180, 180]": lambda x: abs(x) <= 180,
}


def range_error(name: str, allowed: str, value: Any) -> str:
    return f"{name} must be {allowed}, got {value!r}"


# JSON value types each annotated field accepts; bools only for a bool field.
_TYPES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)), "bool": bool}


def param(default: Any, allowed: str) -> Any:
    """A config field: its default and its range, a key of ``RANGES``; a bool field has none."""
    return field(default=default, metadata={"range": allowed})


class Params:
    """Base of the config sections: construction checks every field's type and range."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind, allowed = getattr(self, f.name), _TYPES[f.type], f.metadata.get("range")
            if isinstance(value, bool) != (f.type == "bool") or not isinstance(value, kind):
                raise InputDataError(f"{f.name} must be {f.type}, got {value!r}")
            if value is not None and allowed and not RANGES[allowed](value):
                raise InputDataError(range_error(f.name, allowed, value))


@dataclass(frozen=True)
class MatchParams(Params):
    """Tuning knobs for the matcher; defaults suit 10-60 s probe data."""

    gps_sigma: float = param(10.0, "> 0")
    nk_beta: float = param(200.0, "> 0")
    tt_tau: float = param(0.5, ">= 0")
    radius: float = param(50.0, "> 0")
    gap_factor: float = param(10.0, "> 0")


@dataclass(frozen=True)
class InferParams(Params):
    """Solver settings: the ridge weight toward the prior (0 is allowed)."""

    lam: float = param(0.05, ">= 0")


@dataclass(frozen=True)
class SpsaParams(Params):
    """Upper-level settings: trial solves per interval and seed regularization weight.

    The class and its config section ``spsa`` keep the name of the SPSA
    solver the upper level used to run; the bench configs set them.
    """

    max_outer: int = param(100, ">= 1")
    mu: float = param(0.01, ">= 0")


@dataclass(frozen=True)
class ProbeConfig(Params):
    """How trips are probed: sampling rate, GPS noise, fleet penetration."""

    sampling_period: float = param(60.0, "> 0")
    gps_sigma: float = param(10.0, ">= 0")
    penetration: float = param(1.0, "in (0, 1]")


@dataclass(frozen=True)
class RefineParams(Params):
    """Loop budget and stop thresholds of the refinement stage."""

    max_iters: int = param(10, ">= 1")
    stop_tol: float = param(1e-3, "> 0")


@dataclass(frozen=True)
class OdSolveParams(Params):
    """Lower-level equilibrium settings used inside demand estimation."""

    ue_tol: float = param(1e-4, "> 0")
    ue_max_iter: int = param(500, ">= 1")
    weight_by_support: bool = False


@dataclass(frozen=True)
class CompletionParams(Params):
    """Singular value threshold of the matrix completion stage; None takes the default."""

    svt_threshold: float | None = param(None, "> 0")


@dataclass(frozen=True)
class AssignParams(Params):
    """Convergence settings for ground-truth scenario assignment."""

    tol: float = param(1e-5, "> 0")
    max_iter: int = param(800, ">= 1")


@dataclass(frozen=True)
class GravityParams(Params):
    """Distance-decay seed demand settings."""

    deterrence_scale: float = param(2000.0, "> 0")
    total_trips: float = param(1000.0, "> 0")
