"""Rest-period detection: maximal intervals calm enough for a deck landing.

A sample is calm when |pitch| and |roll| stay inside their thresholds and,
if a heave-rate limit is set, the vertical velocity (central differences,
one-sided at the ends) does too. Heave enters through its rate rather than
its displacement: a steadily elevated deck is landable, a fast-moving one
is not.

A rest period is a maximal run of calm samples. It lasts (last - first) * dt,
so a lone calm sample lasts 0 s, and is kept if that is >= min_duration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .evaluate import ForecastResult
from .seriesdata import MotionSeries


@dataclass(frozen=True)
class RestCriteria:
    pitch_max: float  # inclination units
    roll_max: float  # inclination units
    heave_rate_max: float | None = None  # units/s; None disables the heave check
    min_duration: float = 0.0  # seconds

    def __post_init__(self):
        for name in ("pitch_max", "roll_max"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.heave_rate_max is not None and not (
            math.isfinite(self.heave_rate_max) and self.heave_rate_max > 0
        ):
            raise ValueError(f"heave_rate_max must be positive, got {self.heave_rate_max}")
        if not (math.isfinite(self.min_duration) and self.min_duration >= 0):
            raise ValueError(f"min_duration must be finite and >= 0, got {self.min_duration}")


@dataclass(frozen=True)
class RestInterval:
    start_index: int  # inclusive
    end_index: int  # inclusive
    start_t: float
    end_t: float
    duration: float  # (end_index - start_index) * dt


def calm_mask(samples: np.ndarray, dt: float, criteria: RestCriteria) -> np.ndarray:
    """Boolean per-sample calm flags for an (n, 3) motion array."""
    samples = np.asarray(samples, dtype=np.float64)
    mask = (np.abs(samples[:, 1]) <= criteria.pitch_max) & (
        np.abs(samples[:, 2]) <= criteria.roll_max
    )
    if criteria.heave_rate_max is not None:
        heave = samples[:, 0]
        if len(heave) > 1:
            # a rate that overflows is inf, which is rightly not calm
            with np.errstate(over="ignore"):
                rate = np.gradient(heave, dt)
        else:
            rate = np.zeros(1)  # a single sample carries no velocity information
        mask &= np.abs(rate) <= criteria.heave_rate_max
    return mask


def _rest_periods(
    samples: np.ndarray, dt: float, criteria: RestCriteria, first: int, t0: float
) -> list[RestInterval]:
    """Rest periods of samples, whose row 0 is sample index first. In the calm
    mask padded with rough samples, even edges start a run, odd edges follow it."""
    edges = np.flatnonzero(np.diff(calm_mask(samples, dt, criteria), prepend=False, append=False))
    runs = zip((edges[::2] + first).tolist(), (edges[1::2] + (first - 1)).tolist())
    return [
        RestInterval(s, e, t0 + s * dt, t0 + e * dt, duration)
        for s, e in runs
        if (duration := (e - s) * dt) >= criteria.min_duration
    ]


def detect_rest_periods(series: MotionSeries, criteria: RestCriteria) -> list[RestInterval]:
    """All maximal calm runs of duration >= min_duration, in time order."""
    return _rest_periods(series.samples, series.dt, criteria, 0, series.t0)


def rest_periods_from_forecast(
    result: ForecastResult, dt: float, criteria: RestCriteria, t0: float = 0.0
) -> list[RestInterval]:
    """Same rule applied to predicted channels; interval indices refer to
    the source series (the forecast's target indices)."""
    return _rest_periods(result.predictions, dt, criteria, int(result.target_indices[0]), t0)


def intervals_to_csv(intervals: list[RestInterval]) -> str:
    lines = ["start_t,end_t,duration"]
    for iv in intervals:
        lines.append(f"{iv.start_t!r},{iv.end_t!r},{iv.duration!r}")
    return "\n".join(lines) + "\n"


def intervals_to_dicts(intervals: list[RestInterval]) -> list[dict]:
    return [asdict(iv) for iv in intervals]
