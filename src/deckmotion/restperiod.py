"""Rest-period detection: maximal intervals calm enough for a deck landing.

A sample is calm when |pitch| and |roll| stay inside their thresholds and,
if a heave-rate limit is set, the vertical velocity (central differences,
one-sided at the ends) does too. Heave enters through its rate rather than
its displacement: a steadily elevated deck is landable, a fast-moving one
is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    start_time: float
    end_time: float
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
            rate = np.gradient(heave, dt)
        else:
            rate = np.zeros(1)  # a single sample carries no velocity information
        mask &= np.abs(rate) <= criteria.heave_rate_max
    return mask


def _intervals_from_mask(
    mask: np.ndarray, dt: float, criteria: RestCriteria, first: int, t0: float
) -> list[RestInterval]:
    calm = np.flatnonzero(mask)
    if calm.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(calm) > 1)
    starts = np.concatenate(([calm[0]], calm[breaks + 1]))
    ends = np.concatenate((calm[breaks], [calm[-1]]))
    intervals = []
    for s, e in zip(starts, ends):
        duration = float((e - s) * dt)
        if duration >= criteria.min_duration:
            si, ei = first + int(s), first + int(e)
            intervals.append(
                RestInterval(
                    start_index=si,
                    end_index=ei,
                    start_time=t0 + si * dt,
                    end_time=t0 + ei * dt,
                    duration=duration,
                )
            )
    return intervals


def detect_rest_periods(series: MotionSeries, criteria: RestCriteria) -> list[RestInterval]:
    """All maximal calm runs of duration >= min_duration, in time order."""
    mask = calm_mask(series.samples, series.dt, criteria)
    return _intervals_from_mask(mask, series.dt, criteria, 0, series.t0)


def rest_periods_from_forecast(
    result: ForecastResult, dt: float, criteria: RestCriteria, t0: float = 0.0
) -> list[RestInterval]:
    """Same rule applied to predicted channels; interval indices refer to
    the source series (the forecast's target indices)."""
    mask = calm_mask(result.predictions, dt, criteria)
    return _intervals_from_mask(mask, dt, criteria, int(result.target_indices[0]), t0)


def intervals_to_csv(intervals: list[RestInterval]) -> str:
    lines = ["start_t,end_t,duration"]
    for iv in intervals:
        lines.append(f"{iv.start_time!r},{iv.end_time!r},{iv.duration!r}")
    return "\n".join(lines) + "\n"


def intervals_to_dicts(intervals: list[RestInterval]) -> list[dict]:
    return [
        {
            "start_index": iv.start_index,
            "end_index": iv.end_index,
            "start_t": iv.start_time,
            "end_t": iv.end_time,
            "duration": iv.duration,
        }
        for iv in intervals
    ]
