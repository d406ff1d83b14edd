"""Uniformly sampled motion series, sliding windows, splits, normalization.

A MotionSeries holds the tri-channel samples; make_windows turns it into
lookback windows paired with next-sample targets; split_series cuts the
windows at a train/test boundary defined on target indices, so the first
test prediction consumes the last training samples as history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wavegen import CHANNELS, WaveModel, evaluate_model_array

CSV_HEADER = "t,heave,pitch,roll"


@dataclass(frozen=True)
class MotionSeries:
    """Tri-channel series sampled every dt seconds starting at t0."""

    dt: float
    samples: np.ndarray  # (n, 3) float64, columns heave, pitch, roll
    t0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"samples must have shape (n, 3), got {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("series needs at least one sample")
        # in Python floats an overflow gives inf, not a numpy warning
        n = samples.shape[0]
        if not math.isfinite(float(self.t0) + (n - 1) * float(self.dt)):
            raise ValueError(
                f"sample times t0 + k*dt overflow float64 for k up to {n - 1}: "
                f"t0={self.t0}, dt={self.dt}"
            )
        if not np.all(np.isfinite(samples)):
            row = int(np.argwhere(~np.isfinite(samples))[0, 0])
            raise ValueError(f"samples must be finite; sample {row} is {samples[row].tolist()}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self)) * self.dt


def sample_series(model: WaveModel, n: int, dt: float) -> MotionSeries:
    """Sample the model at times 0, dt, ..., (n-1)*dt."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    # in Python floats an overflow gives inf, not a numpy warning
    if not math.isfinite((n - 1) * float(dt)):
        raise ValueError(f"sample span (n-1)*dt is not finite: n={n}, dt={dt}")
    times = np.arange(n) * dt
    return MotionSeries(dt=dt, samples=evaluate_model_array(model, times))


@dataclass(frozen=True)
class WindowedDataset:
    """Lookback windows and their next-sample targets.

    inputs[k] holds source samples target_indices[k]-lookback .. target_indices[k]-1,
    targets[k] is source sample target_indices[k].
    """

    lookback: int
    inputs: np.ndarray  # (m, lookback, 3)
    targets: np.ndarray  # (m, 3)
    target_indices: np.ndarray  # (m,) int64, indices into the source series

    def __post_init__(self):
        if not (len(self.inputs) == len(self.targets) == len(self.target_indices)):
            raise ValueError("inputs, targets and target_indices must have equal length")

    def __len__(self) -> int:
        return len(self.target_indices)


def make_windows(series: MotionSeries, lookback: int) -> WindowedDataset:
    """One window per target index in [lookback, n-1]; count = n - lookback."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    n = len(series)
    if n <= lookback:
        raise ValueError(f"series length {n} must exceed lookback {lookback}")
    x = series.samples
    target_indices = np.arange(lookback, n, dtype=np.int64)
    # (m, lookback) index table: row k covers samples k .. k+lookback-1
    rows = np.arange(n - lookback)[:, None] + np.arange(lookback)[None, :]
    return WindowedDataset(
        lookback=lookback,
        inputs=x[rows],
        targets=x[target_indices],
        target_indices=target_indices,
    )


@dataclass(frozen=True)
class SplitDataset:
    """Train/test windows split at a source-index boundary."""

    train: WindowedDataset
    test: WindowedDataset
    boundary_index: int


def split_boundary(train_fraction: float, n: int) -> int:
    """The train/test boundary round(train_fraction * n) of an n-sample
    series: training, and the normalizer fit, use samples 0..boundary-1."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return int(round(train_fraction * n))


def split_series(
    windows: WindowedDataset, train_fraction: float, source_length: int
) -> SplitDataset:
    """Split on target indices: train targets < boundary <= test targets.

    The boundary is split_boundary(train_fraction, source_length). Test
    windows just past the boundary read the final training samples as input
    history.
    """
    boundary = split_boundary(train_fraction, source_length)
    idx = windows.target_indices
    lo, hi = int(idx[0]), int(idx[-1])
    if not lo < boundary <= hi:
        raise ValueError(
            f"boundary {boundary} leaves an empty side (target indices span {lo}..{hi})"
        )
    in_train = idx < boundary

    def subset(mask: np.ndarray) -> WindowedDataset:
        return WindowedDataset(
            lookback=windows.lookback,
            inputs=windows.inputs[mask],
            targets=windows.targets[mask],
            target_indices=windows.target_indices[mask],
        )

    return SplitDataset(train=subset(in_train), test=subset(~in_train), boundary_index=boundary)


@dataclass(frozen=True)
class Normalizer:
    """Per-channel affine map x -> (x - offset) / scale."""

    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    scale: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        offset = np.array(self.offset, dtype=np.float64).reshape(3)
        scale = np.array(self.scale, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(offset)) and np.all((scale > 0) & np.isfinite(scale))):
            raise ValueError(f"need a finite offset and positive scale, got {offset} and {scale}")
        offset.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "scale", scale)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Normalize an (..., 3) array."""
        return (np.asarray(values, dtype=np.float64) - self.offset) / self.scale

    def invert(self, values: np.ndarray) -> np.ndarray:
        """Map an (..., 3) array back to physical units."""
        return np.asarray(values, dtype=np.float64) * self.scale + self.offset


def fit_normalizer(series: MotionSeries, fit_range_end: int) -> Normalizer:
    """Per-channel z-score statistics over samples 0..fit_range_end-1.

    Uses the population standard deviation (by np.hypot where squares overflow);
    a constant channel gets scale 1 so the map stays invertible.
    """
    if fit_range_end < 2:
        raise ValueError(f"fit_range_end must be >= 2, got {fit_range_end}")
    if fit_range_end > len(series):
        raise ValueError(f"fit_range_end {fit_range_end} exceeds series length {len(series)}")
    segment = series.samples[:fit_range_end]
    with np.errstate(over="ignore", invalid="ignore"):
        offset = segment.mean(axis=0)
        scale = segment.std(axis=0)
        big = ~np.isfinite(scale)
        scale[big] = np.hypot.reduce(segment[:, big] - offset[big], axis=0) / math.sqrt(fit_range_end)
    if not (np.all(np.isfinite(offset)) and np.all(np.isfinite(scale))):
        peak = np.abs(segment).max()
        raise ValueError(f"samples reach magnitude {peak:.3g}: their mean or spread overflows float64")
    scale = np.where(scale > 0.0, scale, 1.0)
    return Normalizer(offset=offset, scale=scale)


def apply_normalizer(norm: Normalizer, series: MotionSeries) -> MotionSeries:
    return MotionSeries(dt=series.dt, samples=norm.apply(series.samples), t0=series.t0)


def series_to_csv(times: np.ndarray, samples: np.ndarray) -> str:
    """CSV text with header t,heave,pitch,roll at full float64 precision, one
    row per time and (heave, pitch, roll) sample; load_series_csv reads the
    time step from the t column, so fewer than two rows raise ValueError."""
    if len(times) < 2:
        raise ValueError(f"the t column needs at least two rows to give the time step, got {len(times)}")
    # Python floats from tolist() format faster than numpy scalars, same text
    lines = [CSV_HEADER]
    rows = zip(times.tolist(), samples.tolist(), strict=True)
    lines.extend(f"{t!r},{h!r},{p!r},{r!r}" for t, (h, p, r) in rows)
    return "\n".join(lines) + "\n"


def load_series_csv(path) -> MotionSeries:
    """Read a t,heave,pitch,roll CSV; t0 and dt come from the t column, so
    the file needs at least two rows."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0].replace(" ", "") != CSV_HEADER:
        raise ValueError(f"expected header '{CSV_HEADER}'")
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise ValueError(f"malformed CSV row: {exc}") from exc
    if rows.size == 0:
        raise ValueError("no data rows")
    if rows.shape[1] != 4:
        raise ValueError(f"expected 4 columns, got {rows.shape[1]}")
    times = rows[:, 0]
    if not np.all(np.isfinite(times)):
        raise ValueError("t column must be finite")
    if len(times) < 2:
        raise ValueError("cannot infer dt from a single row")
    dt = float(times[1]) - float(times[0])
    series = MotionSeries(dt=dt, samples=rows[:, 1:], t0=float(times[0]))
    atol = 1e-9 * max(1.0, float(np.abs(times).max()))
    # a difference that overflows is inf, which fails the check as it should
    with np.errstate(over="ignore"):
        uniform = np.allclose(times, series.times, rtol=0.0, atol=atol)
    if not uniform:
        raise ValueError(f"t column is not uniformly spaced at dt={dt}")
    return series
