"""One-step-ahead evaluation: predictions from observed history, absolute
error curves, and per-channel MAE.

Every prediction consumes the true preceding lookback window (never prior
predictions), is computed in normalized space, and is reported de-normalized
in physical units.

Normalization is causal and amplitude-invariant: the inputs for target j are
measured about the normalizer's offset and divided, per channel, by the RMS
of samples 0..j-1 about that offset; the network output is multiplied by the
same RMS before the offset is added back. The normalizer's stored scale is
only a fallback, for a channel that has not yet moved off the offset (RMS 0).
A series whose motion is a scaled copy of the training motion therefore gets
the same network inputs, whatever its amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lstm import predict_windows
from .seriesdata import MotionSeries
from .training import ModelArtifact
from .wavegen import CHANNELS


@dataclass(frozen=True)
class ForecastResult:
    """Aligned predictions and truths at a contiguous run of source indices."""

    target_indices: np.ndarray  # (m,) int
    predictions: np.ndarray  # (m, 3), physical units
    truths: np.ndarray  # (m, 3), physical units

    def __post_init__(self):
        if not (len(self.target_indices) == len(self.predictions) == len(self.truths)):
            raise ValueError("target_indices, predictions and truths must have equal length")
        if len(self.target_indices) == 0:
            raise ValueError("forecast result must be non-empty")
        if np.any(np.diff(self.target_indices) != 1):
            raise ValueError("target_indices must be contiguous: each one more than the last")
        if not np.all(np.isfinite(self.predictions)):
            raise ValueError("forecast is not finite: the series exceeds the float64 range")

    def __len__(self) -> int:
        return len(self.target_indices)


@dataclass(frozen=True)
class ErrorReport:
    """Per-channel absolute error curves with their MAE and maximum."""

    abs_errors: np.ndarray  # (m, 3)
    mae: np.ndarray  # (3,)
    max_error: np.ndarray  # (3,)


def predict_series(
    artifact: ModelArtifact,
    series: MotionSeries,
    start_index: int | None = None,
) -> ForecastResult:
    """Predict sample j from the true samples j-lookback..j-1, for every
    j from start_index (default: lookback) to the series end.

    The inputs for target j are (x - offset) / r_j and the prediction is
    y * r_j + offset, where y is the network output and r_j is the
    per-channel RMS of samples 0..j-1 about the offset, so no prediction
    uses a sample at or after its target. A channel with r_j = 0 (no motion
    yet) falls back to the normalizer's stored scale.
    """
    lookback = artifact.config.lookback
    if start_index is None:
        start_index = lookback
    if start_index < lookback:
        raise ValueError(f"start_index {start_index} is below lookback {lookback}")
    n = len(series)
    if n < lookback + 1:
        raise ValueError(f"series length {n} is shorter than lookback + 1 = {lookback + 1}")
    if start_index >= n:
        raise ValueError(f"start_index {start_index} leaves no samples to predict (n={n})")
    norm = artifact.normalizer

    x = series.samples
    indices = np.arange(start_index, n, dtype=np.int64)
    rows = indices[:, None] + np.arange(-lookback, 0)[None, :]
    deviation = x - norm.offset
    # RMS of samples 0..j-1 about the offset, for each target j; hypot keeps
    # the running root-sum-square finite where squaring a sample would overflow,
    # and where even that overflows, ForecastResult rejects the forecast
    with np.errstate(over="ignore", invalid="ignore"):
        rms = np.hypot.accumulate(deviation, axis=0)[indices - 1] / np.sqrt(indices)[:, None]
        scale = np.where(rms > 0.0, rms, norm.scale)
        windows = deviation[rows] / scale[:, None, :]
        preds = predict_windows(artifact.params, windows) * scale + norm.offset
    return ForecastResult(target_indices=indices, predictions=preds, truths=x[indices])


def error_report(result: ForecastResult) -> ErrorReport:
    """Absolute error per point and channel, plus channel MAE and maximum."""
    abs_errors = np.abs(result.predictions - result.truths)
    return ErrorReport(
        abs_errors=abs_errors,
        mae=abs_errors.mean(axis=0),
        max_error=abs_errors.max(axis=0),
    )


def summary_dict(report: ErrorReport, count: int) -> dict:
    """JSON-ready {channel: {mae, max_error}, count} summary."""
    doc = {
        name: {"mae": float(report.mae[k]), "max_error": float(report.max_error[k])}
        for k, name in enumerate(CHANNELS)
    }
    doc["count"] = count
    return doc


def errors_to_csv(result: ForecastResult, report: ErrorReport, times: np.ndarray) -> str:
    """Long-format CSV: t,channel,truth,prediction,abs_error, where times[k]
    is the time of the k-th target."""
    lines = ["t,channel,truth,prediction,abs_error"]
    for k, t in enumerate(times.tolist()):
        for j, name in enumerate(CHANNELS):
            lines.append(
                f"{t!r},{name},{float(result.truths[k, j])!r},"
                f"{float(result.predictions[k, j])!r},{float(report.abs_errors[k, j])!r}"
            )
    return "\n".join(lines) + "\n"
