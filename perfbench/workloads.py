"""The three benchmark workloads: set-up, one operation, and output checks.

Constructing a workload is its set-up (timed as setup_s). After that the
runner calls `op()` for each measured operation, `finish(result)` for the
bookkeeping between operations, and, once at the end, `failures(kept)` on
everything `finish` returned. The first `warmup_ops` operations run before
timing starts; their output is the reference later operations must match.
An untraced run times `setup_samples` samples of set-up, spread over the run.

All inputs derive from the workload seed. The program is driven only
through its public functions and `cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from deckmotion import cli, evaluate, lstm, restperiod, seriesdata, training, wavegen

DT = 0.1
TRAIN_FRACTION = 0.7
# The README's landing thresholds: pitch 0.5, roll 3.0, calm for 2 s.
CRITERIA = restperiod.RestCriteria(pitch_max=0.5, roll_max=3.0, min_duration=2.0)
# Stream forecasts at B=1 and one batched call differ by ~2e-15 in the GEMM
# summation order, so bit equality would be the wrong test.
STREAM_TOLERANCE = 1e-12
# Epochs of the model the forecasting workloads train in set-up.
SETUP_EPOCHS = 1


@dataclass(frozen=True)
class Size:
    train_n: int  # samples in the Knox training series
    lookback: int
    hidden: int
    batch: int
    train_epochs: int  # epochs per measured training.train call (train-ref)
    sea_n: int  # samples in the seeded sea-state-5 series
    warmup: int  # stream-land samples that fit the causal normalizer
    setup_sample_s: float  # least time one set-up sample spans (see run.setup_sample)


# The reference configuration of ROADMAP aim 1 and acceptance criterion 4.
FULL = Size(train_n=2000, lookback=40, hidden=64, batch=32, train_epochs=2,
            sea_n=2000, warmup=100, setup_sample_s=0.4)
SMOKE = Size(train_n=200, lookback=10, hidden=8, batch=16, train_epochs=1,
             sea_n=200, warmup=30, setup_sample_s=0.0)


def _knox_split(size: Size):
    series = seriesdata.sample_series(wavegen.knox_training_model(), size.train_n, DT)
    norm = seriesdata.fit_normalizer(series, int(round(TRAIN_FRACTION * size.train_n)))
    windows = seriesdata.make_windows(seriesdata.apply_normalizer(norm, series), size.lookback)
    return seriesdata.split_series(windows, TRAIN_FRACTION, size.train_n), norm


def _train_config(size: Size, epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=epochs,
        batch_size=size.batch,
        learning_rate=1e-3,
        shuffle_seed=seed,
        hidden_dim=size.hidden,
        lookback=size.lookback,
    )


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _save_trained_model(size: Size, seed: int, path: str) -> str:
    """The offline step the forecasting workloads start from; returns the
    model file's digest, which must not differ between set-ups."""
    split, norm = _knox_split(size)
    config = _train_config(size, SETUP_EPOCHS, seed)
    artifact, _ = training.train(split, config, seed, normalizer=norm)
    training.save_model(artifact, path)
    return _digest(path)


class TrainRef:
    """One operation is one training.train call at the reference config."""

    unit = "train call"
    warmup_ops = 1
    # Set-up takes a few milliseconds, so it is sampled often: about every
    # second train call.
    setup_samples = 13

    def __init__(self, size: Size, seed: int, workdir: str):
        self.seed = seed
        self.split, self.norm = _knox_split(size)
        self.config = _train_config(size, size.train_epochs, seed)
        self.windows_per_op = len(self.split.train) * size.train_epochs
        self.model_digest = None
        self.ref_batch, self.ref_backward = size.batch, True

    def op(self):
        _, report = training.train(self.split, self.config, self.seed, normalizer=self.norm)
        return report.epoch_losses

    def finish(self, losses):
        return losses

    def failures(self, kept) -> tuple[int, int]:
        """Losses finite, and bit-identical to the first call's."""
        reference = kept[0]
        failed = sum(not all(math.isfinite(v) for v in run) or run != reference for run in kept)
        return failed, 0


# Files one pipeline pass writes, relative to its output directory.
PIPELINE_OUTPUTS = sorted([
    "sea5.csv", "errors.csv", "summary.json", os.path.join("plots", "predictions.svg"),
    os.path.join("plots", "errors.svg"), "intervals.csv", "predicted.csv", "sea5.svg",
])


class PipelineSea5:
    """One operation is one CLI pass over a freshly simulated sea state."""

    unit = "pass"
    warmup_ops = 1
    setup_samples = 7

    def __init__(self, size: Size, seed: int, workdir: str):
        model = os.path.join(workdir, "model.json")
        self.model_digest = _save_trained_model(size, seed, model)
        self.ref_batch, self.ref_backward = size.sea_n - size.lookback, False
        self.out = out = os.path.join(workdir, "out")
        data = os.path.join(out, "sea5.csv")
        forecast = ["--model", model, "--data", data, "--renormalize"]
        self.commands = [
            ["simulate", "--model", "random", "--seed", str(seed), "--random-phases",
             "--n", str(size.sea_n), "--out", data],
            ["evaluate", *forecast, "--out-csv", os.path.join(out, "errors.csv"),
             "--out-json", os.path.join(out, "summary.json"), "--svg", os.path.join(out, "plots")],
            ["rest", *forecast, "--pitch-max", str(CRITERIA.pitch_max),
             "--roll-max", str(CRITERIA.roll_max), "--min-duration", str(CRITERIA.min_duration),
             "--out", os.path.join(out, "intervals.csv")],
            ["predict", *forecast, "--out", os.path.join(out, "predicted.csv")],
            ["plot", "--data", data, "--out", os.path.join(out, "sea5.svg")],
        ]

    def op(self):
        return [cli.main([*argv, "--quiet"]) for argv in self.commands]

    def finish(self, codes) -> dict:
        """Exit codes and output digests of the pass just run. Removes the
        outputs, so the next pass has to write them again."""
        found = sorted(
            os.path.relpath(os.path.join(d, name), self.out)
            for d, _, files in os.walk(self.out)
            for name in files
        )
        kept = {"codes": codes, "files": found, "summary_finite": False, "intervals": 0}
        if found == PIPELINE_OUTPUTS:
            kept["digests"] = [_digest(os.path.join(self.out, name)) for name in found]
            with open(os.path.join(self.out, "summary.json"), "rb") as f:
                kept["summary_finite"] = _json_finite(json.load(f))
            with open(os.path.join(self.out, "intervals.csv"), "rb") as f:
                kept["intervals"] = f.read().count(b"\n") - 1
        shutil.rmtree(self.out, ignore_errors=True)
        return kept

    def failures(self, kept) -> tuple[int, int]:
        """Every command exits 0, the summary JSON is finite, and every
        output file is byte-identical to the first pass's."""
        reference = kept[0].get("digests")
        failed = sum(
            any(code != 0 for code in p["codes"]) or not p["summary_finite"]
            or reference is None or p.get("digests") != reference
            for p in kept
        )
        return failed, kept[0]["intervals"]


def _json_finite(doc) -> bool:
    """True when the document holds numbers and every one is finite."""
    values = []

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, (int, float)):
            values.append(node)

    walk(doc)
    return bool(values) and all(math.isfinite(v) for v in values)


class StreamLand:
    """One operation is one step of a closed loop with one client: a new
    sample arrives, and the step ends with its forecast and landing decision.
    The loop replays the seeded sea-state-5 series for as long as it runs."""

    unit = "step"
    warmup_ops = 0
    setup_samples = 7

    def __init__(self, size: Size, seed: int, workdir: str):
        path = os.path.join(workdir, "model.json")
        self.model_digest = _save_trained_model(size, seed, path)
        self.ref_batch, self.ref_backward = 1, False
        artifact = training.load_model(path)
        self.params = artifact.params
        self.lookback = artifact.config.lookback
        # The same series as `simulate --model random --seed SEED --random-phases`.
        wave = wavegen.random_sea_state_model(wavegen.sea_state5_spec(), seed, random_phases=True)
        series = seriesdata.sample_series(wave, size.sea_n, DT)
        self.samples = series.samples
        # ROADMAP item 3: a causal normalizer fitted on a 10 s warm-up prefix;
        # forecasting starts after it, at target index `warmup`.
        self.warmup = size.warmup
        self.norm = seriesdata.fit_normalizer(series, size.warmup)
        self.targets = np.arange(size.warmup, len(series))
        # A landing needs the trailing `trail` forecasts calm: the shortest
        # calm run restperiod accepts as an interval.
        self.trail = 1 + next(m for m in range(len(series)) if m * DT >= CRITERIA.min_duration)
        self.replays = []
        self._start_replay()

    def _start_replay(self):
        n = len(self.targets)
        self.buf = np.zeros_like(self.samples)
        self.buf[: self.warmup - 1] = self.samples[: self.warmup - 1]
        self.z = np.full((n, 3), np.nan)
        self.forecast = np.empty((n, 3))
        self.decision = np.zeros(n, dtype=bool)
        self.k = 0
        self.replays.append((self.z, self.decision))

    def op(self):
        """Sample j arrives; forecast sample j + 1 and decide on landing."""
        k = self.k
        j = self.targets[k] - 1
        self.buf[j] = self.samples[j]
        window = self.norm.apply(self.buf[j - self.lookback + 1 : j + 1])
        z = lstm.predict_windows(self.params, window[None])[0]
        self.z[k] = z
        self.forecast[k] = self.norm.invert(z)
        lo = k - self.trail + 1
        if lo >= 0:
            calm = restperiod.calm_mask(self.forecast[lo : k + 1], DT, CRITERIA)
            self.decision[k] = bool(calm.all())

    def finish(self, _):
        self.k += 1
        if self.k == len(self.targets):
            self._start_replay()

    def reference(self):
        """One batched predict_windows over the same windows, and the landing
        decisions that rest_periods_from_forecast implies for its forecast."""
        rows = self.targets[:, None] + np.arange(-self.lookback, 0)[None, :]
        z = lstm.predict_windows(self.params, self.norm.apply(self.samples[rows]))
        result = evaluate.ForecastResult(
            target_indices=self.targets,
            predictions=self.norm.invert(z),
            truths=self.samples[self.targets],
        )
        intervals = restperiod.rest_periods_from_forecast(result, DT, CRITERIA)
        decision = np.zeros(len(self.targets), dtype=bool)
        first = int(self.targets[0])
        for iv in intervals:
            decision[iv.start_index - first + self.trail - 1 : iv.end_index - first + 1] = True
        return z, decision, len(intervals)

    def failures(self, kept) -> tuple[int, int]:
        """Steps whose forecast or landing decision disagrees with the batched
        reference, among the len(kept) steps run."""
        z_ref, decision_ref, intervals = self.reference()
        n = len(self.targets)
        failed = 0
        for r, (z, decision) in enumerate(self.replays):
            done = min(n, len(kept) - r * n)
            if done <= 0:
                break
            close = np.abs(z[:done] - z_ref[:done]).max(axis=1) <= STREAM_TOLERANCE
            bad = ~close | (decision[:done] != decision_ref[:done])
            failed += int(np.count_nonzero(bad))
        return failed, intervals


WORKLOADS = {"train-ref": TrainRef, "pipeline-sea5": PipelineSea5, "stream-land": StreamLand}
