"""Rest-period detection against a brute-force per-sample oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from deckmotion import evaluate as ev
from deckmotion import restperiod as rp
from deckmotion import seriesdata as sd
from deckmotion import wavegen as wg
from oracles import random_criteria, random_series, scan_oracle

# series start times: the default, a negative one, and an epoch timestamp
T0S = (0.0, -3.2, 1.7e9)


def test_generous_thresholds_give_one_full_interval():
    series = sd.sample_series(wg.sea_state5_reference_model(), 500, 0.1)
    sums = wg.sea_state5_reference_model().amplitude_sums()
    criteria = rp.RestCriteria(pitch_max=sums[1] + 1, roll_max=sums[2] + 1)
    intervals = rp.detect_rest_periods(series, criteria)
    assert len(intervals) == 1
    iv = intervals[0]
    assert iv.start_index == 0 and iv.end_index == 499
    assert iv.duration == pytest.approx(49.9)


def test_epsilon_thresholds_keep_zero_crossing_at_origin():
    series = sd.sample_series(wg.knox_training_model(), 200, 0.1)
    eps = np.finfo(float).eps
    criteria = rp.RestCriteria(pitch_max=eps, roll_max=eps)
    intervals = rp.detect_rest_periods(series, criteria)
    assert intervals, "the zero-phase model is exactly zero at index 0"
    assert intervals[0].start_index == 0


def test_reference_series_matches_oracle():
    series = sd.sample_series(wg.sea_state5_reference_model(), 2000, 0.1)
    criteria = rp.RestCriteria(pitch_max=0.5, roll_max=3.0, min_duration=2.0)
    got = rp.detect_rest_periods(series, criteria)
    assert got == scan_oracle(series.samples, series.dt, criteria)
    assert got, "demo thresholds should produce at least one rest interval"


def test_random_series_match_oracle():
    rng = np.random.default_rng(123)
    for k in range(400):
        series = replace(random_series(rng), t0=T0S[k % len(T0S)])
        criteria = random_criteria(rng)
        assert rp.detect_rest_periods(series, criteria) == scan_oracle(
            series.samples, series.dt, criteria, t0=series.t0
        )


def test_intervals_maximal_disjoint_sorted():
    rng = np.random.default_rng(7)
    for _ in range(50):
        series = random_series(rng)
        criteria = random_criteria(rng)
        mask = rp.calm_mask(series.samples, series.dt, criteria)
        intervals = rp.detect_rest_periods(series, criteria)
        prev_end = -1
        for iv in intervals:
            assert iv.start_index > prev_end
            prev_end = iv.end_index
            assert mask[iv.start_index : iv.end_index + 1].all()
            if iv.start_index > 0:
                assert not mask[iv.start_index - 1]
            if iv.end_index < len(series) - 1:
                assert not mask[iv.end_index + 1]


def test_threshold_monotonicity():
    rng = np.random.default_rng(11)
    series = random_series(rng)
    base = rp.RestCriteria(pitch_max=0.4, roll_max=0.4)
    wide = rp.RestCriteria(pitch_max=0.9, roll_max=1.1)
    m1 = rp.calm_mask(series.samples, series.dt, base)
    m2 = rp.calm_mask(series.samples, series.dt, wide)
    assert np.all(m2[m1])  # calm under tight thresholds stays calm under wide


def test_min_duration_filters_short_runs():
    samples = np.zeros((10, 3))
    samples[::2, 1] = 5.0  # alternating calm/rough: all runs are single samples
    series = sd.MotionSeries(dt=0.1, samples=samples)
    criteria = rp.RestCriteria(pitch_max=1.0, roll_max=1.0, min_duration=0.05)
    assert rp.detect_rest_periods(series, criteria) == []
    loose = rp.RestCriteria(pitch_max=1.0, roll_max=1.0, min_duration=0.0)
    assert len(rp.detect_rest_periods(series, loose)) == 5


def test_forecast_identical_to_truth_gives_same_intervals():
    series = sd.sample_series(wg.knox_training_model(), 300, 0.1)
    criteria = rp.RestCriteria(pitch_max=0.01, roll_max=0.05, heave_rate_max=0.3)
    result = ev.ForecastResult(
        target_indices=np.arange(300),
        predictions=series.samples.copy(),
        truths=series.samples.copy(),
    )
    assert rp.rest_periods_from_forecast(result, series.dt, criteria) == rp.detect_rest_periods(
        series, criteria
    )


def test_forecast_intervals_match_oracle_with_offset():
    rng = np.random.default_rng(17)
    for k in range(100):
        n = int(rng.integers(2, 120))
        start = int(rng.integers(1, 40))
        preds = rng.normal(size=(n, 3))
        result = ev.ForecastResult(
            target_indices=np.arange(start, start + n),
            predictions=preds,
            truths=rng.normal(size=(n, 3)),
        )
        criteria = random_criteria(rng)
        dt = float(rng.uniform(0.05, 0.3))
        t0 = T0S[k % len(T0S)]
        got = rp.rest_periods_from_forecast(result, dt, criteria, t0=t0)
        assert got == scan_oracle(preds, dt, criteria, t0=t0, index_offset=start)


def test_forecast_requires_contiguous_indices():
    with pytest.raises(ValueError):
        ev.ForecastResult(
            target_indices=np.array([4, 6]),
            predictions=np.zeros((2, 3)),
            truths=np.zeros((2, 3)),
        )


def test_single_sample_series():
    series = sd.MotionSeries(dt=0.1, samples=np.zeros((1, 3)))
    criteria = rp.RestCriteria(pitch_max=1.0, roll_max=1.0, heave_rate_max=0.1)
    intervals = rp.detect_rest_periods(series, criteria)
    assert len(intervals) == 1
    assert intervals[0].duration == 0.0


def test_criteria_validation():
    with pytest.raises(ValueError):
        rp.RestCriteria(pitch_max=0.0, roll_max=1.0)
    with pytest.raises(ValueError):
        rp.RestCriteria(pitch_max=1.0, roll_max=-2.0)
    with pytest.raises(ValueError):
        rp.RestCriteria(pitch_max=1.0, roll_max=1.0, heave_rate_max=0.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rp.RestCriteria(pitch_max=1.0, roll_max=1.0, min_duration=bad)


def test_interval_csv_and_dicts():
    series = sd.sample_series(wg.knox_training_model(), 100, 0.1)
    criteria = rp.RestCriteria(pitch_max=0.02, roll_max=0.08)
    intervals = rp.detect_rest_periods(series, criteria)
    text = rp.intervals_to_csv(intervals)
    lines = text.strip().split("\n")
    assert lines[0] == "start_t,end_t,duration"
    assert len(lines) == 1 + len(intervals)
    docs = rp.intervals_to_dicts(intervals)
    if docs:
        assert set(docs[0]) == {"start_index", "end_index", "start_t", "end_t", "duration"}


def test_overflowing_heave_rate_is_not_calm_and_warns_nothing(tmp_path):
    criteria = rp.RestCriteria(pitch_max=1.0, roll_max=1.0, heave_rate_max=1.0)
    # alternating +-1.7e308: the end samples' one-sided differences overflow,
    # the interior's central ones are 0
    samples = np.zeros((8, 3))
    samples[:, 0] = 1.7e308 * (-1.0) ** np.arange(8)
    series = sd.MotionSeries(dt=0.1, samples=samples)
    # N(0, 1) heave at dt = 1e-309, as a CSV loads it: every rate overflows
    samples = np.zeros((8, 3))
    samples[:, 0] = np.random.default_rng(0).normal(size=8)
    path = tmp_path / "tiny_dt.csv"
    path.write_text(sd.series_to_csv(np.arange(8) * 1e-309, samples))
    loaded = sd.load_series_csv(path)
    assert loaded.dt == 1e-309
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rp.calm_mask(series.samples, series.dt, criteria).tolist() == [False] + [True] * 6 + [False]
        assert [(iv.start_index, iv.end_index) for iv in rp.detect_rest_periods(series, criteria)] == [(1, 6)]
        assert not rp.calm_mask(loaded.samples, loaded.dt, criteria).any()
        assert rp.detect_rest_periods(loaded, criteria) == []


def test_calm_mask_ignores_a_strict_callers_errstate():
    # the heave rates of 1e-310-scale samples are subnormal: they underflow
    criteria = rp.RestCriteria(pitch_max=1.0, roll_max=1.0, heave_rate_max=1.0)
    samples = np.random.default_rng(0).normal(size=(50, 3)) * 1e-310
    mask = rp.calm_mask(samples, 0.1, criteria)
    with np.errstate(all="raise"):
        assert np.array_equal(rp.calm_mask(samples, 0.1, criteria), mask)
