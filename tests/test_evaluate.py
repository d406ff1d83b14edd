"""One-step-ahead forecasting and absolute-error reporting."""

from dataclasses import replace

import numpy as np
import pytest

from deckmotion import evaluate as ev
from deckmotion import lstm as L
from deckmotion import seriesdata as sd
from deckmotion import training as tr
from deckmotion import wavegen as wg


def zero_artifact(lookback=40, hidden=4, offset=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)):
    H = hidden
    params = L.LstmParams(
        wx=np.zeros((4 * H, 3)),
        wh=np.zeros((4 * H, H)),
        b=np.zeros(4 * H),
        w_out=np.zeros((3, H)),
        b_out=np.zeros(3),
    )
    return tr.ModelArtifact(
        config=L.LstmConfig(hidden_dim=H, lookback=lookback),
        params=params,
        normalizer=sd.Normalizer(offset=np.array(offset), scale=np.array(scale)),
    )


def trained_artifact(lookback=10):
    series = sd.sample_series(wg.knox_training_model(), 300, 0.2)
    norm = sd.fit_normalizer(series, 210)
    windows = sd.make_windows(sd.apply_normalizer(norm, series), lookback)
    split = sd.split_series(windows, 0.7, 300)
    config = tr.TrainConfig(epochs=2, batch_size=32, hidden_dim=8, lookback=lookback)
    artifact, _ = tr.train(split, config, seed=3, normalizer=norm)
    return artifact, series


@pytest.fixture(scope="module")
def knox_series():
    return sd.sample_series(wg.knox_training_model(), 2000, 0.1)


def test_prediction_counts(knox_series):
    artifact = zero_artifact()
    assert len(ev.predict_series(artifact, knox_series, 40)) == 1960
    assert len(ev.predict_series(artifact, knox_series, 1400)) == 600
    assert len(ev.predict_series(artifact, knox_series)) == 1960  # default start


def test_zero_model_predicts_normalizer_offset(knox_series):
    artifact = zero_artifact(offset=(1.5, -0.25, 3.0), scale=(2.0, 0.5, 1.0))
    result = ev.predict_series(artifact, knox_series, 40)
    assert np.all(result.predictions == np.array([1.5, -0.25, 3.0]))
    assert np.array_equal(result.truths, knox_series.samples[40:])


def test_series_length_validation():
    artifact = zero_artifact(lookback=40)
    short = sd.MotionSeries(dt=0.1, samples=np.zeros((40, 3)))
    with pytest.raises(ValueError):
        ev.predict_series(artifact, short)
    ok = sd.MotionSeries(dt=0.1, samples=np.zeros((41, 3)))
    assert len(ev.predict_series(artifact, ok)) == 1
    with pytest.raises(ValueError):
        ev.predict_series(artifact, ok, start_index=39)
    with pytest.raises(ValueError):
        ev.predict_series(artifact, ok, start_index=41)


def test_one_step_purity():
    artifact, series = trained_artifact()
    full = ev.predict_series(artifact, series, 10)
    j = 120
    truncated = sd.MotionSeries(dt=series.dt, samples=series.samples[: j + 1])
    part = ev.predict_series(artifact, truncated, 10)
    k = np.flatnonzero(full.target_indices == j)[0]
    assert np.allclose(part.predictions[-1], full.predictions[k], rtol=0, atol=1e-12)


def test_normalizer_override_consistency():
    artifact, series = trained_artifact()
    norm = artifact.normalizer
    # feeding pre-normalized data through an identity normalizer must match
    # normalizing inside, after mapping the output back to physical units
    pre = sd.apply_normalizer(norm, series)
    inner = ev.predict_series(artifact, series, 10)
    outer = ev.predict_series(replace(artifact, normalizer=sd.Normalizer()), pre, 10)
    assert np.allclose(
        norm.invert(outer.predictions), inner.predictions, rtol=0, atol=1e-12
    )


def test_forecast_deviation_scales_with_series_amplitude():
    # inputs are divided by the causal RMS about the offset and the output is
    # multiplied by it, so scaling a channel's motion scales its forecast;
    # the 1e160 factor squares past the float range
    artifact, series = trained_artifact()
    offset = artifact.normalizer.offset
    base = ev.predict_series(artifact, series, 10).predictions - offset
    for factor in ([1.0, 65.0, 80.0], [1e160, 1.0, 1e-3]):
        factor = np.array(factor)
        scaled = sd.MotionSeries(
            dt=series.dt, samples=offset + (series.samples - offset) * factor
        )
        big = ev.predict_series(artifact, scaled, 10).predictions - offset
        assert np.allclose(big, base * factor, rtol=1e-9, atol=0)


def test_motionless_series_falls_back_to_stored_scale():
    # no motion about the offset gives RMS 0: the stored scale is used, so
    # the inputs stay finite and a zero network forecasts the offset exactly
    offset = (0.7, -0.2, 1.1)
    artifact = zero_artifact(lookback=10, offset=offset, scale=(2.0, 0.5, 3.0))
    still = sd.MotionSeries(dt=0.5, samples=np.tile([offset], (60, 1)))
    result = ev.predict_series(artifact, still)
    assert np.all(result.predictions == np.array(offset))


def test_error_report_identity():
    result = ev.ForecastResult(
        target_indices=np.arange(5),
        predictions=np.ones((5, 3)),
        truths=np.ones((5, 3)),
    )
    report = ev.error_report(result)
    assert np.all(report.abs_errors == 0.0)
    assert np.all(report.mae == 0.0)
    assert np.all(report.max_error == 0.0)


def test_error_report_constant_offset():
    truths = np.random.default_rng(0).normal(size=(20, 3))
    preds = truths.copy()
    preds[:, 0] += 0.3
    report = ev.error_report(
        ev.ForecastResult(target_indices=np.arange(20), predictions=preds, truths=truths)
    )
    assert np.isclose(report.mae[0], 0.3, rtol=0, atol=1e-15)
    assert report.mae[1] == 0.0 and report.mae[2] == 0.0


def test_error_report_matches_recomputation():
    rng = np.random.default_rng(5)
    preds = rng.normal(size=(10, 3))
    truths = rng.normal(size=(10, 3))
    report = ev.error_report(
        ev.ForecastResult(target_indices=np.arange(10), predictions=preds, truths=truths)
    )
    # spreadsheet-style recomputation, plain python accumulators
    for ch in range(3):
        errs = [abs(preds[k, ch] - truths[k, ch]) for k in range(10)]
        assert abs(report.mae[ch] - sum(errs) / 10) <= 1e-12
        assert report.max_error[ch] == max(errs)
        assert report.mae[ch] <= report.max_error[ch]


def test_mae_translation():
    truths = np.random.default_rng(1).normal(size=(15, 3))
    for delta in (0.05, -1.25):
        preds = truths.copy()
        preds[:, 2] += delta
        report = ev.error_report(
            ev.ForecastResult(target_indices=np.arange(15), predictions=preds, truths=truths)
        )
        assert np.isclose(report.mae[2], abs(delta), rtol=0, atol=1e-15)


def test_forecast_result_validation():
    # decreasing, or increasing with a gap
    for indices in ([3, 2], [4, 6]):
        with pytest.raises(ValueError):
            ev.ForecastResult(
                target_indices=np.array(indices), predictions=np.zeros((2, 3)), truths=np.zeros((2, 3))
            )
    with pytest.raises(ValueError):
        ev.ForecastResult(
            target_indices=np.array([], dtype=int),
            predictions=np.zeros((0, 3)),
            truths=np.zeros((0, 3)),
        )
    with pytest.raises(ValueError):
        ev.ForecastResult(
            target_indices=np.array([1]), predictions=np.zeros((2, 3)), truths=np.zeros((2, 3))
        )
    with pytest.raises(ValueError, match="not finite"):
        ev.ForecastResult(
            target_indices=np.array([1, 2]),
            predictions=np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]),
            truths=np.zeros((2, 3)),
        )


def test_errors_csv_format(knox_series):
    artifact = zero_artifact()
    result = ev.predict_series(artifact, knox_series, 1990)
    report = ev.error_report(result)
    text = ev.errors_to_csv(result, report, knox_series.times[result.target_indices])
    lines = text.strip().split("\n")
    assert lines[0] == "t,channel,truth,prediction,abs_error"
    assert len(lines) == 1 + 10 * 3
    first = lines[1].split(",")
    assert first[1] == "heave"
    assert float(first[0]) == pytest.approx(199.0)


def test_summary_dict(knox_series):
    artifact = zero_artifact()
    result = ev.predict_series(artifact, knox_series, 40)
    doc = ev.summary_dict(ev.error_report(result))
    assert doc["count"] == 1960
    for name in wg.CHANNELS:
        assert set(doc[name]) == {"mae", "max_error"}
        assert doc[name]["mae"] <= doc[name]["max_error"]


def test_forecast_to_series(knox_series, tmp_path):
    artifact = zero_artifact()
    result = ev.predict_series(artifact, knox_series, 100)
    path = tmp_path / "forecast.csv"
    path.write_text(sd.series_to_csv(knox_series.times[result.target_indices], result.predictions))
    out = sd.load_series_csv(path)
    assert len(out) == 1900
    assert out.t0 == knox_series.times[100]
    assert np.array_equal(out.samples, result.predictions)
    with pytest.raises(ValueError):
        ev.ForecastResult(
            target_indices=np.array([1, 3]), predictions=np.zeros((2, 3)), truths=np.zeros((2, 3))
        )
