"""The LSTM kernels: input layout, one recurrence shared by the cached and
uncached forward passes, and the names the benchmark harness reads."""

import numpy as np
import pytest

from deckmotion import _kernels as K
from deckmotion import evaluate, lstm, restperiod, seriesdata, svgplot, training, wavegen
from deckmotion.lstm import LstmConfig, init_params


def _random_case(seed, hidden=6, lookback=7, batch=4):
    params = init_params(LstmConfig(hidden_dim=hidden, lookback=lookback), seed)
    rng = np.random.default_rng(seed + 1)
    x = K.as_time_major(rng.normal(size=(batch, lookback, 3)))
    return params, x


def test_as_time_major():
    batch = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    x = K.as_time_major(batch)
    assert x.shape == (3, 2, 3)
    assert x.flags["C_CONTIGUOUS"]
    assert np.array_equal(x[1, 0], batch[0, 1])
    with pytest.raises(ValueError):
        K.as_time_major(np.zeros((4, 3)))


def test_forward_and_predict_consistent():
    # lstm_forward runs the whole batch at once, so it is the oracle for
    # lstm_predict's blocks; at H=8 a split that left a block of one to
    # four rows would round differently from the wide GEMM
    rows = K.PREDICT_ROWS
    for batch in (1, 4, rows, rows + 1, rows + 4, 2 * rows + 1):
        params, x = _random_case(9, hidden=8, batch=batch)
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        y_full, *acts = K.lstm_forward(*args)
        assert np.array_equal(y_full, K.lstm_predict(*args)), batch
        assert len(acts) == 7
        assert all(a.shape == (7, batch, 8) for a in acts)
    assert lstm.predict_windows(params, np.zeros((0, 7, 3))).shape == (0, 3)


def test_benchmark_harness_names_exist():
    # perfbench/run.py reads NUMBA_ENABLED for its fingerprint, and
    # perfbench/tracer.py wraps these kernels and functions by identity
    # wherever a deckmotion module binds them
    assert K.NUMBA_ENABLED is False
    assert lstm.lstm_forward is K.lstm_forward
    assert lstm.lstm_backward is K.lstm_backward
    assert lstm.lstm_predict is K.lstm_predict
    assert training.loss_and_gradients is lstm.loss_and_gradients
    assert training.predict_windows is lstm.predict_windows
    for fn in (
        training.train,
        training.save_model,
        training.load_model,
        seriesdata.sample_series,
        seriesdata.load_series_csv,
        seriesdata.series_to_csv,
        seriesdata.fit_normalizer,
        seriesdata.apply_normalizer,
        seriesdata.Normalizer.apply,
        seriesdata.Normalizer.invert,
        evaluate.predict_series,
        evaluate.errors_to_csv,
        svgplot.render_panels,
        wavegen.evaluate_model_array,
        restperiod.calm_mask,
        restperiod.rest_periods_from_forecast,
    ):
        assert callable(fn)
    assert seriesdata.evaluate_model_array is wavegen.evaluate_model_array
    assert isinstance(evaluate.ForecastResult, type)
