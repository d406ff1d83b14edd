"""The LSTM kernels: input layout, one recurrence shared by the cached and
uncached forward passes, bit-identity with the model-order recurrence, and
the names the benchmark harness reads."""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from deckmotion import _kernels as K
from deckmotion import evaluate, lstm, restperiod, seriesdata, svgplot, training, wavegen
from deckmotion.lstm import LstmConfig, init_params
from oracles import bptt_oracle, recurrence_oracle


# acts[t] of lstm_forward's cache holds these, in this order
SLOTS = ("i", "f", "o", "g", "c", "tanh_c", "h")


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
        y_full, acts = K.lstm_forward(*args)
        assert np.array_equal(y_full, K.lstm_predict(*args)), batch
        assert acts.shape == (7, 7, batch, 8)
    assert lstm.predict_windows(params, np.zeros((0, 7, 3))).shape == (0, 3)


@pytest.mark.parametrize("hidden", [3, 8, 64])
@pytest.mark.parametrize("saturated", [False, True])
def test_forward_is_bit_identical_to_model_order_recurrence(hidden, saturated):
    # the kernels negate and reorder the gate weights, project the inputs of
    # several steps at once and run one sigmoid over the i, f, o slots; every
    # value must still equal the model-order expressions bit for bit,
    # including gates that saturate at 0 and 1. Neither lookback is 7, so
    # that an (L, 7, B, H) cache is told from (7, L, B, H); at 13, B=32
    # projects its inputs in stretches of 8 and 5 steps
    for lookback, batch in itertools.product((5, 13), (1, 2, 5, 32, 255, 256, 257, 1960)):
        params, x = _random_case(hidden + batch, hidden=hidden, lookback=lookback, batch=batch)
        if saturated:
            x = np.where(x < 0.0, -1e4, 1e4)
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        with np.errstate(over="ignore"):
            y, acts = K.lstm_forward(*args)
            y_ref, h_ref, stacks = recurrence_oracle(*args)
            y_pred = K.lstm_predict(*args)
            # the uncached pass, in one slot that every step overwrites
            weights = K._gate_weights(params.wx, params.wh, params.b, batch)
            h = K._recur(*weights, x, *K._scratch(batch, hidden, lookback))
        assert acts.shape == (lookback, 7, batch, hidden)
        assert np.array_equal(y, y_ref), (lookback, batch)
        assert np.array_equal(y_pred, y_ref), (lookback, batch)
        assert np.array_equal(h, h_ref), (lookback, batch)
        for k, name in enumerate(SLOTS):
            assert np.array_equal(acts[:, k], stacks[name]), (lookback, batch, name)


@pytest.mark.parametrize("hidden", [3, 8, 64])
@pytest.mark.parametrize("saturated", [False, True])
def test_backward_is_bit_identical_to_model_order_bptt(hidden, saturated):
    # the gradients decide the model file's bytes, so lstm_backward must
    # equal BPTT written out in model order bit for bit, not only to within
    # the tolerance of a finite-difference check
    lookback = 5
    for batch in (1, 2, 5, 32, 255, 256, 257, 1960):
        params, x = _random_case(hidden + batch, hidden=hidden, lookback=lookback, batch=batch)
        if saturated:
            x = np.where(x < 0.0, -1e4, 1e4)
        dy = np.random.default_rng(batch).normal(size=(batch, 3))
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        with np.errstate(over="ignore"):
            _, acts = K.lstm_forward(*args)
            _, _, stacks = recurrence_oracle(*args)
        grads = K.lstm_backward(params.wx, params.wh, params.w_out, x, acts, dy)
        expected = bptt_oracle(params.wx, params.wh, params.w_out, x, stacks, dy)
        for name, got, want in zip(("d_wx", "d_wh", "d_b", "d_wout", "d_bout"), grads, expected):
            assert np.array_equal(got, want), (batch, name)


@pytest.mark.parametrize("batch", [1, 245])
def test_recurrence_memory_does_not_grow_with_steps(batch):
    # _recur allocates nothing per step that outlives the step, so its
    # traced peak is the same over 4 steps and over 40
    peaks = []
    for lookback in (4, 40):
        params, x = _random_case(2, hidden=64, lookback=lookback, batch=batch)
        weights = K._gate_weights(params.wx, params.wh, params.b, batch)
        scratch = K._scratch(batch, 64, lookback)
        K._recur(*weights, x, *scratch)  # warm numpy's first-call caches
        tracemalloc.start()
        try:
            K._recur(*weights, x, *scratch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] == peaks[1], peaks


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_predict_matches_forward(monkeypatch, workers):
    # the blocks of a wide batch are shared among `workers` threads; the
    # result must not depend on how many there are
    monkeypatch.setattr(K, "_cpu_count", lambda: workers)
    rows = K.PREDICT_ROWS
    for batch in (rows + 1, 2 * rows + 1, 1960):
        params, x = _random_case(11, hidden=8, batch=batch)
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        assert np.array_equal(K.lstm_forward(*args)[0], K.lstm_predict(*args)), batch


def test_threaded_predict_keeps_callers_errstate(monkeypatch):
    # saturated gates overflow exp; predict_windows silences that with
    # np.errstate, which a helper thread sees only through the caller's
    # context (tier-1 turns any RuntimeWarning into a failure)
    monkeypatch.setattr(K, "_cpu_count", lambda: 2)
    params = init_params(LstmConfig(hidden_dim=8, lookback=7), 3)
    windows = np.full((K.PREDICT_ROWS + 1, 7, 3), 1e4)
    windows[::2] *= -1.0
    y = lstm.predict_windows(params, windows)
    assert np.all(np.isfinite(y))


def test_helper_exception_propagates(monkeypatch):
    monkeypatch.setattr(K, "_cpu_count", lambda: 2)
    caller = threading.current_thread()
    recur = K._recur

    def failing_in_helper(*args):
        if threading.current_thread() is not caller:
            raise ArithmeticError("helper block failed")
        return recur(*args)

    monkeypatch.setattr(K, "_recur", failing_in_helper)
    params, x = _random_case(5, hidden=4, batch=K.PREDICT_ROWS + 1)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="helper block failed"):
        K.lstm_predict(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
    assert threading.active_count() == before


def test_predictions_do_not_share_scratch():
    params = init_params(LstmConfig(hidden_dim=8, lookback=7), 4)
    rng = np.random.default_rng(4)
    for batch in (1, 2 * K.PREDICT_ROWS + 1):
        first = lstm.predict_windows(params, rng.normal(size=(batch, 7, 3)))
        kept = first.copy()
        second = lstm.predict_windows(params, rng.normal(size=(batch, 7, 3)))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)


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
