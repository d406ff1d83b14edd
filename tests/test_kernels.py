"""The LSTM kernels: input layout, one recurrence shared by the cached and
uncached forward passes, and the names the benchmark harness reads."""

import numpy as np
import pytest

from deckmotion import _kernels as K
from deckmotion import lstm
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
    for batch in (4, 1):
        params, x = _random_case(9, batch=batch)
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        y_full, *acts = K.lstm_forward(*args)
        assert np.array_equal(y_full, K.lstm_predict(*args))
        assert len(acts) == 7
        assert all(a.shape == (7, batch, 6) for a in acts)


def test_benchmark_harness_names_exist():
    # perfbench/run.py reads NUMBA_ENABLED for its fingerprint, and
    # perfbench/tracer.py wraps these kernels by identity wherever bound
    assert K.NUMBA_ENABLED is False
    assert lstm.lstm_forward is K.lstm_forward
    assert lstm.lstm_backward is K.lstm_backward
    assert lstm.lstm_predict is K.lstm_predict
