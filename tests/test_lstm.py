"""Network forward/backward contracts: initialization, cell equations,
window predictions, and exact BPTT gradients."""

import math

import numpy as np
import pytest

from deckmotion import lstm as L
from oracles import LstmState, cell_forward, forward_window, zero_state


def scalar_cell_oracle(params, x, h_prev, c_prev):
    """Independent scalar-loop LSTM step, no vectorized shortcuts."""
    H = params.hidden_dim
    # the stacked rows hold the gates in the order i, f, g, o
    w, u, b = (
        [arr[k * H : (k + 1) * H] for k in range(4)] for arr in (params.wx, params.wh, params.b)
    )
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))

    def gate(w, u, b, fn):
        out = []
        for r in range(H):
            acc = b[r]
            for j in range(len(x)):
                acc += w[r][j] * x[j]
            for j in range(H):
                acc += u[r][j] * h_prev[j]
            out.append(fn(acc))
        return out

    i = gate(w[0], u[0], b[0], sig)
    f = gate(w[1], u[1], b[1], sig)
    g = gate(w[2], u[2], b[2], math.tanh)
    o = gate(w[3], u[3], b[3], sig)
    c = [f[r] * c_prev[r] + i[r] * g[r] for r in range(H)]
    h = [o[r] * math.tanh(c[r]) for r in range(H)]
    return np.array(h), np.array(c)


def zero_params(hidden=4, b_out=(0.0, 0.0, 0.0)):
    H = hidden
    return L.LstmParams(
        wx=np.zeros((4 * H, 3)),
        wh=np.zeros((4 * H, H)),
        b=np.zeros(4 * H),
        w_out=np.zeros((3, H)),
        b_out=np.array(b_out, dtype=float),
    )


def test_init_deterministic():
    cfg = L.LstmConfig(hidden_dim=8)
    a = L.init_params(cfg, 123)
    b = L.init_params(cfg, 123)
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_init_forget_bias_ones():
    H = 8
    p = L.init_params(L.LstmConfig(hidden_dim=H), 0)
    assert np.all(p.b[H : 2 * H] == 1.0)  # the forget gate's rows
    for bias in (p.b[:H], p.b[2 * H :], p.b_out):
        assert np.all(bias == 0.0)


def test_init_weight_bound():
    p = L.init_params(L.LstmConfig(hidden_dim=64), 5)
    for name in ("wx", "wh", "w_out"):
        assert np.max(np.abs(getattr(p, name))) < 1.0 / 8.0


def test_config_validation():
    with pytest.raises(ValueError):
        L.LstmConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        L.LstmConfig(hidden_dim=4, lookback=0)


def test_params_validation():
    with pytest.raises(ValueError):
        L.LstmParams(
            wx=np.zeros((16, 3)),
            wh=np.zeros((16, 4)),
            b=np.zeros(16),
            w_out=np.zeros((3, 5)),  # head width disagrees with hidden_dim
            b_out=np.zeros(3),
        )
    with pytest.raises(ValueError, match="inconsistent gate-stack shapes"):
        L.LstmParams(
            wx=np.zeros((16, 3)),
            wh=np.zeros((20, 5)),  # hidden 5 under gate stacks sized for hidden 4
            b=np.zeros(16),
            w_out=np.zeros((3, 5)),
            b_out=np.zeros(3),
        )
    with pytest.raises(ValueError, match="inconsistent gate-stack shapes"):
        L.LstmParams(np.zeros((4, 3)), np.zeros(4), np.zeros(4), np.zeros((3, 1)), np.zeros(3))  # 1-D wh
    bad = np.zeros((16, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        L.LstmParams(
            wx=bad, wh=np.zeros((16, 4)), b=np.zeros(16), w_out=np.zeros((3, 4)), b_out=np.zeros(3)
        )


def test_cell_forward_zero_params():
    p = zero_params()
    state = cell_forward(p, np.array([1.0, -2.0, 3.0]), zero_state(4))
    assert np.all(state.h == 0.0)
    assert np.all(state.c == 0.0)


def test_cell_forward_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for seed in range(5):
        p = L.init_params(L.LstmConfig(hidden_dim=5), seed)
        x = rng.normal(size=3)
        h0 = rng.normal(size=5) * 0.5
        c0 = rng.normal(size=5)
        state = cell_forward(p, x, LstmState(h=h0.copy(), c=c0.copy()))
        h_ref, c_ref = scalar_cell_oracle(p, x, h0, c0)
        assert np.max(np.abs(state.h - h_ref)) < 1e-12
        assert np.max(np.abs(state.c - c_ref)) < 1e-12


def test_hidden_activation_bound():
    rng = np.random.default_rng(8)
    p = L.init_params(L.LstmConfig(hidden_dim=6), 1)
    # scale weights up to push the gates toward saturation
    p.wx *= 50.0
    p.wh *= 50.0
    state = zero_state(6)
    for _ in range(100):
        state = cell_forward(p, rng.normal(size=3) * 100.0, state)
        assert np.all(np.abs(state.h) < 1.0)
        assert np.all(np.isfinite(state.c))


def test_forward_window_zero_params_returns_head_bias():
    p = zero_params(b_out=(0.5, -1.5, 2.5))
    window = np.random.default_rng(0).normal(size=(40, 3))
    assert np.array_equal(forward_window(p, window), [0.5, -1.5, 2.5])


def test_forward_window_pure():
    p = L.init_params(L.LstmConfig(hidden_dim=7), 2)
    window = np.random.default_rng(1).normal(size=(10, 3))
    first = forward_window(p, window)
    for _ in range(3):
        assert np.array_equal(forward_window(p, window), first)


def test_forward_window_matches_cell_transcript():
    p = L.init_params(L.LstmConfig(hidden_dim=6), 4)
    window = np.random.default_rng(2).normal(size=(12, 3))
    state = zero_state(6)
    for row in window:
        state = cell_forward(p, row, state)
    expected = p.w_out @ state.h + p.b_out
    assert np.max(np.abs(forward_window(p, window) - expected)) < 1e-12


def test_forward_window_rejects_bad_shape():
    p = L.init_params(L.LstmConfig(hidden_dim=4), 0)
    with pytest.raises(ValueError):
        forward_window(p, np.zeros((10, 2)))
    with pytest.raises(ValueError):
        forward_window(p, np.zeros(10))


def test_predict_windows_matches_single(batch=5):
    p = L.init_params(L.LstmConfig(hidden_dim=6), 9)
    windows = np.random.default_rng(4).normal(size=(batch, 8, 3))
    preds = L.predict_windows(p, windows)
    for k in range(batch):
        assert np.allclose(preds[k], forward_window(p, windows[k]), rtol=0, atol=1e-12)


def test_loss_zero_at_own_predictions():
    p = L.init_params(L.LstmConfig(hidden_dim=5), 6)
    windows = np.random.default_rng(5).normal(size=(4, 6, 3))
    targets = L.predict_windows(p, windows)
    loss, grads = L.loss_and_gradients(p, windows, targets)
    assert loss == 0.0
    for g in grads:
        assert np.all(g == 0.0)


def test_loss_rejects_empty_or_mismatched_batch():
    p = L.init_params(L.LstmConfig(hidden_dim=4), 0)
    with pytest.raises(ValueError):
        L.loss_and_gradients(p, np.zeros((0, 5, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        L.loss_and_gradients(p, np.zeros((2, 5, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="channels"):
        L.loss_and_gradients(p, np.zeros((2, 5, 2)), np.zeros((2, 3)))


def test_duplicated_batch_has_same_loss_and_gradients():
    p = L.init_params(L.LstmConfig(hidden_dim=5), 7)
    rng = np.random.default_rng(6)
    windows = rng.normal(size=(3, 6, 3))
    targets = rng.normal(size=(3, 3))
    loss1, g1 = L.loss_and_gradients(p, windows, targets)
    loss2, g2 = L.loss_and_gradients(
        p, np.concatenate([windows, windows]), np.concatenate([targets, targets])
    )
    assert np.isclose(loss1, loss2, rtol=0, atol=1e-15)
    for a, b in zip(g1, g2):
        assert np.allclose(a, b, rtol=0, atol=1e-14)


def gradient_check(params, windows, targets, step=1e-5, floor=1e-8):
    """Central finite differences over every parameter entry."""
    _, grads = L.loss_and_gradients(params, windows, targets)
    worst = 0.0
    for arr, garr in zip(params.arrays(), grads):
        flat = arr.ravel()
        gflat = np.asarray(garr).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = L.loss_and_gradients(params, windows, targets)
            flat[i] = orig - step
            dn, _ = L.loss_and_gradients(params, windows, targets)
            flat[i] = orig
            fd = (up - dn) / (2.0 * step)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), floor)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    p = L.init_params(L.LstmConfig(hidden_dim=4, lookback=5), 11)
    windows = rng.normal(size=(1, 5, 3))
    targets = rng.normal(size=(1, 3))
    assert gradient_check(p, windows, targets) < 1e-5


def test_gradients_match_finite_differences_batched():
    rng = np.random.default_rng(12)
    p = L.init_params(L.LstmConfig(hidden_dim=3, lookback=4), 13)
    windows = rng.normal(size=(3, 4, 3))
    targets = rng.normal(size=(3, 3))
    assert gradient_check(p, windows, targets) < 1e-5


def test_output_head_rows_affect_only_their_channel():
    p = L.init_params(L.LstmConfig(hidden_dim=6), 14)
    window = np.random.default_rng(7).normal(size=(9, 3))
    base = forward_window(p, window)
    p2 = p.copy()
    p2.w_out[1] += 0.37
    bumped = forward_window(p2, window)
    assert bumped[0] == base[0]
    assert bumped[2] == base[2]
    assert bumped[1] != base[1]
