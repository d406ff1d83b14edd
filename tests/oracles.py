"""Brute-force reference implementations shared by the unit and acceptance
tests. These deliberately use plain python loops or single-vector steps,
independent of the batched library code they check."""

import math
from dataclasses import dataclass

import numpy as np

from deckmotion import lstm
from deckmotion import restperiod as rp
from deckmotion import seriesdata as sd
from deckmotion import wavegen as wg


def evaluate_model(model, t):
    """All three channels at time t (seconds), one scalar sine at a time: the
    oracle for wavegen.evaluate_model_array."""
    return tuple(
        sum(c.amplitude * math.sin(c.omega * t + c.phase) for c in model.channel(name))
        for name in wg.CHANNELS
    )


def scan_oracle(samples, dt, criteria, t0=0.0, index_offset=0):
    """Naive per-sample scan: calm flags, then maximal runs, then the
    min_duration filter."""
    n = len(samples)
    heave = [float(s[0]) for s in samples]
    calm = []
    for k in range(n):
        ok = abs(samples[k][1]) <= criteria.pitch_max and abs(samples[k][2]) <= criteria.roll_max
        if ok and criteria.heave_rate_max is not None:
            if n == 1:
                rate = 0.0
            elif k == 0:
                rate = (heave[1] - heave[0]) / dt
            elif k == n - 1:
                rate = (heave[n - 1] - heave[n - 2]) / dt
            else:
                rate = (heave[k + 1] - heave[k - 1]) / (2.0 * dt)
            ok = abs(rate) <= criteria.heave_rate_max
        calm.append(ok)
    runs = []
    k = 0
    while k < n:
        if calm[k]:
            start = k
            while k + 1 < n and calm[k + 1]:
                k += 1
            duration = float((k - start) * dt)
            if duration >= criteria.min_duration:
                si, ei = start + index_offset, k + index_offset
                runs.append(
                    rp.RestInterval(
                        start_index=si,
                        end_index=ei,
                        start_t=t0 + si * dt,
                        end_t=t0 + ei * dt,
                        duration=duration,
                    )
                )
        k += 1
    return runs


def random_series(rng, max_len=200):
    n = int(rng.integers(1, max_len + 1))
    samples = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, 3))
    return sd.MotionSeries(dt=float(rng.uniform(0.05, 0.5)), samples=samples)


def random_criteria(rng):
    return rp.RestCriteria(
        pitch_max=float(rng.uniform(0.1, 2.0)),
        roll_max=float(rng.uniform(0.1, 2.0)),
        heave_rate_max=float(rng.uniform(0.5, 10.0)) if rng.uniform() < 0.5 else None,
        min_duration=float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else 0.0,
    )


@dataclass
class LstmState:
    """Hidden activation h and cell state c after a step."""

    h: np.ndarray
    c: np.ndarray


def zero_state(hidden_dim):
    return LstmState(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp overflow saturates cleanly to 0
        return 1.0 / (1.0 + np.exp(-z))


def cell_forward(params, x, state):
    """One LSTM step on a single input vector, the per-step oracle for the
    batched kernels."""
    x = np.asarray(x, dtype=np.float64)
    H = params.hidden_dim
    z = params.wx @ x + params.wh @ state.h + params.b
    i = _sigmoid(z[:H])
    f = _sigmoid(z[H : 2 * H])
    g = np.tanh(z[2 * H : 3 * H])
    o = _sigmoid(z[3 * H :])
    c = f * state.c + i * g
    return LstmState(h=o * np.tanh(c), c=c)


def forward_window(params, window):
    """Predict one (lookback, 3) window, run from a zero state; returns the
    joint (3,) prediction. A helper for the window tests, not an oracle: it
    is lstm.predict_windows on a batch of one."""
    return lstm.predict_windows(params, np.asarray(window)[None])[0]


def recurrence_oracle(wx, wh, b, w_out, b_out, x):
    """The batched recurrence written out in model order, every step kept:
    the bit-level oracle for _kernels.lstm_forward.

    x is (L, B, D). Returns (y, h, stacks): the (B, K) head output, the last
    (B, H) hidden state, and a dict of (L, B, H) arrays named i, f, g, o, c,
    tanh_c and h. Each GEMM, add and ufunc is the one the gate math in the
    _kernels module docstring names, in the same order.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    names = ("i", "f", "g", "o", "c", "tanh_c", "h")
    stacks = {name: np.empty((L, B, H)) for name in names}
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(L):
        z = np.dot(x[t], wx.T) + np.dot(h, wh.T) + b
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        for name, value in zip(names, (i, f, g, o, c, tanh_c, h)):
            stacks[name][t] = value
    return np.dot(h, w_out.T) + b_out, h, stacks


def bptt_oracle(wx, wh, w_out, x, stacks, dy):
    """Backpropagation through time written out in model order over
    recurrence_oracle's stacks: the bit-level oracle for
    _kernels.lstm_backward.

    dy is d(loss)/d(head output), shape (B, K). Returns (d_wx, d_wh, d_b,
    d_wout, d_bout) with gate blocks in model order i, f, g, o. Each product
    is the chain rule of the gate math in the _kernels module docstring,
    grouped left to right as written, and each GEMM and sum over the batch
    is the one that names the gradient it adds to, taken from the last step
    to the first.
    """
    L = x.shape[0]
    i, f, g, o, c, tanh_c, h = (stacks[name] for name in ("i", "f", "g", "o", "c", "tanh_c", "h"))
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(wx.shape[0])
    dh = np.dot(dy, w_out)
    dc = np.zeros_like(dh)
    for t in range(L - 1, -1, -1):
        c_prev = c[t - 1] if t > 0 else np.zeros_like(dc)  # the zero initial state
        dc = dc + dh * o[t] * (1.0 - tanh_c[t] * tanh_c[t])
        dz = np.concatenate(
            [
                dc * g[t] * i[t] * (1.0 - i[t]),
                dc * c_prev * f[t] * (1.0 - f[t]),
                dc * i[t] * (1.0 - g[t] * g[t]),
                dh * tanh_c[t] * o[t] * (1.0 - o[t]),
            ],
            axis=1,
        )
        d_wx += np.dot(dz.T, x[t])
        if t > 0:
            d_wh += np.dot(dz.T, h[t - 1])
        d_b += dz.sum(axis=0)
        dh = np.dot(dz, wh)
        dc = dc * f[t]
    return d_wx, d_wh, d_b, np.dot(dy.T, h[L - 1]), dy.sum(axis=0)
