"""LSTM compute kernels in numpy: one recurrence, its BPTT, and the head.

The step loop is written once, in _recur. lstm_forward runs it with an
activation cache for lstm_backward; lstm_predict runs it without one, so
forecasting wide batches allocates no per-step history.

lstm_predict also splits a batch wider than PREDICT_ROWS windows into
ceil(B / PREDICT_ROWS) blocks of near-equal size and runs _recur on each.
At H=64 a 256-row block's (rows, 4H) gate array is 512 KiB, so each step's
working set stays in a core's L2 cache, where the whole B=1960 array
(4 MB) does not. The rows of a batch are independent, so blocking cannot
change the result, provided every block is wide: on OpenBLAS a GEMM of
1 to 4 rows rounds differently from the same rows inside a wide GEMM. A
balanced split keeps every block above PREDICT_ROWS / 2 rows once
B > PREDICT_ROWS; a fixed stride would leave a thin trailing block.

Array conventions shared by all kernels (everything float64):
  x      (L, B, D)  time-major window batch
  wx     (4H, D)    stacked input weights, gate blocks ordered i, f, g, o
  wh     (4H, H)    stacked recurrent weights, same order
  b      (4H,)      stacked gate biases
  w_out  (K, H)     linear output head
  b_out  (K,)
Gate math per step: i = sigmoid, f = sigmoid, g = tanh (cell candidate),
o = sigmoid; c' = f*c + i*g; h' = o*tanh(c').
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; the benchmark's environment fingerprint
# (perfbench/run.py) still reads this flag.
NUMBA_ENABLED = False

# Widest batch block lstm_predict runs through the recurrence at once.
PREDICT_ROWS = 256


def _recur(wx, wh, b, x, acts=None):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    When acts is given, it is a (7, L, B, H) array, and step t stores
    i, f, g, o, c, tanh(c) and h into acts[:, t].
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(L):
        z = np.dot(x[t], wx.T) + np.dot(h, wh.T) + b
        i = 1.0 / (1.0 + np.exp(-z[:, :H]))
        f = 1.0 / (1.0 + np.exp(-z[:, H : 2 * H]))
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = 1.0 / (1.0 + np.exp(-z[:, 3 * H :]))
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        if acts is not None:
            acts[:, t] = i, f, g, o, c, tc, h
    return h


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass over a window batch, keeping per-step activations.

    Returns (y, gi, gf, gg, go, c, tc, h): y is the (B, K) head output;
    the activation stacks are (L, B, H) and feed lstm_backward.
    """
    acts = np.empty((7, *x.shape[:2], wh.shape[1]))
    h = _recur(wx, wh, b, x, acts)
    return (np.dot(h, w_out.T) + b_out, *acts)


def lstm_backward(wx, wh, w_out, x, gi, gf, gg, go, c, tc, h, dy):
    """Backpropagation through time for one batch.

    dy is d(loss)/d(head output), shape (B, K). Returns stacked gradients
    (d_wx, d_wh, d_b, d_wout, d_bout) matching the parameter layout.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * H)
    d_wout = np.dot(dy.T, h[L - 1])
    d_bout = dy.sum(axis=0)
    dh = np.dot(dy, w_out)
    dc = np.zeros((B, H))
    dz = np.empty((B, 4 * H))
    for t in range(L - 1, -1, -1):
        i = gi[t]
        f = gf[t]
        g = gg[t]
        o = go[t]
        tct = tc[t]
        do = dh * tct
        dc = dc + dh * o * (1.0 - tct * tct)
        di = dc * g
        dg = dc * i
        if t > 0:
            df = dc * c[t - 1]
        else:
            df = dc * 0.0  # initial cell state is zero
        dz[:, :H] = di * i * (1.0 - i)
        dz[:, H : 2 * H] = df * f * (1.0 - f)
        dz[:, 2 * H : 3 * H] = dg * (1.0 - g * g)
        dz[:, 3 * H :] = do * o * (1.0 - o)
        d_wx += np.dot(dz.T, x[t])
        if t > 0:
            d_wh += np.dot(dz.T, h[t - 1])
        d_b += dz.sum(axis=0)
        dh = np.dot(dz, wh)
        dc = dc * f
    return d_wx, d_wh, d_b, d_wout, d_bout


def lstm_predict(wx, wh, b, w_out, b_out, x):
    """Forward pass without activation caching; returns the (B, K) output.

    A batch of B > PREDICT_ROWS windows runs in ceil(B / PREDICT_ROWS)
    balanced blocks (see the module docstring); the head runs once on
    their joined last hidden states. The output is bit-identical to the
    unblocked pass that lstm_forward makes.
    """
    B = x.shape[1]
    n = -(-B // PREDICT_ROWS)
    if n <= 1:
        h = _recur(wx, wh, b, x)
    else:
        h = np.concatenate(
            [_recur(wx, wh, b, x[:, B * k // n : B * (k + 1) // n]) for k in range(n)]
        )
    return np.dot(h, w_out.T) + b_out


def as_time_major(windows: np.ndarray) -> np.ndarray:
    """(B, L, D) window batch -> contiguous (L, B, D) kernel input."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected a (B, L, D) batch, got shape {windows.shape}")
    return np.ascontiguousarray(windows.transpose(1, 0, 2))
