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

The blocks run on every CPU the process may use: the calling thread takes
blocks 0, W, 2W, ... and W - 1 helper threads the rest, where W is the
CPU count capped at the block count. numpy releases the interpreter lock
inside each GEMM and ufunc, so the threads overlap. Three rules keep this
exact and lean:
  - _recur allocates nothing per step, and the calling thread allocates
    every buffer the helpers write: each worker's scratch and the (B, H)
    result. A helper thread that allocates grows a malloc arena of its
    own: with each helper allocating its own scratch, the pipeline-sea5
    benchmark's peak RSS was 64.4 MB, against 61.2 MB.
  - Each helper runs in a copy of the caller's contextvars context,
    because that is where np.errstate lives: a thread started without it
    reports the overflow that saturated gates legitimately raise.
  - An exception in a helper is re-raised by the caller once every thread
    has been joined.
A batch of at most PREDICT_ROWS windows (training, single-window
forecasts) starts no thread.

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

import contextvars
import os
import threading

import numpy as np

# There is no compiled path; the benchmark's environment fingerprint
# (perfbench/run.py) still reads this flag.
NUMBA_ENABLED = False

# Widest batch block lstm_predict runs through the recurrence at once.
PREDICT_ROWS = 256


def _sigmoid(z, out):
    """out = 1 / (1 + exp(-z)), in the order of that expression, in place."""
    np.negative(z, out)
    np.exp(out, out)
    out += 1.0
    np.divide(1.0, out, out)


def _recur(wx, wh, b, x, acts, z):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    acts is a (7, S, B, H) array: step t writes i, f, g, o, c, tanh(c) and
    h into acts[:, t % S], so S = L keeps every step for lstm_backward and
    S = 1 keeps only the latest. The zero state is written into the slot
    step L - 1 fills, which with S = 1 is the one every step overwrites in
    place. z is (2, B, 4H) scratch for the gate pre-activations. A step
    allocates nothing, and evaluates the same operations in the same order
    as the gate math in the module docstring, so the result is bit-identical
    to the expressions written out. Outputs are passed positionally, which
    costs less than out= in the many tiny calls of a B=1 forecast.
    """
    H = wh.shape[1]
    wxt, wht = wx.T, wh.T
    zx, zh = z
    slots = [tuple(slot) for slot in acts.swapaxes(0, 1)]
    c, h = slots[-1][4], slots[-1][6]
    c[...] = 0.0
    h[...] = 0.0
    for t in range(x.shape[0]):
        i, f, g, o, c_t, tc, h_t = slots[t % len(slots)]
        np.dot(x[t], wxt, zx)
        np.dot(h, wht, zh)
        zx += zh
        zx += b
        _sigmoid(zx[:, :H], i)
        _sigmoid(zx[:, H : 2 * H], f)
        np.tanh(zx[:, 2 * H : 3 * H], g)
        _sigmoid(zx[:, 3 * H :], o)
        np.multiply(f, c, c_t)
        np.multiply(i, g, tc)
        c_t += tc
        np.tanh(c_t, tc)
        np.multiply(o, tc, h_t)
        c, h = c_t, h_t
    return h


def _scratch(rows, H, steps=1):
    """The acts and z buffers _recur needs for a block of at most rows windows."""
    return np.empty((7, steps, rows, H)), np.empty((2, rows, 4 * H))


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass over a window batch, keeping per-step activations.

    Returns (y, acts): the (B, K) head output and the (7, L, B, H) stack of
    i, f, g, o, c, tanh(c) and h at every step, which lstm_backward takes.
    """
    L, B, _ = x.shape
    acts, z = _scratch(B, wh.shape[1], L)
    h = _recur(wx, wh, b, x, acts, z)
    return np.dot(h, w_out.T) + b_out, acts


def lstm_backward(wx, wh, w_out, x, acts, dy):
    """Backpropagation through time for one batch.

    acts is the (7, L, B, H) activation stack lstm_forward returned, and dy
    is d(loss)/d(head output), shape (B, K). Returns stacked gradients
    (d_wx, d_wh, d_b, d_wout, d_bout) matching the parameter layout.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    c, h = acts[4], acts[6]
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * H)
    d_wout = np.dot(dy.T, h[L - 1])
    d_bout = dy.sum(axis=0)
    dh = np.dot(dy, w_out)
    dc = np.zeros((B, H))
    dz = np.empty((B, 4 * H))
    for t in range(L - 1, -1, -1):
        i, f, g, o, _, tct, _ = acts[:, t]
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


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lstm_predict(wx, wh, b, w_out, b_out, x):
    """Forward pass without activation caching; returns the (B, K) output.

    The batch runs in ceil(B / PREDICT_ROWS) balanced blocks, at least one,
    spread over the process's CPUs (see the module docstring); the head runs
    once on their joined last hidden states. The output is bit-identical to
    the unblocked pass that lstm_forward makes.
    """
    B = x.shape[1]
    H = wh.shape[1]
    n = max(1, -(-B // PREDICT_ROWS))
    workers = min(n, _cpu_count())
    bounds = [B * k // n for k in range(n + 1)]
    # allocated here, not in the helpers, which would each grow a malloc
    # arena of their own (see the module docstring)
    h = np.empty((B, H))
    scratch = [_scratch(-(-B // n), H) for _ in range(workers)]

    def run(w):
        acts, z = scratch[w]
        for k in range(w, n, workers):
            lo, hi = bounds[k], bounds[k + 1]
            h[lo:hi] = _recur(wx, wh, b, x[:, lo:hi], acts[:, :, : hi - lo], z[:, : hi - lo])

    errors = []

    def helper(w):
        try:
            run(w)
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    # each helper runs in a copy of the caller's context, which carries
    # numpy's errstate
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(helper, w))
        for w in range(1, workers)
    ]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return np.dot(h, w_out.T) + b_out


def as_time_major(windows: np.ndarray) -> np.ndarray:
    """(B, L, D) window batch -> contiguous (L, B, D) kernel input."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"expected a (B, L, D) batch, got shape {windows.shape}")
    return np.ascontiguousarray(windows.transpose(1, 0, 2))
