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
    every buffer the helpers use: each worker's scratch, the fused gate
    weights and the (B, H) result. A helper thread that allocates grows a
    malloc arena of its own: with each helper allocating its own scratch,
    the pipeline-sea5 benchmark's peak RSS was 64.4 MB, against 61.2 MB.
  - Each helper runs in a copy of the caller's contextvars context,
    because that is where np.errstate lives: a thread started without it
    reports the overflow that saturated gates legitimately raise.
  - An exception in a helper is re-raised by the caller once every thread
    has been joined.
A batch of at most PREDICT_ROWS windows (training, single-window
forecasts) starts no thread.

Array conventions shared by all kernels (everything float64):
  x      (L, B, D)     time-major window batch
  wx     (4H, D)       stacked input weights, gate blocks ordered i, f, g, o
  wh     (4H, H)       stacked recurrent weights, same order
  b      (4H,)         stacked gate biases
  w_out  (K, H)        linear output head
  b_out  (K,)
  acts   (L, 7, B, H)  lstm_forward's activation cache: acts[t] holds the
                       slots i, f, o, g, c, tanh(c), h of step t
Gate math per step, with z = x_t wx^T + h wh^T + b in model order:
i = sigmoid, f = sigmoid, g = tanh (cell candidate), o = sigmoid, where
sigmoid(z) = 1 / (1 + exp(-z)); c' = f*c + i*g; h' = o*tanh(c').

The recurrence computes this through fused gate weights, built once per
call by _gate_weights: the gate blocks reordered i, f, o, g, and the rows
of the three sigmoid gates negated. The GEMMs then yield -z for i, f and o
directly, so one exp, one add and one divide over a (3, B, H) view give
all three sigmoids, and a step makes 13 numpy calls. The values are
bit-identical to the model-order expressions: IEEE negation is exact, and
every rounding is sign-symmetric, so each product, sum and bias add of -z
is the negation of that of z, and exp sees the bits of -z that the
expression computes. A slot-major cache keeps one step's i, f and o in
one contiguous block, the output of that fused sigmoid. Model files and
lstm_backward's gradients keep the model order.
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


def _gate_weights(wx, wh, b):
    """The fused gate weights _recur takes: (wx^T, wh^T, b), with the gate
    blocks ordered i, f, o, g and the rows of i, f and o negated (see the
    module docstring). Built with slices and np.negative: at H=64 that
    takes 23 us, against 64 us by fancy indexing, and a B=1 forecast of
    under 1 ms notices the difference.
    """
    H = wh.shape[1]
    fused = []
    for w in (wx, wh, b):
        v = np.empty_like(w)
        np.negative(w[: 2 * H], v[: 2 * H])
        np.negative(w[3 * H :], v[2 * H : 3 * H])
        v[3 * H :] = w[2 * H : 3 * H]
        fused.append(v)
    return fused[0].T, fused[1].T, fused[2]


def _recur(wxt, wht, b, x, acts, z):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    wxt, wht and b are _gate_weights' output. acts is an (S, 7, B, H) array:
    step t writes i, f, o, g, c, tanh(c) and h into acts[t % S], so S = L
    keeps every step for lstm_backward and S = 1 keeps only the latest. The
    zero state is written into the slot step L - 1 fills, which with S = 1
    is the one every step overwrites in place. z is (2, B, 4H) scratch for
    the gate pre-activations. A step allocates nothing, and evaluates the
    gate math of the module docstring in the order written there, up to the
    exact negations of the fused weights, so the result is bit-identical to
    the expressions written out. Outputs are passed positionally, which
    costs less than out= in the many tiny calls of a B=1 forecast.
    """
    B, H = acts.shape[2:]
    zx, zh = z
    # -z of the sigmoid gates as (3, B, H), matching a slot's i, f, o
    zs = zx[:, : 3 * H].reshape(B, 3, H).swapaxes(0, 1)
    zg = zx[:, 3 * H :]
    slots = [(slot[:3], *slot) for slot in acts]
    c, h = acts[-1, 4], acts[-1, 6]
    c[...] = 0.0
    h[...] = 0.0
    for t in range(x.shape[0]):
        ifo, i, f, o, g, c_t, tc, h_t = slots[t % len(slots)]
        np.dot(x[t], wxt, zx)
        np.dot(h, wht, zh)
        zx += zh
        zx += b
        np.exp(zs, ifo)
        ifo += 1.0
        np.divide(1.0, ifo, ifo)
        np.tanh(zg, g)
        np.multiply(f, c, c_t)
        np.multiply(i, g, tc)
        c_t += tc
        np.tanh(c_t, tc)
        np.multiply(o, tc, h_t)
        c, h = c_t, h_t
    return h


def _scratch(rows, H, steps=1):
    """The acts and z buffers _recur needs for a block of at most rows windows."""
    return np.empty((steps, 7, rows, H)), np.empty((2, rows, 4 * H))


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass over a window batch, keeping per-step activations.

    Returns (y, acts): the (B, K) head output and the (L, 7, B, H) cache
    whose acts[t] holds i, f, o, g, c, tanh(c) and h of step t, which
    lstm_backward takes.
    """
    L, B, _ = x.shape
    acts, z = _scratch(B, wh.shape[1], L)
    h = _recur(*_gate_weights(wx, wh, b), x, acts, z)
    return np.dot(h, w_out.T) + b_out, acts


def lstm_backward(wx, wh, w_out, x, acts, dy):
    """Backpropagation through time for one batch.

    acts is the (L, 7, B, H) activation cache lstm_forward returned, and dy
    is d(loss)/d(head output), shape (B, K). Returns stacked gradients
    (d_wx, d_wh, d_b, d_wout, d_bout) matching the parameter layout, whose
    gate blocks are in model order i, f, g, o.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    c, h = acts[:, 4], acts[:, 6]
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * H)
    d_wout = np.dot(dy.T, h[L - 1])
    d_bout = dy.sum(axis=0)
    dh = np.dot(dy, w_out)
    dc = np.zeros((B, H))
    dz = np.empty((B, 4 * H))
    for t in range(L - 1, -1, -1):
        i, f, o, g, _, tct, _ = acts[t]
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
    weights = _gate_weights(wx, wh, b)
    scratch = [_scratch(-(-B // n), H) for _ in range(workers)]

    def run(w):
        acts, z = scratch[w]
        for k in range(w, n, workers):
            lo, hi = bounds[k], bounds[k + 1]
            h[lo:hi] = _recur(*weights, x[:, lo:hi], acts[:, :, : hi - lo], z[:, : hi - lo])

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
