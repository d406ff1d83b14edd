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
    weights with their bias block, which the workers only read, and the
    (B, H) result. A helper thread that allocates grows a malloc arena of
    its own: with each helper allocating its own scratch, the pipeline-sea5
    benchmark's peak RSS was 64.4 MB, against 61.2 MB.
  - Each helper runs in a copy of the caller's contextvars context,
    because that is where np.errstate lives: a thread started without it
    reports the overflow that saturated gates legitimately raise.
  - An exception in a helper is re-raised by the caller once every thread
    has been joined.
A batch of at most PREDICT_ROWS windows (training, single-window
forecasts) is one block: lstm_predict runs _recur and the head on it
directly, with no CPU count, thread list or separate result array, which
saves about 35 us of a B=1 call.

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
directly, so one exp, one add and one reciprocal over a (3, B, H) view
give all three sigmoids. The values are bit-identical to the model-order
expressions: IEEE negation is exact, and every rounding is sign-symmetric,
so each product, sum and bias add of -z is the negation of that of z, and
exp sees the bits of -z that the expression computes. np.reciprocal(v) is
1 / v correctly rounded, as np.divide(1.0, v) is, so the two give the same
bits. A slot-major cache keeps one step's i, f and o in one contiguous
block, the output of that fused sigmoid. Model files and lstm_backward's
gradients keep the model order.

Two parts of z do not wait on the recurrence, and _recur takes them out
of the step:
  - The input projection x_t wx^T. One np.matmul over a stretch of n
    steps writes the projections of all n into a (n, rows, 4H) buffer,
    where n = min(L, PREDICT_ROWS // rows), at least 1: 40 steps at B=1, 8
    at B=32, 1 at B=245. So the buffer holds at most the PREDICT_ROWS rows
    of gate pre-activations that a block's L2 budget already allows. Each
    step then adds h wh^T and the bias into its row in place. np.matmul
    over the stretch rounds as np.dot step by step does; one (L*B, D) GEMM
    does not at B=1, and it is slower from B=32 up. At B=1, H=64 the
    stretch takes about 25 us for 40 steps, against 77 us for 40 np.dot
    calls. (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946, hoist the
    input GEMM of an RNN the same way on GPUs.)
  - The bias. _gate_weights repeats it on each row of a (rows, 4H) block,
    so the per-step bias add is between arrays of one shape: 0.8 us at B=1
    and 17 us at B=245, where adding the (4H,) vector by broadcasting takes
    1.6 and 38 us and, at B=245, allocates a 64 KiB iterator buffer.
A step then makes 12 numpy calls.
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


def _gate_weights(wx, wh, b, rows):
    """The fused gate weights _recur takes: (wx^T, wh^T, brows), with the gate
    blocks ordered i, f, o, g and the rows of i, f and o negated (see the
    module docstring), and the fused bias repeated on each of `rows` rows, so
    that a step adds it as an array of its own shape. Built with slices and
    np.negative: at H=64 that takes 23 us, against 64 us by fancy indexing,
    and a B=1 forecast of under 1 ms notices the difference.
    """
    H = wh.shape[1]
    wxf, whf, brows = np.empty_like(wx), np.empty_like(wh), np.empty((rows, 4 * H))
    for w, v in ((wx, wxf), (wh, whf), (b[:, None], brows.T)):
        np.negative(w[: 2 * H], v[: 2 * H])
        np.negative(w[3 * H :], v[2 * H : 3 * H])
        v[3 * H :] = w[2 * H : 3 * H]
    return wxf.T, whf.T, brows


def _recur(wxt, wht, brows, x, acts, proj, zh):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    wxt, wht and brows are _gate_weights' output, brows cut to the block's
    B rows; acts, proj and zh are _scratch's buffers, cut likewise. acts is
    an (S, 7, B, H) array: step t writes i, f, o, g, c, tanh(c) and h into
    acts[t % S], so S = L keeps every step for lstm_backward and S = 1
    keeps only the latest. The zero state is written into the slot step L - 1
    fills, which with S = 1 is the one every step overwrites in place. proj
    is (n, B, 4H): one GEMM writes the input projections of the next n steps
    into it, and each of those steps adds its recurrent product zh (B, 4H)
    and the bias in place. A step allocates nothing, and evaluates the gate
    math of the module docstring in the order written there, up to the exact
    negations of the fused weights, so the result is bit-identical to the
    expressions written out. Outputs are passed positionally, which costs
    less than out= in the many tiny calls of a B=1 forecast.
    """
    B, H = acts.shape[2:]
    L, n = x.shape[0], proj.shape[0]
    # per projection row: -z of the sigmoid gates as (3, B, H), matching a
    # slot's i, f, o, and z of the cell candidate
    zsv = proj[:, :, : 3 * H].reshape(n, B, 3, H).swapaxes(1, 2)
    zgv = proj[:, :, 3 * H :]
    slots = [(slot[:3], *slot) for slot in acts]
    c, h = acts[-1, 4], acts[-1, 6]
    c[...] = 0.0
    h[...] = 0.0
    for s in range(0, L, n):
        m = min(n, L - s)
        np.matmul(x[s : s + m], wxt, proj[:m])
        # a row's views are made as its step comes, so that the memory a
        # call takes does not grow with n
        for t, zx, zs, zg in zip(range(s, s + m), proj, zsv, zgv):
            ifo, i, f, o, g, c_t, tc, h_t = slots[t % len(slots)]
            np.dot(h, wht, zh)
            zx += zh
            zx += brows
            np.exp(zs, ifo)
            ifo += 1.0
            np.reciprocal(ifo, ifo)
            np.tanh(zg, g)
            np.multiply(f, c, c_t)
            np.multiply(i, g, tc)
            c_t += tc
            np.tanh(c_t, tc)
            np.multiply(o, tc, h_t)
            c, h = c_t, h_t
    return h


def _scratch(rows, H, L, steps=1):
    """The (acts, proj, zh) buffers _recur needs for blocks of at most rows
    windows over L steps; acts keeps `steps` steps. proj holds a stretch of
    n = min(L, PREDICT_ROWS // rows) steps, at least one (an empty batch
    included), so that it is no larger than the gate array of a
    PREDICT_ROWS-row block."""
    n = max(1, min(L, PREDICT_ROWS // max(rows, 1)))
    return np.empty((steps, 7, rows, H)), np.empty((n, rows, 4 * H)), np.empty((rows, 4 * H))


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass over a window batch, keeping per-step activations.

    Returns (y, acts): the (B, K) head output and the (L, 7, B, H) cache
    whose acts[t] holds i, f, o, g, c, tanh(c) and h of step t, which
    lstm_backward takes.
    """
    L, B, _ = x.shape
    acts, proj, zh = _scratch(B, wh.shape[1], L, L)
    h = _recur(*_gate_weights(wx, wh, b, B), x, acts, proj, zh)
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

    A batch of at most PREDICT_ROWS windows runs as one block in the calling
    thread. A wider one runs in ceil(B / PREDICT_ROWS) balanced blocks spread
    over the process's CPUs (see the module docstring), and the head runs
    once on their joined last hidden states. The output is bit-identical to
    the unblocked pass that lstm_forward makes.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    if B <= PREDICT_ROWS:
        h = _recur(*_gate_weights(wx, wh, b, B), x, *_scratch(B, H, L))
        return np.dot(h, w_out.T) + b_out
    n = -(-B // PREDICT_ROWS)
    rows = -(-B // n)
    workers = min(n, _cpu_count())
    bounds = [B * k // n for k in range(n + 1)]
    # allocated here, not in the helpers, which would each grow a malloc
    # arena of their own (see the module docstring)
    h = np.empty((B, H))
    wxt, wht, brows = _gate_weights(wx, wh, b, rows)
    scratch = [_scratch(rows, H, L) for _ in range(workers)]

    def run(w):
        acts, proj, zh = scratch[w]
        for k in range(w, n, workers):
            lo, hi = bounds[k], bounds[k + 1]
            m = hi - lo
            h[lo:hi] = _recur(wxt, wht, brows[:m], x[:, lo:hi], acts[:, :, :m], proj[:, :m], zh[:m])

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
