"""LSTM compute kernels in numpy: one recurrence, its BPTT, and the head.

The step loop is written once, in _recur: lstm_forward runs it with an
activation cache for lstm_backward, lstm_predict without one.

Layouts (everything float64):
  x      (L, B, D)     time-major window batch
  wx     (4H, D)       stacked input weights, gate blocks ordered i, f, g, o
  wh     (4H, H)       stacked recurrent weights, same order
  b      (4H,)         stacked gate biases
  w_out  (K, H)        linear output head, with bias b_out (K,)
  acts   (L, 7, B, H)  lstm_forward's cache: acts[t] holds i, f, o, g,
                       c_{t-1} (zero at t = 0), tanh(c_t) and h_t of step t
Per step, with z = x_t wx^T + h wh^T + b in model order: i, f and o are
sigmoid(z) = 1 / (1 + exp(-z)), g = tanh(z), c' = f*c + i*g, h' = o*tanh(c').
_recur ignores overflow: exp(-z) of a saturated gate is inf by design, and
1 / (1 + inf) is the exact 0.

Every output is bit-identical to these expressions in model order, and
lstm_predict's to the unblocked pass, by four rules:
  - _fused orders the gate blocks i, f, o, g and negates the sigmoid gates'
    rows, so that the GEMMs yield -z and one exp, add and reciprocal give
    all three sigmoids: IEEE negation is exact, every rounding is
    sign-symmetric, and np.reciprocal(v) is 1 / v correctly rounded.
  - One np.matmul projects the inputs of a stretch of steps: it rounds as
    np.dot step by step does, where one (L*B, D) GEMM does not at B=1.
  - The recurrent product runs per gate, as four (rows, H) @ (H, H)
    products over a (4, H, H) stack, only where _per_gate holds: there it
    rounds as the fused (H, 4H) product does, and is faster than the slow
    path OpenBLAS takes for that F-ordered operand. The bounds are
    rows * H * H <= 10^6, OpenBLAS's small-matrix bound; H a multiple of 8
    from 32 to 384; and rows > max(4, 288 // H).
  - Every block of a split batch is wide: on OpenBLAS a GEMM of 1 to 4
    rows rounds differently from the same rows inside a wide GEMM.

A step's pre-activations are gate-major (4, rows, H) on the per-gate path
and row-major (rows, 4H) on the fused one, the same bytes at B=1, and the
bias is repeated to their shape: numpy runs a ufunc over operands of
different layouts or shapes through an iterator buffer that it allocates
per call. The cache is slot-major, so that i, f and o are the one block
the fused sigmoid writes, and c_{t-1} sits after g_t, so that
lstm_backward takes dc * g and dc * c_{t-1} in one multiply.

lstm_predict splits a batch wider than PREDICT_ROWS = 224 windows into
blocks of near-equal size, because at H=64 a 224-row block's gate array
stays in L2 and 224 * 64 * 64 <= 10^6. Their count is ceil(B / 224)
rounded up to a multiple of the worker count W (the CPU count, at most
ceil(B / 224)), so that the workers run equal shares and each block keeps
more than 224 / 4 rows. The calling thread runs blocks 0, W, 2W, ... and
W - 1 helper threads the rest; numpy releases the interpreter lock in
each GEMM and ufunc, so the threads overlap.
  - The caller allocates every buffer the workers use, and _recur
    allocates nothing per step: a thread that allocates grows a malloc
    arena of its own.
  - Helpers run in a copy of the caller's contextvars context, where
    np.errstate lives, so that the caller's settings hold in every block.
  - Each worker records its own failure, and the caller re-raises the
    first once every started helper has joined.
A narrower batch runs as one block in the calling thread, since a B=1
call would pay for threads and a result array it cannot use.

_FUSED keeps the fused weights of a model whose wx, wh and b are all
read-only and own their memory (a.base is None), as a loaded model's are,
since a landing stream forecasts from one model sample after sample. The
entry is keyed on id(wh), with wx and b checked by identity, and stored
with a weakref.finalize on wh that drops it, so no id is reused while kept.
Writable weights, which Adam updates in place, and read-only views of
writable memory are fused on every call. Weights made writable, edited and
made read-only again between two calls would be served stale.

The step loops are lean, because at B=1 the Python-side cost of each numpy
call is a visible share of a step: ufuncs are bound to locals, outputs are
passed positionally (add(zx, zh, zh), not zh += zx), the slot views are made
once per call, and three rules hold that change no bit:
  (a) A constant operand is ONE, a read-only 0-d float64 array, not the
      Python float 1.0, which numpy 2 promotes as a weak scalar on every call.
  (b) Products call np.ndarray.dot, the C routine np.dot reaches only after
      a Python-level array-function dispatcher.
  (c) A step's sum lands in zh, so its sigmoid and tanh views are made once
      per call; zx + zh equals zh + zx, as IEEE addition commutes.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
import weakref

import numpy as np

# There is no compiled path; the benchmark's environment fingerprint
# (perfbench/run.py) still reads this flag.
NUMBA_ENABLED = False

# Widest batch block lstm_predict runs through the recurrence at once.
PREDICT_ROWS = 224

# _fused's weights of read-only models, keyed on id(wh): (wx, b, wxf, whf, bf)
_FUSED = {}

# the step loops' 1.0 (rule (a) in the module docstring)
ONE = np.array(1.0)
ONE.setflags(write=False)


def _per_gate(rows, H):
    """Whether blocks of `rows` rows take the recurrent product per gate, with
    gate-major buffers: the bounds in the module docstring."""
    return H % 8 == 0 and 32 <= H <= 384 and max(4, 288 // H) < rows <= 10**6 // (H * H)


def _aligned(shape):
    """An uninitialised float64 array whose data starts on a 64-byte
    boundary, where np.empty's may not: a B=1 GEMV's speed depends on it."""
    n = math.prod(shape)
    buf = np.empty(n + 7)
    k = -buf.ctypes.data % 64 // 8
    return buf[k : k + n].reshape(shape)


def _fused(wx, wh, b):
    """(wxf, whf, bf): wx, wh and b with the gate blocks ordered i, f, o, g
    and those of i, f and o negated, whf 64-byte aligned; memoised in _FUSED."""
    frozen = not (wx.flags.writeable or wh.flags.writeable or b.flags.writeable)
    frozen = frozen and wx.base is None and wh.base is None and b.base is None
    if not frozen:
        # made writable again since its weights were kept
        _FUSED.pop(id(wh), None)
    hit = _FUSED.get(id(wh))
    if hit is not None and hit[0] is wx and hit[1] is b:
        return hit[2:]
    H = wh.shape[1]
    wxf, whf, bf = np.empty_like(wx), _aligned(wh.shape), np.empty_like(b)
    # slices and np.negative, not fancy indexing, which is slower
    for w, v in ((wx, wxf), (wh, whf), (b, bf)):
        np.negative(w[: 2 * H], v[: 2 * H])
        np.negative(w[3 * H :], v[2 * H : 3 * H])
        v[3 * H :] = w[2 * H : 3 * H]
    if frozen and hit is None:
        for v in (wxf, whf, bf):
            v.setflags(write=False)
        _FUSED[id(wh)] = (wx, b, wxf, whf, bf)
        weakref.finalize(wh, _FUSED.pop, id(wh), None).atexit = False
    return wxf, whf, bf


def _gate_weights(wx, wh, b, rows):
    """The (wx^T, wh^T, brows) _recur takes for blocks of `rows` rows: the
    fused (D, 4H) and (H, 4H) views and a (rows, 4H) bias, or, per gate, the
    contiguous (4, D, H) and (4, H, H) gate-block stacks and a (4, rows, H) bias."""
    wxf, whf, bf = _fused(wx, wh, b)
    H = wh.shape[1]
    if not _per_gate(rows, H):
        return wxf.T, whf.T, bf[None] if rows == 1 else np.repeat(bf[None], rows, axis=0)
    # x4[k] and w4[k] are wx^T's and wh^T's gate block k
    x4, w4 = (np.ascontiguousarray(w.reshape(4, H, -1).swapaxes(1, 2)) for w in (wxf, whf))
    return x4, w4, np.repeat(bf.reshape(4, 1, H), rows, axis=1)


@np.errstate(over="ignore")
def _recur(wxt, wht, brows, x, acts, proj, zh):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    The weights come from _gate_weights and the buffers from _scratch, cut
    to the block's B rows. With S slots in acts, step t reads c_{t-1} from
    slot t % S and writes c_t into the next slot, so S = L keeps every step
    and S = 1 the latest; the last c_t lands in acts[0]. One GEMM fills the
    n rows of proj for the next n steps.
    """
    B, H = acts.shape[2:]
    L, n = x.shape[0], proj.shape[0]
    # zs is -z of the sigmoid gates as (3, B, H), like a slot's i, f, o, and
    # zg the cell candidate's z; gate-major, both are contiguous blocks and
    # the input GEMM runs per gate
    if wht.ndim == 3:
        rec, xs, zs, zg = np.matmul, x[:, None], zh[:3], zh[3]
    else:
        rec, xs = np.ndarray.dot, x
        zs, zg = zh[:, : 3 * H].reshape(B, 3, H).swapaxes(0, 1), zh[:, 3 * H :]
    # per slot: i, f, o as one (3, B, H) view, the seven slot views, and the
    # c_t the step writes; with one slot that is the very view object the
    # step reads as c_{t-1}, which a B=1 forecast runs fastest with
    if len(acts) == 1:
        i, f, o, g, c, tc, h = acts[0]
        slots = [(acts[0, :3], i, f, o, g, c, tc, h, c)]
    else:
        i, f, o, g, c, tc, h = acts.swapaxes(0, 1)
        c = [*c]
        slots = list(zip(acts[:, :3], i, f, o, g, c, tc, h, [*c[1:], c[0]]))
    exp, reciprocal, tanh, multiply, add = np.exp, np.reciprocal, np.tanh, np.multiply, np.add
    h = acts[-1, 6]
    acts[0, 4] = 0.0
    h[...] = 0.0
    # step t takes slot t % S across stretches, from S tuples, not L
    walk = itertools.cycle(slots)
    for s in range(0, L, n):
        m = min(n, L - s)
        np.matmul(xs[s : s + m], wxt, proj[:m])
        # proj[:m] comes first in the zip, so its end stops the walk before
        # it takes another slot
        for zx, (ifo, i, f, o, g, c, tc, h_t, c_t) in zip(proj[:m], walk):
            rec(h, wht, zh)
            add(zx, zh, zh)
            add(zh, brows, zh)
            exp(zs, ifo)
            add(ifo, ONE, ifo)
            reciprocal(ifo, ifo)
            tanh(zg, g)
            multiply(f, c, c_t)
            multiply(i, g, tc)
            add(c_t, tc, c_t)
            tanh(c_t, tc)
            multiply(o, tc, h_t)
            h = h_t
    return h


def _scratch(rows, H, L, steps=1):
    """The (acts, proj, zh) buffers _recur needs for blocks of at most rows
    windows over L steps, acts keeping `steps` of them. proj holds at least
    one and at most PREDICT_ROWS // rows steps, no more than a PREDICT_ROWS
    block's gate array."""
    n = max(1, min(L, PREDICT_ROWS // max(rows, 1)))
    row = (4, rows, H) if _per_gate(rows, H) else (rows, 4 * H)
    return np.empty((steps, 7, rows, H)), np.empty((n, *row)), np.empty(row)


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass keeping per-step activations: returns (y, acts), the
    (B, K) head output and the (L, 7, B, H) cache lstm_backward takes."""
    L, B, _ = x.shape
    H = wh.shape[1]
    acts, proj, zh = _scratch(B, H, L, L)
    h = _recur(*_gate_weights(wx, wh, b, B), x, acts, proj, zh)
    # the last step's c overwrote c_{-1}, which lstm_backward reads
    acts[0, 4] = 0.0
    return h.dot(w_out.T) + b_out, acts


def lstm_backward(wx, wh, w_out, x, acts, dy):
    """Backpropagation through time for one batch: (d_wx, d_wh, d_b, d_wout,
    d_bout) in the parameter layout, gate blocks in model order i, f, g, o,
    given dy = d(loss)/d(head output), shape (B, K), and lstm_forward's
    cache acts, which is only read. Every product is grouped as in the chain
    rule written out in model order, so the gradients are bit-identical to it.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    h = acts[:, 6]
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * H)
    d_wout = dy.T.dot(h[L - 1])
    d_bout = dy.sum(axis=0)
    dh = dy.dot(w_out)
    dc = np.zeros((B, H))
    # d4 holds the factor d of (d*s)*(1-s) for s = i, f, o, then dh * o;
    # sq holds 1 - g^2 and 1 - tanh(c)^2, s3 holds 1 - s, and dg holds dc * i
    d4, sq, s3 = np.empty((4, B, H)), np.empty((2, B, H)), np.empty((3, B, H))
    d_ifo, d_if, d_o, dho, do_dho = d4[:3], d4[:2], d4[2], d4[3], d4[2:]
    sq_g, sq_c, s_if, s_o = sq[0], sq[1], s3[:2], s3[2]
    dg = np.empty((B, H))
    dz = np.empty((B, 4 * H))
    dzt = dz.T
    # dz's gate blocks as (B, H) views, model order i, f, g, o; a step
    # writes each once, as an in-place op on a strided view is slow
    dz_if, dz_g, dz_o = dz.reshape(B, 4, H).swapaxes(0, 1)[:2], dz[:, 2 * H : 3 * H], dz[:, 3 * H :]
    # per step, last first: its slot views i, f, o | g, c_{t-1} | tanh(c), o
    # | g, tanh(c) | i | f, its input, and h_{t-1}, which step 0 has not
    r = acts[::-1]
    steps = zip(r[:, :3], r[:, 3:5], r[:, 5:1:-3], r[:, 3::2], r[:, 0], r[:, 1], x[::-1], [*h[-2::-1], None])
    multiply, subtract, add, dot, add_rows = np.multiply, np.subtract, np.add, np.ndarray.dot, np.add.reduce
    for ifo, gc, tco, gtc, i, f, xt, h_prev in steps:
        multiply(dh, tco, do_dho)
        multiply(gtc, gtc, sq)
        subtract(ONE, sq, sq)
        multiply(dho, sq_c, dho)
        add(dc, dho, dc)
        multiply(dc, gc, d_if)
        multiply(d_ifo, ifo, d_ifo)
        subtract(ONE, ifo, s3)
        multiply(d_if, s_if, dz_if)
        multiply(d_o, s_o, dz_o)
        multiply(dc, i, dg)
        multiply(dg, sq_g, dz_g)
        add(d_wx, dot(dzt, xt), d_wx)
        add(d_b, add_rows(dz, 0), d_b)
        # nothing reads step 0's dh or dc * f
        if h_prev is not None:
            add(d_wh, dot(dzt, h_prev), d_wh)
            dot(dz, wh, dh)
            multiply(dc, f, dc)
    return d_wx, d_wh, d_b, d_wout, d_bout


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lstm_predict(wx, wh, b, w_out, b_out, x):
    """Forward pass without activation caching; returns the (B, K) output.
    A batch wider than PREDICT_ROWS windows runs in blocks on every CPU the
    process may use, and the head once on their joined last hidden states."""
    L, B, _ = x.shape
    H = wh.shape[1]
    if B <= PREDICT_ROWS:
        h = _recur(*_gate_weights(wx, wh, b, B), x, *_scratch(B, H, L))
        return h.dot(w_out.T) + b_out
    n = -(-B // PREDICT_ROWS)
    workers = min(n, _cpu_count())
    n = -(-n // workers) * workers
    rows = -(-B // n)
    bounds = [B * k // n for k in range(n + 1)]
    h = np.empty((B, H))
    wxt, wht, brows = _gate_weights(wx, wh, b, rows)
    scratch = [_scratch(rows, H, L) for _ in range(workers)]
    errors = []

    def run(w):
        try:
            acts, proj, zh = scratch[w]
            for k in range(w, n, workers):
                lo, hi = bounds[k], bounds[k + 1]
                m = hi - lo
                # a buffer's rows are its second-to-last axis in both layouts
                cut = ..., slice(m), slice(None)
                h[lo:hi] = _recur(wxt, wht, brows[cut], x[:, lo:hi], acts[:, :, :m], proj[cut], zh[cut])
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, w)) for w in range(1, workers)]
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
    return h.dot(w_out.T) + b_out
