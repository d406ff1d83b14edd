"""LSTM compute kernels in numpy: one recurrence, its BPTT, and the head.

The step loop is written once, in _recur. lstm_forward runs it with an
activation cache for lstm_backward; lstm_predict runs it without one, so
forecasting wide batches allocates no per-step history.

lstm_predict also splits a batch wider than PREDICT_ROWS windows into
blocks of near-equal size and runs _recur on each. At H=64 a 224-row
block's (rows, 4H) gate array is 448 KiB, so each step's working set stays
in a core's L2 cache, where the whole B=1960 array (4 MB) does not, and
224 * 64 * 64 <= 10^6 keeps the block's recurrent product on the per-gate
path described below. The rows of a batch are independent, so blocking
cannot change the result, provided every block is wide: on OpenBLAS a
GEMM of 1 to 4 rows rounds differently from the same rows inside a wide
GEMM. The block count is ceil(B / PREDICT_ROWS) rounded up to a multiple
of the worker count W, so that every worker runs as many blocks as every
other: on 2 CPUs, B=1960 runs as 10 blocks of 196 rows and B=588 as 4 of
147, where 3 blocks of 196 left one worker two of them. The split is
balanced, and every block stays above PREDICT_ROWS / 4 rows once
B > PREDICT_ROWS; a fixed stride would leave a thin trailing block.

The blocks run on every CPU the process may use: the calling thread takes
blocks 0, W, 2W, ... and W - 1 helper threads the rest, where W is the
CPU count capped at ceil(B / PREDICT_ROWS). numpy releases the interpreter lock
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
                       slots i, f, o, g, c_prev, tanh(c), h of step t:
                       c_prev = c_{t-1} is the cell state the step reads,
                       zero at t = 0, and c = c_t the one it makes, which
                       acts[t + 1] keeps; the last c is not kept
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
block, the output of that fused sigmoid, and c_{t-1} right after g_t, so
that lstm_backward takes dc * g and dc * c_{t-1} in one multiply. Model
files and lstm_backward's gradients keep the model order.

Two parts of z do not wait on the recurrence, and _recur takes them out
of the step:
  - The input projection x_t wx^T. One np.matmul over a stretch of n
    steps writes the projections of all n into a buffer of n projection
    rows (see the layouts below), where n = min(L, PREDICT_ROWS // rows),
    at least 1: 40 steps at B=1, 7 at B=32, 1 at B=196. So the buffer
    holds at most the PREDICT_ROWS rows of gate pre-activations that a
    block's L2 budget already allows. Each step then adds h wh^T and the
    bias into its row in place. np.matmul over the stretch rounds as
    np.dot step by step does; one (L*B, D) GEMM does not at B=1, and it is
    slower from B=32 up. At B=1, H=64 the stretch takes about 25 us for 40
    steps, against 77 us for 40 np.dot calls. (Appleyard, Kocisky &
    Blunsom 2016, arXiv:1604.01946, hoist the input GEMM of an RNN the
    same way on GPUs.)
  - The bias. _gate_weights repeats it on each row of a block of the
    projection row's shape, so the per-step bias add is between arrays of
    one shape: 0.8 us at B=1 and 17 us at B=245, where adding the (4H,)
    vector by broadcasting takes 1.6 and 38 us and, at B=245, allocates a
    64 KiB iterator buffer. Gate-major, a (4, 1, H) bias broadcast over the
    rows takes 31 us at 196 rows, against 15 us for the repeated block.
A step then makes 12 numpy calls, and at B=1 the Python between them is a
visible share of its time: with H=64, each ufunc call takes about 0.5 us
and the recurrent GEMV about 3 us, a step about 9 us. So _recur's step
loop is dispatch-lean: the ufuncs are bound to locals once per call, every
update in place is a ufunc call with its output passed positionally
(add(zx, zh, zx), not zx += zh), and the step takes its projection row and
its slot's views from one zip, the slots from an itertools.cycle, with no
index arithmetic. That made a B=1 forecast (H=64, L=40) about 5% faster.
What a B=1 call pays once is now mostly its set-up, measured at H=64,
L=40: _gate_weights 14 us, the scratch buffers 1.5 us, the projection
row views 1.2 us, the slot views 2 us, zeroing the state 0.9 us, the
head 2.2 us, and outside this module np.errstate 1.3 us and as_time_major
0.9 us. Only the slot views had a bit-identical form that measured faster;
_gate_weights copies and negates every value of the weights.

The one GEMM left in the step, the recurrent product h wh^T, is a
(rows, H) @ (H, 4H) product with an F-ordered right operand, and OpenBLAS
runs it on a slow path. Four (rows, H) @ (H, H) products, one per gate,
in one np.matmul over a (4, H, H) stack give the same bits in 0.32-0.78
of its time at H = 32 to 256 (one OpenBLAS 0.3.31 thread, AVX-512): 0.37
at H=64 with 5 rows, 0.63 with 32, 0.67 with 224. _gate_weights returns
the stack only where that is both exact and faster, all measured:
  - rows * H * H <= 10^6, OpenBLAS's small-matrix bound. One row more and
    the four products leave that path and take 1.1-1.4 times the fused
    one at H = 32 to 96: 245 rows against 244 at H=64, 977 against 976
    at H=32.
  - H a multiple of 8 from 32 to 384. At H = 3 and 8 the stack is 1.2-2.0
    times slower up to 32 rows. At most other H, such as 33, 60 and 100,
    and at H >= 392 with 5 or 6 rows, it rounds differently.
  - rows > 4 and rows * H > 288. Below that the two round differently:
    up to 9 rows at H=32, up to 4 at H=64.
Elsewhere, B=1 included, the step calls np.dot on the fused (H, 4H) view.

The layout of a step's pre-activations follows that choice, made once per
call from the shape of wh^T:
  - Per gate, gate-major. A projection row and zh are (4, rows, H), one
    contiguous (rows, H) block per gate, and the input projection runs per
    gate too, as np.matmul(x[:, None], x4) over the (4, D, H) stack of wx^T's
    gate blocks, which rounds as the fused GEMM does wherever the per-gate
    recurrent product is chosen. The recurrent matmul writes straight into
    zh, and the sigmoids read -z of i, f and o as the first three blocks,
    one contiguous (3, rows, H) array, and the tanh reads z of g as the
    fourth. numpy runs a ufunc whose operands are laid out differently,
    such as a strided view read into a contiguous block, through a buffer
    of up to 64 KiB that it allocates on every call; over blocks of one
    layout it allocates none (a block one row short of its buffers, cut by
    lstm_predict, stays within 3.4 KB). Measured at H=64, L=40 (one
    OpenBLAS thread, interleaved medians), row-major against gate-major
    buffers on this path: a call's traced peak is 10,640, 52,112 and
    68,496 B at 5, 32 and 196 rows against 2,576 B; a step's exp and tanh
    take 11.6 and 8.8 us against 8.1 and 6.4 us at 32 rows, and 60 and
    39 us against 46 and 33 us at 196; a whole _recur call takes 3.10
    against 2.71 ms at 32 rows, and 17.0 against 15.8 ms at 196.
  - Fused, row-major. A projection row and zh are (rows, 4H), and the
    sigmoids and the tanh read (3, rows, H) and (rows, H) strided views of
    the row. At B=1 the two layouts are the same bytes, so the B=1 step
    keeps this path, with no reshape added to it: its traced peak is
    2,224 B. Wider fused blocks (H not a multiple of 8, or beyond the 10^6
    bound) still pay the iterator buffers, about 66 KB a call at B=245.
Gate-major zh alone, with the projection row-major, gained nothing: the
add of two operands of different layouts goes through the same buffer,
40.6 us against 25.6 us at 196 rows.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading

import numpy as np

# There is no compiled path; the benchmark's environment fingerprint
# (perfbench/run.py) still reads this flag.
NUMBA_ENABLED = False

# Widest batch block lstm_predict runs through the recurrence at once.
PREDICT_ROWS = 224


def _per_gate(rows, H):
    """Whether blocks of `rows` rows take the recurrent product per gate, with
    gate-major buffers: the bounds in the module docstring."""
    return H % 8 == 0 and 32 <= H <= 384 and max(4, 288 // H) < rows <= 10**6 // (H * H)


def _gate_weights(wx, wh, b, rows):
    """The fused gate weights _recur takes: (wx^T, wh^T, brows), with the gate
    blocks ordered i, f, o, g and the rows of i, f and o negated (see the
    module docstring), and the fused bias repeated on each of `rows` rows, so
    that a step adds it as an array of its own shape. Built with slices and
    np.negative: at H=64 that takes 23 us, against 64 us by fancy indexing,
    and a B=1 forecast of under 1 ms notices the difference. On the fused
    path wx^T and wh^T are the (D, 4H) and (H, 4H) views and brows is
    (rows, 4H). Where the bounds in the module docstring allow blocks of
    `rows` rows, all three are gate-major: the contiguous (4, D, H) and
    (4, H, H) stacks of the gate blocks of wx^T and wh^T, and a (4, rows, H)
    brows.
    """
    H = wh.shape[1]
    per_gate = _per_gate(rows, H)
    # the gate-major bias is fused into one column first, then repeated
    wxf, whf = np.empty_like(wx), np.empty_like(wh)
    brows = np.empty((4 * H, 1)) if per_gate else np.empty((rows, 4 * H))
    for w, v in ((wx, wxf), (wh, whf), (b[:, None], brows if per_gate else brows.T)):
        np.negative(w[: 2 * H], v[: 2 * H])
        np.negative(w[3 * H :], v[2 * H : 3 * H])
        v[3 * H :] = w[2 * H : 3 * H]
    if not per_gate:
        return wxf.T, whf.T, brows
    # x4[k] and w4[k] are wx^T's and wh^T's gate block k
    x4, w4 = (np.ascontiguousarray(w.reshape(4, H, -1).swapaxes(1, 2)) for w in (wxf, whf))
    return x4, w4, np.repeat(brows.reshape(4, 1, H), rows, axis=1)


def _recur(wxt, wht, brows, x, acts, proj, zh, c_last=None):
    """Run the recurrence over x from a zero state; return the last h (B, H).

    wxt, wht and brows are _gate_weights' output, brows cut to the block's
    B rows; acts, proj and zh are _scratch's buffers, cut likewise. A 3-D
    wht takes the recurrent product per gate with np.matmul, a 2-D one takes
    it fused with np.dot; the choice is made once per call, and the layout
    of proj and zh follows it (see the module docstring). acts is
    an (S, 7, B, H) array: step t reads c_{t-1} from the c slot of
    acts[t % S], writes i, f, o, g, tanh(c) and h into the other slots, and
    writes c_t into the c slot of the next one, so S = L keeps every step
    for lstm_backward and S = 1 keeps only the latest, updating c in place.
    The zero state is written into acts[0]'s c slot and into the h slot that
    step L - 1 fills. The last step writes its c into c_last, a (B, H)
    buffer, or, by default, into acts[0]'s c slot: a cache of S = L slots
    passes c_last, so that c_{-1} = 0 survives the call, at L = 1 too. proj
    holds n projection rows: (n, 4, B, H) gate-major on the per-gate path
    and (n, B, 4H) row-major on the fused one, the same bytes at B=1. One
    GEMM writes the input projections of the next n steps into it, and each
    of those steps adds its recurrent product zh, a (4, B, H) or (B, 4H)
    block like a row, and the bias in place. Gate-major, every ufunc of the
    step reads and writes contiguous blocks, so numpy allocates no iterator
    buffer for it. A step allocates nothing that outlives it, and evaluates
    the gate math of the module docstring in the order written there, up to
    the exact negations of the fused weights, so the result is bit-identical
    to the expressions written out.

    The step loop is lean for the many tiny calls of a B=1 forecast (see the
    module docstring): local ufuncs, outputs passed positionally, which
    costs less than out= and than an augmented assignment, and the slots
    walked by one itertools.cycle, which keeps the S slot tuples, not one
    per step, so the memory a call takes does not grow with L. The slot
    views are built once per call: with S = L by one zip over the slot axis,
    40 us at L=40 where unpacking each slot took 80 us, and with S = 1 by
    unpacking the one slot, about 2 us where that zip takes 4.5 us.
    """
    B, H = acts.shape[2:]
    L, n = x.shape[0], proj.shape[0]
    # per projection row: -z of the sigmoid gates as (3, B, H), matching a
    # slot's i, f, o, and z of the cell candidate; gate-major, both are
    # contiguous blocks, and the input GEMM runs per gate
    if wht.ndim == 3:
        rec, xs, zsv, zgv = np.matmul, x[:, None], proj[:, :3], proj[:, 3]
    else:
        rec, xs = np.dot, x
        zsv = proj[:, :, : 3 * H].reshape(n, B, 3, H).swapaxes(1, 2)
        zgv = proj[:, :, 3 * H :]
    # per slot: i, f, o as one (3, B, H) view, the seven slot views, and the
    # c_t the step writes; with one slot that is the very view object the
    # step reads as c_{t-1}: with a second view of the same block as the
    # output, a B=1 forecast ran 3% slower
    if len(acts) == 1:
        i, f, o, g, c, tc, h = acts[0]
        slots = [(acts[0, :3], i, f, o, g, c, tc, h, c if c_last is None else c_last)]
    else:
        i, f, o, g, c, tc, h = acts.swapaxes(0, 1)
        c = [*c]
        slots = list(zip(acts[:, :3], i, f, o, g, c, tc, h, [*c[1:], c[0] if c_last is None else c_last]))
    exp, reciprocal, tanh, multiply, add = np.exp, np.reciprocal, np.tanh, np.multiply, np.add
    h = acts[-1, 6]
    acts[0, 4] = 0.0
    h[...] = 0.0
    # step t takes slot t % S; the cycle goes on from stretch to stretch
    walk = itertools.cycle(slots)
    for s in range(0, L, n):
        m = min(n, L - s)
        np.matmul(xs[s : s + m], wxt, proj[:m])
        # a row's views are made as its step comes, so that the memory a
        # call takes does not grow with n; proj[:m] comes first in the zip,
        # so its end stops the walk before it takes another slot
        for zx, zs, zg, (ifo, i, f, o, g, c, tc, h_t, c_t) in zip(proj[:m], zsv, zgv, walk):
            rec(h, wht, zh)
            add(zx, zh, zx)
            add(zx, brows, zx)
            exp(zs, ifo)
            add(ifo, 1.0, ifo)
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
    windows over L steps; acts keeps `steps` steps. proj holds a stretch of
    n = min(L, PREDICT_ROWS // rows) steps, at least one (an empty batch
    included), so that it is no larger than the gate array of a
    PREDICT_ROWS-row block. proj's rows and zh are gate-major (4, rows, H)
    where _gate_weights picks the per-gate product for `rows` rows, and
    row-major (rows, 4H) elsewhere."""
    n = max(1, min(L, PREDICT_ROWS // max(rows, 1)))
    row = (4, rows, H) if _per_gate(rows, H) else (rows, 4 * H)
    return np.empty((steps, 7, rows, H)), np.empty((n, *row)), np.empty(row)


def lstm_forward(wx, wh, b, w_out, b_out, x):
    """Forward pass over a window batch, keeping per-step activations.

    Returns (y, acts): the (B, K) head output and the (L, 7, B, H) cache
    whose acts[t] holds i, f, o, g, c_{t-1}, tanh(c_t) and h_t of step t,
    which lstm_backward takes.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    acts, proj, zh = _scratch(B, H, L, L)
    # nothing reads the last step's c
    h = _recur(*_gate_weights(wx, wh, b, B), x, acts, proj, zh, np.empty((B, H)))
    return np.dot(h, w_out.T) + b_out, acts


def lstm_backward(wx, wh, w_out, x, acts, dy):
    """Backpropagation through time for one batch.

    acts is the (L, 7, B, H) activation cache lstm_forward returned, and dy
    is d(loss)/d(head output), shape (B, K). Returns stacked gradients
    (d_wx, d_wh, d_b, d_wout, d_bout) matching the parameter layout, whose
    gate blocks are in model order i, f, g, o. acts is only read.

    A step reads its slots in pairs: dh times (tanh(c), o) gives the o
    gate's dh * tanh(c) and dh * o in one multiply, (g, tanh(c)) squared gives
    both 1 - x^2 factors, and dc times (g, c_{t-1}), which the cache keeps
    side by side, gives the i and f gates' dc * g and dc * c_{t-1}. The
    derivatives (d*s)*(1-s) of the three sigmoid gates then run as one pass
    over the (3, B, H) i, f, o block and are written into dz through
    strided views. Every product is grouped as in the chain rule written out
    in model order, so the gradients are bit-identical to it. The buffers,
    and the views a step writes through, are made once per call, and step 0
    skips dh and dc * f, which nothing reads. As in _recur, the step loop
    calls ufuncs bound to locals, with outputs passed positionally.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    h = acts[:, 6]
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * H)
    d_wout = np.dot(dy.T, h[L - 1])
    d_bout = dy.sum(axis=0)
    dh = np.dot(dy, w_out)
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
    multiply, subtract, add, dot, add_rows = np.multiply, np.subtract, np.add, np.dot, np.add.reduce
    for ifo, gc, tco, gtc, i, f, xt, h_prev in steps:
        multiply(dh, tco, do_dho)
        multiply(gtc, gtc, sq)
        subtract(1.0, sq, sq)
        multiply(dho, sq_c, dho)
        add(dc, dho, dc)
        multiply(dc, gc, d_if)
        multiply(d_ifo, ifo, d_ifo)
        subtract(1.0, ifo, s3)
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

    A batch of at most PREDICT_ROWS windows runs as one block in the calling
    thread. A wider one runs in balanced blocks, as many for each of the
    process's CPUs (see the module docstring), and the head runs
    once on their joined last hidden states. The output is bit-identical to
    the unblocked pass that lstm_forward makes.
    """
    L, B, _ = x.shape
    H = wh.shape[1]
    if B <= PREDICT_ROWS:
        h = _recur(*_gate_weights(wx, wh, b, B), x, *_scratch(B, H, L))
        return np.dot(h, w_out.T) + b_out
    n = -(-B // PREDICT_ROWS)
    workers = min(n, _cpu_count())
    n = -(-n // workers) * workers
    rows = -(-B // n)
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
            # a buffer's rows are its second-to-last axis in both layouts
            cut = ..., slice(m), slice(None)
            h[lo:hi] = _recur(wxt, wht, brows[cut], x[:, lo:hi], acts[:, :, :m], proj[cut], zh[cut])

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
