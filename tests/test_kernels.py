"""The LSTM kernels: one recurrence shared by the cached and
uncached forward passes, bit-identity with the model-order recurrence, and
the names the benchmark harness reads."""

import ast
import gc
import inspect
import itertools
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from deckmotion import _kernels as K
from deckmotion import evaluate, lstm, restperiod, seriesdata, svgplot, training, wavegen
from deckmotion.lstm import LstmConfig, init_params
from oracles import bptt_oracle, recurrence_oracle


# acts[t] of lstm_forward's cache holds these of step t, in this order,
# where c is c_{t-1}, the cell state the step reads
SLOTS = ("i", "f", "o", "g", "c", "tanh_c", "h")


def _random_case(seed, hidden=6, lookback=7, batch=4):
    params = init_params(LstmConfig(hidden_dim=hidden, lookback=lookback), seed)
    rng = np.random.default_rng(seed + 1)
    x = lstm._kernel_input(rng.normal(size=(batch, lookback, 3)))
    return params, x


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


@pytest.mark.parametrize("hidden", [3, 8, 32, 64])
@pytest.mark.parametrize("saturated", [False, True])
def test_forward_is_bit_identical_to_model_order_recurrence(hidden, saturated):
    # the kernels negate and reorder the gate weights, project the inputs of
    # several steps at once, run one sigmoid over the i, f, o slots and, at
    # H=32 and 64, take the recurrent product per gate; every value must
    # still equal the model-order expressions bit for bit, including gates
    # that saturate at 0 and 1. No lookback is 7, so that an (L, 7, B, H)
    # cache is told from (7, L, B, H); at 13, B=32 projects its inputs in
    # stretches of 7 and 6 steps; at 1 the cache has one slot, as the
    # uncached pass does, and must still keep the zero c_{-1}. At H=64, 244
    # and 245 rows sit on either side of the per-gate product's 10^6 bound
    batches = (1, 2, 5, 32, 244, 245, 255, 256, 257, 1960)
    for lookback, batch in itertools.product((1, 5, 13), batches):
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
            if name == "c":
                # acts[t] keeps c_{t-1}: the zero state, then every c but the last
                assert not acts[0, k].any(), (lookback, batch)
                assert np.array_equal(acts[1:, k], stacks["c"][:-1]), (lookback, batch)
            else:
                assert np.array_equal(acts[:, k], stacks[name]), (lookback, batch, name)


@pytest.mark.parametrize("hidden", [3, 8, 64])
@pytest.mark.parametrize("saturated", [False, True])
def test_backward_is_bit_identical_to_model_order_bptt(hidden, saturated):
    # the gradients decide the model file's bytes, so lstm_backward must
    # equal BPTT written out in model order bit for bit, not only to within
    # the tolerance of a finite-difference check; at lookback 1 the one
    # step's f gradient reads the zero c_{-1}
    batches = (1, 2, 5, 32, 255, 256, 257, 1960)
    for lookback, batch in itertools.product((1, 5), batches):
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
            assert np.array_equal(got, want), (lookback, batch, name)


@pytest.mark.parametrize("lookback", [1, 5])
def test_backward_only_reads_the_cache(lookback):
    # lstm_backward works in place in buffers of its own; the cache must
    # come back byte for byte, and a second call must give the same bytes
    params, x = _random_case(5, hidden=64, lookback=lookback, batch=32)
    dy = np.random.default_rng(5).normal(size=(32, 3))
    _, acts = K.lstm_forward(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
    cache = acts.tobytes()
    grads = [K.lstm_backward(params.wx, params.wh, params.w_out, x, acts, dy) for _ in range(2)]
    assert acts.tobytes() == cache
    assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in grads[1]]


@pytest.mark.parametrize("batch", [1, 196, 245])
def test_recurrence_memory_does_not_grow_with_steps(batch):
    # _recur allocates nothing per step that outlives the step, so its
    # traced peak is the same over 4 steps and over 40; at 196 rows the
    # buffers are gate-major, and at 245 numpy's ufuncs go through strided
    # views of the row-major ones
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


@pytest.mark.parametrize("batch", [5, 32, 196])
def test_per_gate_recurrence_allocates_no_iterator_buffers(batch):
    # on the per-gate path every operand of a step's ufuncs is one
    # contiguous block, so numpy iterates without the buffer of up to
    # 64 KiB that it allocates where a strided view meets a contiguous
    # block; a call's traced peak is then its few views (about 2.6 KB at
    # H=64, L=40)
    params, x = _random_case(2, hidden=64, lookback=40, batch=batch)
    weights = K._gate_weights(params.wx, params.wh, params.b, batch)
    assert weights[1].ndim == 3
    scratch = K._scratch(batch, 64, 40)
    K._recur(*weights, x, *scratch)  # warm numpy's first-call caches
    tracemalloc.start()
    try:
        K._recur(*weights, x, *scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_threaded_predict_matches_forward(monkeypatch, workers):
    # the blocks of a wide batch are shared among `workers` threads; the
    # result must not depend on how many there are
    monkeypatch.setattr(K, "_cpu_count", lambda: workers)
    rows = K.PREDICT_ROWS
    for batch in (rows + 1, 2 * rows + 1, 588, 1960):
        params, x = _random_case(11, hidden=8, batch=batch)
        args = (params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        assert np.array_equal(K.lstm_forward(*args)[0], K.lstm_predict(*args)), batch


def test_predict_blocks_are_balanced_over_workers(monkeypatch):
    # the block count is a multiple of the worker count, so no worker runs
    # one block more than another, and every block stays on the per-gate
    # product's path at H=64
    monkeypatch.setattr(K, "_cpu_count", lambda: 2)
    widths = []
    recur = K._recur

    def recording(*args):
        widths.append((args[3].shape[1], args[1].ndim))
        return recur(*args)

    monkeypatch.setattr(K, "_recur", recording)
    for batch, blocks in ((588, [(147, 3)] * 4), (1960, [(196, 3)] * 10)):
        params, x = _random_case(6, hidden=64, lookback=3, batch=batch)
        widths.clear()
        K.lstm_predict(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        assert sorted(widths) == blocks, batch


def test_gate_weights_choose_the_product():
    # per-gate (4, H, H) recurrent weights where they are exact and faster
    # than the fused (H, 4H) product, which stays everywhere else
    params = init_params(LstmConfig(hidden_dim=64, lookback=3), 1)
    for rows, ndim in ((4, 2), (5, 3), (244, 3), (245, 2)):
        wht = K._gate_weights(params.wx, params.wh, params.b, rows)[1]
        assert wht.ndim == ndim, rows
    fused = K._gate_weights(params.wx, params.wh, params.b, 1)[1]
    w4 = K._gate_weights(params.wx, params.wh, params.b, 5)[1]
    assert w4.flags["C_CONTIGUOUS"]
    for k in range(4):
        assert np.array_equal(w4[k], fused[:, 64 * k : 64 * (k + 1)])


def test_per_gate_product_is_exact_where_chosen():
    # on OpenBLAS the per-gate GEMMs round as the fused one does only for
    # some shapes: not at H=40 with 7 rows, nor at H=392 with 5, nor at
    # H=100. Wherever _gate_weights picks them, the products must be equal:
    # the recurrent one, written into a gate-major (4, rows, H) block as
    # _recur writes it, and the input projection of a stretch of one step
    # and of as many as _scratch gives blocks of that width
    rng = np.random.default_rng(0)
    chosen = 0
    for H in (8, 24, 32, 40, 48, 56, 64, 72, 100, 128, 256, 384, 392):
        wx, wh, b = rng.normal(size=(4 * H, 3)), rng.normal(size=(4 * H, H)), rng.normal(size=4 * H)
        wxt, fused, _ = K._gate_weights(wx, wh, b, 1)
        bound = 10**6 // (H * H)
        for rows in {*range(1, 13), bound - 1, bound, bound + 1} - {0}:
            x4, wht, _ = K._gate_weights(wx, wh, b, rows)
            if wht.ndim == 2:
                continue
            chosen += 1
            h = rng.normal(size=(rows, H))
            zh = np.empty((4, rows, H))
            np.matmul(h, wht, zh)
            assert np.array_equal(zh, np.dot(h, fused).reshape(rows, 4, H).transpose(1, 0, 2)), (H, rows)
            for n in {1, K.PREDICT_ROWS // rows} - {0}:
                x = rng.normal(size=(n, rows, 3))
                proj = np.matmul(x[:, None], x4)
                expected = np.matmul(x, wxt).reshape(n, rows, 4, H).transpose(0, 2, 1, 3)
                assert np.array_equal(proj, expected), (H, rows, n)
    assert chosen > 50


def _read_only(arrays):
    """Read-only copies that own their memory, as a loaded model's are."""
    copies = [a.copy() for a in arrays]
    for a in copies:
        a.setflags(write=False)
    return copies


@pytest.mark.parametrize("hidden", [3, 8, 64])
def test_read_only_weights_forecast_as_writable_ones(hidden):
    # read-only weights take _fused's kept arrays from their second call
    # on, on the fused and the per-gate path, in one block and in several;
    # every forecast must equal that of a writable copy, built afresh
    for batch in (1, 2, 5, 32, 245, 257, 1960):
        params, x = _random_case(hidden + batch, hidden=hidden, lookback=5, batch=batch)
        args = (*params.arrays(), x)
        kept = (*_read_only(params.arrays()), x)
        expected = K.lstm_predict(*args)
        assert id(kept[1]) not in K._FUSED
        for memo in ("cold", "warm"):
            assert np.array_equal(K.lstm_predict(*kept), expected), (batch, memo)
            assert id(kept[1]) in K._FUSED


def test_edited_weights_are_never_served_stale():
    # writable weights, a read-only view of writable memory and weights
    # made writable again may all change between two forecasts
    params, x = _random_case(8, hidden=8, lookback=5, batch=1)
    rng = np.random.default_rng(8)
    views = [a.view() for a in params.arrays()]
    for a in views:
        a.setflags(write=False)
    kept = _read_only(params.arrays())
    for weights, edited in ((params.arrays(), params.wh), (views, params.wh), (kept, kept[1])):
        K.lstm_predict(*weights, x)
        edited.setflags(write=True)
        edited += rng.normal(size=edited.shape)
        expected = K.lstm_predict(*(a.copy() for a in weights), x)
        assert np.array_equal(K.lstm_predict(*weights, x), expected)
    assert id(params.wh) not in K._FUSED and id(kept[1]) not in K._FUSED


def test_concurrent_first_forecasts_keep_one_entry(monkeypatch, tmp_path):
    # two threads make the first forecasts from one freshly loaded model,
    # at B=1 and in blocks at B=1960, and both miss _FUSED: each waits in
    # _aligned until the other has missed too. Each forecast must equal a
    # writable copy's, the model must hold one entry, and none may outlive it
    config = LstmConfig(hidden_dim=64, lookback=40)
    path = tmp_path / "model.json"
    training.save_model(training.ModelArtifact(config, init_params(config, 5), seriesdata.Normalizer()), path)
    params = training.load_model(path).params
    rng = np.random.default_rng(5)
    windows = {batch: rng.normal(size=(batch, 40, 3)) for batch in (1, 1960)}
    expected = {batch: lstm.predict_windows(params.copy(), w) for batch, w in windows.items()}
    both_missed = threading.Barrier(2, timeout=10)
    aligned = K._aligned

    def aligned_once_both_missed(shape):
        both_missed.wait()
        return aligned(shape)

    monkeypatch.setattr(K, "_aligned", aligned_once_both_missed)
    got = {}
    threads = [threading.Thread(target=lambda b=b: got.update({b: lstm.predict_windows(params, windows[b])}))
               for b in windows]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for batch in windows:
        assert np.array_equal(got[batch], expected[batch]), batch
    key = id(params.wh)
    assert [entry[0] is params.wx for entry in K._FUSED.values()].count(True) == 1
    assert K._FUSED[key][0] is params.wx and K._FUSED[key][1] is params.b
    del params
    gc.collect()
    assert key not in K._FUSED


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


@pytest.mark.parametrize("batch", [1, K.PREDICT_ROWS + 1])
def test_gate_overflow_is_ignored_under_any_caller_errstate(monkeypatch, batch):
    # exp(-z) of a saturated gate is inf by design; a caller that raises on
    # overflow must get the same finite forecast, in its own block and in a
    # helper's, as one that ignores it
    monkeypatch.setattr(K, "_cpu_count", lambda: 2)
    params = init_params(LstmConfig(hidden_dim=8, lookback=7), 3)
    windows = np.full((batch, 7, 3), 1e4)
    windows[::2] *= -1.0
    windows[:, ::2] *= -1.0
    args = (*params.arrays(), lstm._kernel_input(windows))
    with np.errstate(over="ignore"):
        expected = K.lstm_predict(*args)
    with np.errstate(over="raise"):
        y = K.lstm_predict(*args)
    assert np.all(np.isfinite(y))
    assert np.array_equal(y, expected)


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


def test_caller_exception_waits_for_helpers(monkeypatch):
    # the calling thread's block fails while the helper's is still running;
    # the failure surfaces only once the helper has finished and joined
    monkeypatch.setattr(K, "_cpu_count", lambda: 2)
    caller = threading.current_thread()
    recur = K._recur
    failed, finished = threading.Event(), []

    def failing_in_caller(*args):
        if threading.current_thread() is caller:
            failed.set()
            raise ArithmeticError("caller block failed")
        assert failed.wait(timeout=10)
        time.sleep(0.05)
        finished.append(recur(*args))
        return finished[-1]

    monkeypatch.setattr(K, "_recur", failing_in_caller)
    params, x = _random_case(5, hidden=4, batch=K.PREDICT_ROWS + 1)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="caller block failed"):
        K.lstm_predict(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
    assert len(finished) == 1
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


def test_kernels_never_call_np_dot(monkeypatch):
    # ndarray.dot runs the same C product as np.dot, without the Python
    # dispatcher np.dot runs first on every call; B=1 takes the fused
    # product, B=32 and B=1960 at H=64 the per-gate one
    cases = {batch: _random_case(batch, hidden=64, lookback=5, batch=batch) for batch in (1, 32, 1960)}
    expect = {}
    for batch, (p, x) in cases.items():
        y, acts = K.lstm_forward(p.wx, p.wh, p.b, p.w_out, p.b_out, x)
        grads = K.lstm_backward(p.wx, p.wh, p.w_out, x, acts, y) if batch < 1960 else ()
        expect[batch] = (K.lstm_predict(p.wx, p.wh, p.b, p.w_out, p.b_out, x), y, *grads)

    def refuse(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", refuse)
    for batch, (p, x) in cases.items():
        y, acts = K.lstm_forward(p.wx, p.wh, p.b, p.w_out, p.b_out, x)
        grads = K.lstm_backward(p.wx, p.wh, p.w_out, x, acts, y) if batch < 1960 else ()
        got = (K.lstm_predict(p.wx, p.wh, p.b, p.w_out, p.b_out, x), y, *grads)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect[batch], strict=True)), batch


@pytest.mark.parametrize("kernel", [K._recur, K.lstm_backward])
def test_step_loops_pass_no_float_literal(kernel):
    # numpy 2 promotes a Python float as a weak scalar, which costs a ufunc
    # call more than a float64 array such as K.ONE does
    loops = [node for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(kernel))))
             if isinstance(node, ast.For)]
    calls = [node for loop in loops for stmt in loop.body for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    assert len(calls) >= 10
    for call in calls:
        for arg in [*call.args, *(kw.value for kw in call.keywords)]:
            literal = arg.operand if isinstance(arg, ast.UnaryOp) else arg
            assert not (isinstance(literal, ast.Constant) and isinstance(literal.value, float)), ast.unparse(call)
    assert K.ONE.dtype == np.float64 and K.ONE.shape == () and not K.ONE.flags.writeable


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
