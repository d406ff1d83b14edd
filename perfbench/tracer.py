"""Span tracing for the traced benchmark run.

`Tracer.install()` replaces the public deckmotion functions named in LAYERS
with wrappers that time each call as a span, wherever a deckmotion module
holds a reference to them, and `remove()` puts the originals back. Nothing
inside the program changes: spans are taken at the calls between layers.

A layer's self time is its span minus the spans of the layers it called.
Spans are aggregated in memory per layer (calls, self seconds) rather than
kept one by one, so a step of a few hundred microseconds stays cheap to
trace. Counters (bytes, flops, intervals) are taken at the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Layer name -> suffix of its time metric. Layers that call other traced
# layers report self time ("self_s"); leaves report their whole span ("s").
LAYERS = {
    "kernels.forward": "s",
    "kernels.backward": "s",
    "kernels.predict": "s",
    "lstm.loss_and_gradients": "self_s",
    "lstm.predict_windows": "self_s",
    "training.train": "self_s",
    "training.save_model": "s",
    "training.load_model": "s",
    "seriesdata.load_series_csv": "s",
    "seriesdata.series_to_csv": "s",
    "seriesdata.normalizer": "s",
    "evaluate.predict_series": "self_s",
    "evaluate.errors_to_csv": "s",
    "svgplot.render_panels": "s",
    "wavegen.sample": "s",
    "restperiod.calm_mask": "s",
    "cli.simulate": "self_s",
    "cli.evaluate": "self_s",
    "cli.rest": "self_s",
    "cli.predict": "self_s",
    "cli.plot": "self_s",
}

# The layers a workload's set-up calls: building the training inputs and
# training, saving and loading the model the forecasting workloads use.
SETUP_LAYERS = (
    "kernels.forward", "kernels.backward", "kernels.predict", "lstm.loss_and_gradients",
    "lstm.predict_windows", "training.train", "training.save_model", "training.load_model",
    "seriesdata.normalizer", "wavegen.sample",
)

# The benchmark's own code: the glue inside one measured operation, the
# output checks and bookkeeping between operations, and the reference runs.
BENCH_SPANS = ("bench.op", "bench.check", "bench.reference")

COUNTERS = ("kernels.gemm_flop", "training.model_bytes", "seriesdata.csv_bytes", "svgplot.bytes")


def _lstm_shapes(wx, wh, x):
    L, B, D = x.shape
    return L, B, D, wh.shape[1]


def forward_flop(wx, wh, b, w_out, b_out, x):
    """GEMM flops of one forward or predict kernel call (2 per multiply-add)."""
    L, B, D, H = _lstm_shapes(wx, wh, x)
    return 2 * L * B * 4 * H * (D + H) + 2 * B * H * w_out.shape[0]


def backward_flop(wx, wh, w_out, x, *_):
    """GEMM flops of one backward kernel call: the head, then per step the
    input and recurrent weight gradients and the hidden-state gradient."""
    L, B, D, H = _lstm_shapes(wx, wh, x)
    K = w_out.shape[0]
    return 4 * B * K * H + 2 * L * 4 * H * B * (D + 2 * H) - 2 * 4 * H * B * H


class Tracer:
    """Aggregated spans for one phase of a run; install, run, remove, read."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0  # summed duration of spans with no traced parent
        self._child_s = []  # per open span: time spent in its traced children
        self._patched = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.top_s = 0.0

    def span(self, name, fn, *args, **kwargs):
        """Call fn as a span called name and return its result."""
        self._child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child_s.pop()
            self.calls[name] += 1
            self.self_s[name] += dt - child
            if self._child_s:
                self._child_s[-1] += dt
            else:
                self.top_s += dt

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            result = self.span(span_name, fn, *args, **kwargs)
            if count is not None:
                key, value = count(args, kwargs, result)
                self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper_for):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_for(original))

    def _patch_everywhere(self, fn, name, count=None):
        """Replace fn in every deckmotion module namespace that binds it."""
        wrapped = self._wrap(name, fn, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "deckmotion" or mod_name.startswith("deckmotion.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, lambda _orig: wrapped)

    def install(self):
        from deckmotion import (
            _kernels,
            cli,
            evaluate,
            lstm,
            restperiod,
            seriesdata,
            svgplot,
            training,
            wavegen,
        )

        def flop(counter):
            return lambda args, kwargs, result: ("kernels.gemm_flop", counter(*args))

        def text_bytes(key):
            return lambda args, kwargs, result: (key, len(result.encode("utf-8")))

        def path_bytes(key, index):
            return lambda args, kwargs, result: (key, os.path.getsize(args[index]))

        everywhere = [
            (_kernels.lstm_forward, "kernels.forward", flop(forward_flop)),
            (_kernels.lstm_backward, "kernels.backward", flop(backward_flop)),
            (_kernels.lstm_predict, "kernels.predict", flop(forward_flop)),
            (lstm.loss_and_gradients, "lstm.loss_and_gradients", None),
            (lstm.predict_windows, "lstm.predict_windows", None),
            (training.train, "training.train", None),
            (training.save_model, "training.save_model", path_bytes("training.model_bytes", 1)),
            (training.load_model, "training.load_model", path_bytes("training.model_bytes", 0)),
            (seriesdata.load_series_csv, "seriesdata.load_series_csv", path_bytes("seriesdata.csv_bytes", 0)),
            (seriesdata.series_to_csv, "seriesdata.series_to_csv", text_bytes("seriesdata.csv_bytes")),
            (seriesdata.fit_normalizer, "seriesdata.normalizer", None),
            (evaluate.predict_series, "evaluate.predict_series", None),
            (evaluate.errors_to_csv, "evaluate.errors_to_csv", None),
            (svgplot.render_panels, "svgplot.render_panels", text_bytes("svgplot.bytes")),
            (wavegen.evaluate_model_array, "wavegen.sample", None),
            (restperiod.calm_mask, "restperiod.calm_mask", None),
        ]
        try:
            for fn, name, count in everywhere:
                self._patch_everywhere(fn, name, count)
            for method in ("apply", "invert"):
                self._patch(seriesdata.Normalizer, method, lambda f: self._wrap("seriesdata.normalizer", f))
            self._patch(cli, "main", lambda f: self._wrap(lambda args: f"cli.{args[0][0]}", f))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
