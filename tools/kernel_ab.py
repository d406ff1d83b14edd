"""Alternating A/B timings of the LSTM kernels alone, on two checkouts.

    python3 tools/kernel_ab.py PARENT CHANGE [--pairs 10]

PARENT and CHANGE are two checkouts of the repository. Their
src/deckmotion/_kernels.py are loaded into this one process as two modules,
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1
before numpy loads. Both run at H=64, L=40 and three input and output
channels, on weights and windows drawn from a fixed seed, in these cases:

    predict_b1960      B=1960 lstm_predict on the process's workers
    predict_b1960_w1   the same on one worker
    train_b32          B=32 lstm_forward, then lstm_backward on its cache
    predict_b1         B=1 lstm_predict

The forecasts take read-only copies of the weights, as a loaded model's
are, and training takes them writable, as Adam's are; both sides get the
very same arrays.

In a pair, each case makes one warm-up call per side, then alternates the
sides call by call, the parent first in odd pairs and the change first in
even ones. A case's ratio is the median change/parent ratio of adjacent calls,
so a phase of the host that outlasts a call slows both sides alike. A pair
prints `pair K (parent first): CASE P / C ms (R), ...`, with each side's
median call and the ratio R. The summary gives, per case, each side's
median ms over the pairs with quartiles, the median ratio with quartiles,
and the change's wins, the pairs with a ratio below 1. Stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

from bench_ab import quartiles

# name, batch width, calls per side in a pair, workers (None: the process's own)
CASES = (
    ("predict_b1960", 1960, 4, None),
    ("predict_b1960_w1", 1960, 4, 1),
    ("train_b32", 32, 20, None),
    ("predict_b1", 1, 200, None),
)
HIDDEN, LOOKBACK, CHANNELS = 64, 40, 3
KERNELS = Path("src") / "deckmotion" / "_kernels.py"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    return p.parse_args(argv)


def check_dirs(parent: str, change: str) -> tuple[Path, Path]:
    """Both checkouts as absolute paths; ValueError unless each holds the kernels."""
    dirs = Path(parent).absolute(), Path(change).absolute()
    for d in dirs:
        if not (d / KERNELS).is_file():
            raise ValueError(f"{d} holds no {KERNELS}")
    return dirs


def load(path: Path, name: str):
    """The _kernels.py at path, as a module of its own named name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_inputs() -> dict:
    """Per case, the one set of arguments that both sides' kernels take:
    read-only weights for the forecasts, writable ones for training."""
    import numpy as np

    rng = np.random.default_rng(0)
    H, D = HIDDEN, CHANNELS
    weights = (rng.normal(scale=0.5, size=(4 * H, D)), rng.normal(scale=H**-0.5, size=(4 * H, H)),
               rng.normal(scale=0.1, size=4 * H), rng.normal(size=(D, H)), np.zeros(D))
    frozen = tuple(w.copy() for w in weights)
    for w in frozen:
        w.setflags(write=False)
    return {name: (weights if name.startswith("train") else frozen, rng.normal(size=(LOOKBACK, batch, D)),
                   rng.normal(size=(batch, D)))
            for name, batch, *_ in CASES}


def case_call(K, name, inputs):
    """One call of case name on the kernels module K, as a function of no arguments."""
    (wx, wh, b, w_out, b_out), x, dy = inputs[name]
    if name.startswith("train"):
        def call():
            _, acts = K.lstm_forward(wx, wh, b, w_out, b_out, x)
            K.lstm_backward(wx, wh, w_out, x, acts, dy)
    else:
        def call():
            K.lstm_predict(wx, wh, b, w_out, b_out, x)
    return call


def time_pair(sides, inputs, parent_first: bool) -> dict:
    """Per case, (parent ms, change ms, ratio) for one pair: each side's median
    call and the median change/parent ratio of adjacent calls."""
    order = (0, 1) if parent_first else (1, 0)
    out = {}
    for name, _, calls, workers in CASES:
        own = [K._cpu_count for K in sides]
        if workers is not None:
            for K in sides:
                K._cpu_count = lambda: workers
        fns = [case_call(K, name, inputs) for K in sides]
        for side in order:
            fns[side]()
        ms = ([], [])
        for _ in range(calls):
            for side in order:
                t = time.perf_counter()
                fns[side]()
                ms[side].append(1e3 * (time.perf_counter() - t))
        for K, count in zip(sides, own):
            K._cpu_count = count
        out[name] = (statistics.median(ms[0]), statistics.median(ms[1]),
                     statistics.median(c / p for p, c in zip(*ms)))
    return out


def summarize(pairs: list[dict]) -> list[dict]:
    """Per case, over the pairs' (parent ms, change ms, ratio): each side's
    median ms and quartiles, the median ratio and its quartiles, and the
    change's wins, the pairs with a ratio below 1."""
    rows = []
    for name, *_ in CASES:
        a, b, r = ([pair[name][k] for pair in pairs] for k in range(3))
        rows.append({"name": name, "parent_median": statistics.median(a), "parent_quartiles": quartiles(a),
                     "change_median": statistics.median(b), "change_quartiles": quartiles(b),
                     "ratio": statistics.median(r), "ratio_quartiles": quartiles(r),
                     "wins": sum(x < 1 for x in r), "pairs": len(r)})
    return rows


def report(pairs: list[dict]) -> str:
    out = []
    for row in summarize(pairs):
        (a1, a3), (b1, b3), (r1, r3) = row["parent_quartiles"], row["change_quartiles"], row["ratio_quartiles"]
        out.append(
            f"{row['name']} [ms]: parent {row['parent_median']:.4g} ({a1:.4g}-{a3:.4g}), "
            f"change {row['change_median']:.4g} ({b1:.4g}-{b3:.4g}), "
            f"ratio {row['ratio']:.4f} ({r1:.4f}-{r3:.4f}), wins {row['wins']}/{row['pairs']}"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dirs = check_dirs(args.parent, args.change)
    except ValueError as exc:
        print(f"kernel_ab: {exc}", file=sys.stderr)
        return 2
    sides = [load(d / KERNELS, f"kernels_{side}") for d, side in zip(dirs, ("parent", "change"))]
    inputs = make_inputs()
    pairs = []
    for k in range(args.pairs):
        pairs.append(time_pair(sides, inputs, parent_first=k % 2 == 0))
        cells = [f"{name} {p:.4g} / {c:.4g} ms ({r:.4f})" for name, (p, c, r) in pairs[-1].items()]
        first = "parent" if k % 2 == 0 else "change"
        print(f"pair {k + 1} ({first} first): " + ", ".join(cells), flush=True)
    print(report(pairs))
    return 0


if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads in main
    os.environ.update(ONE_THREAD)
    sys.exit(main())
