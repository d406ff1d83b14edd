"""Alternating A/B timings of the LSTM kernels alone, on two checkouts.

    python3 tools/kernel_ab.py PARENT CHANGE [--pairs 10]

PARENT and CHANGE are two checkouts of the repository. Each pair times
each checkout's src/deckmotion/_kernels.py in a fresh process of its own,
the parent first in even pairs and the change first in odd ones, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. The
kernels run at H=64, L=40 and three input and output channels, on weights
and windows drawn from a fixed seed, in these cases:

    predict_b1960      B=1960 lstm_predict on the process's workers
    predict_b1960_w1   the same on one worker
    train_b32          B=32 lstm_forward, then lstm_backward on its cache
    predict_b1         B=1 lstm_predict

A case's time in one process is the median of its calls, after one call
that warms numpy's caches. Every pair is printed, then, per case, each
side's median and quartiles, the relative gap of the medians and the
change's wins (ties count for neither side), in tools/bench_ab.py's
format. Stdlib and numpy only; the child process is this script with
--time KERNELS.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# name, batch width, calls per process, workers (None: the process's own)
CASES = (
    ("predict_b1960", 1960, 10, None),
    ("predict_b1960_w1", 1960, 10, 1),
    ("train_b32", 32, 50, None),
    ("predict_b1", 1, 400, None),
)
HIDDEN, LOOKBACK, CHANNELS = 64, 40, 3
KERNELS = Path("src") / "deckmotion" / "_kernels.py"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", nargs="?", help="checkout of the parent commit")
    p.add_argument("change", nargs="?", help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    p.add_argument("--time", metavar="KERNELS", help="time one _kernels.py here and print the result")
    args = p.parse_args(argv)
    if args.time is None and args.change is None:
        p.error("PARENT and CHANGE are required")
    return args


def check_dirs(parent: str, change: str) -> tuple[Path, Path]:
    """Both checkouts as absolute paths; ValueError unless each holds the kernels."""
    dirs = Path(parent).absolute(), Path(change).absolute()
    for d in dirs:
        if not (d / KERNELS).is_file():
            raise ValueError(f"{d} holds no {KERNELS}")
    return dirs


def time_kernels(path: str) -> dict:
    """Milliseconds per call of each case for the _kernels.py at path."""
    import numpy as np

    spec = importlib.util.spec_from_file_location("kernels_under_test", path)
    K = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(K)
    rng = np.random.default_rng(0)
    H, D = HIDDEN, CHANNELS
    wx = rng.normal(scale=0.5, size=(4 * H, D))
    wh = rng.normal(scale=H**-0.5, size=(4 * H, H))
    b, w_out, b_out = rng.normal(scale=0.1, size=4 * H), rng.normal(size=(D, H)), np.zeros(D)
    cpu_count = K._cpu_count
    out = {}
    for name, batch, calls, workers in CASES:
        x = rng.normal(size=(LOOKBACK, batch, D))
        dy = rng.normal(size=(batch, D))
        K._cpu_count = cpu_count if workers is None else (lambda: workers)

        def call():
            if name.startswith("train"):
                _, acts = K.lstm_forward(wx, wh, b, w_out, b_out, x)
                K.lstm_backward(wx, wh, w_out, x, acts, dy)
            else:
                K.lstm_predict(wx, wh, b, w_out, b_out, x)

        call()
        times = []
        for _ in range(calls):
            t = time.perf_counter()
            call()
            times.append(time.perf_counter() - t)
        out[name] = 1e3 * statistics.median(times)
    return out


def parse_timings(stdout: str) -> dict:
    """One process's timings: its last non-blank stdout line, a JSON object
    with a number of milliseconds for every case."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("the timing process printed nothing")
    timings = json.loads(lines[-1])
    missing = [name for name, *_ in CASES if not isinstance(timings.get(name), (int, float))]
    if missing:
        raise ValueError(f"the last line lacks {', '.join(missing)}: {lines[-1][:200]}")
    return timings


def run_once(checkout: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).absolute()), "--time", str(checkout / KERNELS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_timings(proc.stdout)


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[dict], change: list[dict]) -> list[dict]:
    """Per case, on paired timings (parent[k] and change[k] are pair k):
    each side's median and quartiles, the change's wins and the relative
    gap of the medians, positive where the change is slower."""
    rows = []
    for name, *_ in CASES:
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        rows.append({"name": name, "parent_median": ma, "parent_quartiles": _quartiles(a),
                     "change_median": mb, "change_quartiles": _quartiles(b),
                     "wins": sum(y < x for x, y in zip(a, b)), "pairs": len(a), "gap": (mb - ma) / ma})
    return rows


def report(parent: list[dict], change: list[dict]) -> str:
    out = []
    for row in summarize(parent, change):
        (a1, a3), (b1, b3) = row["parent_quartiles"], row["change_quartiles"]
        out.append(
            f"{row['name']} [ms]: parent {row['parent_median']:.4g} ({a1:.4g}-{a3:.4g}), "
            f"change {row['change_median']:.4g} ({b1:.4g}-{b3:.4g}), "
            f"{-row['gap']:+.1%} better, wins {row['wins']}/{row['pairs']}"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.time is not None:
        print(json.dumps(time_kernels(args.time)))
        return 0
    try:
        dirs = check_dirs(args.parent, args.change)
    except ValueError as exc:
        print(f"kernel_ab: {exc}", file=sys.stderr)
        return 2
    results = ([], [])
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for side in order:
            results[side].append(run_once(dirs[side]))
        cells = [f"{name} {results[0][-1][name]:.4g} / {results[1][-1][name]:.4g}" for name, *_ in CASES]
        first = "parent" if order[0] == 0 else "change"
        print(f"pair {k + 1} ({first} first), parent / change [ms]: " + ", ".join(cells), flush=True)
    print(report(*results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
