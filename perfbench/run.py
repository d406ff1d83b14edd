"""deckmotion benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload {train-ref,pipeline-sea5,stream-land}
        [--seed 42] [--seconds 30] [--trace 0|1] [--smoke]

Run it from a checkout of the repository: it imports deckmotion from the
checkout's src/ and writes scratch files under .bench_run/, which it removes
at exit. With --trace 0 the last stdout line carries the end-to-end metrics
of BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from a
run that alternates untraced and traced blocks, half of --seconds each.
--smoke shrinks every workload to a tiny size; the checks stay the same.
The lines before the last give the environment fingerprint and the raw
times and headline metrics that perfbench/NOTES.md describes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import BENCH_SPANS, COUNTERS, LAYERS, SETUP_LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRACE_BLOCKS = 10
REF_SHARE = 0.1  # share of measured time given to the reference (reference.py)
DEFAULT_SEED = 42


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train-ref", "pipeline-sea5", "stream-land"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (default 42, the reference)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    return p.parse_args(argv)


def import_program():
    """Import deckmotion from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "deckmotion" / "__init__.py").is_file():
        raise SystemExit(f"run.py: {src} holds no deckmotion package; run from a full checkout")
    sys.path.insert(0, str(src))
    import deckmotion

    if Path(deckmotion.__file__).resolve().parent != src / "deckmotion":
        raise SystemExit(f"run.py: imported deckmotion from {deckmotion.__file__}, not {src}")


@functools.cache
def _blas_get_threads():
    """The loaded OpenBLAS's own thread-count getter, or None. Call it only
    once numpy has loaded."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn
    return None


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    fn = _blas_get_threads()
    return fn() if fn is not None else None


def _cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def steal_ticks() -> int:
    """CPU-steal ticks of the whole machine so far (read-only)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def fingerprint() -> dict:
    import numpy as np
    from deckmotion import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


class Phase:
    """One stretch of measured operations: per-op wall times, the reference
    times taken in between, and process CPU time, wall time and machine
    steal ticks for the whole stretch.

    It also notes whether BLAS ever ran with another thread count than the
    one pinned at start. The program sharing the reference's BLAS, such a
    change would move the reference along with the operations, and the
    ratios would hide it; a run that sees one fails."""

    def __init__(self, blas_pinned):
        self.blas_pinned = blas_pinned
        self.blas_changed = False
        self.times = []
        self.ref_at = []  # per op: how many reference runs came before it
        self.ref_times = []
        self.op_s = self.ref_s = 0.0
        self.wall = self.cpu = 0.0
        self.steal = 0

    def mean_ms(self):
        return statistics.fmean(self.times) * 1e3

    def ref_ms(self):
        return statistics.fmean(self.ref_times) * 1e3

    def ratios(self):
        """Each operation's time over the mean of the reference runs just
        before and just after it: the host's speed around the operation."""
        return [t / statistics.fmean(self.ref_times[max(0, k - 1) : k + 1])
                for t, k in zip(self.times, self.ref_at)]

    def mean_rel(self):
        return statistics.fmean(self.ratios())

    def check_blas(self):
        if blas_threads() != self.blas_pinned:
            self.blas_changed = True


def measure(wl, ref, until_s, kept, phase, tracer=None) -> None:
    """Run operations (at least one) and add them to phase, until the phase
    has measured until_s seconds in all, so that a stretch that overruns
    shortens the next. Between operations, run the reference until it has
    had REF_SHARE of the time the operations took."""
    span = tracer.span if tracer is not None else (lambda _name, fn, *args: fn(*args))
    clock = time.perf_counter
    phase.check_blas()
    steal0, cpu0, start = steal_ticks(), time.process_time(), clock()
    while True:
        t0 = clock()
        result = span("bench.op", wl.op)
        t1 = clock()
        phase.times.append(t1 - t0)
        phase.ref_at.append(len(phase.ref_times))
        phase.op_s += t1 - t0
        kept.append(span("bench.check", wl.finish, result))
        while phase.ref_s < REF_SHARE * phase.op_s:
            dt = span("bench.reference", ref.timed)
            phase.ref_times.append(dt)
            phase.ref_s += dt
        if phase.wall + clock() - start >= until_s:
            break
    phase.wall += clock() - start
    phase.cpu += time.process_time() - cpu0
    phase.steal += steal_ticks() - steal0
    phase.check_blas()


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def tail(values) -> float:
    """The 99th percentile, or, in a run of fewer than 1000 operations, the
    highest percentile with at least ten operations beyond it (the median at
    least): a percentile with fewer behind it is one or two outliers. A run
    of 20 or fewer operations, as on train-ref and pipeline-sea5, has no
    tail: there this is the median."""
    q = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return percentile(values, q)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, ops) -> dict:
    """Calls and self seconds per operation for every layer."""
    out = {}
    for layer, suffix in LAYERS.items():
        out[f"{layer}.calls"] = tracer.calls[layer] / ops
        out[f"{layer}.{suffix}"] = tracer.self_s[layer] / ops
    return out


def setup_metrics(tracer) -> dict:
    """Self seconds of one traced set-up for the layers set-ups call."""
    out = {f"setup.{layer}.{LAYERS[layer]}": tracer.self_s[layer] for layer in SETUP_LAYERS}
    # What no layer claims: windowing, splitting and the benchmark's own code.
    out["setup.unattributed_s"] = tracer.self_s["bench.setup"]
    return out


def setup_sample(cls, size, seed, workdir, digests):
    """Time back-to-back set-ups until size.setup_sample_s has passed, adding
    each one's model digest to digests; returns the last workload built and
    the mean seconds of one set-up."""
    count, t0 = 0, time.perf_counter()
    while True:
        wl = cls(size, seed, str(workdir))
        count += 1
        digests.append(wl.model_digest)
        elapsed = time.perf_counter() - t0
        if elapsed >= size.setup_sample_s:
            return wl, elapsed / count


def run(args, blas_pinned) -> dict:
    import workloads
    from reference import Reference

    size = workloads.SMOKE if args.smoke else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    metrics = {}
    try:
        digests = []
        wl, first = setup_sample(cls, size, args.seed, workdir, digests)
        setup_times = [first]
        if tracer is not None:
            with tracer:  # one more set-up, traced
                wl = tracer.span("bench.setup", cls, size, args.seed, str(workdir))
            digests.append(wl.model_digest)
            metrics.update(setup_metrics(tracer))
            tracer.reset()

        kept = []
        for _ in range(wl.warmup_ops):
            kept.append(wl.finish(wl.op()))
        ref = Reference(wl.ref_batch, size.lookback, size.hidden, wl.ref_backward)
        ref.run()  # warm
        phase = plain = Phase(blas_pinned)
        if tracer is None:
            # The other set-up samples are spread over the run, between
            # stretches of operations, so that setup_s sees the host's fast
            # and slow phases as the operations do.
            for i in range(1, cls.setup_samples):
                measure(wl, ref, args.seconds * i / (cls.setup_samples - 1), kept, phase)
                setup_times.append(setup_sample(cls, size, args.seed, workdir, digests)[1])
        else:
            # Alternate short untraced and traced blocks, so that both see the
            # host's fast and slow phases alike.
            plain = Phase(blas_pinned)
            block_s = args.seconds / (2 * TRACE_BLOCKS)
            for i in range(1, TRACE_BLOCKS + 1):
                measure(wl, ref, block_s * i, kept, plain)
                with tracer:
                    measure(wl, ref, block_s * i, kept, phase, tracer)
        failed, intervals = wl.failures(kept)
        # A set-up that trains a model counts as an operation: every one must
        # write the same model bytes.
        models = [d for d in digests if d is not None]
        failed += sum(d != models[0] for d in models)
        attempted = len(kept) + len(models)
        if phase.blas_changed or plain.blas_changed:
            failed = attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    ops = len(phase.times)
    report = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "trace": args.trace,
        "unit": cls.unit, "ops": ops, "wall_s": phase.wall, "cpu_s": phase.cpu,
        "steal_ticks": phase.steal, "failed_frac": failed / attempted,
        "landing_intervals": intervals, "op_mean_ms": phase.mean_ms(),
        "op_tail_ms": tail(phase.times) * 1e3, "ref_ms": phase.ref_ms(), "ref_runs": len(phase.ref_times),
        "blas_threads_changed": phase.blas_changed or plain.blas_changed,
        "setup_samples_s": setup_times,
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_mean_ref": phase.mean_rel(),
            "op_tail_ref": tail(phase.ratios()),
            "peak_rss_mb": peak_rss_mb(),
        }
        report.update(named_metrics(args.workload, wl, phase))
    else:
        metrics.update(layer_metrics(tracer, ops))
        metrics["trace.unattributed_s"] = (phase.wall - tracer.top_s) / ops
        for name in BENCH_SPANS:
            metrics[f"{name}.self_s"] = tracer.self_s[name] / ops
        for name in COUNTERS:
            metrics[name] = tracer.counts[name] / ops
        metrics["restperiod.intervals"] = intervals
        metrics["trace.overhead_pct"] = 100.0 * (phase.mean_rel() / plain.mean_rel() - 1.0)
        report["untraced_op_mean_ref"] = plain.mean_rel()
        report["traced_op_mean_ref"] = phase.mean_rel()
    return {"report": report, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def named_metrics(workload, wl, phase) -> dict:
    """The workload's headline metrics under the names perfbench/NOTES.md gives."""
    n = len(phase.times)
    if workload == "train-ref":
        return {"train_windows_per_s": wl.windows_per_op / (phase.mean_ms() / 1e3),
                "train_calls": n, "windows_per_call": wl.windows_per_op}
    if workload == "pipeline-sea5":
        return {"pipeline_pass_s": statistics.median(phase.times), "passes": n}
    return {"stream_step_p50_ms": statistics.median(phase.times) * 1e3,
            "stream_step_p99_ms": percentile(phase.times, 99) * 1e3, "steps": n}


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in doc[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS before numpy loads, as tests/conftest.py does; an explicit
    # setting in the environment wins and is recorded in the fingerprint.
    # numpy loads before deckmotion, so the count read here is the pinned one.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    import numpy  # noqa: F401

    blas_pinned = blas_threads()
    import_program()
    print(json.dumps({"fingerprint": fingerprint()}), flush=True)
    result = run(args, blas_pinned)
    report = result.pop("report")
    print(json.dumps({"run": report}), flush=True)
    units = declared_units()
    undeclared = sorted(set(result["metrics"]) - set(units))
    if undeclared:
        raise SystemExit(f"run.py: metrics not declared in BENCHMARK.json: {undeclared}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
