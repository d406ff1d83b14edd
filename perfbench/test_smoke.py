"""Smoke tests of the benchmark itself: every workload at tiny size, with the
same output checks as a full run.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-ref", "pipeline-sea5", "stream-land")


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind) -> set:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload, seed):
    result = result_of(run_bench("--workload", workload, "--seed", str(seed),
                                 "--seconds", "0.3", "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    result = result_of(run_bench("--workload", workload, "--seconds", "0.3", "--trace", "1", "--smoke"))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == declared("per_layer")
    # The kernels run on every workload, in set-up when not in the loop.
    assert metrics["setup.kernels.predict.s"]["value"] + metrics["kernels.predict.s"]["value"] > 0
    assert metrics["kernels.gemm_flop"]["value"] > 0


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from deckmotion import lstm, training
        from tracer import Tracer

        before = (lstm.lstm_forward, training.loss_and_gradients, lstm.predict_windows)
        with Tracer():
            assert lstm.lstm_forward is not before[0]
            assert training.loss_and_gradients is not before[1]
        assert (lstm.lstm_forward, training.loss_and_gradients, lstm.predict_windows) == before
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train-ref", "--seconds", "0.3", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_phase_notices_a_changed_blas_thread_count():
    sys.path.insert(0, str(HERE))
    try:
        import numpy  # noqa: F401  (loads OpenBLAS)
        import run

        pinned = run.blas_threads()
        if pinned is None:
            pytest.skip("numpy is not built on OpenBLAS")
        same, other = run.Phase(pinned), run.Phase(pinned + 1)
        same.check_blas()
        other.check_blas()
        assert not same.blas_changed and other.blas_changed
    finally:
        sys.path.remove(str(HERE))
