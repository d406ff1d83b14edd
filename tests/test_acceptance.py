"""Acceptance gate: every shipped criterion as one executable test.

Each test prints a single PASS/FAIL line with its runtime (run with -s or
-rA to see them all). The long-running criterion is the 200-epoch training
run, shared by the convergence and generalization checks via a module
fixture.
"""

import json
import time

import numpy as np
import pytest

from deckmotion import cli
from deckmotion import evaluate as ev
from deckmotion import lstm as L
from deckmotion import restperiod as rp
from deckmotion import seriesdata as sd
from deckmotion import training as tr
from deckmotion import wavegen as wg
from oracles import random_criteria, random_series, scan_oracle

SEED = 42

# Built-in model coefficients, transcribed by hand; criterion 2 string-compares
# the constructed models against this table.
TRAINING_MODEL_TABLE = {
    "heave": (("0.2172", "0.4"), ("0.4714", "0.5"), ("0.3592", "0.6"), ("0.2227", "0.7")),
    "pitch": (("0.005", "0.46"), ("0.00946", "0.58"), ("0.00725", "0.7"), ("0.00845", "0.82")),
    "roll": (("0.021", "0.46"), ("0.0431", "0.54"), ("0.029", "0.62"), ("0.022", "0.67")),
}
VALIDATION_MODEL_TABLE = {
    "heave": (("0.25", "0.785"), ("0.35", "0.9"), ("0.45", "1.1"), ("0.5", "1.256")),
    "pitch": (("0.35", "0.8"), ("0.45", "0.85"), ("0.55", "0.95"), ("0.625", "1.156")),
    "roll": (("2.6", "0.483"), ("1.8", "0.5"), ("2.5", "0.6"), ("3", "0.785")),
}


def verdict(num, name, ok, runtime, limit, detail=""):
    status = "PASS" if (ok and runtime < limit) else "FAIL"
    extra = f"; {detail}" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status} ({runtime:.2f}s < {limit}s{extra})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"
    assert runtime < limit, f"criterion {num} ({name}): runtime {runtime:.2f}s exceeds {limit}s"


@pytest.fixture(scope="module")
def trained():
    """The reference training run: 2000-point knox series at dt 0.1, lookback
    40, 0.7 split, hidden 64, adam 1e-3, 200 epochs, fixed seed."""
    t0 = time.perf_counter()
    model = wg.knox_training_model()
    series = sd.sample_series(model, 2000, 0.1)
    normalizer = sd.fit_normalizer(series, 1400)
    windows = sd.make_windows(sd.apply_normalizer(normalizer, series), 40)
    split = sd.split_series(windows, 0.7, 2000)
    config = tr.TrainConfig(
        epochs=200,
        batch_size=32,
        learning_rate=1e-3,
        shuffle_seed=SEED,
        hidden_dim=64,
        lookback=40,
    )
    artifact, report = tr.train(split, config, seed=SEED, normalizer=normalizer)
    seconds = time.perf_counter() - t0
    return {
        "model": model,
        "series": series,
        "split": split,
        "artifact": artifact,
        "report": report,
        "seconds": seconds,
    }


def test_criterion_1_protocol_exactness():
    t0 = time.perf_counter()
    series = sd.sample_series(wg.knox_training_model(), 2000, 0.1)
    windows = sd.make_windows(series, 40)
    split = sd.split_series(windows, 0.7, 2000)
    ok = (
        len(windows) == 1960
        and split.boundary_index == 1400
        and len(split.train) == 1360
        and len(split.test) == 600
        and int(split.test.target_indices.min()) == 1400
    )
    verdict(
        1, "protocol-exactness", ok, time.perf_counter() - t0, 1.0,
        f"windows={len(windows)} train={len(split.train)} test={len(split.test)}",
    )


def test_criterion_2_model_fidelity():
    t0 = time.perf_counter()
    ok = True
    for model, table in (
        (wg.knox_training_model(), TRAINING_MODEL_TABLE),
        (wg.sea_state5_reference_model(), VALIDATION_MODEL_TABLE),
    ):
        for name, rows in table.items():
            comps = model.channel(name)
            ok = ok and len(comps) == len(rows)
            for comp, (amp_s, omega_s) in zip(comps, rows):
                ok = ok and repr(comp.amplitude) == repr(float(amp_s))
                ok = ok and repr(comp.omega) == repr(float(omega_s))
                ok = ok and comp.phase == 0.0
    verdict(2, "model-fidelity", ok, time.perf_counter() - t0, 1.0)


def test_criterion_3_gradient_correctness():
    # Targets sit near the network's own predictions so residuals are small:
    # strongly attenuated paths then carry gradients below the 1e-8 floor,
    # while every entry above it stays within central-difference resolution
    # (roundoff ~1e-16/step). A wrong gradient would still fail at any scale.
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    step, floor = 1e-5, 1e-8
    for _ in range(20):
        hidden = int(rng.integers(1, 9))
        lookback = int(rng.integers(1, 11))
        batch = int(rng.integers(1, 3))
        params = L.init_params(L.LstmConfig(hidden_dim=hidden, lookback=lookback), int(rng.integers(1 << 31)))
        windows = rng.normal(size=(batch, lookback, 3))
        targets = L.predict_windows(params, windows) + 0.01 * rng.normal(size=(batch, 3))
        _, grads = L.loss_and_gradients(params, windows, targets)
        for arr, garr in zip(params.arrays(), grads):
            flat, gflat = arr.ravel(), np.asarray(garr).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up, _ = L.loss_and_gradients(params, windows, targets)
                flat[i] = orig - step
                dn, _ = L.loss_and_gradients(params, windows, targets)
                flat[i] = orig
                fd = (up - dn) / (2.0 * step)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), floor)
                worst = max(worst, rel)
    verdict(
        3, "gradient-correctness", worst < 1e-5, time.perf_counter() - t0, 30.0,
        f"worst relative error {worst:.3g}",
    )


def test_criterion_4_convergence(trained):
    # Reference run achieved amplitude-normalized test MAEs of about
    # (heave 0.011, pitch 0.015, roll 0.011) across seeds 42/7/123, far
    # inside the 0.05 gate, so the stated threshold stands unchanged.
    t0 = time.perf_counter()
    result = ev.predict_series(
        trained["artifact"], trained["series"], start_index=trained["split"].boundary_index
    )
    report = ev.error_report(result)
    sums = np.array(trained["model"].amplitude_sums())
    ratios = report.mae / sums
    elapsed = trained["seconds"] + (time.perf_counter() - t0)
    detail = "test MAE/amplitude-sum: " + ", ".join(
        f"{name}={ratios[k]:.4f}" for k, name in enumerate(wg.CHANNELS)
    )
    verdict(4, "convergence", bool(np.all(ratios < 0.05)), elapsed, 300.0, detail)


def test_criterion_5_generalization(trained):
    t0 = time.perf_counter()
    model = wg.sea_state5_reference_model()
    series = sd.sample_series(model, 2000, 0.1)
    result = ev.predict_series(trained["artifact"], series, start_index=40)
    report = ev.error_report(result)
    sums = np.array(model.amplitude_sums())
    ratios = report.mae / sums
    finite = bool(np.all(np.isfinite(result.predictions))) and len(result) == 1960
    order = [wg.CHANNELS[k] for k in np.argsort(ratios)]
    detail = (
        "MAE: "
        + ", ".join(f"{n}={report.mae[k]:.4f} (ratio {ratios[k]:.4f})" for k, n in enumerate(wg.CHANNELS))
        + f"; best-to-worst by ratio: {'>'.join(order)}"
    )
    ok = finite and ratios[2] <= 0.15
    verdict(5, "generalization", ok, time.perf_counter() - t0, 60.0, detail)


def test_criterion_6_generator_soundness():
    # the range checks re-derive sums and periods from raw fields rather
    # than going through library helpers
    t0 = time.perf_counter()
    spec = wg.sea_state5_spec()
    two_pi = 2.0 * np.pi
    violations = 0
    for seed in range(1000):
        model = wg.random_sea_state_model(spec, seed)
        for name in wg.CHANNELS:
            ch = getattr(spec, name)
            comps = model.channel(name)
            total = sum(c.amplitude for c in comps)
            if not ch.amplitude_sum_range[0] < total < ch.amplitude_sum_range[1]:
                violations += 1
            if not all(
                ch.period_range[0] < two_pi / c.omega < ch.period_range[1] for c in comps
            ):
                violations += 1
    verdict(
        6, "generator-soundness", violations == 0, time.perf_counter() - t0, 5.0,
        f"{violations} violations in 1000 seeds",
    )


def test_criterion_7_rest_period_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        series = random_series(rng, max_len=200)
        criteria = random_criteria(rng)
        got = rp.detect_rest_periods(series, criteria)
        want = scan_oracle(series.samples, series.dt, criteria)
        if got != want:
            mismatches += 1
    verdict(
        7, "rest-period-oracle-equivalence", mismatches == 0,
        time.perf_counter() - t0, 30.0, f"{mismatches} mismatches in 10000 series",
    )


def test_criterion_8_persistence_bitwise(tmp_path):
    t0 = time.perf_counter()
    series = sd.sample_series(wg.knox_training_model(), 200, 0.1)
    normalizer = sd.fit_normalizer(series, 140)
    windows = sd.make_windows(sd.apply_normalizer(normalizer, series), 10)
    split = sd.split_series(windows, 0.7, 200)
    config = tr.TrainConfig(epochs=2, batch_size=32, hidden_dim=8, lookback=10, shuffle_seed=1)
    artifact, _ = tr.train(split, config, seed=1, normalizer=normalizer)

    path = tmp_path / "model.json"
    tr.save_model(artifact, path)
    loaded = tr.load_model(path)
    rng = np.random.default_rng(0)
    test_windows = rng.normal(size=(100, 10, 3))
    before = L.predict_windows(artifact.params, test_windows)
    after = L.predict_windows(loaded.params, test_windows)
    ok = bool(np.array_equal(before, after))
    verdict(8, "persistence-bitwise", ok, time.perf_counter() - t0, 5.0)


def test_criterion_9_end_to_end_determinism(tmp_path, monkeypatch):
    """Full CLI pipeline twice with identical seeds; sizes are reduced so the
    runtime stays well inside the training criterion's budget."""
    t0 = time.perf_counter()

    def run_pipeline(root):
        root.mkdir()
        monkeypatch.chdir(root)
        commands = [
            ["simulate", "--model", "knox", "--n", "500", "--out", "series.csv"],
            ["train", "--data", "series.csv", "--hidden", "16", "--epochs", "8",
             "--batch", "32", "--seed", str(SEED),
             "--out", "model.json", "--report", "report.json"],
            ["evaluate", "--model", "model.json", "--data", "series.csv",
             "--out-csv", "errors.csv", "--out-json", "summary.json", "--svg", "plots"],
            ["rest", "--model", "model.json", "--data", "series.csv",
             "--pitch-max", "0.02", "--roll-max", "0.08",
             "--out", "intervals.csv", "--out-json", "intervals.json"],
        ]
        for argv in commands:
            assert cli.main(argv + ["--quiet"]) == 0

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    files = [
        "series.csv", "model.json", "report.json", "errors.csv", "summary.json",
        "intervals.csv", "intervals.json", "plots/predictions.svg", "plots/errors.svg",
    ]
    differing = [
        name
        for name in files
        if (tmp_path / "one" / name).read_bytes() != (tmp_path / "two" / name).read_bytes()
    ]
    verdict(
        9, "end-to-end-determinism", not differing, time.perf_counter() - t0, 300.0,
        f"differing files: {differing}" if differing else f"{len(files)} files byte-identical",
    )
