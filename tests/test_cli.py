"""CLI pipelines: flags, file formats, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deckmotion import cli
from deckmotion import seriesdata as sd
from deckmotion import training as tr
from deckmotion import wavegen as wg
from deckmotion.lstm import LstmConfig, LstmParams


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_simulate_knox_row_count(tmp_path):
    out = tmp_path / "series.csv"
    assert run("simulate", "--model", "knox", "--n", 2000, "--dt", 0.1, "--out", out, "--quiet") == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2001
    assert lines[0] == "t,heave,pitch,roll"


def test_simulate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("simulate", "--model", "random", "--seed", 7, "--n", 200, "--out", out, "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_random_model_respects_ranges(tmp_path):
    out = tmp_path / "series.csv"
    model_path = tmp_path / "wave.json"
    assert (
        run(
            "simulate", "--model", "random", "--seed", 7, "--n", 50,
            "--out", out, "--save-model", model_path, "--quiet",
        )
        == 0
    )
    model = wg.load_wave_model(model_path)
    spec = wg.sea_state5_spec()
    for name in wg.CHANNELS:
        ch = getattr(spec, name)
        comps = model.channel(name)
        assert ch.amplitude_sum_range[0] < sum(c.amplitude for c in comps) < ch.amplitude_sum_range[1]
        assert all(ch.period_range[0] < c.period < ch.period_range[1] for c in comps)


def test_simulate_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(wg.sea_state_spec_to_dict(wg.sea_state5_spec())))
    out = tmp_path / "series.csv"
    assert run("simulate", "--model", "random", "--spec-file", spec_path,
               "--seed", 3, "--n", 50, "--out", out, "--quiet") == 0
    assert out.exists()


def test_simulate_reads_wave_model_file(tmp_path):
    model_path = tmp_path / "wave.json"
    model_path.write_text(wg.json_text(wg.wave_model_to_dict(wg.sea_state5_reference_model())))
    out_file = tmp_path / "from_file.csv"
    out_builtin = tmp_path / "builtin.csv"
    assert run("simulate", "--model-file", model_path, "--n", 100, "--out", out_file, "--quiet") == 0
    assert run("simulate", "--model", "seastate5", "--n", 100, "--out", out_builtin, "--quiet") == 0
    assert out_file.read_bytes() == out_builtin.read_bytes()


def test_every_flag_documented():
    parser = cli.build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, sub in subactions.choices.items():
        for action in sub._actions:
            assert action.help, f"{name}: flag {action.option_strings} lacks help text"


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--model", "nonsense", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_missing_input_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    series = tmp_path / "series.csv"
    assert run("simulate", "--n", 50, "--out", series, "--quiet") == 0
    commands = [
        ("series", ["train", "--data", missing, "--out", tmp_path / "m.json"]),
        ("series", ["plot", "--data", missing, "--out", tmp_path / "p.svg"]),
        ("model", ["predict", "--model", missing, "--data", series, "--out", tmp_path / "p.csv"]),
        ("wave model", ["simulate", "--model-file", missing, "--out", tmp_path / "s.csv"]),
        ("spec", ["simulate", "--model", "random", "--spec-file", missing, "--out", tmp_path / "s.csv"]),
    ]
    for what, argv in commands:
        assert run(*argv, "--quiet") == 1
        assert f"cannot read {what} {missing}" in capsys.readouterr().err


def test_bad_seed_exits_1(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    train = ["train", "--data", series, "--lookback", "20", "--hidden", "4", "--epochs", "1",
             "--out", tmp_path / "m.json", "--quiet"]
    assert run(*train, "--seed", "-3") == 1
    # a split outside (0, 1) is refused before the normalizer is fitted on it
    for split in ("inf", "1e308", "1.5", "nan", "1", "0"):
        assert run(*train, f"--split={split}") == 1
        assert "train_fraction must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small but complete simulate -> train pipeline shared by CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    series = root / "series.csv"
    model = root / "model.json"
    report = root / "report.json"
    assert cli.main([
        "simulate", "--model", "knox", "--n", "400", "--dt", "0.25",
        "--out", str(series), "--quiet",
    ]) == 0
    assert cli.main([
        "train", "--data", str(series), "--lookback", "20", "--hidden", "8",
        "--epochs", "3", "--batch", "16", "--seed", "5",
        "--out", str(model), "--report", str(report), "--quiet",
    ]) == 0
    return root, series, model, report


def test_train_outputs(pipeline):
    root, series, model, report = pipeline
    doc = json.loads(model.read_text())
    assert doc["format_version"] == 1
    assert doc["config"]["hidden_dim"] == 8
    assert "seed=5" in doc["provenance"]
    rep = json.loads(report.read_text())
    assert len(rep["epoch_losses"]) == 3
    assert "wall_time_seconds" not in rep  # timing would break reproducibility


def test_predict_output(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", model, "--data", series, "--out", out, "--quiet") == 0
    predicted = sd.load_series_csv(out)
    assert len(predicted) == 400 - 20
    assert predicted.t0 == pytest.approx(20 * 0.25)


def test_evaluate_outputs(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out_csv = tmp_path / "errors.csv"
    out_json = tmp_path / "summary.json"
    svg_dir = tmp_path / "plots"
    assert run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", out_csv, "--out-json", out_json, "--svg", svg_dir, "--quiet",
    ) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,channel,truth,prediction,abs_error"
    assert len(lines) == 1 + 3 * (400 - 20)
    summary = json.loads(out_json.read_text())
    assert summary["count"] == 380
    assert (svg_dir / "predictions.svg").exists()
    assert (svg_dir / "errors.svg").exists()


def test_evaluate_start_index(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out_csv = tmp_path / "errors.csv"
    out_json = tmp_path / "summary.json"
    assert run(
        "evaluate", "--model", model, "--data", series, "--start-index", 300,
        "--out-csv", out_csv, "--out-json", out_json, "--quiet",
    ) == 0
    assert json.loads(out_json.read_text())["count"] == 100


def test_rest_outputs(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out = tmp_path / "intervals.csv"
    out_json = tmp_path / "intervals.json"
    assert run(
        "rest", "--model", model, "--data", series,
        "--pitch-max", 0.5, "--roll-max", 3.0, "--min-duration", 1.0,
        "--out", out, "--out-json", out_json, "--quiet",
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "start_t,end_t,duration"
    docs = json.loads(out_json.read_text())
    assert len(docs) == len(lines) - 1
    for doc in docs:
        assert doc["duration"] >= 1.0


def test_plot_output(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out = tmp_path / "motion.svg"
    assert run("plot", "--data", series, "--out", out, "--quiet") == 0
    text = out.read_text()
    assert text.startswith("<svg ") and text.count("<polyline") == 3


def test_evaluate_zero_error_on_memorizable_series(tmp_path):
    """A constant series is perfectly predictable by a zero network whose
    normalizer offset stores the constant: the memorizing test double."""
    samples = np.tile([[0.7, -0.2, 1.1]], (60, 1))
    series_path = tmp_path / "const.csv"
    series_path.write_text(sd.series_to_csv(sd.MotionSeries(dt=0.5, samples=samples)))

    H = 4
    artifact = tr.ModelArtifact(
        config=LstmConfig(hidden_dim=H, lookback=10),
        params=LstmParams(
            wx=np.zeros((4 * H, 3)), wh=np.zeros((4 * H, H)), b=np.zeros(4 * H),
            w_out=np.zeros((3, H)), b_out=np.zeros(3),
        ),
        normalizer=sd.Normalizer(offset=np.array([0.7, -0.2, 1.1]), scale=np.ones(3)),
    )
    model_path = tmp_path / "oracle.json"
    tr.save_model(artifact, model_path)

    out_csv = tmp_path / "errors.csv"
    out_json = tmp_path / "summary.json"
    assert run(
        "evaluate", "--model", model_path, "--data", series_path,
        "--out-csv", out_csv, "--out-json", out_json, "--quiet",
    ) == 0
    summary = json.loads(out_json.read_text())
    for name in wg.CHANNELS:
        assert summary[name]["mae"] == 0.0
        assert summary[name]["max_error"] == 0.0


def test_renormalize_flag(pipeline, tmp_path):
    root, series, model, _ = pipeline
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("evaluate", "--model", model, "--data", series,
               "--out-csv", tmp_path / "a.csv", "--out-json", a, "--quiet") == 0
    assert run("evaluate", "--model", model, "--data", series, "--renormalize",
               "--out-csv", tmp_path / "b.csv", "--out-json", b, "--quiet") == 0
    # statistics differ (whole series vs training segment), so must the errors
    assert json.loads(a.read_text()) != json.loads(b.read_text())


def test_divergence_exits_3(tmp_path):
    rng = np.random.default_rng(0)
    series_path = tmp_path / "series.csv"
    series_path.write_text(sd.series_to_csv(sd.MotionSeries(dt=0.1, samples=rng.normal(size=(80, 3)))))
    code = run(
        "train", "--data", series_path, "--lookback", "10", "--hidden", "4",
        "--epochs", "60", "--batch", "16", "--lr", "1e12", "--optimizer", "sgd",
        "--out", tmp_path / "m.json", "--quiet",
    )
    assert code == 3
    assert not (tmp_path / "m.json").exists()


def test_nonfinite_sample_exits_1(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    lines = series.read_text().splitlines()
    t, heave, pitch, _ = lines[151].split(",")
    lines[151] = f"{t},{heave},{pitch},nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    commands = [
        ["train", "--data", bad, "--lookback", "20", "--hidden", "4", "--epochs", "1",
         "--out", out / "m.json", "--report", out / "r.json"],
        ["evaluate", "--model", model, "--data", bad,
         "--out-csv", out / "e.csv", "--out-json", out / "s.json"],
        ["rest", "--model", model, "--data", bad, "--pitch-max", "0.5", "--roll-max", "3.0",
         "--out", out / "i.csv", "--out-json", out / "i.json"],
    ]
    for argv in commands:
        assert run(*argv, "--quiet") == 1
        assert "sample 150" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_forecast_exits_1(pipeline, tmp_path):
    root, series, model, _ = pipeline
    # finite samples whose running RMS overflows float64
    samples = sd.sample_series(wg.sea_state5_reference_model(), 200, 0.25).samples.copy()
    samples[:, 2] *= 1e307
    huge = tmp_path / "huge.csv"
    huge.write_text(sd.series_to_csv(sd.MotionSeries(dt=0.25, samples=samples)))
    out_json = tmp_path / "summary.json"
    code = run(
        "evaluate", "--model", model, "--data", huge,
        "--out-csv", tmp_path / "errors.csv", "--out-json", out_json, "--quiet",
    )
    assert code == 1
    assert not out_json.exists()
    with pytest.raises(ValueError):
        wg.json_text({"mae": float("inf")})


def test_time_column_beyond_float64_range(tmp_path, capsys):
    # uniformly spaced, but the span (n-1)*dt exceeds float64 at 1.7e308;
    # at half that it loads (tier-1 turns any numpy RuntimeWarning into a failure)
    for bound, code in ((1.7e308, 1), (8.5e307, 0)):
        data = tmp_path / "times.csv"
        data.write_text(f"t,heave,pitch,roll\n{-bound!r},0,0,0\n0,1,1,1\n{bound!r},0,0,0\n")
        assert run("plot", "--data", data, "--out", tmp_path / "p.svg", "--quiet") == code
    assert "sample times t0 + k*dt overflow float64" in capsys.readouterr().err


def test_memory_error_exits_1(tmp_path, monkeypatch, capsys):
    # a real 10**12-sample request is not allocated here: whether that fails
    # at once depends on the host's overcommit mode
    def out_of_memory(model, n, dt):
        raise MemoryError(f"Unable to allocate 7.28 TiB for {n} samples")

    monkeypatch.setattr(sd, "sample_series", out_of_memory)
    out = tmp_path / "series.csv"
    assert run("simulate", "--n", 10**12, "--out", out, "--quiet") == 1
    assert "deckmotion: error: not enough memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_failed_command_removes_partial_outputs(pipeline, tmp_path):
    root, series, model, _ = pipeline
    out_csv = tmp_path / "errors.csv"
    blocked = tmp_path / "blocked.json"
    blocked.mkdir()  # writing to a directory path fails after the CSV is written
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", out_csv, "--out-json", blocked, "--quiet",
    )
    assert code == 1
    assert not out_csv.exists()


def test_predict_with_default_blas_threads(pipeline, tmp_path):
    # a wide forecast runs its blocks on Python threads; with the BLAS
    # thread count left to OpenBLAS, those threads call a multi-threaded
    # BLAS, which must neither hang nor change a byte of the output
    root, series, model, _ = pipeline
    sea5 = tmp_path / "sea5.csv"
    pinned = tmp_path / "pinned.csv"
    free = tmp_path / "free.csv"
    assert run("simulate", "--model", "seastate5", "--n", 2000, "--dt", 0.1, "--out", sea5, "--quiet") == 0
    assert run("predict", "--model", model, "--data", sea5, "--out", pinned, "--quiet") == 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    argv = ["predict", "--model", model, "--data", sea5, "--out", free, "--quiet"]
    subprocess.run([sys.executable, "-m", "deckmotion.cli", *map(str, argv)],
                   env=env, check=True, timeout=120)
    assert free.read_bytes() == pinned.read_bytes()


def test_pipeline_reproducible(tmp_path, monkeypatch):
    """simulate -> train -> predict -> evaluate -> rest: the same flags run
    twice (in separate directories) must produce byte-identical files."""

    def run_pipeline(root):
        root.mkdir()
        monkeypatch.chdir(root)
        args = [
            ["simulate", "--model", "knox", "--n", "300", "--dt", "0.25", "--out", "series.csv"],
            ["train", "--data", "series.csv", "--lookback", "15", "--hidden", "8",
             "--epochs", "2", "--batch", "16", "--seed", "9",
             "--out", "model.json", "--report", "report.json"],
            ["predict", "--model", "model.json", "--data", "series.csv", "--out", "pred.csv"],
            ["evaluate", "--model", "model.json", "--data", "series.csv",
             "--out-csv", "errors.csv", "--out-json", "summary.json", "--svg", "plots"],
            ["rest", "--model", "model.json", "--data", "series.csv",
             "--pitch-max", "0.5", "--roll-max", "3.0",
             "--out", "intervals.csv", "--out-json", "intervals.json"],
        ]
        for argv in args:
            assert cli.main(argv + ["--quiet"]) == 0

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    names = [
        "series.csv", "model.json", "report.json", "pred.csv",
        "errors.csv", "summary.json", "intervals.csv", "intervals.json",
        "plots/predictions.svg", "plots/errors.svg",
    ]
    for name in names:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# every float flag gets values a run would use, any float, and the ones
# float() lets through that no sane run uses
ODD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
FLOATS = st.floats(0.0, 1.0) | st.floats() | ODD_FLOATS


def _flags(**values):
    # --flag=value, so that argparse does not take "-1e+308" for a flag
    return st.fixed_dictionaries(values).map(
        lambda drawn: [f"--{name.replace('_', '-')}={v!r}" for name, v in drawn.items()]
    )


COMMANDS = st.one_of(
    st.tuples(st.just("simulate"), _flags(n=st.integers(-2, 40) | ODD_FLOATS, dt=FLOATS)),
    st.tuples(st.just("train"), _flags(split=FLOATS, lr=FLOATS)),
    st.tuples(
        st.just("rest"),
        _flags(pitch_max=FLOATS, roll_max=FLOATS, min_duration=FLOATS, heave_rate_max=FLOATS),
    ),
)


@settings(database=None, deadline=None, max_examples=200)
@given(COMMANDS)
@example(("train", ["--split=inf", "--lr=0.001"]))
@example(("train", ["--split=0.07", "--lr=1e+308"]))  # one batch, then a diverged test loss
@example(("simulate", ["--n=3", "--dt=1e+308"]))
def test_numeric_flags_give_an_exit_code(pipeline, command):
    """Any float on a numeric flag ends in a documented exit code: no
    traceback and no numpy RuntimeWarning."""
    root, series, model, _ = pipeline
    name, flags = command
    out = root / "drawn"
    fixed = {
        "simulate": ["--out", out / "s.csv"],
        "train": ["--data", series, "--lookback", "20", "--hidden", "4", "--epochs", "1",
                  "--out", out / "m.json", "--report", out / "r.json"],
        "rest": ["--model", model, "--data", series, "--out", out / "i.csv",
                 "--out-json", out / "i.json"],
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = run(name, *fixed, *flags, "--quiet")
        except SystemExit as exc:  # argparse rejects a non-integer --n
            code = exc.code
    # only training can diverge
    assert code in ((0, 1, 2, 3) if name == "train" else (0, 1, 2))
