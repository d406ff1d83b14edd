"""CLI pipelines: flags, file formats, exit codes, reproducibility."""

import importlib
import json
import math
import os
import re
import shlex
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
from deckmotion.lstm import LstmConfig, LstmParams, init_params


def run(*argv):
    return cli.main([str(a) for a in argv])


def _csv(series):
    return sd.series_to_csv(series.times, series.samples)


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


def test_simulate_conflicting_model_flags(tmp_path, capsys):
    wave = tmp_path / "wave.json"
    wave.write_text(wg.json_text(wg.wave_model_to_dict(wg.knox_training_model())))
    out = tmp_path / "series.csv"
    # "knox" too: argparse does not see a flag whose value is its default
    for model in ("knox", "seastate5", "random"):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--model-file", wave, "--model", model, "--out", out, "--quiet")
        assert exc.value.code == 2
    for source in ([], ["--model", "knox"], ["--model", "seastate5"], ["--model-file", wave]):
        for flag in (["--spec-file", "nonexistent.json"], ["--random-phases"]):
            assert run("simulate", *source, *flag, "--out", out, "--quiet") == 1
            assert f"{flag[0]} applies only to --model random" in capsys.readouterr().err
    assert not out.exists()


def test_console_scripts_resolve():
    """Every [project.scripts] target names a callable, so a rename in the
    code cannot break the installed command unnoticed."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(cli.__file__).parents[2] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_flag_documented():
    parser = cli.build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, sub in subactions.choices.items():
        for action in sub._actions:
            assert action.help, f"{name}: flag {action.option_strings} lacks help text"


def test_cli_flag_census():
    """Every flag of every subcommand: a new knob is a deliberate edit here."""
    forecast = {"--quiet", "--model", "--data", "--start-index", "--renormalize"}
    expected = {
        "simulate": {"--quiet", "--model", "--model-file", "--spec-file", "--n", "--dt", "--seed",
                     "--out", "--save-model", "--random-phases"},
        "train": {"--quiet", "--data", "--lookback", "--split", "--hidden", "--epochs", "--batch",
                  "--lr", "--seed", "--out", "--report"},
        "predict": forecast | {"--out"},
        "evaluate": forecast | {"--out-csv", "--out-json", "--svg"},
        "rest": forecast | {"--pitch-max", "--roll-max", "--heave-rate-max", "--min-duration",
                            "--out", "--out-json"},
        "plot": {"--quiet", "--data", "--out"},
    }
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    found = {
        name: {flag for a in sub._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.items()
    }
    assert found == expected


def test_readme_commands_parse():
    """Every deckmotion command in the README's bash blocks parses, so a
    renamed or deleted flag cannot leave the README behind."""
    readme = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.DOTALL)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for line in lines if (argv := shlex.split(line, comments=True))[:1] == ["deckmotion"]]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--model", "nonsense", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
    # the time step comes from the CSV's t column, and the shuffle seed is --seed
    for argv in (["plot", "--data", "s.csv", "--out", "p.svg", "--dt", "0.1"],
                 ["train", "--data", "s.csv", "--out", "m.json", "--shuffle-seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


def test_missing_input_exits_1(tmp_path, capsys):
    """A missing or malformed input file of any kind exits 1 with one error
    line that names what the file is and its path, the path exactly once."""
    series = tmp_path / "series.csv"
    assert run("simulate", "--n", 50, "--out", series, "--quiet") == 0
    out = tmp_path / "out"
    commands = [
        ("series", lambda path: ["train", "--data", path, "--out", out / "m.json"]),
        ("series", lambda path: ["plot", "--data", path, "--out", out / "p.svg"]),
        ("model", lambda path: ["predict", "--model", path, "--data", series, "--out", out / "p.csv"]),
        ("wave model", lambda path: ["simulate", "--model-file", path, "--out", out / "s.csv"]),
        ("spec", lambda path: ["simulate", "--model", "random", "--spec-file", path, "--out", out / "s.csv"]),
    ]
    missing = tmp_path / "missing"
    malformed = tmp_path / "malformed"
    for what, argv in commands:
        if what == "series":
            malformed.write_text("time,x,y,z\n0,1,2,3\n0.1,1,2,3\n")
            reason = "expected header 't,heave,pitch,roll'"
        else:
            malformed.write_text('{"channels": ')
            reason = "not valid JSON: "
        for path, expected in ((missing, "No such file or directory"), (malformed, reason)):
            assert run(*argv(path), "--quiet") == 1
            err = capsys.readouterr().err
            assert err.startswith(f"deckmotion: error: cannot read {what} {path}: {expected}")
            assert err.count("\n") == 1
            assert err.count(str(path)) == 1
    assert not out.exists()


def test_bad_seed_exits_1(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    train = ["train", "--data", series, "--lookback", "20", "--hidden", "4", "--epochs", "1",
             "--out", tmp_path / "m.json", "--quiet"]
    simulate = ["simulate", "--model", "random", "--n", "50", "--out", tmp_path / "s.csv", "--quiet"]
    for argv in (train, simulate):
        assert run(*argv, "--seed", "-3") == 1
        assert "--seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    # a split outside (0, 1) is refused before the normalizer is fitted on it
    for split in ("inf", "1e308", "1.5", "nan", "1", "0"):
        assert run(*train, f"--split={split}") == 1
        assert "train_fraction must be in (0, 1)" in capsys.readouterr().err
    # so are a split that leaves fewer than 2 training samples and a lookback of 0
    for flags, message in ((["--split=0.001"], "train_fraction 0.001 of n=400"),
                           (["--lookback", "0"], "lookback must be >= 1, got 0")):
        assert run(*train, *flags) == 1
        assert message in capsys.readouterr().err
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
    series_path.write_text(_csv(sd.MotionSeries(dt=0.5, samples=samples)))

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


def test_stderr_is_one_line_unless_quiet(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    forecast = ["--model", model, "--data", series]
    commands = {
        "simulate": ["--n", 50, "--out", tmp_path / "s.csv"],
        "train": ["--data", series, "--lookback", 20, "--hidden", 4, "--epochs", 1,
                  "--out", tmp_path / "m.json"],
        "predict": [*forecast, "--out", tmp_path / "p.csv"],
        "evaluate": [*forecast, "--out-csv", tmp_path / "e.csv", "--out-json", tmp_path / "e.json"],
        "rest": [*forecast, "--pitch-max", 0.5, "--roll-max", 3.0, "--out", tmp_path / "i.csv"],
        "plot": ["--data", series, "--out", tmp_path / "p.svg"],
    }
    assert set(commands) == set(cli.build_parser()._subparsers._group_actions[0].choices)
    for name, argv in commands.items():
        assert run(name, *argv) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("wrote ") and err.endswith("\n"), name
        if name == "train":
            assert err.endswith("s\n")
        assert run(name, *argv, "--quiet") == 0
        assert capsys.readouterr() == ("", ""), name


def test_shared_output_path_exits_1(pipeline, tmp_path, monkeypatch, capsys):
    """Two outputs naming one file would leave only the last one written."""
    root, series, model, _ = pipeline
    monkeypatch.chdir(tmp_path)
    shared = tmp_path / "shared"
    shared.write_bytes(b"kept")
    forecast = ["--model", model, "--data", series]
    commands = [
        ["train", "--data", series, "--lookback", 20, "--hidden", 4, "--epochs", 1,
         "--out", shared, "--report", shared],
        ["simulate", "--n", 50, "--out", shared, "--save-model", shared],
        ["evaluate", *forecast, "--out-csv", shared, "--out-json", shared],
        ["rest", *forecast, "--pitch-max", 0.5, "--roll-max", 3.0, "--out", shared, "--out-json", shared],
        ["simulate", "--n", 50, "--out", "shared", "--save-model", "./shared"],
    ]
    for argv in commands:
        assert run(*argv, "--quiet") == 1
        assert f"two outputs would write the same file {argv[-1]}" in capsys.readouterr().err
        assert shared.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared"]


def test_divergence_exits_3(tmp_path):
    rng = np.random.default_rng(0)
    series_path = tmp_path / "series.csv"
    series_path.write_text(_csv(sd.MotionSeries(dt=0.1, samples=rng.normal(size=(80, 3)))))
    code = run(
        "train", "--data", series_path, "--lookback", "10", "--hidden", "4",
        "--epochs", "60", "--batch", "16", "--lr", "1e200",
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
    huge.write_text(_csv(sd.MotionSeries(dt=0.25, samples=samples)))
    out_json = tmp_path / "summary.json"
    code = run(
        "evaluate", "--model", model, "--data", huge,
        "--out-csv", tmp_path / "errors.csv", "--out-json", out_json, "--quiet",
    )
    assert code == 1
    assert not out_json.exists()
    with pytest.raises(ValueError):
        wg.json_text({"mae": float("inf")})


def test_overflowing_forecast_errors_exit_1(tmp_path, capsys):
    # the forecast, 3 times the causal RMS 5e307, is finite, but its error
    # against a sample of the other sign is not
    H = 4
    artifact = tr.ModelArtifact(
        config=LstmConfig(hidden_dim=H, lookback=10),
        params=LstmParams(
            wx=np.zeros((4 * H, 3)), wh=np.zeros((4 * H, H)), b=np.zeros(4 * H),
            w_out=np.zeros((3, H)), b_out=np.array([3.0, 0.0, 0.0]),
        ),
        normalizer=sd.Normalizer(),
    )
    model = tmp_path / "model.json"
    tr.save_model(artifact, model)
    samples = np.tile([0.0, 0.1, 0.2], (12, 1))
    samples[:, 0] = 5e307 * (-1.0) ** np.arange(1, 13)
    data = tmp_path / "series.csv"
    data.write_text(_csv(sd.MotionSeries(dt=0.1, samples=samples)))
    out_json = tmp_path / "summary.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv", "--quiet") == 0
        code = run(
            "evaluate", "--model", model, "--data", data,
            "--out-csv", tmp_path / "errors.csv", "--out-json", out_json, "--quiet",
        )
    assert code == 1
    assert not out_json.exists()
    assert capsys.readouterr().err == "deckmotion: error: forecast errors exceed the float64 range\n"


def test_time_column_beyond_float64_range(tmp_path, capsys):
    # uniformly spaced, but the span (n-1)*dt exceeds float64 at 1.7e308;
    # at half that it loads (tier-1 turns any numpy RuntimeWarning into a failure)
    for bound, code in ((1.7e308, 1), (8.5e307, 0)):
        data = tmp_path / "times.csv"
        data.write_text(f"t,heave,pitch,roll\n{-bound!r},0,0,0\n0,1,1,1\n{bound!r},0,0,0\n")
        assert run("plot", "--data", data, "--out", tmp_path / "p.svg", "--quiet") == code
    assert "sample times t0 + k*dt overflow float64" in capsys.readouterr().err


def test_phase_overflow_exits_1(tmp_path, capsys):
    # the span 2 * 8e307 is finite, but omega * t overflows float64 for any
    # omega above 1.12 (sea-state-5 heave reaches 1.256; Knox stops at 0.82)
    for model, code in (("seastate5", 1), ("knox", 0)):
        out = tmp_path / f"{model}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argv = ["simulate", "--model", model, "--n", 3, "--dt", 8e307, "--out", out]
            assert run(*argv, "--quiet") == code
        assert out.exists() == (code == 0)
    assert "omega=1.256" in capsys.readouterr().err


DEEP_JSON = b"[" * 200000 + b"]" * 200000


@pytest.mark.parametrize("flag", ["--model", "--model-file", "--spec-file"])
def test_deeply_nested_json_exits_1(pipeline, tmp_path, capsys, flag):
    root, series, model, _ = pipeline
    deep = tmp_path / "deep.json"
    deep.write_bytes(DEEP_JSON)
    argv = {
        "--model": ["predict", "--model", deep, "--data", series],
        "--model-file": ["simulate", "--model-file", deep],
        "--spec-file": ["simulate", "--model", "random", "--spec-file", deep],
    }[flag]
    assert run(*argv, "--out", tmp_path / "out.csv", "--quiet") == 1
    assert "nested too deeply" in capsys.readouterr().err


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
    blocked.mkdir()  # an output that is a directory is refused before any write
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", out_csv, "--out-json", blocked, "--quiet",
    )
    assert code == 1
    assert not out_csv.exists()
    # nor does the temporary file of the write that failed survive
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked.json"]
    assert run("plot", "--data", series, "--out", blocked, "--quiet") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked.json"]
    assert not any(blocked.iterdir())


def test_failed_command_removes_directories_it_made(pipeline, tmp_path):
    root, series, model, _ = pipeline
    blocked = tmp_path / "blocked.json"
    blocked.mkdir()  # refused before the CSV's directories are made
    kept = tmp_path / "kept"
    kept.mkdir()
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", kept / "new" / "deeper" / "e.csv", "--out-json", blocked, "--quiet",
    )
    assert code == 1
    # the directories the command made are gone; the one that was there stays
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked.json", "kept"]
    assert not any(kept.iterdir())


def test_failed_write_removes_directories_it_made(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    plain = tmp_path / "plain"
    plain.write_bytes(b"kept")
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", tmp_path / "new" / "deeper" / "e.csv", "--out-json", plain / "e.json", "--quiet",
    )
    assert code == 1
    # the JSON's parent is a regular file, so its write fails after the
    # CSV's directories were made and its temporary file written
    assert capsys.readouterr().err == f"deckmotion: error: cannot write {plain / 'e.json'}: Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]
    assert plain.read_bytes() == b"kept"


def test_failed_command_keeps_an_existing_output(pipeline, tmp_path):
    root, series, model, _ = pipeline
    old = tmp_path / "old.csv"
    old.write_bytes(b"kept")
    (tmp_path / "blk.json").mkdir()
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", old, "--out-json", tmp_path / "blk.json", "--quiet",
    )
    assert code == 1
    assert old.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blk.json", "old.csv"]


def test_output_named_like_a_temporary_file(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    out_dir = tmp_path / "o"
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", out_dir / "e.json.tmp", "--out-json", out_dir / "e.json",
    )
    assert code == 0
    assert capsys.readouterr().err.startswith(f"wrote {out_dir / 'e.json.tmp'}, {out_dir / 'e.json'} ")
    assert sorted(p.name for p in out_dir.iterdir()) == ["e.json", "e.json.tmp"]
    assert (out_dir / "e.json.tmp").read_text().startswith("t,channel,truth,prediction,abs_error\n")
    assert json.loads((out_dir / "e.json").read_text())["count"] == 380
    # nor does a temporary file take a directory that another output needs
    assert run("simulate", "--n", 20, "--out", out_dir / "s", "--save-model", out_dir / "s.tmp" / "w.json") == 0
    assert (out_dir / "s").read_text().startswith("t,heave,pitch,roll\n")
    assert sorted(p.name for p in (out_dir / "s.tmp").iterdir()) == ["w.json"]


def test_write_leaves_a_file_named_like_its_temporary_file(pipeline, tmp_path):
    root, series, model, _ = pipeline
    user = tmp_path / "fig.svg.tmp"
    user.write_bytes(b"kept")
    assert run("plot", "--data", series, "--out", tmp_path / "fig.svg", "--quiet") == 0
    assert user.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig.svg", "fig.svg.tmp"]
    # an output gets the mode the umask gives a new file, as open() would
    umask = os.umask(0)
    os.umask(umask)
    assert (tmp_path / "fig.svg").stat().st_mode & 0o777 == 0o666 & ~umask


def test_failed_write_names_the_output(pipeline, tmp_path, capsys):
    root, series, model, _ = pipeline
    blocked = tmp_path / "blk.json"
    blocked.mkdir()
    code = run(
        "evaluate", "--model", model, "--data", series,
        "--out-csv", tmp_path / "e.csv", "--out-json", blocked, "--quiet",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"deckmotion: error: cannot write {blocked}: Is a directory\n"
    assert ".tmp" not in err


def test_one_row_series_is_not_written(pipeline, tmp_path, capsys):
    """A series CSV's t column gives the time step, so every reader needs
    two rows; a command whose series would have one exits 1 and writes
    nothing."""
    root, series, model, _ = pipeline
    out = tmp_path / "out"
    commands = [
        ["simulate", "--n", 1, "--out", out / "s.csv", "--save-model", out / "w.json"],
        ["predict", "--model", model, "--data", series, "--start-index", 399, "--out", out / "p.csv"],
    ]
    for argv in commands:
        assert run(*argv, "--quiet") == 1
        assert "t column needs at least two rows to give the time step, got 1" in capsys.readouterr().err
    assert not out.exists()
    assert run("predict", "--model", model, "--data", series, "--start-index", 398, "--out", out / "p.csv") == 0
    assert len(sd.load_series_csv(out / "p.csv")) == 2


def test_outputs_share_the_source_times(pipeline, tmp_path):
    """predict and evaluate write each target's time as the source CSV
    does, t0 + j*dt, to the last digit."""
    root, series, model, _ = pipeline
    sea5 = tmp_path / "sea5.csv"
    assert run("simulate", "--model", "seastate5", "--n", 2000, "--dt", 0.1, "--out", sea5, "--quiet") == 0
    forecast = ["--model", model, "--data", sea5, "--quiet"]
    assert run("predict", *forecast, "--out", tmp_path / "p.csv") == 0
    assert run("evaluate", *forecast, "--out-csv", tmp_path / "e.csv", "--out-json", tmp_path / "e.json") == 0

    def times(name):
        return [line.split(",")[0] for line in (tmp_path / name).read_text().splitlines()[1:]]

    target_times = times("sea5.csv")[20:]
    assert times("p.csv") == target_times
    assert times("e.csv") == [t for t in target_times for _ in range(3)]


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


# Loader inputs: raw bytes or text, any JSON document, or a valid document
# with one value replaced or one key deleted. Integers may take any value:
# every size a loader reads is bounded before anything is allocated.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([2**63, 10**400, -(10**400)])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_DELETE = object()


def _paths(doc, prefix=()):
    """Every path below the root of doc; of a list, only its first and last items."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = [(k, doc[k]) for k in sorted({0, len(doc) - 1})] if doc else []
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _json_inputs(doc):
    paths = list(_paths(doc))
    edited = st.builds(_replaced, st.just(doc), st.sampled_from(paths), JSON_VALUES | st.just(_DELETE))
    return (JSON_VALUES | edited).map(lambda d: json.dumps(d).encode())


def _csv_inputs(text):
    rows = [line.split(",") for line in text.splitlines()]
    cells = st.text(max_size=8) | st.floats().map(repr) | st.integers().map(str)

    def edit(row, col, cell):
        edited = [list(r) for r in rows]
        edited[row][col] = cell
        return "\n".join(",".join(r) for r in edited).encode()

    return st.builds(edit, st.integers(0, len(rows) - 1), st.integers(0, 3), cells)


_CONFIG = LstmConfig(hidden_dim=2, lookback=20)
_MODEL_DOC = tr.model_to_dict(tr.ModelArtifact(_CONFIG, init_params(_CONFIG, 0), sd.Normalizer()))
_WAVE_DOC = wg.wave_model_to_dict(wg.knox_training_model())
_LOADER_DOCS = {
    "--model": _json_inputs(_MODEL_DOC),
    "--model-file": _json_inputs(_WAVE_DOC),
    "--spec-file": _json_inputs(wg.sea_state_spec_to_dict(wg.sea_state5_spec())),
    "--data": _csv_inputs(_csv(sd.sample_series(wg.knox_training_model(), 30, 0.25))),
}
LOADER_INPUTS = st.sampled_from(sorted(_LOADER_DOCS)).flatmap(
    lambda flag: st.tuples(
        st.just(flag), st.binary(max_size=40) | st.text(max_size=40).map(str.encode) | _LOADER_DOCS[flag]
    )
)


def _example_doc(doc, path, value):
    return json.dumps(_replaced(doc, path, value)).encode()


@settings(database=None, deadline=None, max_examples=200)
@given(LOADER_INPUTS)
@example(("--model", DEEP_JSON))
# an integer beyond float64 in a weight and in a wave-model number
@example(("--model", _example_doc(_MODEL_DOC, ("params", "b_i", 0), 10**400)))
# a string in a weight block, booleans and strings in the normalizer
@example(("--model", _example_doc(_MODEL_DOC, ("params", "b_i", 0), "0.5")))
@example(("--model", _example_doc(_MODEL_DOC, ("normalizer", "scale"), ["1.0", True, 1])))
@example(("--model-file", _example_doc(_WAVE_DOC, ("channels", "roll", 0, "phase"), 10**400)))
# omega * t overflows float64; two finite amplitudes sum beyond it
@example(("--model-file", _example_doc(_WAVE_DOC, ("channels", "roll", 0, "omega"), 1e308)))
@example(("--model-file", _example_doc(
    _WAVE_DOC, ("channels", "roll"), [{"amplitude": 1.5e308, "omega": 1.0}] * 2
)))
# an infinite time; finite times whose difference from the uniform grid overflows
@example(("--data", b"t,heave,pitch,roll\n0,0,0,0\n1,0,0,0\ninf,0,0,0\n"))
@example(("--data", b"t,heave,pitch,roll\n-0.5e308,0,0,0\n0.3e308,1,1,1\n-1.7e308,0,0,0\n"))
def test_loaders_give_an_exit_code(pipeline, loader_input):
    """Any content in a file the CLI reads ends in exit 0 or 1: no
    traceback and no numpy RuntimeWarning."""
    root, series, model, _ = pipeline
    flag, content = loader_input
    path = root / "drawn-input"
    path.write_bytes(content)
    argv = {
        "--model": ["predict", "--model", path, "--data", series],
        "--model-file": ["simulate", "--model-file", path, "--n", 20],
        "--spec-file": ["simulate", "--model", "random", "--spec-file", path, "--n", 20],
        "--data": ["predict", "--model", model, "--data", path],
    }[flag]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(*argv, "--out", root / "drawn" / "out.csv", "--quiet") in (0, 1)


_SPEC_DOC = wg.sea_state_spec_to_dict(wg.sea_state5_spec())


@pytest.mark.parametrize(
    ("flag", "doc", "message"),
    [
        ("--model-file", {"channels": []}, "channels must be a JSON object"),
        ("--model-file", _replaced(_WAVE_DOC, ("channels", "pitch"), {"amplitude": 1.0, "omega": 1.0}),
         "channel pitch must be a JSON array"),
        ("--model-file", _replaced(_WAVE_DOC, ("channels", "roll", 1), 0.5),
         "each roll component must be a JSON object"),
        ("--spec-file", {"channels": []}, "channels must be a JSON object"),
        ("--spec-file", _replaced(_SPEC_DOC, ("channels", "heave"), [1, 2]),
         "channel heave must be a JSON object"),
        ("--spec-file", _replaced(_SPEC_DOC, ("channels", "roll", "period_range"), 12),
         "roll period_range must be a JSON array"),
        ("--model", {"format_version": 1, "config": []}, "config must be a JSON object"),
        ("--model", _replaced(_MODEL_DOC, ("normalizer",), [0.0, 1.0]), "normalizer must be a JSON object"),
        ("--model", _replaced(_MODEL_DOC, ("params",), []), "params must be a JSON object"),
    ],
)
def test_nested_section_of_wrong_type_is_named(pipeline, capsys, flag, doc, message):
    root, series, _, _ = pipeline
    path = root / "section.json"
    path.write_text(json.dumps(doc))
    what, argv = {
        "--model": ("model", ["predict", "--model", path, "--data", series]),
        "--model-file": ("wave model", ["simulate", "--model-file", path, "--n", 20]),
        "--spec-file": ("spec", ["simulate", "--model", "random", "--spec-file", path, "--n", 20]),
    }[flag]
    assert run(*argv, "--out", root / "section" / "out.csv", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"deckmotion: error: cannot read {what} {path}: ")
    assert err.endswith(f"{message}\n")
