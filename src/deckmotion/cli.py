"""Command-line pipelines for deck-motion work.

Subcommands: simulate (sample a wave model to CSV), train (fit the joint
LSTM), predict (one-step-ahead forecast as a series CSV), evaluate (error
curves, summary, optional SVG plots), rest (landing-window intervals from
forecasts), plot (series CSV to SVG).

Each command only computes: it returns its outputs as (path, text) pairs
and a one-line message. main writes the outputs, and only after the command
succeeded, then prints the message to stderr unless --quiet is set. All
randomness flows from explicit --seed flags and outputs carry no timestamps,
so identical invocations produce byte-identical outputs.

Exit codes: 0 success, 1 input/output failure, 2 usage error, 3 training
divergence.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from dataclasses import asdict, replace

from . import evaluate as ev
from . import restperiod as rp
from . import seriesdata as sd
from . import svgplot
from . import training as tr
from . import wavegen as wg

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DIVERGED = 3


def _stage(path: str, taken: set) -> tuple[str, int]:
    """Create a new temporary file beside path, under a name that is neither
    in taken nor an existing file, with the mode the umask gives a new file;
    return its name and a descriptor open for writing."""
    for k in itertools.count():
        tmp = f"{path}.tmp{k or ''}"
        if os.path.realpath(tmp) in taken:
            continue
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            pass


def _write_outputs(outputs: list[tuple[str, str]]) -> None:
    """Write (path, text) pairs, staged so that a failure leaves every
    existing file as it was: the outputs' missing directories are made
    first, then each text goes to a new temporary file beside its output,
    and only when all are written are they renamed onto the outputs. On
    failure, remove the temporary files and every directory this call made
    that is left empty, then raise a ValueError that names the output and
    the OS reason. Two outputs that name one file, or an output that is a
    directory, are refused before anything is written."""
    seen = set()
    for path, _ in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"two outputs would write the same file {path}")
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: Is a directory")
        seen.add(real)
    staged, dirs = [], []
    try:
        for path, _ in outputs:
            parent = os.path.dirname(path)
            missing = []
            while parent and not os.path.exists(parent):
                missing.append(parent)
                parent = os.path.dirname(parent)
            # recorded before they are made: makedirs may fail partway
            dirs.extend(reversed(missing))
            if missing:
                os.makedirs(missing[0], exist_ok=True)
        # staged after every directory exists, so no temporary file takes
        # the name of a directory that another output needs
        for path, text in outputs:
            tmp, fd = _stage(path, seen)
            staged.append(tmp)
            with open(fd, "w", encoding="utf-8") as f:
                f.write(text)
        for (path, _), tmp in zip(outputs, staged):
            os.replace(tmp, path)
    except OSError as exc:
        for name in staged:
            try:
                os.remove(name)
            except OSError:
                pass
        # deepest first; a directory that is not empty stays
        for name in reversed(dirs):
            try:
                os.rmdir(name)
            except OSError:
                pass
        # an OSError's text names the temporary file; its strerror does not
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read(what: str, load, path):
    """load(path), with any failure to read or parse the file reported as a
    ValueError that names what the file is and its path. The loaders raise
    ValueError without the path, so this is the one place that names it."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        # an OSError's text repeats the path; its strerror does not
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ValueError(f"cannot read {what} {path}: {reason}") from exc


def _forecast(args) -> tuple[sd.MotionSeries, ev.ForecastResult]:
    """Load --model and --data and forecast the series one step ahead."""
    artifact = _read("model", tr.load_model, args.model)
    series = _read("series", sd.load_series_csv, args.data)
    if args.renormalize:
        artifact = replace(artifact, normalizer=sd.fit_normalizer(series, len(series)))
    return series, ev.predict_series(artifact, series, start_index=args.start_index)


def _cmd_simulate(args):
    if args.model != "random":
        for flag, given in (("--spec-file", args.spec_file), ("--random-phases", args.random_phases)):
            if given:
                raise ValueError(f"{flag} applies only to --model random")
    if args.model_file:
        model = _read("wave model", wg.load_wave_model, args.model_file)
    elif args.model == "seastate5":
        model = wg.sea_state5_reference_model()
    elif args.model == "random":
        if args.spec_file:
            spec = _read("spec", wg.load_sea_state_spec, args.spec_file)
        else:
            spec = wg.sea_state5_spec()
        model = wg.random_sea_state_model(spec, args.seed, random_phases=args.random_phases)
    else:
        model = wg.knox_training_model()
    series = sd.sample_series(model, args.n, args.dt)
    outputs = [(args.out, sd.series_to_csv(series.times, series.samples))]
    if args.save_model:
        outputs.append((args.save_model, wg.json_text(wg.wave_model_to_dict(model))))
    return outputs, f"wrote {args.out} ({args.n} samples of model {model.label!r}, dt={args.dt})"


def _cmd_train(args):
    series = _read("series", sd.load_series_csv, args.data)
    n = len(series)
    config = tr.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        shuffle_seed=args.seed,
        hidden_dim=args.hidden,
        lookback=args.lookback,
    )
    normalizer = sd.fit_normalizer(series, sd.split_boundary(args.split, n))
    windows = sd.make_windows(sd.apply_normalizer(normalizer, series), args.lookback)
    split = sd.split_series(windows, args.split, n)
    provenance = (
        f"data={args.data};n={n};dt={series.dt!r};split={args.split};seed={args.seed};"
        f"hidden={args.hidden};lookback={args.lookback};epochs={args.epochs};"
        f"batch={args.batch};lr={args.lr}"
    )
    start = time.perf_counter()
    artifact, report = tr.train(split, config, args.seed, normalizer=normalizer)
    seconds = time.perf_counter() - start
    artifact = replace(artifact, provenance=provenance)
    outputs = [(args.out, wg.json_text(tr.model_to_dict(artifact)))]
    if args.report:
        outputs.append((args.report, wg.json_text(asdict(report))))
    return outputs, (
        f"wrote {args.out}: train windows {len(split.train)}, test windows {len(split.test)}, "
        f"final train loss {report.epoch_losses[-1]:.6g}, test loss {report.final_test_loss:.6g}, "
        f"{seconds:.1f}s"
    )


def _cmd_predict(args):
    series, result = _forecast(args)
    text = sd.series_to_csv(series.times[result.target_indices], result.predictions)
    return [(args.out, text)], f"wrote {args.out} ({len(result)} predictions)"


def _cmd_evaluate(args):
    series, result = _forecast(args)
    report = ev.error_report(result)
    t = series.times[result.target_indices]
    outputs = [
        (args.out_csv, ev.errors_to_csv(result, report, t)),
        (args.out_json, wg.json_text(ev.summary_dict(report))),
    ]
    if args.svg:
        pred_panels = [
            (f"{name}: truth vs prediction",
             [("truth", result.truths[:, k]), ("prediction", result.predictions[:, k])])
            for k, name in enumerate(wg.CHANNELS)
        ]
        err_panels = [
            (f"{name}: absolute error (mae {report.mae[k]:.4g})", [("abs error", report.abs_errors[:, k])])
            for k, name in enumerate(wg.CHANNELS)
        ]
        outputs.append((os.path.join(args.svg, "predictions.svg"), svgplot.render_panels(t, pred_panels)))
        outputs.append((os.path.join(args.svg, "errors.svg"), svgplot.render_panels(t, err_panels)))
    mae = ", ".join(f"{name} {report.mae[k]:.6g}" for k, name in enumerate(wg.CHANNELS))
    return outputs, f"wrote {args.out_csv}, {args.out_json} ({len(result)} points; mae: {mae})"


def _cmd_rest(args):
    series, result = _forecast(args)
    criteria = rp.RestCriteria(
        pitch_max=args.pitch_max,
        roll_max=args.roll_max,
        heave_rate_max=args.heave_rate_max,
        min_duration=args.min_duration,
    )
    intervals = rp.rest_periods_from_forecast(result, series.dt, criteria, t0=series.t0)
    outputs = [(args.out, rp.intervals_to_csv(intervals))]
    if args.out_json:
        outputs.append((args.out_json, wg.json_text(rp.intervals_to_dicts(intervals))))
    return outputs, f"wrote {args.out} ({len(intervals)} rest intervals)"


def _cmd_plot(args):
    series = _read("series", sd.load_series_csv, args.data)
    panels = [(name, [(name, series.samples[:, k])]) for k, name in enumerate(wg.CHANNELS)]
    return [(args.out, svgplot.render_panels(series.times, panels))], f"wrote {args.out}"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress informational messages")

    parser = argparse.ArgumentParser(
        prog="deckmotion",
        description="Simulate ship deck motion, train a joint LSTM predictor, "
        "evaluate one-step-ahead forecasts, and detect landing rest periods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="sample a wave model to a series CSV")
    source = p.add_mutually_exclusive_group()
    # default None, not "knox": argparse does not count a value identical to
    # the default as given, so "--model knox --model-file f" would pass
    source.add_argument(
        "--model",
        choices=("knox", "seastate5", "random"),
        default=None,
        help="built-in model or a random sea-state draw (default knox)",
    )
    source.add_argument("--model-file", default=None, help="sample a wave model JSON instead of --model")
    p.add_argument("--spec-file", default=None, help="JSON range spec for --model random (default: sea-state-5 ranges)")
    p.add_argument("--n", type=int, default=2000, help="number of samples (default 2000)")
    p.add_argument(
        "--dt", type=float, default=0.1, help="sampling interval in seconds, kept in the CSV's t column (default 0.1)"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --model random (default 0)")
    p.add_argument("--out", required=True, help="output series CSV path")
    p.add_argument("--save-model", default=None, help="also write the wave model as JSON")
    p.add_argument(
        "--random-phases",
        action="store_true",
        help="draw uniform random phases for --model random (default: all phases 0)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", parents=[common], help="train the joint LSTM on a series CSV")
    p.add_argument("--data", required=True, help="input series CSV")
    p.add_argument("--lookback", type=int, default=40, help="window length (default 40)")
    p.add_argument("--split", type=float, default=0.7, help="training fraction (default 0.7)")
    p.add_argument("--hidden", type=int, default=64, help="hidden units (default 64)")
    p.add_argument("--epochs", type=int, default=200, help="training epochs (default 200)")
    p.add_argument("--batch", type=int, default=32, help="mini-batch size (default 32)")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate (default 1e-3)")
    p.add_argument("--seed", type=int, default=0, help="weight-init and epoch shuffle seed (default 0)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--report", default=None, help="also write a training report JSON")
    p.set_defaults(func=_cmd_train)

    def forecast_flags(p):
        p.add_argument("--model", required=True, help="trained model JSON")
        p.add_argument("--data", required=True, help="input series CSV")
        p.add_argument(
            "--start-index",
            type=int,
            default=None,
            help="first predicted sample index (default: lookback)",
        )
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="measure the inputs about this whole series' mean instead of the stored "
            "training offset (not causal: the mean includes later samples); the input "
            "scale stays the causal RMS of the samples before each target",
        )

    p = sub.add_parser("predict", parents=[common], help="one-step-ahead forecast to a series CSV")
    forecast_flags(p)
    p.add_argument("--out", required=True, help="output predicted-series CSV path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="absolute-error curves and MAE summary")
    forecast_flags(p)
    p.add_argument("--out-csv", required=True, help="long-format error CSV path")
    p.add_argument("--out-json", required=True, help="per-channel summary JSON path")
    p.add_argument("--svg", default=None, help="directory for predictions.svg and errors.svg")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rest", parents=[common], help="landing rest periods from forecasts")
    forecast_flags(p)
    p.add_argument("--pitch-max", type=float, required=True, help="max |pitch| (inclination units)")
    p.add_argument("--roll-max", type=float, required=True, help="max |roll| (inclination units)")
    p.add_argument("--heave-rate-max", type=float, default=None, help="optional max |heave rate| (units/s)")
    p.add_argument("--min-duration", type=float, default=0.0, help="minimum interval duration, seconds (default 0)")
    p.add_argument("--out", required=True, help="output intervals CSV path")
    p.add_argument("--out-json", default=None, help="also write intervals as JSON")
    p.set_defaults(func=_cmd_rest)

    p = sub.add_parser("plot", parents=[common], help="render a series CSV as an SVG chart")
    p.add_argument("--data", required=True, help="input series CSV")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # simulate and train declare --seed; both refuse a negative one here
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        outputs, message = args.func(args)
        _write_outputs(outputs)
    except ValueError as exc:
        print(f"deckmotion: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except tr.TrainingDivergedError as exc:
        print(f"deckmotion: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"deckmotion: i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:  # e.g. simulate --n 10**12
        print(f"deckmotion: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if not args.quiet:
        print(message, file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
