"""tools/kernel_ab.py: its summary of paired kernel timings on canned pairs,
and its call-by-call timing loop on tiny cases."""

import math
import re
import shutil
from pathlib import Path

import pytest

import kernel_ab as kab

ROOT = Path(__file__).resolve().parent.parent
NAMES = [name for name, *_ in kab.CASES]
# one pair line's cell and one summary line, as the tool's docstring gives them
CELL = r"(\w+) (\S+) / (\S+) ms \((\S+)\)"
SUMMARY = r"(\w+) \[ms\]: parent \S+ \(\S+-\S+\), change \S+ \(\S+-\S+\), ratio (\S+) \(\S+-\S+\), wins (\d+)/(\d+)"
# below PREDICT_ROWS and above it, on the process's workers and on one
TINY = (("predict_wide", 300, 3, None), ("predict_wide_w1", 300, 3, 1), ("train_b4", 4, 3, None),
        ("predict_b1", 1, 3, None))


def _pair(predict, predict_w1, train, single):
    """A canned pair: per case, (parent ms, change ms, ratio)."""
    return dict(zip(NAMES, (predict, predict_w1, train, single)))


def test_cases_are_the_four_kernels_at_hidden_64():
    assert NAMES == ["predict_b1960", "predict_b1960_w1", "train_b32", "predict_b1"]
    assert (kab.HIDDEN, kab.LOOKBACK) == (64, 40)
    assert kab.ONE_THREAD["OPENBLAS_NUM_THREADS"] == "1"


def test_forecasts_take_read_only_weights_and_training_writable_ones():
    # as a loaded model's and Adam's are, so that each case times the
    # weights its callers pass
    inputs = kab.make_inputs()
    for name in NAMES:
        weights, x, dy = inputs[name]
        assert len(weights) == 5 and x.shape[1] == dy.shape[0]
        assert all(w.flags.writeable == (name == "train_b32") for w in weights), name
        assert all(w.base is None for w in weights), name


def test_summary_gives_medians_quartiles_and_wins():
    # faster at B=1960 in three pairs of four, slower at B=32 in every pair,
    # and even at B=1, where a ratio of 1 counts for neither side
    pairs = [_pair((p, c, c / p), (2 * p, 2 * c, c / p), (8.0, 8.4, 1.05), (0.35, 0.35, 1.0))
             for p, c in ((153.0, 139.0), (154.0, 140.0), (155.0, 141.0), (156.0, 158.0))]
    rows = {row["name"]: row for row in kab.summarize(pairs)}
    assert rows["predict_b1960"]["parent_median"] == pytest.approx(154.5)
    assert rows["predict_b1960"]["parent_quartiles"] == pytest.approx((153.75, 155.25))
    assert rows["predict_b1960"]["change_median"] == pytest.approx(140.5)
    assert rows["predict_b1960"]["ratio"] == pytest.approx((140 / 154 + 141 / 155) / 2)
    assert rows["predict_b1960"]["wins"] == 3
    assert rows["train_b32"]["wins"] == 0 and rows["train_b32"]["ratio"] == pytest.approx(1.05)
    assert rows["predict_b1"]["wins"] == 0 and rows["predict_b1"]["ratio_quartiles"] == (1.0, 1.0)
    lines = kab.report(pairs).splitlines()
    assert len(lines) == 4
    assert lines[0] == ("predict_b1960 [ms]: parent 154.5 (153.8-155.2), change 140.5 (139.8-145.2), "
                        "ratio 0.9094 (0.9089-0.9355), wins 3/4")
    assert lines[2] == ("train_b32 [ms]: parent 8 (8-8), change 8.4 (8.4-8.4), "
                        "ratio 1.0500 (1.0500-1.0500), wins 0/4")


def test_checkouts_must_hold_the_kernels(tmp_path):
    for name in ("pa", "ch"):
        (tmp_path / name / "src" / "deckmotion").mkdir(parents=True)
        (tmp_path / name / "src" / "deckmotion" / "_kernels.py").write_text("")
    assert kab.check_dirs(tmp_path / "pa", tmp_path / "ch") == (tmp_path / "pa", tmp_path / "ch")
    with pytest.raises(ValueError, match="holds no"):
        kab.check_dirs(tmp_path / "pa", tmp_path / "xy")
    assert kab.main([str(tmp_path / "pa"), str(tmp_path / "xy")]) == 2
    with pytest.raises(SystemExit):
        kab.parse_args([str(tmp_path / "pa")])


def _checkouts(tmp_path, monkeypatch, change_suffix=""):
    """Two checkouts holding the repository's _kernels.py, the change's with
    change_suffix appended, and the tool shrunk to TINY cases at H=8, L=4."""
    for name, suffix in (("pa", ""), ("ch", change_suffix)):
        path = tmp_path / name / kab.KERNELS
        path.parent.mkdir(parents=True)
        shutil.copy(ROOT / kab.KERNELS, path)
        with path.open("a") as f:
            f.write(suffix)
    monkeypatch.setattr(kab, "CASES", TINY)
    monkeypatch.setattr(kab, "HIDDEN", 8)
    monkeypatch.setattr(kab, "LOOKBACK", 4)
    return [str(tmp_path / "pa"), str(tmp_path / "ch")]


def _run(argv, capsys):
    """The tool's pair lines as (first side, {case: (parent, change, ratio)})
    and its summary lines as {case: (ratio, wins, pairs)}."""
    assert kab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs, summary = [], {}
    for k, line in enumerate(lines[:-len(TINY)]):
        head = re.fullmatch(rf"pair {k + 1} \((parent|change) first\): (.*)", line)
        cells = [re.fullmatch(CELL, cell) for cell in head[2].split(", ")]
        pairs.append((head[1], {m[1]: tuple(float(v) for v in m.groups()[1:]) for m in cells}))
    for line in lines[-len(TINY):]:
        m = re.fullmatch(SUMMARY, line)
        summary[m[1]] = (float(m[2]), int(m[3]), int(m[4]))
    return pairs, summary


def test_identical_checkouts_give_finite_ratios(tmp_path, monkeypatch, capsys):
    pairs, summary = _run(_checkouts(tmp_path, monkeypatch) + ["--pairs", "3"], capsys)
    assert [first for first, _ in pairs] == ["parent", "change", "parent"]
    names = [name for name, *_ in TINY]
    for _, cells in pairs:
        assert list(cells) == names
        assert all(math.isfinite(v) and v > 0 for cell in cells.values() for v in cell)
    assert list(summary) == names
    assert all(math.isfinite(ratio) and n == 3 for ratio, _, n in summary.values())


def test_a_change_that_sleeps_loses_every_pair(tmp_path, monkeypatch, capsys):
    sleeps = ("\n\nimport time\n\n_lstm_predict = lstm_predict\n\n\n"
              "def lstm_predict(*args):\n    time.sleep(0.002)\n    return _lstm_predict(*args)\n")
    _, summary = _run(_checkouts(tmp_path, monkeypatch, sleeps) + ["--pairs", "2"], capsys)
    for name in ("predict_wide", "predict_wide_w1", "predict_b1"):
        ratio, wins, pairs = summary[name]
        assert ratio > 1 and (wins, pairs) == (0, 2)
