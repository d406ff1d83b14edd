"""tools/kernel_ab.py's summary of paired kernel timings, on canned timing
lines; no timing runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kernel_ab", ROOT / "tools" / "kernel_ab.py")
kab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kab)

NAMES = [name for name, *_ in kab.CASES]


def _run(predict, predict_w1, train, single):
    line = json.dumps(dict(zip(NAMES, (predict, predict_w1, train, single))))
    return kab.parse_timings("numpy says hello\n" + line + "\n\n")


def test_cases_are_the_four_kernels_at_hidden_64():
    assert NAMES == ["predict_b1960", "predict_b1960_w1", "train_b32", "predict_b1"]
    assert (kab.HIDDEN, kab.LOOKBACK) == (64, 40)
    assert kab.ONE_THREAD["OPENBLAS_NUM_THREADS"] == "1"


def test_parse_timings_wants_every_case():
    assert _run(150.0, 300.0, 7.5, 0.35)["train_b32"] == 7.5
    for text in ("", "\n", json.dumps({"predict_b1960": 1.0}), json.dumps(dict.fromkeys(NAMES, "x"))):
        with pytest.raises(ValueError):
            kab.parse_timings(text)


def test_summary_gives_medians_quartiles_and_wins():
    parent = [_run(p, 2 * p, 8.0, 0.35) for p in (153.0, 154.0, 155.0, 156.0)]
    # faster at B=1960 in every pair, slower at B=32 in every pair, and the
    # same at B=1, where ties count for neither side
    change = [_run(p, 2 * p, 8.4, 0.35) for p in (139.0, 140.0, 141.0, 158.0)]
    rows = {row["name"]: row for row in kab.summarize(parent, change)}
    assert rows["predict_b1960"]["parent_median"] == pytest.approx(154.5)
    assert rows["predict_b1960"]["parent_quartiles"] == pytest.approx((153.75, 155.25))
    assert rows["predict_b1960"]["change_median"] == pytest.approx(140.5)
    assert rows["predict_b1960"]["wins"] == 3
    assert rows["predict_b1960"]["gap"] == pytest.approx(140.5 / 154.5 - 1)
    assert rows["train_b32"]["wins"] == 0
    assert rows["train_b32"]["gap"] == pytest.approx(0.05)
    assert rows["predict_b1"]["wins"] == 0 and rows["predict_b1"]["gap"] == 0.0
    lines = kab.report(parent, change).splitlines()
    assert len(lines) == 4
    assert lines[0] == ("predict_b1960 [ms]: parent 154.5 (153.8-155.2), change 140.5 (139.8-145.2), "
                        "+9.1% better, wins 3/4")
    assert lines[2].endswith("-5.0% better, wins 0/4")


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
