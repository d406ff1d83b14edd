"""tools/bench_ab.py's summary of paired benchmark results, on canned
result lines, and its staging of each run; no benchmark runs."""

import json
import subprocess
from pathlib import Path

import pytest

import bench_ab as ab
import kernel_ab as kab

METRICS = [
    {"name": "op_mean_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _line(op, rss, rate, failed=0):
    metrics = {"op_mean_ref": {"value": op, "unit": "ref"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
               "rate": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics})


def _runs(ops, rsss, rates, failed=0):
    out = '{"fingerprint": {}}\n{"run": {}}\n'
    return [ab.parse_result(out + _line(o, r, q, failed) + "\n") for o, r, q in zip(ops, rsss, rates)]


def test_parse_result_reads_the_last_line():
    result = ab.parse_result('{"fingerprint": {}}\n' + _line(0.5, 50.0, 1.0) + "\n\n")
    assert ab.value(result, "op_mean_ref") == 0.5
    for text in ("", "\n", '{"run": {}}\n'):
        with pytest.raises(ValueError):
            ab.parse_result(text)


def test_summary_applies_the_nine_in_ten_rule():
    parent_ops = [0.540, 0.541, 0.542, 0.543, 0.544, 0.545, 0.546, 0.547, 0.548, 0.549]
    # nine wins of ten, each 5% below: a gain
    change_ops = [x * 0.95 for x in parent_ops[:9]] + [0.6]
    # RSS 30% higher: worse beyond the 20% bound; rate 5% lower: within 10%
    parent = _runs(parent_ops, [50.0] * 10, [10.0] * 10)
    change = _runs(change_ops, [65.0] * 10, [9.5] * 10, failed=1)
    rows = {row["name"]: row for row in ab.summarize(METRICS, parent, change)}
    assert rows["op_mean_ref"]["wins"] == 9
    assert rows["op_mean_ref"]["verdict"] == "gain"
    assert rows["op_mean_ref"]["parent_median"] == pytest.approx(0.5445)
    assert rows["op_mean_ref"]["parent_quartiles"] == pytest.approx((0.54225, 0.54675))
    assert rows["peak_rss_mb"]["verdict"] == "worse"
    assert rows["peak_rss_mb"]["gap"] == pytest.approx(0.3)
    assert rows["peak_rss_mb"]["wins"] == 0
    assert rows["rate"]["verdict"] == "within bound"
    assert rows["rate"]["gap"] == pytest.approx(0.05)
    text = ab.report(ab.summarize(METRICS, parent, change), parent, change)
    assert text.splitlines()[0] == "failed: parent 0/1000, change 10/1000"
    assert "wins 9/10" in text and ": gain" in text and ": worse" in text


def test_summary_wants_more_than_the_parent_spread():
    # ten wins of ten, but by less than the parent's quartile spread; eight
    # wins of ten by a wide margin: neither is a gain
    parent_ops = [0.50, 0.52, 0.54, 0.56, 0.58, 0.60, 0.62, 0.64, 0.66, 0.68]
    for change_ops in ([x - 0.01 for x in parent_ops], [x * 0.8 for x in parent_ops[:8]] + [0.7, 0.7]):
        parent = _runs(parent_ops, [50.0] * 10, [10.0] * 10)
        change = _runs(change_ops, [50.0] * 10, [10.0] * 10)
        row = ab.summarize(METRICS, parent, change)[0]
        assert row["verdict"] == "within bound", change_ops
    # ties count for neither side
    same = _runs(parent_ops, [50.0] * 10, [10.0] * 10)
    assert [row["wins"] for row in ab.summarize(METRICS, same, same)] == [0, 0, 0]


def test_checkout_paths_of_any_length_are_accepted(tmp_path, capsys):
    for name in ("pa", "parent"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    assert ab.check_dirs(tmp_path / "parent", tmp_path / "pa", ab.RUN) == (tmp_path / "parent", tmp_path / "pa")
    with pytest.raises(ValueError, match="no perfbench/run.py"):
        ab.check_dirs(tmp_path / "parent", tmp_path / "xy", ab.RUN)
    with pytest.raises(SystemExit) as exc:
        ab.main([str(tmp_path / "parent"), str(tmp_path / "xy"), "--workload", "stream-land"])
    assert exc.value.code == 2
    assert "holds no perfbench/run.py" in capsys.readouterr().err


def test_pairs_below_one_are_a_usage_error(tmp_path, capsys):
    # both tools, before anything runs: no median of no pairs
    for name in ("pa", "ch"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        (tmp_path / name / kab.KERNELS).parent.mkdir(parents=True)
        (tmp_path / name / kab.KERNELS).write_text("")
    checkouts = [str(tmp_path / "pa"), str(tmp_path / "ch")]
    for main, extra in ((ab.main, ["--workload", "stream-land"]), (kab.main, [])):
        for pairs in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(checkouts + extra + ["--pairs", pairs])
            assert exc.value.code == 2
            assert f"argument --pairs: must be at least 1, got {pairs}" in capsys.readouterr().err


def test_last_line_holds_both_sides_records(tmp_path, monkeypatch, capsys):
    for name in ("pa", "ch"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    (tmp_path / "pa" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    side = {tmp_path / "pa": ("parent", 0.5), tmp_path / "ch": ("change", 0.4)}

    def run_once(checkout, stage, workload, seconds, seed):
        name, op = side[checkout]
        out = json.dumps({"fingerprint": {"side": name}}) + "\n" + json.dumps({"run": {"ops": seed}}) + "\n"
        return ab.parse_records(out + _line(op, 50.0, 10.0) + "\n")

    monkeypatch.setattr(ab, "run_once", run_once)
    argv = [str(tmp_path / "pa"), str(tmp_path / "ch"), "--workload", "stream-land", "--pairs", "2", "--seed", "7"]
    assert ab.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line["workload"], line["seed"], line["seconds"]) == ("stream-land", 7, 30.0)
    assert [pair["order"] for pair in line["pairs"]] == [["parent", "change"], ["change", "parent"]]
    for pair in line["pairs"]:
        for name, op in side.values():
            assert pair[name]["fingerprint"] == {"side": name}
            assert pair[name]["run"] == {"ops": 7}
            assert pair[name]["result"]["metrics"]["op_mean_ref"]["value"] == op
    assert [row["name"] for row in line["summary"]] == [m["name"] for m in METRICS]
    assert line["summary"][0]["parent_median"] == 0.5 and line["summary"][0]["change_median"] == 0.4


def test_every_run_is_staged_in_one_directory(tmp_path, monkeypatch, capsys):
    # both sides run from one path that is neither checkout, each on its
    # own files, and nothing is left behind
    side = {"pa": 0.5, "parent": 0.4}
    for name in side:
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        (tmp_path / name / "side").write_text(name)
        (tmp_path / name / ".git").mkdir()
    (tmp_path / "pa" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    runs = []

    def run(cmd, cwd, capture_output, text):
        cwd = Path(cwd)
        name = (cwd / "side").read_text()
        runs.append((cwd, name, (cwd / ".git").exists()))
        return subprocess.CompletedProcess(cmd, 0, stdout=_line(side[name], 50.0, 10.0) + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", run)
    argv = [str(tmp_path / "pa"), str(tmp_path / "parent"), "--workload", "stream-land", "--pairs", "2"]
    assert ab.main(argv) == 0
    assert [name for _, name, _ in runs] == ["pa", "parent", "parent", "pa"]
    assert len({cwd for cwd, _, _ in runs}) == 1
    stage = runs[0][0]
    assert stage not in (tmp_path / "pa", tmp_path / "parent") and not stage.is_relative_to(tmp_path)
    assert not any(git for _, _, git in runs)
    assert not stage.exists() and not stage.parent.exists()
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["summary"][0]["parent_median"] == 0.5 and line["summary"][0]["change_median"] == 0.4
