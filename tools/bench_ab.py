"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/bench_ab.py PARENT CHANGE --workload stream-land
        [--pairs 10] [--seconds 30] [--seed 42]

PARENT and CHANGE are two checkouts of the repository, each with its own
perfbench/ and src/. Each pair runs `perfbench/run.py` once in each, the
parent first in even pairs and the change first in odd ones, and reads the
run's last stdout line, its result, and the fingerprint and `run` lines
printed before it. Every end-to-end metric that the parent's BENCHMARK.json
declares is printed per pair, then summarised per metric: each side's
median and quartiles, the change's wins (ties count for neither side), the
relative gap of the medians and the metric's bound.

The last line printed is one JSON object holding the whole comparison: the
workload, seed and seconds, each pair's order with both sides' three
records, and the summary rows. A committed BENCH_<label>.json is a JSON
list of such lines, one per workload.

A metric counts as a gain only when the change wins at least nine tenths
of the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles. It counts as worse when its median
is worse than the parent's by more than the bound; otherwise it is within
the bound.

The two checkouts must have absolute paths of the same length: the run
directory's name alone has moved train-ref's op_mean_ref by about 4%, so
directories such as /tmp/ab/parent and /tmp/ab/change are refused, and
/tmp/ab/pa and /tmp/ab/ch are fine. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run (default 30)")
    p.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    return p.parse_args(argv)


def check_dirs(parent: str, change: str) -> tuple[Path, Path]:
    """Both checkouts as absolute paths; ValueError unless each holds
    perfbench/run.py and the two paths are of equal length."""
    dirs = Path(parent).absolute(), Path(change).absolute()
    for d in dirs:
        if not (d / "perfbench" / "run.py").is_file():
            raise ValueError(f"{d} holds no perfbench/run.py")
    if len(str(dirs[0])) != len(str(dirs[1])):
        raise ValueError(
            f"checkout paths differ in length ({len(str(dirs[0]))} and {len(str(dirs[1]))} characters): "
            f"{dirs[0]} and {dirs[1]}; the directory name moves the metrics, so use names of equal length"
        )
    return dirs


def parse_result(stdout: str) -> dict:
    """The result of one run: its last non-blank stdout line, as JSON."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError(f"the last line is not a result: {lines[-1][:200]}")
    return result


def parse_records(stdout: str) -> dict:
    """The fingerprint, run and result records of one run."""
    records = {"result": parse_result(stdout)}
    for line in stdout.splitlines():
        if line.startswith(('{"fingerprint"', '{"run"')):
            records.update(json.loads(line))
    return records


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics BENCHMARK.json declares: name, unit, better, bound."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_records(proc.stdout)


def value(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per end-to-end metric, the verdict on paired results (parent[k] and
    change[k] are pair k): medians, quartiles, the change's wins, the
    relative gap of the medians, and one of "gain", "worse" and "within bound"."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        a = [value(r, name) for r in parent]
        b = [value(r, name) for r in change]
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        # positive gap: the change is worse
        gap = sign * (mb - ma) / abs(ma) if ma else 0.0
        if wins >= 0.9 * len(a) and sign * (ma - mb) > qa[1] - qa[0]:
            verdict = "gain"
        elif gap > m["bound"]:
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": m["unit"], "parent_median": ma, "parent_quartiles": qa,
                     "change_median": mb, "change_quartiles": qb, "wins": wins, "pairs": len(a),
                     "gap": gap, "bound": m["bound"], "verdict": verdict})
    return rows


def failures(results: list[dict]) -> tuple[int, int]:
    """(failed, attempted) summed over runs."""
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def report(metrics: list[dict], parent: list[dict], change: list[dict]) -> str:
    """The summary text: failures per side, then one line per metric."""
    fa, aa = failures(parent)
    fb, ab = failures(change)
    out = [f"failed: parent {fa}/{aa}, change {fb}/{ab}"]
    for row in summarize(metrics, parent, change):
        (a1, a3), (b1, b3) = row["parent_quartiles"], row["change_quartiles"]
        out.append(
            f"{row['name']} [{row['unit']}]: parent {row['parent_median']:.4g} ({a1:.4g}-{a3:.4g}), "
            f"change {row['change_median']:.4g} ({b1:.4g}-{b3:.4g}), "
            f"{-row['gap']:+.1%} better, wins {row['wins']}/{row['pairs']}, "
            f"bound {row['bound']:.0%}: {row['verdict']}"
        )
    return "\n".join(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        dirs = check_dirs(args.parent, args.change)
    except ValueError as exc:
        print(f"bench_ab: {exc}", file=sys.stderr)
        return 2
    metrics = end_to_end(dirs[0])
    results, pairs = ([], []), []
    for k in range(args.pairs):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        records = [None, None]
        for side in order:
            records[side] = run_once(dirs[side], args.workload, args.seconds, args.seed)
            results[side].append(records[side]["result"])
        pairs.append({"order": [SIDES[side] for side in order], "parent": records[0], "change": records[1]})
        cells = [f"{m['name']} {value(results[0][-1], m['name']):.4g} / {value(results[1][-1], m['name']):.4g}"
                 for m in metrics]
        cells.append(f"failed {results[0][-1]['failed']} / {results[1][-1]['failed']}")
        print(f"pair {k + 1} ({SIDES[order[0]]} first), parent / change: " + ", ".join(cells), flush=True)
    print(report(metrics, *results))
    summary = summarize(metrics, *results)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": pairs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
