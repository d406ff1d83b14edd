"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/bench_ab.py PARENT CHANGE --workload stream-land
        [--pairs 10] [--seconds 30] [--seed 42]

PARENT and CHANGE are two checkouts of the repository, each with its own
perfbench/ and src/. Before each run the tool copies the side about to run,
all but .git, .bench_run and caches, into one staging directory, made once
per invocation and removed at the end, and runs `perfbench/run.py` there.
So every run of either side has the same path, command line and
environment, and the two sides differ only in their files: the directory a
run starts in has alone moved op_mean_ref by several percent.

Each pair runs both sides once, the parent first in pair 1 and in every
other pair after it, and reads the run's last stdout line, its result, and
the fingerprint and `run` lines printed before it. Every end-to-end metric
that the parent's BENCHMARK.json declares is printed per pair, then
summarised per metric: each side's median and quartiles, the change's wins
(ties count for neither side), the relative gap of the medians and the
metric's bound.

The last line printed is one JSON object holding the whole comparison: the
workload, seed and seconds, each pair's order with both sides' three
records, and the summary rows. A committed BENCH_<label>.json is a JSON
list of such lines, one per workload.

A metric counts as a gain only when the change wins at least nine tenths
of the pairs and its median is better than the parent's by more than the
distance between the parent's quartiles. It counts as worse when its median
is worse than the parent's by more than the bound; otherwise it is within
the bound. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


SIDES = ("parent", "change")
RUN = Path("perfbench") / "run.py"
# what a checkout holds that no run reads: history, scratch runs and caches
NOT_STAGED = shutil.ignore_patterns(".git", ".bench_run", "__pycache__", ".pytest_cache", ".hypothesis")


def pair_parser(doc: str) -> argparse.ArgumentParser:
    """A parser, described by doc's first line, for the arguments both A/B
    tools take: the two checkouts and --pairs."""
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10, help="parent/change pairs, at least 1 (default 10)")
    return p


def parse_checkouts(p: argparse.ArgumentParser, argv, need: Path) -> tuple[argparse.Namespace, tuple[Path, Path]]:
    """p's arguments from argv and the two checkouts as absolute paths; a
    usage error, exit 2, when --pairs is below 1 or a checkout lacks need."""
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"argument --pairs: must be at least 1, got {args.pairs}")
    try:
        return args, check_dirs(args.parent, args.change, need)
    except ValueError as exc:
        p.error(str(exc))


def check_dirs(parent: str, change: str, need: Path) -> tuple[Path, Path]:
    """Both checkouts as absolute paths; ValueError unless each holds need."""
    dirs = Path(parent).absolute(), Path(change).absolute()
    for d in dirs:
        if not (d / need).is_file():
            raise ValueError(f"{d} holds no {need}")
    return dirs


def pair_order(k: int) -> tuple[int, int]:
    """The sides, 0 the parent and 1 the change, in the order pair k + 1 runs them."""
    return (0, 1) if k % 2 == 0 else (1, 0)


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


def run_once(checkout: Path, stage: Path, workload: str, seconds: float, seed: int) -> dict:
    """The records of one benchmark run of checkout, copied to stage in place
    of whatever an earlier run left there."""
    if stage.exists():
        shutil.rmtree(stage)
    shutil.copytree(checkout, stage, ignore=NOT_STAGED)
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=stage, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} on {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_records(proc.stdout)


def value(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def medians(name: str, unit: str, a: list[float], b: list[float]) -> dict:
    """The head of a summary row: name, unit, and each side's median and
    quartiles of paired values, a the parent's and b the change's."""
    return {"name": name, "unit": unit, "parent_median": statistics.median(a), "parent_quartiles": quartiles(a),
            "change_median": statistics.median(b), "change_quartiles": quartiles(b)}


def medians_text(row: dict) -> str:
    """The head of a summary row as text: NAME [UNIT]: parent M (Q1-Q3), change M (Q1-Q3)."""
    (a1, a3), (b1, b3) = row["parent_quartiles"], row["change_quartiles"]
    return (f"{row['name']} [{row['unit']}]: parent {row['parent_median']:.4g} ({a1:.4g}-{a3:.4g}), "
            f"change {row['change_median']:.4g} ({b1:.4g}-{b3:.4g})")


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per end-to-end metric, the verdict on paired results (parent[k] and
    change[k] are pair k): medians, quartiles, the change's wins, the
    relative gap of the medians, and one of "gain", "worse" and "within bound"."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        a = [value(r, name) for r in parent]
        b = [value(r, name) for r in change]
        row = medians(name, m["unit"], a, b)
        ma, mb, (q1, q3) = row["parent_median"], row["change_median"], row["parent_quartiles"]
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        # positive gap: the change is worse
        gap = sign * (mb - ma) / abs(ma) if ma else 0.0
        if wins >= 0.9 * len(a) and sign * (ma - mb) > q3 - q1:
            verdict = "gain"
        elif gap > m["bound"]:
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({**row, "wins": wins, "pairs": len(a), "gap": gap, "bound": m["bound"], "verdict": verdict})
    return rows


def failures(results: list[dict]) -> tuple[int, int]:
    """(failed, attempted) summed over runs."""
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def report(rows: list[dict], parent: list[dict], change: list[dict]) -> str:
    """The summary text: failures per side, then one line per summary row."""
    fa, aa = failures(parent)
    fb, ab = failures(change)
    out = [f"failed: parent {fa}/{aa}, change {fb}/{ab}"]
    for row in rows:
        out.append(f"{medians_text(row)}, {-row['gap']:+.1%} better, wins {row['wins']}/{row['pairs']}, "
                   f"bound {row['bound']:.0%}: {row['verdict']}")
    return "\n".join(out)


def main(argv=None) -> int:
    p = pair_parser(__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run (default 30)")
    p.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    args, dirs = parse_checkouts(p, argv, RUN)
    metrics = end_to_end(dirs[0])
    results, pairs = ([], []), []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        stage = Path(tmp) / "checkout"
        for k in range(args.pairs):
            order = pair_order(k)
            records = [None, None]
            for side in order:
                records[side] = run_once(dirs[side], stage, args.workload, args.seconds, args.seed)
                results[side].append(records[side]["result"])
            pairs.append({"order": [SIDES[side] for side in order], "parent": records[0], "change": records[1]})
            cells = [f"{m['name']} {value(results[0][-1], m['name']):.4g} / {value(results[1][-1], m['name']):.4g}"
                     for m in metrics]
            cells.append(f"failed {results[0][-1]['failed']} / {results[1][-1]['failed']}")
            print(f"pair {k + 1} ({SIDES[order[0]]} first), parent / change: " + ", ".join(cells), flush=True)
    summary = summarize(metrics, *results)
    print(report(summary, *results))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "pairs": pairs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
