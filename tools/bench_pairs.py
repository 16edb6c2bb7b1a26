"""Alternating pairs of benchmark runs on two checkouts, and a verdict per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload analyze_mix \\
        [--workload residue_graphs ...] --pairs 10 --seed 5101 [--seconds 15]

Pair k runs `perfbench/run.py --workload W --seed (seed + k) --seconds N
--trace 0` in each checkout, one process at a time: the parent first in
even pairs, the change first in odd ones.  A repeated --workload runs the
pairs of each workload in turn, from the same seeds, and they share one
table.  Both sides run with
PYTHONDONTWRITEBYTECODE=1, so neither reads bytecode that an earlier run
left.  A run that reports `correct: false` or a failed job stops the
script.  Each run prints one line as it ends; then, for each end-to-end
metric of BENCHMARK.json, one Markdown row: the parent's median with its
quartiles, the change's median, the change in %, the pairs the change
won (ties count for neither side), and a verdict:

    gain          the change won at least 9 of 10 pairs, and its median is
                  better than the parent's by more than the parent's
                  interquartile range
    unresolved    the parent's interquartile range is wider than the
                  metric's bound, and not every run of the change reads
                  better than every run of the parent
    worse         the change's median is worse by more than the bound
    within bound  otherwise

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def quartiles(xs) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated within the data."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better: str) -> int:
    """The pairs in which the change reads better; a tie is no win."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict on one metric from paired runs parent[k], change[k];
    `better` is "higher" or "lower", `bound` a share of the parent's median."""
    sign = 1 if better == "higher" else -1
    q1, med, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med)
    if wins(parent, change, better) >= WIN_SHARE * len(parent) and gain > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(med) and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    if -gain > bound * abs(med):
        return "worse"
    return "within bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one untraced run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{checkout} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout} seed {seed}: correct {result['correct']}, failed {result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(workload: str, parent: list[dict], change: list[dict], spec: list[dict]) -> list[str]:
    rows = [
        "| workload | metric | parent median [Q1, Q3] | change median | change | change better | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for m in spec:
        name, better = m["name"], m["better"]
        p, c = [r[name] for r in parent], [r[name] for r in change]
        q1, med, q3 = quartiles(p)
        c_med = statistics.median(c)
        rows.append(
            f"| {workload} | {name} ({m['unit']}) | {med:.4g} [{q1:.4g}, {q3:.4g}] | {c_med:.4g} "
            f"| {100 * (c_med - med) / med:+.1f} % | {wins(p, c, better)}/{len(p)} "
            f"| {verdict(p, c, better, m['bound'])} |"
        )
    return rows


def merged(tables: list[list[str]]) -> list[str]:
    """One Markdown table: the header of the first, the rows of every one."""
    return tables[0][:2] + [row for t in tables for row in t[2:]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="the seed of the first pair")
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    tables = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run_once(getattr(args, side), workload, seed, args.seconds)
                runs[side].append(metrics)
                shown = "  ".join(f"{m['name']} {metrics[m['name']]:.6g}" for m in spec)
                print(f"{workload} pair {k + 1} seed {seed} {side}: {shown}", flush=True)
        tables.append(table(workload, runs["parent"], runs["change"], spec))
    print("\n".join(merged(tables)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
