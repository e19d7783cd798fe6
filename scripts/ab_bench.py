#!/usr/bin/env python3
"""Compare the benchmark of two grt checkouts, run in alternating pairs.

    python3 scripts/ab_bench.py A_DIR B_DIR --workload many-small --seed 1 --pairs 10

Each pair runs ``COMMAND --workload W --seed S --seconds T`` once in each
checkout, COMMAND being the ``command`` and T the ``run_seconds`` of A's
BENCHMARK.json. Pair i runs A first when i is even and B first when it is
odd. A run that exits non-zero, or whose result is not correct or counts a
failure, stops the comparison (exit status 1).

For every end-to-end metric A's BENCHMARK.json lists, it then prints each
side's median and quartiles, how many pairs B won (ties count for neither
side), A's interquartile range, and whether B's gain is resolved: B won at
least nine pairs in ten, and its median beats A's by more than A's
interquartile range. A row ends in ``WORSE beyond bound`` when B's median is
worse than A's by more than the metric's relative ``bound``, the rule by which
a change is rejected as a regression. A row says ``unresolved (spread > bound)``
in place of that verdict when A's interquartile range exceeds the bound
relative to A's median, so the runs spread too widely to tell a change inside
the bound from noise; unless every B run beats every A run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero or reported a failure."""


def run_once(checkout: Path, argv: list) -> dict:
    """The metric values (name -> value) of one benchmark run in the checkout."""
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"] or result["failed"]:
        failed = "no result" if not result else f"{result['failed']} failed"
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunFailed(f"{checkout}: exit status {proc.returncode}, {failed}\n{tail}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def run_pairs(a: Path, b: Path, argv: list, pairs: int, runner=run_once):
    """Each side's metric values, one dict a run, in pair order."""
    a_runs, b_runs = [], []
    sides = ((a, a_runs), (b, b_runs))
    for i in range(pairs):
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(runner(checkout, argv))
            print(f"pair {i + 1}/{pairs}: {checkout} done", file=sys.stderr)
    return a_runs, b_runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class Comparison:
    name: str
    unit: str
    a: tuple[float, float, float]  # quartiles: first, median, third
    b: tuple[float, float, float]
    b_wins: int
    pairs: int
    resolved: bool
    worse: bool  # B's median worse than A's by more than the metric's bound
    spread: bool  # A's IQR wider than the bound allows, and B does not beat A outright

    @property
    def a_iqr(self) -> float:
        return self.a[2] - self.a[0]


def compare(metric: dict, a_runs: list, b_runs: list) -> Comparison:
    """One end-to-end metric of BENCHMARK.json over paired runs; its
    ``bound`` is the relative change of the median it may worsen by."""
    name, lower = metric["name"], metric["better"] == "lower"
    a_values = [run[name] for run in a_runs]
    b_values = [run[name] for run in b_runs]
    sign = -1 if lower else 1  # sign * (b - a) > 0 when B is better
    b_wins = sum(sign * (vb - va) > 0 for va, vb in zip(a_values, b_values))
    a, b = quartiles(a_values), quartiles(b_values)
    pairs = len(a_values)
    resolved = 10 * b_wins >= 9 * pairs and sign * (b[1] - a[1]) > a[2] - a[0]
    worse = sign * (a[1] - b[1]) > metric["bound"] * abs(a[1])
    outright = min(sign * vb for vb in b_values) > max(sign * va for va in a_values)
    spread = a[2] - a[0] > metric["bound"] * abs(a[1]) and not outright
    return Comparison(name, metric["unit"], a, b, b_wins, pairs, resolved, worse, spread)


def format_row(c: Comparison) -> str:
    change = (c.b[1] - c.a[1]) / c.a[1] * 100 if c.a[1] else float("nan")
    verdict = "unresolved (spread > bound)" if c.spread else "resolved" if c.resolved else "not resolved"
    return (
        f"{c.name:20s} {c.unit:9s} A {c.a[1]:.6g} [{c.a[0]:.6g}-{c.a[2]:.6g}]  "
        f"B {c.b[1]:.6g} [{c.b[0]:.6g}-{c.b[2]:.6g}]  {change:+.1f}%  "
        f"B wins {c.b_wins}/{c.pairs}  A IQR {c.a_iqr:.4g}  {verdict}"
        + ("  WORSE beyond bound" if c.worse else "")
    )


def main(argv=None, runner=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_dir", type=Path, help="the parent checkout")
    parser.add_argument("b_dir", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.a_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(spec["run_seconds"])]
    try:
        a_runs, b_runs = run_pairs(args.a_dir, args.b_dir, argv, args.pairs, runner)
    except RunFailed as exc:
        print(f"stopped: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; A {args.a_dir}, B {args.b_dir}")
    for metric in spec["end_to_end"]:
        print(format_row(compare(metric, a_runs, b_runs)))
    print(json.dumps({"a": a_runs, "b": b_runs}))  # every run's values, in pair order
    return 0


if __name__ == "__main__":
    sys.exit(main())
