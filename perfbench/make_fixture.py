#!/usr/bin/env python3
"""Generate the benchmark's frozen fixture: model weights, timing set, fallback points.

The benchmark loads these files instead of rebuilding them on every run, so
the `grt` lane makes the same pruning and fallback decisions run after run.
Everything is derived from FIXTURE_SEED. Solve times in the timing set and
in the fallback runs are read off a work clock: programs explored divided by
a fixed rate (EXPLORED_PER_S) rather than wall time. Wall times on a shared
machine drift by a fifth between identical runs, enough to reorder the small
savings the table is built from; explored counts are exact, so the generator
makes the same fixture wherever it runs, as long as the machine enumerates
at least a quarter as fast as the nominal rate.

There is one fallback point per workload class, because the best switch
point depends on the per-problem budget: 30 s for the generated suite, the
timing budget (1.5 s) for drawn training-distribution problems. Each is
chosen by pruner.fallback_point from the timing problems' runs, on a grid
restricted to points at least X_MARGIN times the slowest reduced-grammar
solve that succeeded on problems of that class, so a slow machine cannot
push a reduced-phase success past the switch point.

Run from the repository root:

    python3 perfbench/make_fixture.py

It takes about 15 minutes on a 2-core machine (the timing set solves every
timing problem once per dropped terminal) and rewrites perfbench/fixture/.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")  # same BLAS set-up as perfbench/run.py
sys.path.insert(0, str(ROOT / "src"))

from grt.core import default_grammar  # noqa: E402
from grt.datagen import draw_crit_problems, gen_crit_dataset, gen_time_dataset, save_time_dataset  # noqa: E402
from grt.enumerator import SynthesisResult, solve  # noqa: E402
from grt.neural import TrainConfig, save_weights, train, terminal_order_hash  # noqa: E402
from grt.pruner import DEFAULT_FALLBACK_GRID, decide, fallback_point, savings, vote  # noqa: E402
from grt.sygus_format import parse_problem_file  # noqa: E402

FIXTURE_SEED = 0
FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
SUITE_TIMEOUT_S = 30.0
TIME_BUDGET_S = 1.5
# The work clock is deterministic, so one timing run per measurement suffices.
TIMING_REPEATS = 1
# Nominal enumeration rate of a 2-core x86-64 machine (the suite's heavy
# problems run at 300k-450k explored programs per second there).
EXPLORED_PER_S = 400_000.0
# Wall-clock deadline of a work-clock run, as a multiple of its budget.
REAL_SLACK = 4.0
N_DRAWN_TIMING_PROBLEMS = 20
# Reduced-grammar budget when measuring the runs fallback_point chooses from.
REDUCED_PROBE_S = 5.0
# Reduced-grammar budget when looking for the slowest success on the suite.
SUITE_PROBE_S = 10.0
# Identical searches on a shared 2-core machine were seen to run up to 1.75
# times slower from one minute to the next.
X_MARGIN = 2.0
SMALL_TIMEOUT_S = TIME_BUDGET_S
SMALL_GRID = tuple(g / 100 for g in DEFAULT_FALLBACK_GRID)


def work_clock_solve(problem):
    """solve, reporting elapsed time as programs explored / EXPLORED_PER_S.

    A run whose work-clock time exceeds the problem's budget counts as
    unsolved, exactly as a wall-clock timeout would.
    """
    budget = problem.timeout_s
    result = solve(replace(problem, timeout_s=budget * REAL_SLACK))
    t = result.programs_explored / EXPLORED_PER_S
    if not result.solved or t > budget:
        return SynthesisResult(False, None, budget, result.programs_explored, result.exhausted)
    return replace(result, elapsed_s=t)


def log(msg: str) -> None:
    print(f"[fixture] {msg}", file=sys.stderr, flush=True)


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    grammar = default_grammar()
    terms = grammar.terminal_names

    t0 = time.monotonic()
    samples = gen_crit_dataset(grammar, seed=FIXTURE_SEED)
    holdout = max(1, len(samples) // 10)
    weights = train(samples[:-holdout], TrainConfig(seed=FIXTURE_SEED), terms)
    save_weights(FIXTURE_DIR / "weights.bin", weights)
    log(f"weights: {len(samples)} samples, final loss {weights.epoch_losses[-1]:.4f} "
        f"({time.monotonic() - t0:.1f}s)")

    hand = sorted((ROOT / "benchmarks" / "handwritten").glob("*.sl"))
    timing_problems = [
        (p.stem, parse_problem_file(p.read_text(encoding="utf-8"), path=str(p)).problem)
        for p in hand
    ]
    timing_problems += draw_crit_problems(samples, grammar, N_DRAWN_TIMING_PROBLEMS, FIXTURE_SEED)
    t0 = time.monotonic()
    time_samples = gen_time_dataset(
        [p for _, p in timing_problems],
        work_clock_solve,
        budget_s=TIME_BUDGET_S,
        ids=[pid for pid, _ in timing_problems],
        repeats=TIMING_REPEATS,
    )
    save_time_dataset(FIXTURE_DIR / "time.jsonl", time_samples, terms)
    table = savings(time_samples)
    log(f"timing set: {len(time_samples)} rows ({time.monotonic() - t0:.1f}s); top savers "
        + ", ".join(f"{g}={a:+.3f}" for g, a in table.positive()[:3]))

    t_full_of = {}
    for s in time_samples:
        t_full_of.setdefault(s.problem_id, s.t_full_s)
    runs = []
    for pid, problem in timing_problems:
        decision = decide(problem.grammar, table, vote(weights, problem.constraints))
        result = work_clock_solve(replace(problem, grammar=decision.reduced, timeout_s=REDUCED_PROBE_S))
        runs.append((result.elapsed_s if result.solved else float("inf"), t_full_of[pid]))
    suite_paths = sorted((ROOT / "benchmarks" / "generated").glob("*.sl"))
    suite_slowest = 0.0
    for p in suite_paths:
        problem = parse_problem_file(p.read_text(encoding="utf-8")).problem
        decision = decide(problem.grammar, table, vote(weights, problem.constraints))
        result = work_clock_solve(replace(problem, grammar=decision.reduced, timeout_s=SUITE_PROBE_S))
        if result.solved:
            suite_slowest = max(suite_slowest, result.elapsed_s)
    drawn = runs[len(hand):]
    small_slowest = max((r for r, _ in drawn if r != float("inf")), default=0.0)

    def pick(runs_, timeout, grid, slowest):
        usable = [g for g in grid if X_MARGIN * slowest <= g <= timeout]
        return fallback_point(runs_, timeout_s=timeout, grid=usable)

    classes = {
        "suite": {
            "timeout_s": SUITE_TIMEOUT_S,
            "slowest_reduced_success_s": round(suite_slowest, 4),
            "fallback_x": pick(runs, SUITE_TIMEOUT_S, DEFAULT_FALLBACK_GRID, suite_slowest),
        },
        "small": {
            "timeout_s": SMALL_TIMEOUT_S,
            "slowest_reduced_success_s": round(small_slowest, 4),
            "fallback_x": pick(drawn, SMALL_TIMEOUT_S, SMALL_GRID, small_slowest),
        },
    }
    log(f"fallback classes: {classes}")

    meta = {
        "seed": FIXTURE_SEED,
        "x_margin": X_MARGIN,
        "explored_per_s": EXPLORED_PER_S,
        "classes": classes,
        "time_budget_s": TIME_BUDGET_S,
        "timing_repeats": TIMING_REPEATS,
        "terminal_hash": terminal_order_hash(terms),
        # unsolved reduced runs (inf) are written as null
        "fallback_runs": [
            [pid, r if r != float("inf") else None, f]
            for (pid, _), (r, f) in zip(timing_problems, runs)
        ],
    }
    (FIXTURE_DIR / "fixture.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
