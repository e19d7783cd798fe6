"""Benchmark harness: baseline vs. reduced-grammar runs, scoring, reports.

A treated mode (grt, grtc) votes, decides the reduction and runs it through
``pruner.run_with_fallback``, the one probe -> reduced -> full schedule.

Every mode re-verifies solved programs with the interpreter before accepting
them; solver trust is never assumed. Per-benchmark failures are recorded in
the results, never raised out of a suite run. Timeout entries carry the
timeout value itself plus a flag.

The competition-style score is 5N + 3F + S with stand-in pseudo-logarithmic
speed and size scales (documented below); they are applied identically to
every mode, so cross-mode comparisons stay meaningful.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .core import program_size, satisfies
from .enumerator import SynthesisResult, solve, solve_with_external
from .neural import ModelWeights
from .pruner import SavingsTable, decide, run_with_fallback, vote
from .sygus_format import ProblemFile

MODES = ("baseline", "grt", "grtc")

RESULTS_SCHEMA = "grt.results"
RESULTS_VERSION = 1

# Speed points: 6 at a millisecond, one fewer per decade. Size points: 5 for a
# single node, one fewer per decade of AST size.
_SPEED_FLOOR_S = 1e-3


def speed_points(t_s: float) -> int:
    return max(0, 6 - math.floor(math.log10(max(t_s, _SPEED_FLOOR_S) / _SPEED_FLOOR_S)))


def size_points(size: int) -> int:
    return max(0, 5 - math.floor(math.log10(max(size, 1))))


@dataclass(frozen=True)
class BenchConfig:
    """Per-benchmark budget, fallback point and timing repeats.

    ``fallback_x`` is the reduced grammar's budget in treated modes, capped at
    ``timeout_s``; None gives the reduced grammar whatever the probe leaves,
    and is refused for an external solver, whose probe is not bounded in work.
    """

    timeout_s: float = 60.0
    fallback_x: float | None = None
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")


@dataclass
class BenchRecord:
    benchmark_id: str
    mode: str
    solved_full: bool
    t_full_s: float | None
    size_full: int | None
    solved_pruned: bool | None
    t_pruned_s: float | None
    size_pruned: int | None
    removed: tuple[str, ...]
    error: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "removed": list(self.removed)}

    @classmethod
    def from_dict(cls, row: dict) -> "BenchRecord":
        return cls(**{**row, "removed": tuple(row["removed"])})


@dataclass(frozen=True)
class Score:
    n_solved: int
    speed: int
    size: int

    @property
    def total(self) -> int:
        return 5 * self.n_solved + 3 * self.speed + self.size


def _timed_lane(
    run_once: Callable[[], SynthesisResult], problem, config: BenchConfig, lane: str
) -> tuple[bool, float, int | None]:
    """The (solved, time, size) columns of one lane.

    The time is the median over ``config.repeats`` runs; repeats stop after a
    timeout since the solver is deterministic, and an unsolved lane carries
    the budget as its time. A returned program that fails the constraints
    raises.
    """
    result = first = run_once()
    times = [first.elapsed_s]
    while result.solved and len(times) < config.repeats:
        result = run_once()
        times.append(result.elapsed_s)
    if not first.solved:
        return False, config.timeout_s, None
    var_names = problem.grammar.var_names
    if not all(satisfies(first.program, c, var_names) for c in problem.constraints):
        raise RuntimeError(f"{lane} solution failed verification")
    return True, statistics.median(times), program_size(first.program)


def _ignores_work_budget(solver: Callable) -> bool:
    return getattr(solver, "func", solver) is solve_with_external


def bench_one(
    pf: ProblemFile,
    mode: str,
    config: BenchConfig,
    weights: ModelWeights | None = None,
    savings_table: SavingsTable | None = None,
    solver: Callable = solve,
    baseline: BenchRecord | None = None,
) -> BenchRecord:
    """Time one benchmark in the given mode.

    The pruned columns of a treated mode time the vote and the decision
    (once) and the whole fallback schedule; an unsolved lane carries the
    budget.
    Without ``config.fallback_x`` the schedule relies on the probe stopping at
    PROBE_EXPLORED candidates, so a solver that ignores ``max_explored``
    (``solve_with_external``) is rejected there: its probe would take the
    whole budget and the reduced grammar would never run.
    ``baseline``, a record of the same benchmark from an earlier run, supplies
    the full-grammar columns instead of timing the full grammar again.
    """
    bid = Path(pf.path).stem if pf.path else pf.fn_name
    if mode != "baseline" and config.fallback_x is None and _ignores_work_budget(solver):
        raise ValueError("an external solver needs a fallback point (--fallback-x with --solver-cmd)")
    problem = replace(pf.problem, timeout_s=config.timeout_s)
    try:
        if baseline is None:
            full = _timed_lane(lambda: solver(problem), problem, config, "full-grammar")
        elif baseline.benchmark_id != bid:
            raise ValueError(f"baseline record is for {baseline.benchmark_id}, not {bid}")
        else:
            full = baseline.solved_full, baseline.t_full_s, baseline.size_full
        solved_full, t_full_s, size_full = full
        record = BenchRecord(
            benchmark_id=bid,
            mode=mode,
            solved_full=solved_full,
            t_full_s=t_full_s,
            size_full=size_full,
            solved_pruned=None,
            t_pruned_s=None,
            size_pruned=None,
            removed=(),
        )
        if mode == "baseline":
            return record

        t0 = time.perf_counter()
        votes = vote(weights, problem.constraints)
        decision = decide(problem.grammar, savings_table if mode == "grt" else None, votes)
        decide_s = time.perf_counter() - t0
        x = config.timeout_s if config.fallback_x is None else min(config.fallback_x, config.timeout_s)
        run_once = lambda: run_with_fallback(problem, decision.reduced, x, solver)
        solved, t_s, record.size_pruned = _timed_lane(run_once, problem, config, "pruned-lane")
        record.solved_pruned, record.t_pruned_s = solved, t_s + decide_s if solved else t_s
        record.removed = decision.removed
        return record
    except Exception as exc:  # per-benchmark errors never abort the suite
        return BenchRecord(
            benchmark_id=bid,
            mode=mode,
            solved_full=False,
            t_full_s=None,
            size_full=None,
            solved_pruned=None,
            t_pruned_s=None,
            size_pruned=None,
            removed=(),
            error=f"{type(exc).__name__}: {exc}",
        )


def run_suite(
    problem_files: Sequence[ProblemFile],
    mode: str,
    config: BenchConfig,
    weights: ModelWeights | None = None,
    savings_table: SavingsTable | None = None,
    solver: Callable = solve,
    baseline: Sequence[BenchRecord] | None = None,
) -> list[BenchRecord]:
    """Run every benchmark in the given mode.

    Treated modes (grt, grtc) also time the full grammar per benchmark so each
    record carries its own baseline columns, unless ``baseline`` holds the
    records of an earlier run over the same files to take them from.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if baseline is None:
        baseline = [None] * len(problem_files)
    elif len(baseline) != len(problem_files):
        raise ValueError(f"{len(baseline)} baseline records for {len(problem_files)} benchmarks")
    if mode != "baseline" and weights is None:
        raise ValueError(f"mode {mode!r} requires model weights")
    if mode == "grt" and savings_table is None:
        raise ValueError("grt mode requires a savings table")
    return [
        bench_one(pf, mode, config, weights, savings_table, solver, base)
        for pf, base in zip(problem_files, baseline)
    ]


def _result_lane(record: BenchRecord) -> tuple[bool, float | None, int | None]:
    if record.mode == "baseline":
        return record.solved_full, record.t_full_s, record.size_full
    return bool(record.solved_pruned), record.t_pruned_s, record.size_pruned


def score(records: Sequence[BenchRecord]) -> Score:
    n = speed = size = 0
    for record in records:
        solved, t, sz = _result_lane(record)
        if solved and t is not None and sz is not None:
            n += 1
            speed += speed_points(t)
            size += size_points(sz)
    return Score(n, speed, size)


def report(records: Sequence[BenchRecord], suite_score: Score | None = None) -> str:
    """Human-readable table plus totals; deterministic for identical records."""
    if suite_score is None:
        suite_score = score(records)
    lines = []
    header = (
        f"{'benchmark':<28} {'full(s)':>9} {'sizeF':>5} "
        f"{'pruned(s)':>9} {'sizeP':>5} {'removed':<28} note"
    )
    lines.append(header)
    lines.append("-" * len(header))
    sum_full = sum_pruned = 0.0
    have_both = 0
    for r in records:
        t_f = "-" if r.t_full_s is None else f"{r.t_full_s:9.3f}"
        t_p = "-" if r.t_pruned_s is None else f"{r.t_pruned_s:9.3f}"
        s_f = "-" if r.size_full is None else str(r.size_full)
        s_p = "-" if r.size_pruned is None else str(r.size_pruned)
        note = ""
        if r.error:
            note = "ERROR " + r.error
        else:
            flags = []
            if not r.solved_full:
                flags.append("TO-full")
            if r.solved_pruned is False:
                flags.append("TO-pruned")
            note = ",".join(flags)
        lines.append(
            f"{r.benchmark_id:<28} {t_f:>9} {s_f:>5} {t_p:>9} {s_p:>5} "
            f"{','.join(r.removed):<28} {note}"
        )
        if r.t_full_s is not None and r.t_pruned_s is not None:
            sum_full += r.t_full_s
            sum_pruned += r.t_pruned_s
            have_both += 1
    lines.append("-" * len(header))
    if have_both:
        reduction = (1.0 - sum_pruned / sum_full) * 100.0 if sum_full > 0 else 0.0
        lines.append(
            f"totals over {have_both} benchmarks: full {sum_full:.2f}s, "
            f"pruned {sum_pruned:.2f}s, reduction {reduction:.2f}%"
        )
    lines.append(
        f"score: solved={suite_score.n_solved} speed={suite_score.speed} "
        f"size={suite_score.size} total={suite_score.total}"
    )
    return "\n".join(lines) + "\n"


def save_records(path, records: Sequence[BenchRecord]) -> None:
    header = {"schema": RESULTS_SCHEMA, "version": RESULTS_VERSION}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for r in records:
            fh.write(json.dumps(r.to_dict(), separators=(",", ":")) + "\n")


def load_records(path) -> list[BenchRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != RESULTS_SCHEMA or header.get("version") != RESULTS_VERSION:
            raise ValueError(f"{path}: not a results file")
        return [BenchRecord.from_dict(json.loads(line)) for line in fh]
