"""Benchmark harness: baseline vs. reduced-grammar runs, scoring, reports.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .core import program_size, satisfies
from .enumerator import SynthesisResult, solve
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
    timeout_s: float = 60.0
    threshold: float = 0.5
    fallback_x: float | None = None  # None runs the reduced grammar on the full budget
    repeats: int = 1


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
        return {
            "benchmark_id": self.benchmark_id,
            "mode": self.mode,
            "solved_full": self.solved_full,
            "t_full_s": self.t_full_s,
            "size_full": self.size_full,
            "solved_pruned": self.solved_pruned,
            "t_pruned_s": self.t_pruned_s,
            "size_pruned": self.size_pruned,
            "removed": list(self.removed),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "BenchRecord":
        return cls(
            benchmark_id=row["benchmark_id"],
            mode=row["mode"],
            solved_full=row["solved_full"],
            t_full_s=row["t_full_s"],
            size_full=row["size_full"],
            solved_pruned=row["solved_pruned"],
            t_pruned_s=row["t_pruned_s"],
            size_pruned=row["size_pruned"],
            removed=tuple(row["removed"]),
            error=row["error"],
        )


@dataclass(frozen=True)
class Score:
    n_solved: int
    speed: int
    size: int

    @property
    def total(self) -> int:
        return 5 * self.n_solved + 3 * self.speed + self.size


def _verified(result: SynthesisResult, problem, var_names) -> bool:
    if not result.solved:
        return False
    return all(satisfies(result.program, c, var_names) for c in problem.constraints)


def _timed_runs(run_once: Callable[[], SynthesisResult], repeats: int) -> tuple[float, SynthesisResult]:
    """Median elapsed time over repeats; skips repeats after a timeout since
    the solver is deterministic."""
    times = []
    first = None
    for _ in range(max(1, repeats)):
        result = run_once()
        if first is None:
            first = result
        times.append(result.elapsed_s)
        if not result.solved:
            break
    return statistics.median(times), first


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

    ``baseline``, a record of the same benchmark from an earlier run, supplies
    the full-grammar columns instead of timing the full grammar again.
    """
    bid = Path(pf.path).stem if pf.path else pf.fn_name
    problem = replace(pf.problem, timeout_s=config.timeout_s)
    var_names = problem.grammar.var_names
    try:
        if baseline is not None:
            if baseline.benchmark_id != bid:
                raise ValueError(f"baseline record is for {baseline.benchmark_id}, not {bid}")
            solved_full, t_full_s, size_full = baseline.solved_full, baseline.t_full_s, baseline.size_full
        else:
            t_full, full = _timed_runs(lambda: solver(problem), config.repeats)
            solved_full = _verified(full, problem, var_names)
            if full.solved and not solved_full:
                raise RuntimeError("full-grammar solution failed verification")
            t_full_s = t_full if solved_full else config.timeout_s
            size_full = program_size(full.program) if solved_full else None
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

        votes = vote(weights, problem.constraints, config.threshold)
        decision = decide(problem.grammar, savings_table if mode == "grt" else None, votes)

        if config.fallback_x is not None and config.fallback_x < config.timeout_s:
            run_once = lambda: run_with_fallback(problem, decision.reduced, config.fallback_x, solver)
        else:
            reduced_problem = replace(problem, grammar=decision.reduced)
            run_once = lambda: solver(reduced_problem)
        t_pruned, pruned = _timed_runs(run_once, config.repeats)
        solved_pruned = _verified(pruned, problem, var_names)
        if pruned.solved and not solved_pruned:
            raise RuntimeError("reduced-grammar solution failed verification")
        record.solved_pruned = solved_pruned
        record.t_pruned_s = t_pruned if solved_pruned else config.timeout_s
        record.size_pruned = program_size(pruned.program) if solved_pruned else None
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
