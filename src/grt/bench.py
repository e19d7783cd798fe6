"""Benchmark harness: baseline vs. reduced-grammar runs, scoring, reports.

Each record times one benchmark through a ``pruner.Synthesizer``: its
full-grammar lane, and in a treated mode (grt, grtc) its vote, decision and
fallback schedule. The synthesizer re-verifies solved programs with the
interpreter before accepting them; solver trust is never assumed.
Per-benchmark failures are recorded in the results, never raised out of a
suite run. Timeout entries carry the timeout value itself plus a flag.

The competition-style score is 5N + 3F + S with stand-in pseudo-logarithmic
speed and size scales (documented below); they are applied identically to
every mode, so cross-mode comparisons stay meaningful.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from .core import program_size
from .enumerator import SynthesisResult
from .pruner import Synthesizer
from .sygus_format import ProblemFile

RESULTS_SCHEMA = "grt.results"
RESULTS_VERSION = 1

# Speed points: 6 at a millisecond, one fewer per decade. Size points: 5 for a
# single node, one fewer per decade of AST size.
_SPEED_FLOOR_S = 1e-3


def speed_points(t_s: float) -> int:
    return max(0, 6 - math.floor(math.log10(max(t_s, _SPEED_FLOOR_S) / _SPEED_FLOOR_S)))


def size_points(size: int) -> int:
    return max(0, 5 - math.floor(math.log10(max(size, 1))))


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
    run_once: Callable[[], SynthesisResult], timeout_s: float, repeats: int
) -> tuple[bool, float, int | None]:
    """The (solved, time, size) columns of one lane.

    The time is the median over ``repeats`` runs; repeats stop after a
    timeout since the solver is deterministic, and an unsolved lane carries
    the budget as its time.
    """
    result = first = run_once()
    times = [first.elapsed_s]
    while result.solved and len(times) < repeats:
        result = run_once()
        times.append(result.elapsed_s)
    if not first.solved:
        return False, timeout_s, None
    return True, statistics.median(times), program_size(first.program)


def bench_one(
    pf: ProblemFile, synth: Synthesizer, repeats: int = 1, baseline: BenchRecord | None = None
) -> BenchRecord:
    """Time one benchmark through ``synth``.

    The pruned columns of a treated mode time the vote and the decision
    (once) and the whole fallback schedule; an unsolved lane carries the
    budget. ``baseline``, a record of the same benchmark from an earlier run,
    supplies the full-grammar columns instead of timing the full grammar again.
    """
    if repeats < 1:  # the first run is always made, so zero would silently run once
        raise ValueError("repeats must be at least 1")
    bid = Path(pf.path).stem if pf.path else pf.fn_name
    try:
        if baseline is None:
            full = _timed_lane(lambda: synth.solve(pf.problem), synth.timeout_s, repeats)
        elif baseline.benchmark_id != bid:
            raise ValueError(f"baseline record is for {baseline.benchmark_id}, not {bid}")
        else:
            full = baseline.solved_full, baseline.t_full_s, baseline.size_full
        pruned, removed = (None, None, None), ()
        if synth.mode != "baseline":
            t0 = time.perf_counter()
            decision = synth.decide(pf.problem)
            decide_s = time.perf_counter() - t0
            solved, t_s, size = _timed_lane(lambda: synth.solve(pf.problem, decision), synth.timeout_s, repeats)
            pruned, removed = (solved, t_s + decide_s if solved else t_s, size), decision.removed
        return BenchRecord(bid, synth.mode, *full, *pruned, removed)
    except Exception as exc:  # per-benchmark errors never abort the suite
        error = f"{type(exc).__name__}: {exc}"
        return BenchRecord(bid, synth.mode, False, None, None, None, None, None, (), error)


def run_suite(
    problem_files: Sequence[ProblemFile],
    synth: Synthesizer,
    repeats: int = 1,
    baseline: Sequence[BenchRecord] | None = None,
) -> list[BenchRecord]:
    """Run every benchmark through ``synth``.

    Treated modes (grt, grtc) also time the full grammar per benchmark so each
    record carries its own baseline columns, unless ``baseline`` holds the
    records of an earlier run over the same files to take them from.
    """
    if baseline is None:
        baseline = [None] * len(problem_files)
    elif len(baseline) != len(problem_files):
        raise ValueError(f"{len(baseline)} baseline records for {len(problem_files)} benchmarks")
    return [bench_one(pf, synth, repeats, base) for pf, base in zip(problem_files, baseline)]


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
