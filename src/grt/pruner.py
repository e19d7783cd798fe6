"""Grammar reduction: combine criticality votes with measured time savings.

Per terminal, the savings table holds the mean synthesis-time delta caused by
dropping it (positive means dropping helps). A reduction keeps the grammar
minus at most two terminals: of the three largest positive savers, the two
with the fewest criticality votes go. A criticality-only variant drops the
two least-voted terminals outright (``decide`` without a table).

The fallback schedule runs three searches in sequence: a short probe of the
full grammar, bounded by a budget in counted work (PROBE_EXPLORED candidates),
then the reduced grammar for the fallback point x, then the full grammar for
whatever time is left. ``fallback_point`` picks x from timing data, fed by
``fallback_runs``. The probe lets problems the full grammar solves cheaply skip
the reduced search, so they no longer wait out x when the reduction removed a
terminal they need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import Grammar, IoConstraint, SygusProblem
from .enumerator import SynthesisResult
from .neural import ModelWeights, encode_batch, forward

DEFAULT_FALLBACK_GRID: tuple[float, ...] = (1, 2, 5, 10, 20, 30, 60, 120, 300, 600)
MAX_REMOVALS = 2
CANDIDATE_POOL = 3
# Work budget of the full-grammar probe: the smallest multiple of the
# enumerator's 1024-candidate checkpoint that covers every full-grammar solve
# among the drawn timing problems of the benchmark fixture (the largest,
# p03220, needs 2,803 candidates).
PROBE_EXPLORED = 3 * 1024
# Time budget of each reduced-grammar run that ``fallback_runs`` measures.
FALLBACK_RUN_S = 5.0


@dataclass
class SavingsTable:
    """Mean per-terminal time saved by dropping it, with sample counts.

    Capped (timed-out) measurements are included in the mean; the counts say
    how many samples back each figure.
    """

    means: dict[str, float]
    counts: dict[str, int]

    def positive(self) -> list[tuple[str, float]]:
        """Terminals worth considering for removal, best saver first."""
        items = [(g, a) for g, a in self.means.items() if a > 0]
        return sorted(items, key=lambda ga: (-ga[1], ga[0]))


def savings(time_dataset) -> SavingsTable:
    if not time_dataset:
        raise ValueError("empty timing dataset")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in time_dataset:
        sums[s.terminal] = sums.get(s.terminal, 0.0) + s.delta_s
        counts[s.terminal] = counts.get(s.terminal, 0) + 1
    means = {g: sums[g] / counts[g] for g in sums}
    return SavingsTable(means, counts)


def vote(
    weights: ModelWeights,
    constraints: Sequence[IoConstraint],
    threshold: float = 0.5,
) -> np.ndarray:
    """Sum of per-constraint binary criticality predictions, in one forward pass."""
    if not constraints:
        raise ValueError("no constraints to vote on")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    probs = forward(weights, encode_batch(constraints))
    return (probs >= threshold).sum(axis=0, dtype=np.int64)


@dataclass
class PruneDecision:
    removed: tuple[str, ...]
    candidates: tuple[tuple[str, float], ...]
    votes: tuple[int, ...]
    reduced: Grammar

    def to_dict(self) -> dict:
        return {
            "removed": list(self.removed),
            "candidates": [[g, a] for g, a in self.candidates],
            "votes": list(self.votes),
            "kept_terminals": list(self.reduced.terminal_names),
        }


def decide(grammar: Grammar, table: SavingsTable | None, votes: Sequence[int]) -> PruneDecision:
    """Drop the least-voted two of the three best positive savers.

    Ties in savings and in votes break by terminal name. With fewer than two
    positive savers only those are removed; with none the grammar is returned
    unchanged. Without a table (the criticality-only ablation) every terminal
    is a candidate and the two least-voted go; ``candidates`` is then empty.
    """
    names = grammar.terminal_names
    votes = tuple(int(v) for v in votes)
    if len(votes) != len(names):
        raise ValueError(f"{len(votes)} votes for {len(names)} terminals")
    vote_of = dict(zip(names, votes))
    if table is None:
        candidates = []
        pool = names
    else:
        candidates = [(g, a) for g, a in table.positive() if g in vote_of][:CANDIDATE_POOL]
        pool = [g for g, _ in candidates]
    removed = tuple(sorted(sorted(pool, key=lambda g: (vote_of[g], g))[:MAX_REMOVALS]))
    reduced = grammar
    for g in removed:
        reduced = reduced.drop(g)
    return PruneDecision(removed, tuple(candidates), votes, reduced)


def fallback_cost(x: float, runs: Sequence[tuple[float, float]], timeout_s: float) -> float:
    """Total expected synthesis time when switching grammars at budget x."""
    total = 0.0
    for t_reduced, t_full in runs:
        if t_reduced < x:
            total += t_reduced
        else:
            total += min(x + t_full, timeout_s)
    return total


def fallback_runs(
    timing_problems: Sequence[tuple[str, SygusProblem]],
    weights: ModelWeights,
    table: SavingsTable,
    time_dataset,
    solver: Callable[[SygusProblem], SynthesisResult],
) -> list[tuple[float, float]]:
    """The (reduced time or inf, full time) pairs that ``fallback_point`` takes.

    Each (id, problem) is reduced as a grt run reduces it and solved on the
    reduced grammar for FALLBACK_RUN_S; the full time is the timing set's.
    """
    t_full_of = {s.problem_id: s.t_full_s for s in time_dataset}
    runs = []
    for pid, problem in timing_problems:
        decision = decide(problem.grammar, table, vote(weights, problem.constraints))
        result = solver(replace(problem, grammar=decision.reduced, timeout_s=FALLBACK_RUN_S))
        runs.append((result.elapsed_s if result.solved else float("inf"), t_full_of[pid]))
    return runs


def fallback_point(
    runs: Sequence[tuple[float, float]],
    timeout_s: float,
    grid: Sequence[float] = DEFAULT_FALLBACK_GRID,
) -> float:
    """Grid point minimizing the total switching cost; ties pick the smallest x."""
    if not grid:
        raise ValueError("empty fallback grid")
    return min(grid, key=lambda x: (fallback_cost(x, runs, timeout_s), x))


def run_with_fallback(
    problem: SygusProblem,
    reduced: Grammar,
    x: float,
    solver: Callable[[SygusProblem], SynthesisResult],
) -> SynthesisResult:
    """Probe the full grammar, trust the reduced one for x, then fall back.

    Three phases run strictly in sequence, each through ``solver``:

    1. the full grammar, stopped after PROBE_EXPLORED candidates
       (``max_explored``) or after x seconds;
    2. the reduced grammar, for x seconds;
    3. the full grammar again, for the rest of the problem's budget.

    Each phase gets at most the time the earlier ones left, so together they
    never run past ``problem.timeout_s``; the reported elapsed time and
    explored count are sums over the phases that ran. A solver that ignores
    ``max_explored``, such as ``solve_with_external``, makes the probe a
    wall-clock phase of up to x.
    """
    if x > problem.timeout_s:
        raise ValueError(f"fallback point {x} exceeds problem timeout {problem.timeout_s}")
    result = solver(replace(problem, timeout_s=x, max_explored=PROBE_EXPLORED))
    elapsed, explored = result.elapsed_s, result.programs_explored
    for grammar, budget in ((reduced, x), (problem.grammar, problem.timeout_s)):
        remaining = problem.timeout_s - elapsed
        if result.solved or remaining <= 0:
            break
        result = solver(replace(problem, grammar=grammar, timeout_s=min(budget, remaining)))
        elapsed += result.elapsed_s
        explored += result.programs_explored
    return replace(result, elapsed_s=elapsed, programs_explored=explored)
