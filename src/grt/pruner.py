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

``Synthesizer`` is the one pipeline built on these: vote -> decide ->
schedule -> verify, in one of the MODES. The CLI, ``bench`` and
``fallback_runs`` run problems through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import Grammar, IoConstraint, SygusProblem, evaluate_rows
from .enumerator import SynthesisResult, solve, solve_with_external
from .neural import ModelWeights, hits

MODES = ("baseline", "grt", "grtc")
DEFAULT_FALLBACK_GRID: tuple[float, ...] = (1, 2, 5, 10, 20, 30, 60, 120, 300, 600)
MAX_REMOVALS = 2
CANDIDATE_POOL = 3
# Work budget of the full-grammar probe: the largest full-grammar solve among
# the drawn timing problems of the benchmark fixture (p03220, 2,718
# candidates), so the probe solves every one of them. tests/test_pruner.py
# checks the rule.
PROBE_EXPLORED = 2718
# Time budget of each reduced-grammar run that ``fallback_runs`` measures.
FALLBACK_RUN_S = 5.0


@dataclass(frozen=True)
class SavingsTable:
    """Mean per-terminal time saved by dropping it, with sample counts.

    Capped (timed-out) measurements are included in the mean; the counts say
    how many samples back each figure. The table is read-only, so the
    ranking made when it is built, and each grammar's candidates drawn from
    it, stay true.
    """

    means: Mapping[str, float]
    counts: Mapping[str, int]
    _ranked: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)
    _pools: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "means", MappingProxyType(dict(self.means)))
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))
        items = [(g, a) for g, a in self.means.items() if a > 0]
        object.__setattr__(self, "_ranked", tuple(sorted(items, key=lambda ga: (-ga[1], ga[0]))))

    def positive(self) -> tuple[tuple[str, float], ...]:
        """Terminals worth considering for removal, best saver first."""
        return self._ranked

    def pool(self, names: tuple[str, ...]) -> tuple[tuple[tuple[str, float], ...], tuple[int, ...]]:
        """The CANDIDATE_POOL best positive savers among these terminals, and
        their positions in ``names``; worked out once per tuple of names."""
        found = self._pools.get(names)
        if found is None:
            candidates = tuple((g, a) for g, a in self._ranked if g in names)[:CANDIDATE_POOL]
            found = self._pools[names] = (candidates, tuple(names.index(g) for g, _ in candidates))
        return found


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


def vote(weights: ModelWeights, constraints: Sequence[IoConstraint]) -> np.ndarray:
    """Sum of per-constraint binary criticality predictions, in one forward pass."""
    return hits(weights, constraints).sum(axis=0, dtype=np.int64)


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
    votes = tuple(np.asarray(votes, dtype=np.int64).tolist())
    if len(votes) != len(names):
        raise ValueError(f"{len(votes)} votes for {len(names)} terminals")
    candidates, pool = ((), range(len(names))) if table is None else table.pool(names)
    least_voted = sorted([(votes[i], names[i]) for i in pool])[:MAX_REMOVALS]
    removed = tuple(sorted(name for _, name in least_voted))
    return PruneDecision(removed, candidates, votes, grammar.without(removed))


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
    timing_problems: Sequence[tuple[str, SygusProblem]], synth: Synthesizer, time_dataset
) -> list[tuple[float, float]]:
    """The (reduced time or inf, full time) pairs that ``fallback_point`` takes.

    Each (id, problem) is reduced as the treated ``synth`` reduces it and
    solved by its solver on the reduced grammar for FALLBACK_RUN_S; the full
    time is the timing set's.
    """
    t_full_of = {s.problem_id: s.t_full_s for s in time_dataset}
    runs = []
    for pid, problem in timing_problems:
        reduced = synth.decide(problem).reduced
        result = synth.solver(replace(problem, grammar=reduced, timeout_s=FALLBACK_RUN_S))
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

    1. the full grammar, stopped after exactly PROBE_EXPLORED candidates
       (``max_explored``) or after x seconds, so it solves every problem
       whose full-grammar search needs at most that many;
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
    result = solver(problem.variant(problem.grammar, x, PROBE_EXPLORED))
    elapsed, explored = result.elapsed_s, result.programs_explored
    for grammar, budget in ((reduced, x), (problem.grammar, problem.timeout_s)):
        remaining = problem.timeout_s - elapsed
        if result.solved or remaining <= 0:
            break
        result = solver(problem.variant(grammar, min(budget, remaining), problem.max_explored))
        elapsed += result.elapsed_s
        explored += result.programs_explored
    return SynthesisResult(result.solved, result.program, elapsed, explored, result.exhausted)


@dataclass(frozen=True)
class Synthesizer:
    """One synthesis pipeline: vote -> decide -> schedule -> verify.

    ``baseline`` runs ``solver`` on the full grammar. ``grt`` and ``grtc``
    vote with ``weights`` and decide the reduction (``grtc`` without the
    savings ``table``), then run ``run_with_fallback``. ``fallback_x`` is the
    reduced grammar's budget, capped at ``timeout_s``; None gives the reduced
    grammar whatever the probe leaves, and is refused for an external solver,
    whose probe is not bounded in work. Every check is made when it is built.
    """

    mode: str
    timeout_s: float = 60.0
    fallback_x: float | None = None
    weights: ModelWeights | None = None
    table: SavingsTable | None = None
    solver: Callable[[SygusProblem], SynthesisResult] = solve

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (self.timeout_s >= 0 and (self.fallback_x is None or self.fallback_x >= 0)):  # refuses nan too
            raise ValueError(f"budgets must be non-negative, got {self.timeout_s} and {self.fallback_x}")
        if self.mode == "baseline":
            return
        if self.weights is None:
            raise ValueError(f"mode {self.mode!r} requires model weights")
        if self.mode == "grt" and self.table is None:
            raise ValueError("grt mode requires a savings table")
        if self.fallback_x is None and getattr(self.solver, "func", self.solver) is solve_with_external:
            raise ValueError("an external solver needs a fallback point (--fallback-x with --solver-cmd)")

    def decide(self, problem: SygusProblem) -> PruneDecision | None:
        """The reduction of a treated mode; None for baseline."""
        if self.mode == "baseline":
            return None
        votes = vote(self.weights, problem.constraints)
        return decide(problem.grammar, self.table if self.mode == "grt" else None, votes)

    def solve(self, problem: SygusProblem, decision: PruneDecision | None = None) -> SynthesisResult:
        """Solve within ``timeout_s``: the full grammar without a decision, else
        the fallback schedule over its reduced grammar. A returned program that
        fails the constraints raises."""
        problem = replace(problem, timeout_s=self.timeout_s)
        if decision is None:
            result = self.solver(problem)
        else:
            x = self.timeout_s if self.fallback_x is None else min(self.fallback_x, self.timeout_s)
            result = run_with_fallback(problem, decision.reduced, x, self.solver)
        if result.solved:
            constraints = problem.constraints
            outputs = evaluate_rows(result.program, [c.inputs for c in constraints], problem.grammar.var_names)
            if outputs != tuple(c.output for c in constraints):
                raise RuntimeError("solution failed verification")
        return result
