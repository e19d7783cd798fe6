import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grt.core import InputVar, IoConstraint, SygusProblem, default_grammar
from grt.datagen import TimeSample
from grt.enumerator import SynthesisResult
from grt.neural import init_weights
from grt.pruner import (
    DEFAULT_FALLBACK_GRID,
    FALLBACK_RUN_S,
    PROBE_EXPLORED,
    decide,
    fallback_cost,
    fallback_point,
    fallback_runs,
    run_with_fallback,
    savings,
    vote,
)

GRAMMAR = default_grammar()
NAMES = GRAMMAR.terminal_names


def ts(terminal, pid, delta):
    return TimeSample(terminal, pid, 1.0, 1.0 - delta, delta)


class TestSavings:
    def test_mean(self):
        table = savings([ts("str.++", "a", 2.0), ts("str.++", "b", 4.0)])
        assert table.means["str.++"] == pytest.approx(3.0)
        assert table.counts["str.++"] == 2

    def test_negative_flagged_non_removable(self):
        table = savings([ts("ite", "a", 1.0), ts("ite", "b", -5.0)])
        assert table.means["ite"] == pytest.approx(-2.0)
        assert all(g != "ite" for g, _ in table.positive())

    def test_single_sample(self):
        table = savings([ts("str.at", "a", 0.25)])
        assert table.means["str.at"] == pytest.approx(0.25)

    def test_order_free(self):
        rows = [ts("str.++", "a", 2.0), ts("str.at", "a", 1.0), ts("str.++", "b", 4.0)]
        shuffled = list(rows)
        random.Random(0).shuffle(shuffled)
        assert savings(rows).means == savings(shuffled).means

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            savings([])


@pytest.fixture(scope="module")
def weights():
    return init_weights(NAMES, seed=4)


class TestVote:
    def test_single_constraint_equals_bits(self, weights):
        from grt.neural import predict_bits

        c = IoConstraint(("ab",), "b")
        assert np.array_equal(vote(weights, [c]), predict_bits(weights, c))

    def test_several_constraints_equal_sum_of_bits(self, weights):
        from grt.neural import predict_bits

        cs = [IoConstraint((s,), t) for s, t in [("ab", "b"), ("Hello World", "Hello"), ("x-1", "1"), ("", "")]]
        expected = sum(predict_bits(weights, c, 0.3) for c in cs)
        assert np.array_equal(vote(weights, cs, 0.3), expected)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_outside_unit_interval_rejected(self, weights, threshold):
        with pytest.raises(ValueError):
            vote(weights, [IoConstraint(("ab",), "b")], threshold)

    def test_duplicated_constraints_double(self, weights):
        c = IoConstraint(("ab",), "b")
        assert np.array_equal(vote(weights, [c, c]), 2 * vote(weights, [c]))

    def test_bounded_by_constraint_count(self, weights):
        cs = [IoConstraint((s,), s[:1]) for s in ("ab", "cd", "xy")]
        assert vote(weights, cs).max() <= len(cs)

    def test_order_free(self, weights):
        cs = [IoConstraint((s,), s[:1]) for s in ("ab", "cd", "xy")]
        assert np.array_equal(vote(weights, cs), vote(weights, list(reversed(cs))))

    def test_empty_rejected(self, weights):
        with pytest.raises(ValueError):
            vote(weights, [])


def votes_with(**named):
    v = [0] * len(NAMES)
    for name, count in named.items():
        v[NAMES.index(name)] = count
    return tuple(v)


class TestDecide:
    def test_removes_two_least_voted_of_top_three(self):
        table = savings([
            ts("str.replace", "a", 3.0),
            ts("ite", "a", 2.0),
            ts("str.at", "a", 1.0),
            ts("str.++", "a", -1.0),
        ])
        votes = votes_with(**{"str.replace": 5, "ite": 0, "str.at": 1})
        decision = decide(GRAMMAR, table, votes)
        assert decision.removed == ("ite", "str.at")
        assert [g for g, _ in decision.candidates] == ["str.replace", "ite", "str.at"]
        assert set(decision.reduced.terminal_names) == set(NAMES) - {"ite", "str.at"}

    def test_single_positive_candidate(self):
        table = savings([ts("str.at", "a", 1.0), ts("ite", "a", -2.0)])
        decision = decide(GRAMMAR, table, votes_with())
        assert decision.removed == ("str.at",)

    def test_no_positive_candidates(self):
        table = savings([ts("str.at", "a", -1.0)])
        decision = decide(GRAMMAR, table, votes_with())
        assert decision.removed == ()
        assert decision.reduced.terminal_names == NAMES

    def test_vote_ties_break_by_name(self):
        table = savings([
            ts("str.replace", "a", 3.0),
            ts("str.at", "a", 2.0),
            ts("ite", "a", 1.0),
        ])
        decision = decide(GRAMMAR, table, votes_with())
        assert decision.removed == ("ite", "str.at")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_subset_law(self, data):
        deltas = {
            name: data.draw(st.floats(-2, 2, allow_nan=False), label=name)
            for name in NAMES
        }
        table = savings([ts(g, "p", d) for g, d in deltas.items()])
        votes = tuple(data.draw(st.integers(0, 5)) for _ in NAMES)
        decision = decide(GRAMMAR, table, votes)
        assert len(decision.removed) <= 2
        assert set(decision.removed) <= {g for g, _ in decision.candidates}
        assert set(decision.reduced.terminal_names) == set(NAMES) - set(decision.removed)

    def test_timing_order_does_not_change_decision(self):
        rows = [ts(g, f"p{i}", (i % 5) - 1.5) for i, g in enumerate(NAMES * 3)]
        votes = votes_with(**{"str.++": 3})
        shuffled = list(rows)
        random.Random(1).shuffle(shuffled)
        assert decide(GRAMMAR, savings(rows), votes).removed == \
            decide(GRAMMAR, savings(shuffled), votes).removed


class TestDecideCritOnly:
    def test_removes_two_least_voted_overall(self):
        votes = [3] * len(NAMES)
        votes[NAMES.index("str.prefixof")] = 0
        votes[NAMES.index("=")] = 1
        decision = decide(GRAMMAR, None, tuple(votes))
        assert decision.removed == ("=", "str.prefixof")
        assert decision.candidates == ()

    def test_all_tied_uses_name_order(self):
        decision = decide(GRAMMAR, None, (0,) * len(NAMES))
        assert decision.removed == ("+", "-")


class TestFallbackPoint:
    def test_first_branch_everywhere(self):
        runs = [(0.5, 9.0), (1.2, 9.0), (3.0, 9.0)]
        assert fallback_cost(10.0, runs, 100.0) == pytest.approx(0.5 + 1.2 + 3.0)
        assert fallback_point(runs, 100.0, grid=[10.0]) == 10.0

    def test_never_solving_reduced(self):
        runs = [(float("inf"), 5.0)]
        # cost(x) = x + 5 while under the timeout, so the smallest x wins
        assert fallback_point(runs, 100.0) == min(DEFAULT_FALLBACK_GRID)

    def test_matches_exhaustive_cost_evaluation(self):
        rng = random.Random(3)
        for _ in range(100):
            runs = []
            for _ in range(rng.randint(1, 8)):
                t_star = rng.choice([rng.uniform(0, 50), float("inf")])
                runs.append((t_star, rng.uniform(0, 50)))
            timeout = rng.uniform(30, 200)
            # independent brute force straight from the cost definition
            best = None
            for x in DEFAULT_FALLBACK_GRID:
                total = 0.0
                for t_star, t_full in runs:
                    total += t_star if t_star < x else min(x + t_full, timeout)
                if best is None or total < best[0] or (total == best[0] and x < best[1]):
                    best = (total, x)
            assert fallback_point(runs, timeout) == best[1]

    def test_never_exceeds_grid_and_is_optimal(self):
        rng = random.Random(4)
        runs = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(5)]
        x_opt = fallback_point(runs, 60.0)
        assert x_opt <= max(DEFAULT_FALLBACK_GRID)
        assert all(
            fallback_cost(x_opt, runs, 60.0) <= fallback_cost(x, runs, 60.0)
            for x in DEFAULT_FALLBACK_GRID
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fallback_point([(1.0, 1.0)], 10.0, grid=[])


def scripted_solver(script, calls=None):
    """Fake solver keyed by grammar size; burns its declared elapsed time.

    An entry is (solved, elapsed) or (solved, elapsed, explored); without a
    count the search needs more work than the probe allows. A search whose
    work exceeds the problem's max_explored stops there, unsolved, at no cost
    on the fake clock. Each call's (terminal count, timeout_s, max_explored)
    is appended to ``calls``.
    """

    def solver(problem):
        n = len(problem.grammar.terminal_names)
        if calls is not None:
            calls.append((n, problem.timeout_s, problem.max_explored))
        solved, elapsed, *rest = script[n]
        explored = rest[0] if rest else 10 * PROBE_EXPLORED
        if problem.max_explored is not None and explored > problem.max_explored:
            return SynthesisResult(False, None, 0.0, problem.max_explored)
        elapsed = min(elapsed, problem.timeout_s)
        if not solved or elapsed >= problem.timeout_s:
            return SynthesisResult(False, None, elapsed, explored)
        return SynthesisResult(True, InputVar("x0"), elapsed, explored)

    return solver


def recording(solver, calls):
    """Wrap a solver to append each call's (grammar, max_explored, result)."""

    def wrapped(problem):
        result = solver(problem)
        calls.append((problem.grammar, problem.max_explored, result))
        return result

    return wrapped


# the solution needs str.replace three times; the full grammar finds it after
# about 55k candidates, well past the probe
CRITICAL_DROP_GRAMMAR = default_grammar(string_literals=("-", "."), int_literals=(0, 1))
CRITICAL_DROP_CONSTRAINTS = (
    IoConstraint(("a-b-c-d",), "a.b.c.d"),
    IoConstraint(("x-1-2-3",), "x.1.2.3"),
    IoConstraint(("q-r",), "q.r"),
    IoConstraint(("zz",), "zz"),
)


class TestRunWithFallback:
    def setup_method(self):
        self.problem = SygusProblem(
            GRAMMAR, (IoConstraint(("a",), "a"),), timeout_s=10.0
        )
        self.reduced = GRAMMAR.drop("str.replace").drop("ite")

    def test_reduced_solves_within_x(self):
        solver = scripted_solver({13: (True, 0.5), 15: (True, 3.0)})
        result = run_with_fallback(self.problem, self.reduced, 2.0, solver)
        assert result.solved
        assert result.elapsed_s == pytest.approx(0.5)

    def test_falls_back_to_full(self):
        solver = scripted_solver({13: (False, 99.0), 15: (True, 3.0)})
        result = run_with_fallback(self.problem, self.reduced, 2.0, solver)
        assert result.solved
        assert result.elapsed_s == pytest.approx(2.0 + 3.0)

    def test_neither_solves_hits_overall_budget(self):
        calls = []
        solver = scripted_solver({13: (False, 99.0), 15: (False, 99.0)}, calls)
        result = run_with_fallback(self.problem, self.reduced, 2.0, solver)
        assert not result.solved
        assert result.elapsed_s == pytest.approx(10.0)
        # probe, reduced phase for x, then the full grammar for the rest
        assert calls == [(15, 2.0, PROBE_EXPLORED), (13, 2.0, None), (15, pytest.approx(8.0), None)]
        assert result.programs_explored == PROBE_EXPLORED + 2 * 10 * PROBE_EXPLORED

    def test_x_equal_timeout_disables_fallback(self):
        # the probe still runs; the reduced phase then takes the whole budget
        calls = []
        solver = scripted_solver({13: (False, 99.0), 15: (True, 1.0)}, calls)
        result = run_with_fallback(self.problem, self.reduced, 10.0, solver)
        assert not result.solved
        assert result.elapsed_s == pytest.approx(10.0)
        assert calls == [(15, 10.0, PROBE_EXPLORED), (13, 10.0, None)]

    def test_x_above_timeout_rejected(self):
        solver = scripted_solver({13: (True, 0.1), 15: (True, 0.1)})
        with pytest.raises(ValueError):
            run_with_fallback(self.problem, self.reduced, 11.0, solver)

    def test_probe_solves_without_reduced_phase(self):
        calls = []
        solver = scripted_solver({13: (True, 0.5), 15: (True, 0.01, 500)}, calls)
        result = run_with_fallback(self.problem, self.reduced, 2.0, solver)
        assert result.solved
        assert result.elapsed_s == pytest.approx(0.01)
        assert result.programs_explored == 500
        assert calls == [(15, 2.0, PROBE_EXPLORED)]

    def test_full_phase_gets_time_reduced_phase_left(self):
        # the reduced search gives up after 0.5 s of its 2 s
        calls = []
        solver = scripted_solver({13: (False, 0.5), 15: (False, 99.0)}, calls)
        result = run_with_fallback(self.problem, self.reduced, 2.0, solver)
        assert not result.solved
        assert calls[-1] == (15, pytest.approx(9.5), None)
        assert result.elapsed_s == pytest.approx(10.0)

    def test_real_solver_probe_solves_cheap_problem(self):
        # needs str.replace, which the reduced grammar lacks, but the full
        # grammar finds it within the probe, so the reduced grammar never runs
        grammar = CRITICAL_DROP_GRAMMAR
        constraints = (IoConstraint(("a-b",), "a.b"), IoConstraint(("zz",), "zz"))
        problem = SygusProblem(grammar, constraints, timeout_s=20.0)
        from grt.enumerator import solve

        calls = []
        result = run_with_fallback(problem, grammar.drop("str.replace"), 1.0, recording(solve, calls))
        assert result.solved
        assert result.elapsed_s < 1.0
        assert [(g, budget) for g, budget, _ in calls] == [(grammar, PROBE_EXPLORED)]
        assert result.programs_explored == calls[0][2].programs_explored <= PROBE_EXPLORED

    def test_real_solver_fallback_recovers_critical_drop(self):
        # the solution needs str.replace; the reduced grammar lacks it
        grammar = CRITICAL_DROP_GRAMMAR
        problem = SygusProblem(grammar, CRITICAL_DROP_CONSTRAINTS, timeout_s=20.0)
        reduced = grammar.drop("str.replace")
        from grt.enumerator import solve

        calls = []
        result = run_with_fallback(problem, reduced, 1.0, recording(solve, calls))
        assert result.solved
        assert [(g, budget) for g, budget, _ in calls] == [
            (grammar, PROBE_EXPLORED), (reduced, None), (grammar, None),
        ]
        probe, reduced_phase, full = (r for _, _, r in calls)
        # the probe stops on counted work, exactly at its budget
        assert not probe.solved and not probe.exhausted
        assert probe.programs_explored == PROBE_EXPLORED
        assert reduced_phase.elapsed_s == pytest.approx(1.0)  # paid the reduced-phase budget
        assert full.solved
        assert result.elapsed_s == pytest.approx(sum(r.elapsed_s for _, _, r in calls))
        assert result.programs_explored == sum(r.programs_explored for _, _, r in calls)
        assert result.elapsed_s >= 1.0


class TestFallbackRuns:
    def test_unsolved_reduced_run_is_inf_and_full_time_comes_from_time_set(self, weights):
        table = savings([ts("str.replace", "p", 0.3), ts("ite", "p", 0.2), ts("str.at", "p", 0.1)])
        quick = SygusProblem(GRAMMAR, (IoConstraint(("a",), "a"),))
        hard = SygusProblem(GRAMMAR, (IoConstraint(("ab",), "ba"),))
        time_set = [
            TimeSample("str.at", "quick", 0.7, 0.6, 0.1),
            TimeSample("ite", "quick", 0.7, 0.5, 0.2),
            TimeSample("str.at", "hard", 1.5, 1.5, 0.0),
        ]
        calls = []

        def solver(problem):
            calls.append((problem.grammar, problem.timeout_s))
            if problem.constraints == quick.constraints:
                return SynthesisResult(True, InputVar("x0"), 0.25, 3)
            return SynthesisResult(False, None, FALLBACK_RUN_S, 1000)

        runs = fallback_runs([("quick", quick), ("hard", hard)], weights, table, time_set, solver)
        assert runs == [(0.25, 0.7), (math.inf, 1.5)]
        # each problem is solved once, on its reduced grammar, for FALLBACK_RUN_S
        assert calls == [
            (decide(GRAMMAR, table, vote(weights, p.constraints)).reduced, FALLBACK_RUN_S)
            for p in (quick, hard)
        ]
        assert all(len(g.terminal_names) == len(NAMES) - 2 for g, _ in calls)
