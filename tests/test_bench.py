import time

import pytest

from grt import pruner

from grt.bench import (
    BenchRecord,
    Score,
    bench_one,
    load_records,
    report,
    run_suite,
    save_records,
    score,
    size_points,
    speed_points,
)
from grt.core import InputVar, IoConstraint, StrLit, SygusProblem, default_grammar
from grt.datagen import TimeSample
from grt.enumerator import SynthesisResult, solve
from grt.neural import TrainConfig, train
from grt.datagen import gen_crit_dataset
from grt.pruner import PROBE_EXPLORED, Synthesizer, savings, vote
from grt.sygus_format import ProblemFile

GRAMMAR = default_grammar()


def record(mode="baseline", solved=True, t=0.5, size=3, **kwargs):
    base = dict(
        benchmark_id="b",
        mode=mode,
        solved_full=solved,
        t_full_s=t,
        size_full=size if solved else None,
        solved_pruned=None,
        t_pruned_s=None,
        size_pruned=None,
        removed=(),
        error=None,
    )
    base.update(kwargs)
    return BenchRecord(**base)


class TestScore:
    def test_empty(self):
        assert score([]) == Score(0, 0, 0)
        assert score([]).total == 0

    def test_hand_computed_example(self):
        # t = 0.5s -> floor(log10(500)) = 2 -> 4 speed points
        # size 3 -> floor(log10(3)) = 0 -> 5 size points
        s = score([record(t=0.5, size=3)])
        assert s == Score(1, 4, 5)
        assert s.total == 5 * 1 + 3 * 4 + 5

    def test_all_timeouts_zero(self):
        s = score([record(solved=False, t=60.0, size=None) for _ in range(3)])
        assert s.total == 0

    def test_monotone_in_solved_count(self):
        base = [record(t=1.0, size=10)]
        more = base + [record(t=59.0, size=500)]
        assert score(more).total > score(base).total

    def test_pruned_lane_used_for_treated_modes(self):
        r = record(
            mode="grt", solved=True, t=9.0, size=30,
            solved_pruned=True, t_pruned_s=0.5, size_pruned=3,
        )
        assert score([r]) == Score(1, 4, 5)

    @pytest.mark.parametrize("t,expected", [(0.0005, 6), (0.001, 6), (0.5, 4), (5.0, 3), (3600.0, 0)])
    def test_speed_points(self, t, expected):
        assert speed_points(t) == expected

    @pytest.mark.parametrize("size,expected", [(1, 5), (9, 5), (10, 4), (99, 4), (100000, 0)])
    def test_size_points(self, size, expected):
        assert size_points(size) == expected


class TestBenchOne:
    def problem_file(self, constraints, grammar=GRAMMAR, name="identity"):
        return ProblemFile(f"/tmp/{name}.sl", SygusProblem(grammar, constraints), "f")

    def test_baseline_identity(self):
        pf = self.problem_file((IoConstraint(("a",), "a"),))
        rec = bench_one(pf, Synthesizer("baseline", 5))
        assert rec.solved_full
        assert rec.size_full == 1
        assert rec.solved_pruned is None
        assert rec.error is None

    def test_wrong_solver_output_is_recorded_not_raised(self):
        def lying_solver(problem):
            return SynthesisResult(True, StrLit("wrong"), 0.01, 1)

        pf = self.problem_file((IoConstraint(("a",), "a"),))
        rec = bench_one(pf, Synthesizer("baseline", 5, solver=lying_solver))
        assert rec.error is not None
        assert "verification" in rec.error

    def test_repeats_take_the_median_and_stop_after_a_timeout(self):
        def scripted(outcomes):
            calls = iter(outcomes)  # a call past the script raises, which the record shows

            def solver(problem):
                solved, elapsed = next(calls)
                return SynthesisResult(solved, InputVar("x0") if solved else None, elapsed, 1)

            return solver

        pf = self.problem_file((IoConstraint(("a",), "a"),))
        synth = Synthesizer("baseline", 5, solver=scripted([(True, 0.3), (True, 0.1), (True, 0.2)]))
        rec = bench_one(pf, synth, repeats=3)
        assert rec.error is None and rec.t_full_s == pytest.approx(0.2)
        rec = bench_one(pf, Synthesizer("baseline", 5, solver=scripted([(True, 0.1), (False, 5.0)])), repeats=3)
        assert rec.error is None and rec.t_full_s == pytest.approx(2.55)

    def test_repeats_below_one_rejected(self):
        # the first run is always made, so zero repeats would silently run once
        pf = self.problem_file((IoConstraint(("a",), "a"),))
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            bench_one(pf, Synthesizer("baseline"), repeats=0)

    def test_timeout_carries_budget_and_flag(self):
        grammar = default_grammar(string_literals=("",), int_literals=(0,))
        pf = self.problem_file((IoConstraint(("abcdef",), "fedcba"),), grammar, "rev")
        rec = bench_one(pf, Synthesizer("baseline", 0.2))
        assert not rec.solved_full
        assert rec.t_full_s == pytest.approx(0.2)
        assert rec.size_full is None


@pytest.fixture(scope="module")
def tiny_weights():
    samples = gen_crit_dataset(GRAMMAR, 60, 2, seed=21)
    return train(samples, TrainConfig(epochs=1, seed=0), GRAMMAR.terminal_names)


@pytest.fixture(scope="module")
def tiny_savings():
    rows = [
        TimeSample("str.replace", "p", 0.2, 0.05, 0.15),
        TimeSample("str.at", "p", 0.2, 0.1, 0.1),
        TimeSample("ite", "p", 0.2, 0.15, 0.05),
        TimeSample("str.++", "p", 0.2, 0.5, -0.3),
    ]
    return savings(rows)


class TestRunSuite:
    def files(self):
        problems = [
            (IoConstraint(("a",), "a"),),
            (IoConstraint(("ab",), "abab"), IoConstraint(("q",), "qq")),
        ]
        return [
            ProblemFile(f"/tmp/s{i}.sl", SygusProblem(GRAMMAR, cs, timeout_s=10), "f")
            for i, cs in enumerate(problems)
        ]

    def test_baseline_mode(self):
        records = run_suite(self.files(), Synthesizer("baseline", 10))
        assert all(r.solved_full for r in records)

    def test_grt_mode_records_removals(self, tiny_weights, tiny_savings):
        records = run_suite(self.files(), Synthesizer("grt", 10, 2.0, tiny_weights, tiny_savings))
        for r in records:
            assert r.error is None
            assert r.solved_pruned
            assert len(r.removed) <= 2
            assert set(r.removed) <= {"str.replace", "str.at", "ite"}

    def test_grtc_mode(self, tiny_weights):
        records = run_suite(self.files(), Synthesizer("grtc", 10, None, tiny_weights))
        for r in records:
            assert r.solved_pruned
            assert len(r.removed) == 2

    def test_baseline_records_replace_full_grammar_runs(self, tiny_weights):
        files = self.files()
        base = run_suite(files, Synthesizer("baseline", 10))
        full_grammar_budgets = []

        def counting_solver(problem):
            if problem.grammar == GRAMMAR:
                full_grammar_budgets.append(problem.max_explored)
            return solve(problem)

        records = run_suite(files, Synthesizer("grtc", 10, None, tiny_weights, solver=counting_solver), baseline=base)
        # every full-grammar search is a probe of the fallback schedule, none a timing run
        assert set(full_grammar_budgets) == {PROBE_EXPLORED}
        for r, b in zip(records, base):
            assert (r.solved_full, r.t_full_s, r.size_full) == (b.solved_full, b.t_full_s, b.size_full)
            assert r.error is None and r.solved_pruned

    def test_baseline_must_match_benchmarks(self, tiny_weights):
        files = self.files()
        base = run_suite(files, Synthesizer("baseline", 10))
        grtc = Synthesizer("grtc", 10, None, tiny_weights)
        with pytest.raises(ValueError):
            run_suite(files, grtc, baseline=base[:1])
        swapped = run_suite(files, grtc, baseline=base[::-1])
        assert all(r.error and "baseline record" in r.error for r in swapped)

    @pytest.mark.parametrize("solved", [True, False])
    def test_pruned_time_counts_the_vote_and_decision(self, tiny_weights, tiny_savings, monkeypatch, solved):
        # the vote and the decision are timed once and added to a solved
        # lane's time; an unsolved lane carries exactly the budget
        calls = []

        def slow_vote(weights, constraints):
            calls.append(len(constraints))
            time.sleep(0.05)
            return vote(weights, constraints)

        def solver(problem):
            return SynthesisResult(solved, InputVar("x0") if solved else None, 0.01, 1)

        monkeypatch.setattr(pruner, "vote", slow_vote)
        synth = Synthesizer("grt", 10, 2.0, tiny_weights, tiny_savings, solver)
        rec = bench_one(self.files()[0], synth, repeats=3)
        assert rec.error is None and calls == [1]
        if solved:
            assert 0.06 <= rec.t_pruned_s < 1.0
        else:
            assert rec.t_pruned_s == 10

    def test_identity_solved_equally_in_all_modes(self, tiny_weights, tiny_savings):
        files = self.files()[:1]
        outs = {mode: run_suite(files, Synthesizer(mode, 10, 2.0, tiny_weights, tiny_savings)) for mode in pruner.MODES}
        assert outs["baseline"][0].size_full == 1
        assert outs["grt"][0].size_pruned == 1
        assert outs["grtc"][0].size_pruned == 1


class TestReportAndRecords:
    def sample_records(self):
        return [
            record(mode="grt", t=1304.87, size=10, solved_pruned=True,
                   t_pruned_s=683.09, size_pruned=8, removed=("ite", "str.at")),
        ]

    def test_reduction_percentage_line(self):
        text = report(self.sample_records())
        assert "47.65%" in text

    def test_report_reproducible(self):
        records = self.sample_records()
        assert report(records) == report(records)

    def test_save_load_round_trip(self, tmp_path):
        records = self.sample_records() + [record(solved=False, t=30.0, size=None)]
        path = tmp_path / "results.jsonl"
        save_records(path, records)
        loaded = load_records(path)
        assert loaded == records
        path2 = tmp_path / "again.jsonl"
        save_records(path2, loaded)
        assert path2.read_bytes() == path.read_bytes()

    def test_error_rows_shown(self):
        text = report([record(error="SolverCrash: boom", solved=False, t=None, size=None)])
        assert "SolverCrash" in text
