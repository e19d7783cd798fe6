import hashlib
import json
import math
import random
from collections import Counter

import pytest

from grt.core import (
    Grammar,
    IoConstraint,
    Sort,
    SygusProblem,
    TerminalSymbol,
    default_grammar,
    satisfies,
    terminals_used,
)
from grt.datagen import (
    ALPHABET,
    TimeSample,
    draw_crit_problems,
    gen_crit_dataset,
    gen_time_dataset,
    group_constraints,
    load_crit_dataset,
    load_time_dataset,
    occurrence_label,
    random_input,
    random_inputs,
    save_crit_dataset,
    save_time_dataset,
)
from grt.enumerator import SynthesisResult


class TestRandomInput:
    def test_zero_length(self):
        assert random_input(random.Random(0), (0, 0)) == ""

    def test_deterministic(self):
        assert random_input(random.Random(5)) == random_input(random.Random(5))

    def test_lengths_in_range(self):
        rng = random.Random(1)
        for _ in range(200):
            assert 0 <= len(random_input(rng, (0, 12))) <= 12

    def test_character_frequencies(self):
        # 10000 draws over a two-letter alphabet: each within 3 sigma of half
        rng = random.Random(2)
        counts = Counter(random_input(rng, (1, 1), "ab") for _ in range(10000))
        sigma = math.sqrt(10000 * 0.25)
        assert abs(counts["a"] - 5000) < 3 * sigma

    def test_negative_lower_bound_rejected(self):
        with pytest.raises(ValueError, match="negative length bound"):
            random_input(random.Random(0), (-5, -1))

    def test_empty_alphabet_rejected(self):
        # with no choices, the rejection loop would draw getrandbits(0) = 0 forever
        with pytest.raises(ValueError, match="empty alphabet"):
            random_input(random.Random(0), (0, 3), "")


def reference_random_input(rng, length_range, alphabet):
    """The reference: random_input's draws, made through random.Random's own randint and choice."""
    lo, hi = length_range
    n = rng.randint(lo, hi)
    return "".join(rng.choice(alphabet) for _ in range(n))


ALPHABETS = {n: "".join(map(chr, range(0x41, 0x41 + n))) for n in (1, 2, 3, 64, 65, 256)} | {39: ALPHABET}


@pytest.mark.parametrize("n_letters", sorted(ALPHABETS))
def test_random_input_draws_what_randint_and_choice_draw(n_letters):
    # Same strings and the same generator state afterwards, so the same
    # number of draws, over many seeds and length ranges; an interpreter
    # whose randint or choice draws otherwise fails here instead of
    # changing every dataset without notice.
    alphabet = ALPHABETS[n_letters]
    ranges = [(0, 0), (1, 1), (0, 1), (0, 12), (3, 7), (0, 31), (5, 64), (100, 140)]
    for seed in range(40):
        for length_range in ranges:
            ours, theirs = random.Random(f"{seed}"), random.Random(f"{seed}")
            got = random_inputs(ours, 3, length_range, alphabet)
            want = [reference_random_input(theirs, length_range, alphabet) for _ in range(3)]
            assert got == want, (seed, length_range)
            assert ours.getstate() == theirs.getstate(), (seed, length_range)
            assert random_input(ours, length_range, alphabet) == reference_random_input(theirs, length_range, alphabet)


class TestCritDataset:
    def test_default_dataset_unchanged(self):
        # inputs, outputs, labels and ids of every sample: perfbench's many-small
        # workload draws from these calls, so a change here changes the workload
        samples = gen_crit_dataset(default_grammar(), seed=0)
        rows = [[list(s.constraint.inputs), s.constraint.output, list(s.label), s.program_id] for s in samples]
        assert len(rows) == 20000
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "f127aa2c93d55af0669fcf40071e75d0eb748e92d892b20407abc9bf189d2fef"

    def test_a_non_string_input_variable_is_rejected_by_name(self):
        grammar = default_grammar(input_vars=(("x0", Sort.STRING), ("n", Sort.INT)))
        with pytest.raises(ValueError, match="input variable 'n' has sort Int"):
            gen_crit_dataset(grammar, n_programs=10, seed=0)

    def test_var_slot_grammar(self):
        # a grammar whose only member is the variable itself: every label
        # marks the x0 slot and every output equals its input
        var_term = TerminalSymbol("x0", 0, (), Sort.STRING)
        grammar = Grammar(terminals=(var_term,), input_vars=(("x0", Sort.STRING),))
        samples = gen_crit_dataset(grammar, n_programs=1, inputs_per_program=3, seed=4)
        assert len(samples) == 3
        for s in samples:
            assert s.label == (1,)
            assert s.constraint.output == s.constraint.inputs[0]

    def test_soundness_every_sample_satisfied(self, full_grammar):
        from grt.enumerator import stream

        programs = {f"p{i:05d}": p for i, p in enumerate(stream(full_grammar, 200))}
        samples = gen_crit_dataset(full_grammar, n_programs=200, inputs_per_program=3, seed=8)
        for s in samples:
            source = programs[s.program_id]
            assert satisfies(source, s.constraint, full_grammar.var_names)
            assert s.label == occurrence_label(source, full_grammar)

    def test_label_zero_for_unused_terminals(self, full_grammar):
        from grt.enumerator import stream

        programs = {f"p{i:05d}": p for i, p in enumerate(stream(full_grammar, 50))}
        samples = gen_crit_dataset(full_grammar, n_programs=50, inputs_per_program=2, seed=3)
        names = full_grammar.terminal_names
        for s in samples:
            used = terminals_used(programs[s.program_id])
            for bit, name in zip(s.label, names):
                if name not in used:
                    assert bit == 0

    def test_same_seed_identical(self, full_grammar):
        a = gen_crit_dataset(full_grammar, 40, 2, seed=5)
        b = gen_crit_dataset(full_grammar, 40, 2, seed=5)
        assert a == b

    def test_draw_crit_problems(self, full_grammar):
        samples = gen_crit_dataset(full_grammar, 50, 3, seed=1)
        drawn = draw_crit_problems(samples, full_grammar, 5, seed=2)
        assert len(drawn) == 5
        groups = group_constraints(samples)
        for pid, problem in drawn:
            assert problem.constraints == tuple(groups[pid])


def constant_time_solver(times):
    """Fake solver: per-grammar-size elapsed lookup, always solved."""

    def solver(problem):
        t = times[len(problem.grammar.terminal_names)]
        if t >= problem.timeout_s:
            return SynthesisResult(False, None, problem.timeout_s, 0)
        from grt.core import InputVar

        return SynthesisResult(True, InputVar("x0"), t, 1)

    return solver


class TestTimeDataset:
    def test_completeness_and_delta(self):
        grammar = default_grammar(terminals=["str.++", "str.len", "str.at"])
        problems = [
            SygusProblem(grammar, (IoConstraint(("a",), "a"),)),
            SygusProblem(grammar, (IoConstraint(("b",), "b"),)),
        ]
        solver = constant_time_solver({3: 0.4, 2: 0.1})
        samples = gen_time_dataset(problems, solver, budget_s=1.0, repeats=3)
        assert len(samples) == len(problems) * 3
        seen = {(s.problem_id, s.terminal) for s in samples}
        assert len(seen) == len(samples)
        for s in samples:
            assert s.delta_s == pytest.approx(s.t_full_s - s.t_dropped_s)
            assert s.t_full_s == pytest.approx(0.4)
            assert s.t_dropped_s == pytest.approx(0.1)

    def test_timeout_capped_at_budget(self):
        grammar = default_grammar(terminals=["str.++"])
        problems = [SygusProblem(grammar, (IoConstraint(("a",), "aa"),))]
        # full grammar solves fast; any drop times out
        solver = constant_time_solver({1: 0.05, 0: 99.0})
        samples = gen_time_dataset(problems, solver, budget_s=2.0, repeats=3)
        (sample,) = samples
        assert sample.t_dropped_s == 2.0
        assert sample.delta_s == pytest.approx(0.05 - 2.0)
        assert sample.delta_s < 0

    def test_repeats_below_one_rejected(self):
        # a median of no runs has no value
        problems = [SygusProblem(default_grammar(terminals=["str.++"]), (IoConstraint(("a",), "a"),))]
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            gen_time_dataset(problems, constant_time_solver({1: 0.1}), budget_s=1.0, repeats=0)

    def test_unused_terminal_delta_near_zero(self, full_grammar):
        from grt.enumerator import solve

        problems = [SygusProblem(full_grammar, (IoConstraint(("q",), "q"),))]
        samples = gen_time_dataset(problems, solve, budget_s=1.0, repeats=3)
        for s in samples:
            assert abs(s.delta_s) < 0.05  # identity solves in microseconds


class TestDatasetFiles:
    def test_crit_round_trip_bytes(self, tmp_path, full_grammar):
        samples = gen_crit_dataset(full_grammar, 30, 2, seed=13)
        path = tmp_path / "crit.jsonl"
        save_crit_dataset(path, samples, full_grammar.terminal_names)
        loaded, terms = load_crit_dataset(path)
        assert loaded == samples
        assert terms == full_grammar.terminal_names
        path2 = tmp_path / "crit2.jsonl"
        save_crit_dataset(path2, loaded, terms)
        assert path2.read_bytes() == path.read_bytes()

    def test_time_round_trip_bytes(self, tmp_path, full_grammar):
        samples = [
            TimeSample("str.++", "p1", 0.5, 0.25, 0.25),
            TimeSample("ite", "p1", 0.5, 1.5, -1.0),
        ]
        path = tmp_path / "time.jsonl"
        save_time_dataset(path, samples, full_grammar.terminal_names)
        loaded, terms = load_time_dataset(path)
        assert loaded == samples
        path2 = tmp_path / "time2.jsonl"
        save_time_dataset(path2, loaded, terms)
        assert path2.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "label, message",
        [
            ([1, 0], r"bad\.jsonl:3: label has 2 bits, the header lists 15 terminals"),
            ([0] * 14 + [2], r"bad\.jsonl:3: label bits must be 0 or 1"),
            ([0] * 14 + [True], r"bad\.jsonl:3: label bits must be 0 or 1"),
        ],
    )
    def test_malformed_label_rejected_by_line(self, tmp_path, full_grammar, label, message):
        samples = gen_crit_dataset(full_grammar, 2, 1, seed=13)
        path = tmp_path / "bad.jsonl"
        save_crit_dataset(path, samples, full_grammar.terminal_names)
        header, first, second = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(second)
        row["label"] = label
        path.write_text("\n".join([header, first, json.dumps(row)]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_crit_dataset(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"grt.time","version":1,"terminals":[]}\n')
        with pytest.raises(ValueError):
            load_crit_dataset(path)


def test_alphabet_matches_encoding_budget():
    assert set(ALPHABET) <= set("abcdefghijklmnopqrstuvwxyz0123456789 -.")
