import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from grt import enumerator
from grt.core import (
    Apply,
    IoConstraint,
    Sort,
    SygusProblem,
    default_grammar,
    evaluate,
    program_size,
    satisfies,
)
from grt.enumerator import (
    GrammarExhausted,
    PROBE_STRINGS,
    SolverCrash,
    UnparseableOutput,
    WrongAnswer,
    probe_assignments,
    solve,
    solve_with_external,
    stream,
)
from grt.pruner import PROBE_EXPLORED
from grt.sygus_format import parse_problem_file, program_to_text
from oracles import REF_SEMANTICS, all_programs, brute_force_min_size, ref_eval, ref_int_to_str, ref_to_int


SUITE_MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "generated" / "manifest.json").read_text(encoding="utf-8")
)


def generated_problem(generated_paths, name):
    """A generated suite problem (60 s budget) and its manifest entry."""
    path = next(p for p in generated_paths if p.stem == name)
    manifest = json.loads((path.parent / "manifest.json").read_text(encoding="utf-8"))
    entry = next(e for e in manifest if e["id"] == name)
    problem = replace(parse_problem_file(path.read_text(encoding="utf-8")).problem, timeout_s=60)
    return problem, entry


def concat_grammar(**kwargs):
    return default_grammar(terminals=["str.++"], string_literals=(), int_literals=(), **kwargs)


class TestSolve:
    def test_identity_is_smallest(self):
        problem = SygusProblem(concat_grammar(), (IoConstraint(("a",), "a"),), timeout_s=5)
        result = solve(problem)
        assert result.solved
        assert program_size(result.program) == 1

    def test_concat_solution_minimal(self):
        problem = SygusProblem(
            concat_grammar(),
            (IoConstraint(("a",), "aa"), IoConstraint(("xy",), "xyxy")),
            timeout_s=5,
        )
        result = solve(problem)
        assert result.solved
        expected = brute_force_min_size(problem.grammar, problem.constraints, 3)
        assert program_size(result.program) == expected == 3

    def test_unsolvable_finite_space(self):
        # two variables must be concatenated, but the grammar has no operators
        grammar = default_grammar(
            terminals=[],
            string_literals=(),
            int_literals=(),
            input_vars=(("x0", Sort.STRING), ("x1", Sort.STRING)),
        )
        problem = SygusProblem(grammar, (IoConstraint(("a", "b"), "ab"),), timeout_s=5)
        result = solve(problem)
        assert not result.solved
        assert result.exhausted
        assert result.elapsed_s <= problem.timeout_s

    def test_timeout_is_outcome(self):
        grammar = default_grammar(string_literals=("",), int_literals=(0,))
        constraints = (IoConstraint(("abcdef",), "fedcba"),)  # no reversal operator
        result = solve(SygusProblem(grammar, constraints, timeout_s=0.2))
        assert not result.solved
        assert result.elapsed_s <= 0.2 + 1e-9

    def test_solution_verified_against_all_constraints(self):
        grammar = default_grammar(string_literals=(" ",), int_literals=(0, 1))
        constraints = tuple(
            IoConstraint((s,), s.split()[0]) for s in ["ab cd", "q rs", "hello world"]
        )
        result = solve(SygusProblem(grammar, constraints, timeout_s=20))
        assert result.solved
        for c in constraints:
            assert satisfies(result.program, c, grammar.var_names)

    def test_deterministic(self):
        grammar = default_grammar(string_literals=("-",), int_literals=(0, 1))
        problem = SygusProblem(
            grammar, (IoConstraint(("ab",), "ab-ab"), IoConstraint(("q",), "q-q")), timeout_s=10
        )
        first, second = solve(problem), solve(problem)
        assert first.program == second.program
        assert first.programs_explored == second.programs_explored

    def test_monotone_budget(self):
        grammar = default_grammar(string_literals=("-",), int_literals=(0,))
        problem = SygusProblem(grammar, (IoConstraint(("ab",), "ab-ab"),), timeout_s=5)
        small = solve(problem)
        big = solve(replace(problem, timeout_s=50))
        assert small.solved and big.solved
        assert small.program == big.program

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            solve(SygusProblem(concat_grammar(), ()))

    def test_minimality_over_random_subset_grammars(self):
        rng = random.Random(7)
        op_pool = ["str.++", "str.at", "str.substr", "str.len", "str.replace", "-", "+"]
        for _ in range(10):
            ops = rng.sample(op_pool, rng.randint(1, 4))
            grammar = default_grammar(
                terminals=ops, string_literals=("a", ""), int_literals=(0, 1)
            )
            # constraints from a random target found by brute force
            from oracles import all_programs, ref_eval

            targets = all_programs(grammar, Sort.STRING, rng.randint(2, 4))
            if not targets:
                continue
            target = rng.choice(targets)
            inputs = ["xy", "xb1", ""]
            constraints = tuple(
                IoConstraint((s,), ref_eval(target, {"x0": s})) for s in inputs
            )
            expected = brute_force_min_size(grammar, constraints, 5)
            if expected is None:
                continue
            result = solve(SygusProblem(grammar, constraints, timeout_s=20))
            assert result.solved
            assert program_size(result.program) == expected


class TestWitnessedRoots:
    """Witnessed roots are searched top-down and their pool entries deferred."""

    @pytest.mark.parametrize("name", ["gen-027", "gen-028", "gen-029", "gen-030", "gen-031"])
    def test_deferred_values_move_down(self, generated_paths, name):
        # Each answer's right child is (str.++ lit x), a value str.replace
        # first keeps one size too large, before the deferred str.++ entries
        # of the smaller pool are added.
        problem, entry = generated_problem(generated_paths, name)
        result = solve(problem)
        assert result.solved
        assert program_size(result.program) == entry["solved_size"]

    def test_minimality_over_random_grammars_with_witnessed_roots(self):
        rng = random.Random(405)
        others = ["str.replace", "str.at", "str.len", "str.indexof", "int.to.str", "+", "-"]
        inputs = ["xy1", "b-a", "", "a-a-"]
        checked = with_empty = 0
        while checked < 300:
            ops = rng.sample(["str.++", "str.substr"], rng.randint(1, 2)) + rng.sample(others, rng.randint(1, 2))
            grammar = default_grammar(
                terminals=ops, string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)), int_literals=(0, 1)
            )
            pool = all_programs(grammar, Sort.STRING, rng.randint(3, 6))
            if not pool:
                continue
            target = rng.choice(pool)
            constraints = tuple(IoConstraint((s,), ref_eval(target, {"x0": s})) for s in inputs)
            expected = brute_force_min_size(grammar, constraints, 6)
            result = solve(SygusProblem(grammar, constraints, timeout_s=30))
            assert result.solved
            assert program_size(result.program) == expected, (ops, constraints)
            checked += 1
            with_empty += any(c.output == "" for c in constraints)
        assert with_empty >= 100

    def test_minimality_over_random_grammars_with_guarded_roots(self):
        # str.at, int.to.str and ite roots are searched top-down too, behind
        # guards on the outputs' shape, so most targets are drawn rooted at
        # them to give single characters, decimals and "" as well as longer
        # outputs
        rng = random.Random(506)
        guarded = ["str.at", "int.to.str", "ite"]
        others = ["str.replace", "str.len", "str.indexof", "str.to.int", "+", "-"]
        conditions = ["str.prefixof", "str.suffixof", "str.contains", "="]
        inputs = ["7", "ab", "", "a-10"]
        checked = 0
        shapes = dict.fromkeys(["chars", "decimals", "empty", "mixed"], 0)
        roots = dict.fromkeys(guarded, 0)
        while checked < 300:
            ops = rng.sample(guarded, rng.randint(1, 3)) + rng.sample(["str.++", "str.substr"], rng.randint(0, 2))
            ops += rng.sample(others, rng.randint(1, 2))
            if "ite" in ops:
                ops.append(rng.choice(conditions))
            grammar = default_grammar(
                terminals=ops, string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)), int_literals=(0, 1)
            )
            root = rng.choice([g for g in guarded if g in ops])
            pool = all_programs(grammar, Sort.STRING, rng.randint(6, 7) if root == "ite" else rng.randint(3, 6))
            if not pool:
                continue
            rooted = [p for p in pool if p.terminal.name == root]
            target = rng.choice(rooted if rooted and rng.random() < 0.8 else pool)
            constraints = tuple(IoConstraint((s,), ref_eval(target, {"x0": s})) for s in inputs)
            expected = brute_force_min_size(grammar, constraints, 7)
            if expected < 3:
                continue  # a leaf or a unary root meets it
            result = solve(SygusProblem(grammar, constraints, timeout_s=30))
            assert result.solved
            assert program_size(result.program) == expected, (ops, constraints)
            checked += 1
            if result.program.terminal.name in roots:
                roots[result.program.terminal.name] += 1
            outputs = [c.output for c in constraints]
            short = [len(o) <= 1 or o.isdigit() for o in outputs]
            shapes["chars"] += all(len(o) <= 1 for o in outputs)
            shapes["decimals"] += any(outputs) and all(o.isdigit() for o in outputs if o)
            shapes["empty"] += "" in outputs
            shapes["mixed"] += any(short) and not all(short)
        assert min(shapes.values()) >= 30, shapes
        assert min(roots.values()) >= 10, roots

    def test_guard_rejected_roots_grow_no_int_pool(self, generated_paths, monkeypatch):
        # gen-001's outputs are not all single characters or decimals, so its
        # str.at and int.to.str roots are ruled out without work. The Int pool
        # of size 8, which only int.to.str roots of size 9 read, is never grown,
        # and neither is the size-7 one: a str.substr root of size 10, its
        # solution's size, grows its length pool only once a host and a start
        # fit, and no host and start of size 1 fit gen-001's outputs. Nor is
        # the size-6 one, which holds the answer's start: starts are the
        # outputs' occurrences in the host, looked up by value top-down.
        problem, entry = generated_problem(generated_paths, "gen-001")
        grow = enumerator._Space._grow
        grown = []

        def recording_grow(space, sort, size, *args, **kwargs):
            grown.append((sort, size))
            return grow(space, sort, size, *args, **kwargs)

        monkeypatch.setattr(enumerator._Space, "_grow", recording_grow)
        result = solve(problem)
        assert program_size(result.program) == entry["solved_size"] == 10
        assert max(size for sort, size in grown if sort is Sort.INT) < 6

    @pytest.mark.parametrize("name", ["gen-001", "gen-037"])
    @pytest.mark.parametrize("removed", [(), ("str.replace", "str.suffixof")])
    def test_concat_children_found_without_completing_pools(self, generated_paths, monkeypatch, name, removed):
        # At the solution's size L the str.++ witness scans the size-1 lefts
        # and looks the size L-2 rights up top-down, so the String pool of
        # size L-2 is never completed: neither on the full grammar nor on the
        # grammar the grt lane searches, which drops str.replace and
        # str.suffixof on the large suite problems.
        problem, entry = generated_problem(generated_paths, name)
        grammar = problem.grammar
        for terminal in removed:
            grammar = grammar.drop(terminal)
        grow = enumerator._Space._grow
        completed = []

        def recording_grow(space, sort, size, ops, *args, **kwargs):
            if ops is not space.eager:  # not the eager growth of a level
                completed.append((sort, size))
            return grow(space, sort, size, ops, *args, **kwargs)

        monkeypatch.setattr(enumerator._Space, "_grow", recording_grow)
        result = solve(replace(problem, grammar=grammar))
        assert program_size(result.program) == entry["solved_size"]
        assert max(size for sort, size in completed if sort is Sort.STRING) < entry["solved_size"] - 2

    def test_reduced_search_completes_no_pool_for_ruled_out_splits(self, generated_paths, monkeypatch):
        # On the grammar the grt lane searches, gen-001's answer is
        # (str.substr x0 <Int of size 6> (str.len x0)). The other str.substr
        # splits of size 10 are ruled out on the complete Int pools, or on
        # hosts and starts that do not fit, before their larger pools are
        # read: the Int pool of size 7 and the String pool of size 6 cost
        # nothing. The start of size 6 is looked up by value, so the Int pool
        # of size 6 costs nothing either.
        problem, entry = generated_problem(generated_paths, "gen-001")
        grammar = problem.grammar.drop("str.replace").drop("str.suffixof")
        grow = enumerator._Space._grow
        spent = {}

        def recording_grow(space, sort, size, *args, **kwargs):
            before = space.explored
            try:
                return grow(space, sort, size, *args, **kwargs)
            finally:
                spent[(sort, size)] = spent.get((sort, size), 0) + space.explored - before

        monkeypatch.setattr(enumerator._Space, "_grow", recording_grow)
        result = solve(replace(problem, grammar=grammar))
        assert program_size(result.program) == entry["solved_size"] == 10
        assert max(size for sort, size in spent if sort is Sort.INT) < 6
        assert spent.get((Sort.STRING, 6), 0) == 0

    def test_reduced_search_builds_hosts_without_completing_pools(self, generated_paths, monkeypatch):
        # On the grammar the grt lane searches, gen-037's answer is a
        # str.substr of size 14 whose host has size 5; before it, the
        # str.substr witness reads the hosts of every size up to 9. Those not
        # in a complete pool are built top-down, so String pool 9 is never
        # completed, and neither is Int pool 8, which only its int.to.str
        # entries would read. Nor is String pool 8: the ite witness reads it
        # only as a branch beside a complete pool that meets no example.
        problem, entry = generated_problem(generated_paths, "gen-037")
        grammar = problem.grammar.drop("str.replace").drop("str.suffixof")
        grow, hosts = enumerator._Space._grow, enumerator._Space._hosts
        completed, read = [], []

        def recording_grow(space, sort, size, ops, *args, **kwargs):
            if ops is not space.eager:  # not the eager growth of a level
                completed.append((sort, size))
            return grow(space, sort, size, ops, *args, **kwargs)

        def recording_hosts(space, size, target):
            read.append(size)
            return hosts(space, size, target)

        monkeypatch.setattr(enumerator._Space, "_grow", recording_grow)
        monkeypatch.setattr(enumerator._Space, "_hosts", recording_hosts)
        result = solve(replace(problem, grammar=grammar))
        assert program_size(result.program) == entry["solved_size"] == 14
        assert max(read) == 9
        assert not {(Sort.STRING, 8), (Sort.STRING, 9), (Sort.INT, 8)} & set(completed)

    @pytest.mark.parametrize("output, solvable", [("abcdef", False), ("ab", True)])
    def test_substr_split_with_too_short_lengths_reads_no_hosts(self, monkeypatch, output, solvable):
        # Without Int operators the only lengths are the literals 0, 1 and 2,
        # so the one split of size 4, (x0, literal, literal), is ruled out
        # before its hosts are read when an output is longer than that, and
        # searched when it is not.
        grammar = default_grammar(terminals=["str.substr"], string_literals=(), int_literals=(0, 1, 2))
        space = enumerator._Space(grammar, [("abcdefgh",)], target=(output,))
        hosts = enumerator._Space._hosts
        read = []

        def recording_hosts(space, size, target):
            read.append(size)
            return hosts(space, size, target)

        monkeypatch.setattr(enumerator._Space, "_hosts", recording_hosts)
        found = enumerator._INVERSES["str.substr"](space, grammar.terminal("str.substr"), 4, (output,))
        assert (found is not None) == bool(read) == solvable
        if solvable:
            assert program_to_text(found) == "(str.substr x0 0 2)"

    @pytest.mark.parametrize("size, solvable", [(5, False), (6, True)])
    def test_ite_split_with_empty_condition_pool_reads_no_branches(self, monkeypatch, size, solvable):
        # str.prefixof makes the smallest conditions, of size 3. With the Bool
        # pools of sizes 1 and 2 complete (and empty), no split of size 5 reads
        # its branches; at size 6 the size-3 conditions give the answer.
        grammar = default_grammar(terminals=["ite", "str.prefixof"], string_literals=("a", "b"), int_literals=())
        target = ("a", "b")
        space = enumerator._Space(grammar, [("ab",), ("ba",)], target=target)
        space.pool(Sort.BOOL, 2)
        matches = enumerator._Space._matches
        read = []

        def recording_matches(space, size, target):
            read.append(size)
            return matches(space, size, target)

        monkeypatch.setattr(enumerator._Space, "_matches", recording_matches)
        found = enumerator._INVERSES["ite"](space, grammar.terminal("ite"), size, target)
        assert (found is not None) == bool(read) == solvable
        if solvable:
            assert program_size(found) == 6
            assert [ref_eval(found, {"x0": x}) for x in ("ab", "ba")] == list(target)

    @pytest.mark.parametrize("target, grown", [(("ba", "ab"), False), (("ab", "zz"), True)])
    def test_ite_split_with_unmet_complete_branch_pool_grows_no_other(self, target, grown):
        # At size 7 the splits are (3, 1, 2) and (3, 2, 1), with the size-3
        # conditions complete. When no program of size 1 meets the target on
        # any example, String pool 2 is not grown for the other branch; when
        # x0 meets it on the first, pool 2 is read.
        grammar = default_grammar(
            terminals=["ite", "str.prefixof", "str.++"], string_literals=("a", "b"), int_literals=()
        )
        space = enumerator._Space(grammar, [("ab",), ("ba",)], target=target)
        space.pool(Sort.BOOL, 3)
        assert space.grown[Sort.STRING] == 1
        assert enumerator._INVERSES["ite"](space, grammar.terminal("ite"), 7, target) is None
        assert (space.grown[Sort.STRING] >= 2) == grown

    def test_minimality_over_random_grammars_with_nested_concat(self):
        # Targets are rooted at str.++ with a str.++ child or with a left
        # child larger than the right, so the witness looks children up in
        # pools it has not completed: lefts scanned with the suffix found
        # top-down, and rights scanned with the prefix found top-down when the
        # left is the larger child.
        rng = random.Random(607)
        others = ["str.replace", "str.at", "str.substr", "int.to.str", "ite", "str.len", "str.indexof", "+"]
        conditions = ["str.prefixof", "str.contains", "="]
        inputs = ["ab", "-", "", "a-0"]
        checked = 0
        counts = dict.fromkeys(["left_larger", "empty", "concat_child"], 0)

        def is_concat(p):
            return isinstance(p, Apply) and p.terminal.name == "str.++"

        while checked < 300:
            ops = ["str.++"] + rng.sample(others, rng.randint(1, 3))
            if "ite" in ops:
                ops.append(rng.choice(conditions))
            grammar = default_grammar(
                terminals=ops, string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)), int_literals=(0, 1)
            )
            pool = [p for p in all_programs(grammar, Sort.STRING, rng.randint(5, 7)) if is_concat(p)]
            if rng.random() < 0.5:
                pool = [p for p in pool if is_concat(p.children[0]) or is_concat(p.children[1])]
            else:  # a left child that is no str.++, so it cannot be reassociated away
                pool = [p for p in pool if not is_concat(p.children[0])]
                pool = [p for p in pool if program_size(p.children[0]) > program_size(p.children[1])]
            if not pool:
                continue
            target = rng.choice(pool)
            constraints = tuple(IoConstraint((s,), ref_eval(target, {"x0": s})) for s in inputs)
            if len({c.output for c in constraints}) == 1:
                continue  # a constant
            expected = brute_force_min_size(grammar, constraints, 7)
            result = solve(SygusProblem(grammar, constraints, timeout_s=30))
            assert result.solved
            assert program_size(result.program) == expected, (ops, constraints)
            checked += 1
            if is_concat(result.program):
                left, right = result.program.children
                counts["left_larger"] += program_size(left) > program_size(right)
                counts["concat_child"] += is_concat(left) or is_concat(right)
            counts["empty"] += any(c.output == "" for c in constraints)
        assert min(counts.values()) >= 50, counts

    @pytest.mark.parametrize("op, outputs", [
        ("str.at", ("a", "bc")),
        ("int.to.str", ("12", "x")),
        ("int.to.str", ("07", "")),
    ])
    def test_guard_rejects_before_reading_a_pool(self, op, outputs):
        grammar = default_grammar()
        space = enumerator._Space(grammar, [("abc",), ("07",)], target=outputs)
        found = enumerator._INVERSES[op](space, grammar.terminal(op), 8, outputs)
        assert found is None
        assert space.explored == 1 + len(grammar.string_literals) + len(grammar.int_literals)  # x0 and the literals
        assert set(space.grown.values()) == {1}

    @pytest.mark.parametrize("outputs", [("9" * 5000, "12"), ("9" * 5000, "")])
    def test_int_to_str_witness_takes_decimals_too_long_for_int(self, outputs):
        # A decimal output longer than int()'s 4,300-digit limit is still a
        # valid string; the witness compares it as one, so the search ends
        # unsolved on its budget instead of raising.
        constraints = "\n".join(f'(constraint (= (f "{s}") "{o}"))' for s, o in zip(("a", "b"), outputs))
        text = f"""(set-logic SLIA)
(synth-fun f ((x String)) String
  ((Start String (x "a" (str.++ Start Start) (int.to.str StartInt)))
   (StartInt Int (0 1 (+ StartInt StartInt) (str.len Start)))))
(declare-var x String)
{constraints}
(check-synth)
"""
        problem = replace(parse_problem_file(text).problem, max_explored=20_000)
        result = solve(problem)
        assert not result.solved
        assert 20_000 <= result.programs_explored < 21_000

    def test_solves_with_input_too_long_for_int(self):
        # str.to.int and int.to.str convert decimals past int()'s 4,300-digit
        # limit, so the search reads the input as a number and writes n + 1
        x = "12" * 2500
        out = ref_int_to_str(ref_to_int(x) + 1)
        result = solve(SygusProblem(default_grammar(), (IoConstraint((x,), out),), timeout_s=60))
        assert result.solved
        assert program_size(result.program) == 5
        assert ref_eval(result.program, {"x0": x}) == out

    def test_witness_stops_at_its_deadline(self, generated_paths, monkeypatch):
        # The clock jumps past the deadline as the last level's witness starts.
        problem, _ = generated_problem(generated_paths, "gen-001")
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(enumerator, "time", SimpleNamespace(monotonic=lambda: clock.now))
        top_down = enumerator._Space._top_down
        stops = []
        nested = []

        def late_top_down(space, sort, size, target):
            if nested:  # a child looked up top-down
                return top_down(space, sort, size, target)
            if size == 10:
                clock.now = 2 * problem.timeout_s
            entered = space.explored
            nested.append(size)
            try:
                return top_down(space, sort, size, target)
            except enumerator._Stop as stop:
                stops.append((stop.reason, entered, space.explored))
                raise
            finally:
                nested.pop()

        monkeypatch.setattr(enumerator._Space, "_top_down", late_top_down)
        result = solve(problem)
        assert not result.solved and not result.exhausted
        assert result.elapsed_s <= problem.timeout_s
        [(reason, entered, stopped)] = stops
        assert reason == "deadline"
        assert stopped == result.programs_explored == (entered // 1024 + 1) * 1024

    def test_grow_stops_at_its_deadline(self, generated_paths, monkeypatch):
        # The clock jumps past the deadline as size 7's eager str.replace
        # growth starts, at 2,521 candidates. That growth counts in batches,
        # and the search stops inside it at the next multiple of 1,024.
        problem, _ = generated_problem(generated_paths, "gen-001")
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(enumerator, "time", SimpleNamespace(monotonic=lambda: clock.now))
        grow = enumerator._Space._grow
        stops = []

        def late_grow(space, sort, size, ops, target=None, moves=False):
            if target is None or size != 7:
                return grow(space, sort, size, ops, target, moves)
            clock.now = 2 * problem.timeout_s
            entered = space.explored
            try:
                return grow(space, sort, size, ops, target, moves)
            except enumerator._Stop as stop:
                stops.append((stop.reason, entered, space.explored))
                raise

        monkeypatch.setattr(enumerator._Space, "_grow", late_grow)
        result = solve(problem)
        assert not result.solved and not result.exhausted
        assert result.elapsed_s <= problem.timeout_s
        [(reason, entered, stopped)] = stops
        assert reason == "deadline"
        assert stopped == result.programs_explored == (entered // 1024 + 1) * 1024


class TestBatchedGrowth:
    """``_grow`` evaluates and counts candidates in batches and keeps what one at a time would."""

    def test_pools_match_one_candidate_at_a_time(self):
        # Every pool of the full grammar up to size 6, on the probe inputs,
        # holds the programs and values that evaluating each candidate with
        # the reference semantics, in catalog and product order, and keeping
        # the first of each value per sort gives, and counts as many
        # candidates. String pool 6 alone spans several batches.
        grammar = default_grammar()
        space = enumerator._Space(grammar, probe_assignments(1))
        progs, vals = dict(space.progs), dict(space.vals)
        seen = {sort: set(space.seen[sort]) for sort in Sort}
        explored = space.explored
        largest = 0
        for size in range(2, 7):
            for sort in Sort:
                before = explored
                progs[(sort, size)], vals[(sort, size)] = [], []
                for term in (t for t in grammar.terminals if t.arity and t.ret_sort is sort):
                    for parts in enumerator._compositions(size - 1, term.arity):
                        pools = [list(zip(progs[key], vals[key])) for key in zip(term.arg_sorts, parts)]
                        for combo in itertools.product(*pools):
                            explored += 1
                            v = tuple(REF_SEMANTICS[term.name](*row) for row in zip(*(cv for _, cv in combo)))
                            if v not in seen[sort]:
                                seen[sort].add(v)
                                progs[(sort, size)].append(Apply(term, tuple(cp for cp, _ in combo)))
                                vals[(sort, size)].append(v)
                largest = max(largest, explored - before)
                assert space.pool(sort, size) == (progs[(sort, size)], vals[(sort, size)])
                assert space.explored == explored
        assert largest > 3 * 1024

    @pytest.mark.parametrize("room", [1, 1000, 1024, 1500])
    def test_growth_past_the_budget_raises(self, room):
        # A pool whose growth would count one candidate past the budget is not
        # left half grown: the growth stops with exactly the budget counted.
        space = enumerator._Space(default_grammar(), probe_assignments(1))
        space.max_explored = space.explored + room
        with pytest.raises(enumerator._Stop, match="budget"):
            for size in range(2, 7):
                for sort in Sort:
                    space.pool(sort, size)
        assert space.explored == space.max_explored


class TestLookup:
    """Children are found by value, top-down, and no top-down search is made twice."""

    @pytest.mark.parametrize("sort", [Sort.INT, Sort.STRING], ids=["Int", "String"])
    def test_find_matches_brute_force_over_random_grammars(self, sort):
        # _find(sort, size, v) must find every vector whose smallest program
        # has that size, with a program of exactly that size, whether the pool
        # is complete (read by value) or not (searched top-down); it must find
        # nothing for a vector no program of that size or smaller makes; and a
        # vector first made at a smaller size may give None or a program of at
        # most that size. A String lookup is made after the search's levels up
        # to that size, with a target no program makes, have run, as a
        # search's own lookups are.
        rng = random.Random(808)
        int_ops = ["str.len", "str.indexof", "str.to.int", "+", "-"]
        string_ops = ["str.++", "str.substr", "str.at", "int.to.str"]
        if sort is Sort.INT:
            own, other = int_ops, string_ops
        else:
            own, other = string_ops + ["str.replace", "ite"], int_ops
        inputs = ["a-1", "10", "", "b-a-"]
        unmade = ("#",) * len(inputs)
        counts = dict.fromkeys(["top_down", "indexed", "absent", "smaller"], 0)
        for _ in range(300):
            ops = rng.sample(own, rng.randint(1, 3)) + rng.sample(other, rng.randint(0, 2))
            if "ite" in ops:
                ops.append(rng.choice(["str.prefixof", "str.contains", "="]))
            grammar = default_grammar(
                terminals=ops, string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)), int_literals=(0, 1)
            )
            smallest, cache = {}, {}
            for size in range(1, 6):
                for p in all_programs(grammar, sort, size, cache):
                    smallest.setdefault(tuple(ref_eval(p, {"x0": x}) for x in inputs), size)
            size = rng.randint(2, 5)
            exact = [v for v, s in smallest.items() if s == size]
            earlier = [v for v, s in smallest.items() if s < size]
            if sort is Sort.INT:
                absent = tuple(rng.randint(-2, 9) for _ in inputs)
            else:
                absent = tuple(rng.choice(["", "a", "-", "1", "a-", "0a"]) for _ in inputs)
            queries = rng.sample(exact, min(3, len(exact))) + rng.sample(earlier, min(2, len(earlier)))
            for vector in queries + ([absent] if absent not in smallest else []):
                space = enumerator._Space(grammar, [(x,) for x in inputs], target=unmade)
                if sort is Sort.STRING:
                    for level in range(2, size + 1):
                        assert space.level(level) is None
                space.pool(sort, rng.randint(1, size))
                counts["indexed" if space.grown[sort] >= size else "top_down"] += 1
                found = space._find(sort, size, vector)
                if vector not in smallest:
                    assert found is None, (ops, size, vector)
                    counts["absent"] += 1
                    continue
                if smallest[vector] == size:
                    assert found is not None, (ops, size, vector)
                    assert program_size(found) == size
                else:
                    counts["smaller"] += 1
                    if found is None:
                        continue
                    assert program_size(found) <= size
                assert tuple(ref_eval(found, {"x0": x}) for x in inputs) == vector
        assert min(counts.values()) >= 100, counts

    def test_hosts_match_brute_force_over_random_grammars(self):
        # _hosts(size, t) on a String pool not yet complete is searched
        # top-down; it must give, one program of that size each, exactly the
        # value vectors whose smallest program has that size and contains t
        # on every example, as filtering the completed pool does. It writes
        # nothing to the pools or to seen, so the pool completed afterwards
        # is the one a second search, which never read the hosts, completes.
        # The outputs are drawn as pieces of made values, mostly of values
        # first made at that size and often of at most one character, so
        # str.at, str.substr and int.to.str hosts occur; "105" gives digit
        # outputs such as "05", which are not decimals but are in one.
        rng = random.Random(914)
        string_ops = ["str.++", "str.substr", "str.at", "int.to.str", "str.replace", "ite"]
        int_ops = ["str.len", "str.indexof", "str.to.int", "+", "-"]
        inputs = ["a-1", "105", "", "b-a-"]
        unmade = ("#",) * len(inputs)
        counts = dict.fromkeys(["top_down", "str.at", "str.substr", "int.to.str", "none"], 0)
        for _ in range(300):
            ops = rng.sample(string_ops, rng.randint(1, 3)) + rng.sample(int_ops, rng.randint(0, 2))
            if "ite" in ops:
                ops.append(rng.choice(["str.prefixof", "str.contains", "="]))
            grammar = default_grammar(
                terminals=ops, string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)), int_literals=(0, 1)
            )
            smallest, cache = {}, {}
            for size in range(1, 6):
                for p in all_programs(grammar, Sort.STRING, size, cache):
                    smallest.setdefault(tuple(ref_eval(p, {"x0": x}) for x in inputs), size)
            size = rng.choice([2, 3, 4, 5, 5, 5])
            exact = [v for v, s in smallest.items() if s == size]
            made = rng.choice(exact if exact and rng.random() < 0.8 else list(smallest))
            target = []
            for v in made:
                start = rng.randint(0, len(v))
                target.append(v[start:start + rng.choice([0, 1, 1, 1, 2, len(v)])])
            target = tuple(target)
            expected = {v for v, s in smallest.items() if s == size and all(map(str.__contains__, v, target))}
            spaces = []
            for _ in range(2):
                space = enumerator._Space(grammar, [(x,) for x in inputs], target=unmade)
                for level in range(2, size + 1):
                    assert space.level(level) is None
                spaces.append(space)
            space, other = spaces
            space.pool(Sort.STRING, rng.randint(1, size))
            counts["top_down"] += space.grown[Sort.STRING] < size
            hosts = space._hosts(size, target)
            assert {v for _, v in hosts} == expected, (ops, size, target)
            assert len(hosts) == len(expected)
            for p, v in hosts:
                assert program_size(p) == size
                assert tuple(ref_eval(p, {"x0": x}) for x in inputs) == v
                counts[p.terminal.name] = counts.get(p.terminal.name, 0) + 1
            counts["none"] += not hosts
            assert space.pool(Sort.STRING, size + 1) == other.pool(Sort.STRING, size + 1)
            assert space.seen == other.seen
        assert min(counts.values()) >= 30, counts
        assert counts["top_down"] >= 200, counts

    def test_substr_start_at_an_overlapping_occurrence(self):
        # "aa" occurs in "aaa" at 0 and at 1, overlapping; only 1 also fits
        # "baa", so the start vector looked up must be (1, 1).
        grammar = default_grammar(terminals=["str.substr"], string_literals=(), int_literals=(1, 2))
        constraints = (IoConstraint(("aaa",), "aa"), IoConstraint(("baa",), "aa"))
        result = solve(SygusProblem(grammar, constraints, timeout_s=10))
        assert program_to_text(result.program) == "(str.substr x0 1 2)"

    @pytest.mark.parametrize("hosts, looked_up", [(("a-b", "b-c", "c-d"), True), (("----", "---", "--"), False)])
    def test_index_vectors_looked_up_unless_the_scan_is_cheaper(self, monkeypatch, hosts, looked_up):
        # The output "-" occurs once in each of the first hosts, so the one
        # start vector is looked up by value. In the second it occurs 4 x 3 x 2
        # times, more start vectors than the scan over the two Int literals
        # counts, so the complete pool is scanned instead. Either way the
        # answer is (str.substr x0 <start> 1), a start found by value or not.
        grammar = default_grammar(terminals=["str.substr", "+"], string_literals=(), int_literals=(0, 1))
        find = enumerator._Space._find
        calls = []

        def recording_find(space, sort, size, vector):
            if sort is Sort.INT:
                calls.append((size, vector))
            return find(space, sort, size, vector)

        monkeypatch.setattr(enumerator._Space, "_find", recording_find)
        constraints = tuple(IoConstraint((h,), "-") for h in hosts)
        result = solve(SygusProblem(grammar, constraints, timeout_s=10))
        assert all(ref_eval(result.program, {"x0": h}) == "-" for h in hosts)
        assert program_size(result.program) == brute_force_min_size(grammar, constraints, 6)
        assert bool(calls) == looked_up

    @pytest.mark.parametrize("name", ["gen-001", "gen-037"])
    @pytest.mark.parametrize("removed", [(), ("str.replace", "str.suffixof")])
    def test_no_witness_search_is_made_twice(self, generated_paths, monkeypatch, name, removed):
        # At level L the str.++ witness looks the level's own target up two
        # sizes down when one side is "" everywhere; that search was made, and
        # found nothing, at level L - 2, and is read from the memo.
        problem, entry = generated_problem(generated_paths, name)
        grammar = problem.grammar
        for terminal in removed:
            grammar = grammar.drop(terminal)
        searches = []

        def recording(witness):
            def run(space, term, size, target):
                searches.append((term.name, size, target))
                return witness(space, term, size, target)
            return run

        for op, witness in enumerator._INVERSES.items():
            monkeypatch.setitem(enumerator._INVERSES, op, recording(witness))
        result = solve(replace(problem, grammar=grammar))
        assert program_size(result.program) == entry["solved_size"]
        assert len(searches) == len(set(searches)) > 0


class TestWorkBudget:
    """``max_explored`` stops a search on counted work, not on the clock."""

    @pytest.fixture(scope="class")
    def suite_problem(self, generated_paths):
        # gen-001 needs about 133k candidates, far past every budget below, so
        # each cut lands inside the search
        return generated_problem(generated_paths, "gen-001")

    @pytest.mark.parametrize(
        "budget, dropped",
        [
            # Each side of the first two multiples of 1,024, where a batch
            # of the search ends.
            *(pytest.param(budget, (), id=str(budget)) for budget in (1023, 1024, 1025, 2047, 2048, 2049)),
            pytest.param(4096, (), id="4096"),
            pytest.param(5000, (), id="5000"),
            pytest.param(16 * 1024, (), id="16384"),
            # The grt lane's grammar for gen-001 solves it after 2,592
            # candidates. These cuts land inside nested lookups: the ite
            # witness's branch scan (87), the str.++ scan (100), the
            # str.substr witness inverting a + (191) and a str.indexof (345,
            # 2580) to look a start up by value, a pool growth the str.++
            # scan starts (576) and one that grows another (685), a host
            # search building hosts top-down (1023 to 1025, each side of a
            # batch end), the growth of the pool str.len reads (2047 to
            # 2049), and the length scan one candidate before the answer.
            *(
                pytest.param(budget, ("str.replace", "str.suffixof"), id=f"reduced-{budget}")
                for budget in (87, 100, 191, 345, 576, 685, 1023, 1024, 1025, 2047, 2048, 2049, 2580, 2591)
            ),
        ],
    )
    def test_stops_at_exactly_the_budget(self, suite_problem, budget, dropped):
        problem, _ = suite_problem
        grammar = problem.grammar
        for terminal in dropped:
            grammar = grammar.drop(terminal)
        result = solve(replace(problem, grammar=grammar, max_explored=budget))
        assert not result.solved and not result.exhausted
        assert result.program is None
        assert result.programs_explored == budget
        assert result.elapsed_s < problem.timeout_s

    def test_budget_of_exactly_the_work_solves(self, suite_problem):
        # The budget is tested before each candidate is counted, so a search
        # that needs n candidates solves with a budget of n, not n + 1.
        problem, entry = suite_problem
        reduced = replace(problem, grammar=problem.grammar.drop("str.replace").drop("str.suffixof"))
        free = solve(reduced)
        assert free.solved and program_size(free.program) == entry["solved_size"]
        exact = solve(replace(reduced, max_explored=free.programs_explored))
        assert exact.program == free.program
        assert exact.programs_explored == free.programs_explored
        short = solve(replace(reduced, max_explored=free.programs_explored - 1))
        assert not short.solved and short.programs_explored == free.programs_explored - 1

    def test_explored_count_repeats(self, suite_problem):
        problem, _ = suite_problem
        cut = replace(problem, max_explored=5000)
        assert solve(cut).programs_explored == solve(cut).programs_explored

    @pytest.mark.parametrize("name", [e["id"] for e in SUITE_MANIFEST])
    def test_none_leaves_search_unchanged(self, generated_paths, name):
        # Every suite problem's full-grammar search explores exactly the
        # manifest's count, so a change to how work is counted or cached
        # shows on any of them; a budget it never reaches changes nothing.
        problem, entry = generated_problem(generated_paths, name)
        assert problem.max_explored is None
        free = solve(problem)
        assert free.solved
        assert free.programs_explored == entry["explored"]
        assert program_size(free.program) == entry["solved_size"]
        roomy = solve(replace(problem, max_explored=2 * entry["explored"]))
        assert roomy.program == free.program
        assert roomy.programs_explored == free.programs_explored

    # The grt lane's own search: the 9 suite problems its full-grammar probe
    # does not solve, on the reduced grammar it then searches (without
    # str.replace and str.suffixof), and the work each needs there.
    REDUCED_EXPLORED = {
        "gen-001": 2592, "gen-002": 2590, "gen-003": 2597, "gen-004": 2764, "gen-005": 2595,
        "gen-006": 2620, "gen-007": 1913, "gen-008": 1909, "gen-037": 5930,
    }

    @pytest.mark.parametrize("name", sorted(REDUCED_EXPLORED))
    def test_reduced_grammar_search_unchanged(self, generated_paths, name):
        problem, entry = generated_problem(generated_paths, name)
        assert not solve(replace(problem, max_explored=PROBE_EXPLORED)).solved
        grammar = problem.grammar.drop("str.replace").drop("str.suffixof")
        result = solve(replace(problem, grammar=grammar))
        assert result.solved
        assert result.programs_explored == self.REDUCED_EXPLORED[name]
        assert program_size(result.program) == entry["solved_size"]

    # The sha256 of one line per search, "id removed budget solved explored
    # program", for every suite problem on the reduced grammar of each removed
    # set the vote picks on the suite, at the probe's budget and at 400k
    # candidates (148 searches, 1,660,973 candidates).
    REDUCED_DIGEST = "14fd7dbfd19786253640e09937c0c3c8ea5ab804610cac865b9a1e40a844f7bd"

    def test_every_reduced_search_unchanged(self, generated_paths):
        rows = []
        for path in generated_paths:
            problem = replace(parse_problem_file(path.read_text(encoding="utf-8")).problem, timeout_s=60)
            for removed in (("str.replace", "str.suffixof"), ("str.++", "str.suffixof")):
                grammar = problem.grammar.without(removed)
                for budget in (PROBE_EXPLORED, 400_000):
                    result = solve(replace(problem, grammar=grammar, max_explored=budget))
                    text = program_to_text(result.program) if result.solved else ""
                    rows.append(f"{path.stem} {','.join(removed)} {budget} {result.solved} {result.programs_explored} {text}")
        assert len(rows) == 148
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == self.REDUCED_DIGEST

    def test_spent_budget_stops_before_next_level(self):
        # the leaves alone use up a budget of one candidate
        grammar = default_grammar(string_literals=("",), int_literals=(0,))
        constraints = (IoConstraint(("abcdef",), "fedcba"),)
        result = solve(SygusProblem(grammar, constraints, timeout_s=60, max_explored=1))
        assert not result.solved and not result.exhausted
        assert result.programs_explored == 3  # x0, "", 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SygusProblem(concat_grammar(), (IoConstraint(("a",), "a"),), max_explored=0)


class TestStream:
    def test_single_variable_grammar(self):
        grammar = default_grammar(terminals=[], string_literals=(), int_literals=())
        assert stream(grammar, 1) == [__import__("grt.core", fromlist=["InputVar"]).InputVar("x0")]

    def test_exhaustion(self):
        grammar = default_grammar(terminals=[], string_literals=(), int_literals=())
        with pytest.raises(GrammarExhausted):
            stream(grammar, 2)

    def test_distinct_on_probes_and_ordered(self, full_grammar):
        programs = stream(full_grammar, 100)
        assert len(programs) == 100
        assignments = probe_assignments(1)
        seen = set()
        for p in programs:
            key = tuple(evaluate(p, a, full_grammar.var_names) for a in assignments)
            assert key not in seen
            seen.add(key)
        sizes = [program_size(p) for p in programs]
        assert sizes == sorted(sizes)

    def test_deterministic(self, full_grammar):
        assert stream(full_grammar, 50) == stream(full_grammar, 50)

    def test_default_stream_unchanged(self, full_grammar):
        # digest of the first 2000 programs as the eagerly grown pools gave
        # them, before pools were grown on demand
        text = "\n".join(program_to_text(p) for p in stream(full_grammar))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "1f89fb6808f55daeec0885fe104a4ca0a4c1525f8b39afd62ec3380720187a80"

    @pytest.mark.parametrize("n_vars", [1, 2])
    def test_every_prefix_is_the_head_of_a_longer_stream(self, n_vars):
        # stream(g, n) stops growing its last String pool once n programs
        # are out; the pool always grows in the same order, so the programs
        # are the first n of a longer stream. Checked at, just before and just
        # after every size boundary up to 4,000 programs.
        grammar = default_grammar(input_vars=tuple((f"x{i}", Sort.STRING) for i in range(n_vars)))
        longest = stream(grammar, 4000)
        sizes = [program_size(p) for p in longest]
        bounds = [b for b in range(1, len(sizes)) if sizes[b - 1] != sizes[b]] + [len(sizes)]
        assert len(bounds) >= 5
        ns = sorted({n for b in bounds for n in (b - 1, b, b + 1) if 1 <= n <= len(longest)})
        for n in ns:
            assert stream(grammar, n) == longest[:n], n

    def test_the_last_pool_stops_growing_once_n_are_out(self, full_grammar):
        space = enumerator._Space(full_grammar, probe_assignments(1))
        complete = enumerator._Space(full_grammar, probe_assignments(1)).pool(Sort.STRING, 6)[0]
        part = space.head(6, 10)
        assert 10 <= len(part) < len(complete)
        assert part == complete[: len(part)]
        assert space.grown[Sort.STRING] == 5

    def test_exhaustion_past_a_partly_read_size(self):
        # x0 and (str.at x0 0) are all there is: str.at of a one-character
        # string at 0 gives it back, and of "" gives ""
        grammar = default_grammar(terminals=["str.at"], string_literals=(), int_literals=(0,))
        assert [program_to_text(p) for p in stream(grammar, 2)] == ["x0", "(str.at x0 0)"]
        with pytest.raises(GrammarExhausted, match="only 2 distinct programs, 3 requested"):
            stream(grammar, 3)

    def test_probe_strings_cover_spec_shapes(self):
        assert "" in PROBE_STRINGS
        assert any(len(s) == 1 for s in PROBE_STRINGS)
        assert any(s.isdigit() for s in PROBE_STRINGS)
        assert any(" " in s for s in PROBE_STRINGS)
        assert any(s != s.lower() and s != s.upper() for s in PROBE_STRINGS)
        assert len(PROBE_STRINGS) == 8

    def test_multi_var_probes_distinguish_variables(self):
        rows = probe_assignments(2)
        assert any(a != b for a, b in rows)

    def test_a_non_string_input_variable_is_rejected_by_name(self):
        # the probe inputs are strings, so an Int variable would reach int.to.str as one
        grammar = default_grammar(input_vars=(("x0", Sort.STRING), ("n", Sort.INT)))
        with pytest.raises(ValueError, match="input variable 'n' has sort Int"):
            stream(grammar, 50)


IDENTITY_PROBLEM = SygusProblem(
    concat_grammar(), (IoConstraint(("a",), "a"),), timeout_s=5
)


def fake_solver(script: str) -> str:
    return f"{sys.executable} -c {script!r}"


class TestExternalSolver:
    def test_echo_style_solver(self):
        cmd = fake_solver("print('(define-fun f ((x0 String)) String x0)')") + " {}"
        result = solve_with_external(IDENTITY_PROBLEM, cmd)
        assert result.solved
        assert evaluate(result.program, ["zz"]) == "zz"

    def test_garbage_output(self):
        cmd = fake_solver("print('hunting season')")
        with pytest.raises(UnparseableOutput):
            solve_with_external(IDENTITY_PROBLEM, cmd)

    def test_malformed_define_fun_is_unparseable(self):
        # a parameter list that is not a list is a ParseError, not a TypeError
        cmd = fake_solver("print('(define-fun f 0 String x0)')")
        with pytest.raises(UnparseableOutput, match="parameter list must be a list"):
            solve_with_external(IDENTITY_PROBLEM, cmd)

    def test_wrong_answer(self):
        script = "q = chr(34); print('(define-fun f ((x0 String)) String ' + q + 'nope' + q + ')')"
        with pytest.raises(WrongAnswer):
            solve_with_external(IDENTITY_PROBLEM, fake_solver(script))

    def test_parameter_of_another_sort_is_a_wrong_answer(self):
        # the problem's x0 is a String: evaluating the answer would hand a
        # string to int.to.str
        cmd = fake_solver("print('(define-fun f ((x0 Int)) String (int.to.str x0))')")
        with pytest.raises(WrongAnswer, match="parameter 'x0' has sort Int, the problem's has String"):
            solve_with_external(IDENTITY_PROBLEM, cmd)

    def test_crash(self):
        cmd = fake_solver("import sys; sys.exit(3)")
        with pytest.raises(SolverCrash):
            solve_with_external(IDENTITY_PROBLEM, cmd)

    def test_timeout_kills_subprocess(self):
        cmd = fake_solver("import time; time.sleep(60)")
        problem = replace(IDENTITY_PROBLEM, timeout_s=0.5)
        result = solve_with_external(problem, cmd)
        assert not result.solved
        assert result.elapsed_s <= problem.timeout_s

    def test_solver_reads_problem_file(self, tmp_path):
        # a "solver" that proves it received the file by parsing it
        script = (
            "import sys; text=open(sys.argv[1]).read(); "
            "assert 'synth-fun' in text; "
            "print('(define-fun f ((x0 String)) String x0)')"
        )
        result = solve_with_external(IDENTITY_PROBLEM, fake_solver(script) + " {}")
        assert result.solved
