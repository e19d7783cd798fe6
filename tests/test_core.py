import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from grt.core import (
    Apply,
    CATALOG,
    COLUMN_SEMANTICS,
    KERNELS,
    Grammar,
    InputVar,
    IntLit,
    IoConstraint,
    Sort,
    StrLit,
    SygusProblem,
    TerminalSymbol,
    UnknownTerminal,
    default_grammar,
    evaluate,
    evaluate_rows,
    product_values,
    program_size,
    satisfies,
    terminals_used,
)
from oracles import REF_SEMANTICS, random_program, ref_eval, ref_int_to_str, ref_to_int


def apply_(name, *children):
    return Apply(CATALOG[name], tuple(children))


class TestEvaluate:
    def test_identity(self):
        assert evaluate(InputVar("x0"), ["abc"]) == "abc"

    def test_concat(self):
        p = apply_("str.++", StrLit("a"), InputVar("x0"))
        assert evaluate(p, ["bc"]) == "abc"

    def test_substr(self):
        p = apply_("str.substr", StrLit("hello"), IntLit(1), IntLit(3))
        assert evaluate(p, []) == "ell"

    def test_input_count_mismatch(self):
        with pytest.raises(TypeError):
            evaluate(InputVar("x0"), [])

    @pytest.mark.parametrize(
        "name,args,expected",
        [
            ("str.at", (StrLit("ab"), IntLit(5)), ""),
            ("str.at", (StrLit("ab"), IntLit(-1)), ""),
            ("str.substr", (StrLit("ab"), IntLit(0), IntLit(0)), ""),
            ("str.substr", (StrLit("ab"), IntLit(2), IntLit(1)), ""),
            ("str.substr", (StrLit("ab"), IntLit(-1), IntLit(1)), ""),
            ("str.indexof", (StrLit("ab"), StrLit("z"), IntLit(0)), -1),
            ("str.indexof", (StrLit("ab"), StrLit(""), IntLit(1)), 1),
            ("str.indexof", (StrLit("ab"), StrLit("b"), IntLit(5)), -1),
            ("str.indexof", (StrLit("ab"), StrLit("b"), IntLit(-2)), -1),
            ("str.to.int", (StrLit("042"),), 42),
            ("str.to.int", (StrLit("4x"),), -1),
            ("str.to.int", (StrLit(""),), -1),
            ("str.to.int", (StrLit("-3"),), -1),
            ("int.to.str", (IntLit(-3),), ""),
            ("int.to.str", (IntLit(17),), "17"),
            ("str.replace", (StrLit("abc"), StrLit(""), StrLit("z")), "zabc"),
            ("str.replace", (StrLit("abab"), StrLit("b"), StrLit("x")), "axab"),
            ("str.replace", (StrLit("ab"), StrLit("q"), StrLit("x")), "ab"),
            ("str.prefixof", (StrLit("ab"), StrLit("abc")), True),
            ("str.suffixof", (StrLit("bc"), StrLit("abc")), True),
            ("str.contains", (StrLit("abc"), StrLit("b")), True),
            ("str.contains", (StrLit("b"), StrLit("abc")), False),
        ],
    )
    def test_totalized_corner_cases(self, name, args, expected):
        assert evaluate(apply_(name, *args), []) == expected

    @pytest.mark.parametrize("digits", [4300, 4301, 5000, 9000])
    def test_decimal_conversions_past_int_digit_limit(self, digits):
        # int() and str() refuse more than 4,300 digits; the semantics stay
        # total there and agree with the reference
        s = "".join(random.Random(digits).choice("0123456789") for _ in range(digits))
        (n,) = COLUMN_SEMANTICS["str.to.int"]((s,))
        assert n == ref_to_int(s)
        assert list(product_values("str.to.int", [[(s,), ("12",)]])) == [(n,), (12,)]
        for m in (n, n * 10 + 7, -n - 1):
            assert COLUMN_SEMANTICS["int.to.str"]((m,)) == (ref_int_to_str(m),)
            assert list(product_values("int.to.str", [[(m,), (12,)]])) == [(ref_int_to_str(m),), ("12",)]

    def test_matches_reference_on_random_substr_cases(self):
        rng = random.Random(1234)
        for _ in range(50):
            s = "".join(rng.choice("abc 12.") for _ in range(rng.randint(0, 8)))
            i, n = rng.randint(-2, 9), rng.randint(-2, 9)
            p = apply_("str.substr", StrLit(s), IntLit(i), IntLit(n))
            assert evaluate(p, []) == ref_eval(p, {})

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_totality_and_sort(self, seed):
        rng = random.Random(seed)
        program = random_program(rng, Sort.STRING, depth=3)
        inputs = ["".join(rng.choice("ab -1.") for _ in range(rng.randint(0, 6)))]
        value = evaluate(program, inputs)
        assert isinstance(value, str)
        assert value == ref_eval(program, {"x0": inputs[0]})


class TestEvaluateRows:
    @pytest.mark.parametrize("n_vars", [1, 2])
    def test_matches_evaluate_row_by_row_on_streamed_programs(self, n_vars):
        from grt.datagen import random_inputs
        from grt.enumerator import stream

        var_names = tuple(f"x{i}" for i in range(n_vars))
        grammar = default_grammar(input_vars=tuple((v, Sort.STRING) for v in var_names))
        rng = random.Random(f"rows:{n_vars}")
        for program in stream(grammar, 4000):
            n_rows = rng.randint(1, 6)
            drawn = random_inputs(rng, n_rows * n_vars, (0, 8), "ab 0123-.")
            rows = [tuple(drawn[j * n_vars : (j + 1) * n_vars]) for j in range(n_rows)]
            want = tuple(ref_eval(program, dict(zip(var_names, row))) for row in rows)
            assert evaluate_rows(program, rows, var_names) == want, program
            assert tuple(evaluate(program, row, var_names) for row in rows) == want, program

    def test_no_rows(self):
        assert evaluate_rows(apply_("str.++", InputVar("x0"), StrLit("a")), [], ("x0",)) == ()

    def test_literal_repeated_per_row(self):
        assert evaluate_rows(IntLit(3), [("a",), ("b",)], ("x0",)) == (3, 3)

    @pytest.mark.parametrize(
        "program, rows, error",
        [
            (Apply(TerminalSymbol("str.rev", 1, (Sort.STRING,), Sort.STRING), (InputVar("x0"),)), [("ab",)], UnknownTerminal),
            (InputVar("x0"), [("a", "b")], TypeError),
            (InputVar("x0"), [()], TypeError),
            (apply_("str.++", InputVar("x0"), InputVar("y")), [("a",)], TypeError),
        ],
    )
    def test_raises_what_evaluate_raises(self, program, rows, error):
        with pytest.raises(error) as want:
            evaluate(program, rows[0], ("x0",))
        with pytest.raises(error) as got:
            evaluate_rows(program, rows, ("x0",))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_column_semantics_match_reference_row_by_row(name):
    rng = random.Random(f"columns:{name}")
    draw = {
        Sort.STRING: lambda: "".join(rng.choice("ab -1.") for _ in range(rng.randint(0, 5))),
        Sort.INT: lambda: rng.randint(-3, 8),
        Sort.BOOL: lambda: rng.random() < 0.5,
    }
    term = CATALOG[name]
    for n_rows in (1, 2, 5, 9):
        for _ in range(40):
            cols = [tuple(draw[sort]() for _ in range(n_rows)) for sort in term.arg_sorts]
            want = tuple(REF_SEMANTICS[name](*row) for row in zip(*cols))
            assert COLUMN_SEMANTICS[name](*cols) == want, (name, cols)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_product_values_match_reference_row_by_row(name):
    # product_values evaluates every combination of the children's value
    # vectors at once. Each child list holds vectors that
    # are the same edge case on every example (empty strings, so empty
    # str.replace patterns; negative, zero, past-the-end and huge indices, so
    # str.substr lengths <= 0 too) and random ones. str.substr's product has
    # 1,152 combinations, more than one batch of the search.
    assert set(KERNELS) <= set(CATALOG)
    rng = random.Random(f"products:{name}")
    draw = {
        Sort.STRING: lambda: "".join(rng.choice("ab -1.") for _ in range(rng.randint(0, 5))),
        Sort.INT: lambda: rng.randint(-3, 8),
        Sort.BOOL: lambda: rng.random() < 0.5,
    }
    edges = {Sort.STRING: ("", "ab -1."), Sort.INT: (-3, -1, 0, 1, 6, 2**70), Sort.BOOL: (False, True)}
    term = CATALOG[name]
    for n_rows in (1, 3, 6):
        value_lists = [
            [(e,) * n_rows for e in edges[sort]] + [tuple(draw[sort]() for _ in range(n_rows)) for _ in range(6)]
            for sort in term.arg_sorts
        ]
        want = [tuple(REF_SEMANTICS[name](*row) for row in zip(*combo)) for combo in itertools.product(*value_lists)]
        assert list(product_values(name, value_lists)) == want, (name, n_rows)


class TestSatisfies:
    def test_identity_true(self):
        assert satisfies(InputVar("x0"), IoConstraint(("q",), "q"))

    def test_literal_false(self):
        assert not satisfies(StrLit("z"), IoConstraint(("q",), "q"))

    def test_concat_derived(self):
        p = apply_("str.++", InputVar("x0"), InputVar("x0"))
        c = IoConstraint(("ab",), "abab")
        assert satisfies(p, c) == (evaluate(p, c.inputs) == c.output)


class TestGrammar:
    def test_drop(self, full_grammar):
        reduced = full_grammar.drop("str.replace")
        assert set(reduced.terminal_names) == set(full_grammar.terminal_names) - {"str.replace"}
        assert len(reduced.terminal_names) == len(full_grammar.terminal_names) - 1
        # original untouched
        assert "str.replace" in full_grammar.terminal_names

    def test_drop_unknown(self, full_grammar):
        with pytest.raises(UnknownTerminal):
            full_grammar.drop("str.replace").drop("str.replace")

    def test_drop_order_independent(self, full_grammar):
        ab = full_grammar.drop("str.at").drop("ite")
        ba = full_grammar.drop("ite").drop("str.at")
        assert ab.terminal_names == ba.terminal_names

    def test_duplicate_terminals_rejected(self):
        t = CATALOG["str.++"]
        with pytest.raises(ValueError):
            Grammar(terminals=(t, t))

    def test_var_terminal_requires_matching_input_var(self):
        var_term = TerminalSymbol("x0", 0, (), Sort.STRING)
        Grammar(terminals=(var_term,), input_vars=(("x0", Sort.STRING),))
        with pytest.raises(ValueError):
            Grammar(terminals=(var_term,), input_vars=(("y", Sort.STRING),))

    def test_constraint_arity_checked(self, full_grammar):
        with pytest.raises(ValueError):
            SygusProblem(full_grammar, (IoConstraint(("a", "b"), "ab"),))

    def test_negative_timeout_rejected(self, full_grammar):
        with pytest.raises(ValueError, match="timeout_s"):
            SygusProblem(full_grammar, (IoConstraint(("a",), "a"),), timeout_s=-1.0)
        problem = SygusProblem(full_grammar, (IoConstraint(("a",), "a"),), timeout_s=0.0)
        with pytest.raises(ValueError, match="timeout_s"):
            problem.variant(full_grammar.drop("ite"), -0.5, None)


class TestProgramSize:
    def test_leaf(self):
        assert program_size(InputVar("x0")) == 1

    def test_small_apply(self):
        assert program_size(apply_("str.++", InputVar("x0"), StrLit("a"))) == 3

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_additive(self, seed):
        program = random_program(random.Random(seed), Sort.STRING, depth=3)
        if isinstance(program, Apply):
            assert program_size(program) == 1 + sum(program_size(c) for c in program.children)
        else:
            assert program_size(program) == 1


def test_terminals_used():
    p = apply_("str.++", InputVar("x0"), apply_("int.to.str", apply_("str.len", InputVar("x0"))))
    assert terminals_used(p) == frozenset({"str.++", "int.to.str", "str.len", "x0"})


def test_default_grammar_shape(full_grammar):
    assert len(full_grammar.terminal_names) == 15
    assert full_grammar.terminal("ite").arg_sorts == (Sort.BOOL, Sort.STRING, Sort.STRING)


def test_default_problem_budget_is_an_hour(full_grammar):
    assert SygusProblem(full_grammar).timeout_s == 3600.0
