import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from grt.core import (
    Apply,
    CATALOG,
    InputVar,
    IoConstraint,
    Sort,
    UnknownTerminal,
    default_grammar,
    evaluate,
)
from grt.sygus_format import (
    MAX_DEPTH,
    ParseError,
    ProblemFile,
    _forms,
    parse_problem,
    parse_problem_file,
    parse_solution,
    print_problem,
    print_solution,
    program_to_text,
)
from oracles import random_program, ref_forms

MINIMAL = """
(set-logic SLIA)
(synth-fun f ((x0 String)) String
    ((Start String (x0 "" (str.++ Start Start)))))
(declare-var x0 String)
(constraint (= (f "a") "aa"))
(check-synth)
"""


class TestParse:
    def test_minimal(self):
        problem = parse_problem(MINIMAL)
        assert problem.grammar.terminal_names == ("str.++",)
        assert problem.grammar.string_literals == ("",)
        assert problem.grammar.input_vars == (("x0", Sort.STRING),)
        assert problem.constraints == (IoConstraint(("a",), "aa"),)

    def test_empty_constraints_ok(self):
        text = MINIMAL.replace('(constraint (= (f "a") "aa"))\n', "")
        assert parse_problem(text).constraints == ()

    def test_malformed_sexpr(self):
        with pytest.raises(ParseError):
            parse_problem("(set-logic SLIA)\n(constraint (= (f")

    def test_unknown_operator(self):
        bad = MINIMAL.replace("str.++ Start Start", "str.rot13 Start")
        with pytest.raises(UnknownTerminal):
            parse_problem(bad)

    def test_wrong_logic(self):
        with pytest.raises(ParseError):
            parse_problem(MINIMAL.replace("SLIA", "LIA"))

    def test_missing_check_synth(self):
        with pytest.raises(ParseError):
            parse_problem(MINIMAL.replace("(check-synth)", ""))

    def test_non_literal_constraint(self):
        bad = MINIMAL.replace('(= (f "a") "aa")', '(= (f x0) "aa")')
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_operator_arity_checked(self):
        bad = MINIMAL.replace("(str.++ Start Start)", "(str.++ Start)")
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_quote_escaping(self):
        text = MINIMAL.replace('(= (f "a") "aa")', '(= (f "say ""hi""") "x"" y")')
        c = parse_problem(text).constraints[0]
        assert c.inputs == ('say "hi"',)
        assert c.output == 'x" y'

    def test_comments_ignored(self):
        assert parse_problem("; a comment\n" + MINIMAL + "\n; trailing\n").constraints


class TestPrint:
    def test_print_solution_identity(self):
        text = print_solution(InputVar("x0"), "f", (("x0", Sort.STRING),))
        assert text == "(define-fun f ((x0 String)) String x0)"

    def test_print_solution_concat(self):
        p = Apply(CATALOG["str.++"], (InputVar("x0"), InputVar("x0")))
        assert program_to_text(p) == "(str.++ x0 x0)"

    def test_fixpoint_on_minimal(self):
        pf = parse_problem_file(MINIMAL)
        once = print_problem(pf)
        again = print_problem(parse_problem_file(once))
        assert once == again
        assert parse_problem_file(once).problem == pf.problem

    def test_fixpoint_on_constructed(self):
        grammar = default_grammar(
            string_literals=("", " ", 'has "quote"'),
            int_literals=(0, 2),
            input_vars=(("s", Sort.STRING), ("t", Sort.STRING)),
        )
        constraints = (IoConstraint(("a", "b"), "a b"), IoConstraint(("", 'q"'), 'q"'))
        from grt.core import SygusProblem

        pf = ProblemFile(None, SygusProblem(grammar, constraints), "g")
        text = print_problem(pf)
        parsed = parse_problem_file(text)
        assert parsed.problem == pf.problem
        assert parsed.fn_name == "g"
        assert print_problem(parsed) == text


class TestSolutionRoundTrip:
    def test_parse_solution(self):
        parsed = parse_solution('(define-fun f ((x0 String)) String (str.++ x0 "a"))')
        assert parsed.fn_name == "f"
        assert evaluate(parsed.program, ["b"]) == "ba"

    def test_parse_solution_skips_noise(self):
        out = "unsat\n(define-fun f ((x0 String)) String x0)\ndone"
        assert parse_solution(out).program == InputVar("x0")

    @pytest.mark.parametrize("after", ['\n"abc', "\n("], ids=["open-quote", "open-paren"])
    def test_parse_solution_ignores_malformed_noise_after_it(self, after):
        out = "(define-fun f ((x0 String)) String x0)" + after
        assert parse_solution(out).program == InputVar("x0")

    def test_ill_typed_rejected(self):
        with pytest.raises(ParseError):
            parse_solution('(define-fun f ((x0 String)) String (str.++ x0 1))')

    def test_random_round_trip_evaluates_equal(self):
        rng = random.Random(99)
        for _ in range(40):
            program = random_program(rng, Sort.STRING, depth=3)
            text = print_solution(program, "f", (("x0", Sort.STRING),))
            back = parse_solution(text).program
            for _ in range(5):
                s = "".join(rng.choice("ab 0.-") for _ in range(rng.randint(0, 8)))
                assert evaluate(back, [s]) == evaluate(program, [s])


def test_shipped_benchmarks_parse_and_round_trip(handwritten_paths, generated_paths):
    for path in list(handwritten_paths) + list(generated_paths):
        pf = parse_problem_file(path.read_text(encoding="utf-8"), path=str(path))
        assert pf.problem.constraints, path
        text = print_problem(pf)
        again = parse_problem_file(text)
        assert again.problem == pf.problem
        assert print_problem(again) == text


SHIPPED_TEXTS = [
    p.read_bytes() for p in sorted((Path(__file__).parent.parent / "benchmarks").glob("*/*.sl"))
]


@st.composite
def mutated_shipped(draw):
    """A shipped .sl file with a few bytes inserted, deleted or overwritten."""
    data = bytearray(draw(st.sampled_from(SHIPPED_TEXTS)))
    for _ in range(draw(st.integers(1, 8))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        byte = draw(st.one_of(st.sampled_from(b'()"; \n-0x'), st.integers(0, 255)))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "delete":
                del data[pos]
            else:
                data[pos] = byte
    return data.decode("utf-8", errors="replace")


def parse_or_reject(text):
    """Rejected text raises ParseError; accepted text survives print and re-parse."""
    try:
        pf = parse_problem_file(text)
    except ParseError:
        return
    printed = print_problem(pf)
    again = parse_problem_file(printed)
    assert again.problem == pf.problem
    assert again.fn_name == pf.fn_name
    assert print_problem(again) == printed


class TestParserRobustness:
    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        parse_or_reject(text)

    @given(st.text(alphabet='()"; \n-0aSx', max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_sexpression_alphabet(self, text):
        parse_or_reject("(set-logic SLIA)\n" + text)

    @given(mutated_shipped())
    @settings(max_examples=300, deadline=None)
    def test_mutated_shipped_files(self, text):
        parse_or_reject(text)

    @pytest.mark.parametrize(
        "text",
        ["(" * 5000, "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1)],
        ids=["unclosed", "closed"],
    )
    def test_deep_nesting_rejected(self, text):
        with pytest.raises(ParseError):
            parse_problem_file(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('(set-logic SLIA)\n(a "abc', "unterminated string literal (line 2, column 4)"),
            ('(set-logic SLIA)\n(a "x""y', "unterminated string literal (line 2, column 4)"),
            ("(set-logic SLIA)\n)", "unexpected ')' (line 2, column 1)"),
            ("(set-logic SLIA)\n (a (b", "unbalanced parenthesis (line 2, column 5)"),
            ("(set-logic SLIA)\n(a " + "9" * 5000 + ")", "integer literal too long (line 2, column 4)"),
            (
                "(set-logic SLIA)\n" + "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1),
                f"nesting deeper than {MAX_DEPTH} (line 2, column {MAX_DEPTH + 1})",
            ),
        ],
        ids=["unterminated", "unterminated-after-escape", "unexpected-close", "unbalanced", "long-integer", "deep"],
    )
    def test_error_position(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_problem_file(text)
        assert str(info.value) == message

    def test_huge_integer_rejected(self):
        with pytest.raises(ParseError):
            parse_problem_file(MINIMAL.replace('""', "9" * 5000))

    def test_unknown_operator_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_problem(MINIMAL.replace("str.++ Start Start", "str.rot13 Start"))


def tagged(form):
    """A form with the kind of every atom spelled out: a Symbol equals a str."""
    if isinstance(form, list):
        return ["list", *map(tagged, form)]
    return [type(form).__name__, form]


def read_both(text):
    """The reader's and the reference reader's forms, or their errors."""
    outcomes = []
    for reader in (lambda t: list(_forms(t)), ref_forms):
        try:
            outcomes.append(("forms", [tagged(f) for f in reader(text)]))
        except ParseError as exc:
            outcomes.append(("error", str(exc), exc.line, exc.col))
    return outcomes


# Blanks, the characters next to them that are not blanks (form feed, vertical
# tab, no-break space), Unicode digits that \d does (Arabic-Indic three) and
# does not (superscript two) accept, signs and quotes.
READER_ALPHABET = '()"; \n\t\r\f\v\xa0-019\u0663\u00b2aS.x'


class TestReaderMatchesReference:
    @pytest.mark.parametrize(
        "text",
        [
            "-", "-0", "--1", "1a", "a1", "-a", "0-", "007", "-12(", '1"a"', "12\f", "\u0663\u0664", "-\u0663",
            "\u00b2", "1\xa0", "\v", "\f1", '""', '"a""b"', '"a""', '"', '(a "x""y', '("" "")', '"""', '""""',
            "; only a comment", "(a ;c\n b)", "(a)(b)", ")", "(", "(a (b", "", "9" * 5000, "-" + "9" * 5000,
        ],
        ids=lambda text: repr(text) if len(text) < 20 else f"{text[:2]!r}...{len(text)}",
    )
    def test_edge_cases(self, text):
        mine, ref = read_both(text)
        assert mine == ref

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, text):
        mine, ref = read_both(text)
        assert mine == ref

    @given(st.text(alphabet=READER_ALPHABET, max_size=60))
    @settings(max_examples=500, deadline=None)
    def test_sexpression_alphabet(self, text):
        mine, ref = read_both(text)
        assert mine == ref

    @given(mutated_shipped())
    @settings(max_examples=200, deadline=None)
    def test_mutated_shipped_files(self, text):
        mine, ref = read_both(text)
        assert mine == ref

    def test_shipped_files(self):
        for data in SHIPPED_TEXTS:
            mine, ref = read_both(data.decode("utf-8"))
            assert mine == ref and mine[0] == "forms"
