import functools
import hashlib
import itertools
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from grt.core import (
    Apply,
    CATALOG,
    DEFAULT_TERMINAL_ORDER,
    Grammar,
    InputVar,
    IoConstraint,
    Sort,
    SygusProblem,
    TerminalSymbol,
    UnknownTerminal,
    default_grammar,
    evaluate,
)
from grt.datagen import draw_crit_problems, gen_crit_dataset
from grt import sygus_format
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
from oracles import random_program, ref_forms, ref_print_problem

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

    @pytest.mark.parametrize(
        "form", ["(check-synth 1 2)", "(check-synth x0)", '(check-synth (synth-fun f () String ((S String ("")))))']
    )
    def test_check_synth_takes_no_arguments(self, form):
        with pytest.raises(ParseError, match="check-synth takes no arguments"):
            parse_problem(MINIMAL.replace("(check-synth)", form))

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

    def test_a_non_string_input_variable_is_rejected_by_name(self):
        grammar = default_grammar(input_vars=(("x0", Sort.STRING), ("n", Sort.INT)))
        pf = ProblemFile(None, SygusProblem(grammar, (IoConstraint(("a", "3"), "a3"),)), "f")
        with pytest.raises(ValueError, match="input variable 'n' has sort Int"):
            print_problem(pf)
        assert grammar._printed == {}


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

    @pytest.mark.parametrize("text, message", [
        ("(define-fun f 0 String x0)", "parameter list must be a list"),
        ('(define-fun f "" String "a")', "parameter list must be a list"),
        ('(define-fun "f" ((x0 String)) String x0)', "name must be a symbol"),
        ("(define-fun f ((x0 String) (x0 Int)) String x0)", "duplicate parameter 'x0'"),
    ], ids=["int-params", "literal-params", "literal-name", "repeated-param"])
    def test_malformed_define_fun_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_solution(text)

    def test_random_round_trip_evaluates_equal(self):
        rng = random.Random(99)
        for _ in range(40):
            program = random_program(rng, Sort.STRING, depth=3)
            text = print_solution(program, "f", (("x0", Sort.STRING),))
            back = parse_solution(text).program
            for _ in range(5):
                s = "".join(rng.choice("ab 0.-") for _ in range(rng.randint(0, 8)))
                assert evaluate(back, [s]) == evaluate(program, [s])


SYNTH_FUN_GRAMMAR = '((Start String (x0 "" (str.++ Start Start))))'


@pytest.mark.parametrize("parse, text, message", [
    (parse_problem, MINIMAL.replace("(declare-var x0 String)", "(declare-var x0)"), "malformed declare-var: "),
    (parse_problem, MINIMAL.replace("(synth-fun f ", '(synth-fun "f" '), "synth-fun name must be a symbol"),
    (parse_problem, MINIMAL.replace("((x0 String)) String", "x0 String"), "synth-fun parameter list must be a list"),
    (parse_problem, MINIMAL.replace("((x0 String)) String", "((x0)) String"), "malformed parameter: "),
    (parse_problem, MINIMAL.replace("((x0 String)) String", "((x0 Int)) String"),
     "only String-sorted parameters are supported"),
    (parse_problem, MINIMAL.replace("((x0 String)) String", "((x0 String)) Int"),
     "only String-valued synthesis functions are supported"),
    (parse_problem, MINIMAL.replace(SYNTH_FUN_GRAMMAR, "()"), "synth-fun requires an explicit grammar"),
    (parse_problem, MINIMAL.replace("(str.++ Start Start)", "()"), "malformed grammar entry: []"),
    (parse_problem, MINIMAL.replace(SYNTH_FUN_GRAMMAR, "((Start String x0))"), "nonterminal productions must be a list"),
    (parse_problem, MINIMAL.replace('(f "a") "aa"', '(f "a") 1'), "constraint output must be a string literal"),
    (parse_problem, MINIMAL.replace('(f "a")', '(f "a" "b")'), "constraint applies f to 2 arguments, expected 1"),
    (parse_solution, "(define-fun f ((x0 String)) String)", "malformed define-fun"),
    (parse_solution, "(define-fun f ((x0)) String x0)", "malformed parameter: "),
    (parse_solution, "(define-fun f ((x0 String)) String (str.len x0))", "define-fun body has sort Int, declared String"),
    (parse_solution, "(define-fun f ((x0 String)) String y)", "unknown symbol 'y' in program body"),
    (parse_solution, "(define-fun f ((x0 String)) String (str.frob x0))",
     "unsupported operator 'str.frob' in program body"),
    (parse_solution, "(define-fun f ((x0 String)) String ())", "malformed program body entry: []"),
], ids=["declare-var", "synth-fun-name", "synth-fun-params", "synth-fun-param", "synth-fun-param-sort",
        "synth-fun-return-sort", "synth-fun-no-grammar", "grammar-entry", "productions", "constraint-output",
        "constraint-arity",
        "define-fun", "define-fun-param", "body-sort", "body-symbol", "body-operator", "body-entry"])
def test_each_refusal_names_what_is_wrong(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)


def test_shipped_benchmarks_parse_and_round_trip(handwritten_paths, generated_paths):
    for path in list(handwritten_paths) + list(generated_paths):
        pf = parse_problem_file(path.read_text(encoding="utf-8"), path=str(path))
        assert pf.problem.constraints, path
        text = printed_alike(pf)
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


# --- Declarations read before -------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402


READ_HEAD = sygus_format._head.__wrapped__  # the reading, without the reader's cache


def heads(maxsize=256):
    """A head cache like the reader's, which also records each head it read
    and what it made of it, in the order it read them."""
    read = {}

    def head(text):
        read[text] = forms = READ_HEAD(text)
        return forms

    cache = functools.lru_cache(maxsize=maxsize)(head)
    cache.read = read
    return cache


def kept(cache):
    """The heads the cache read into forms, in the order it read them."""
    return [text for text, forms in cache.read.items() if forms is not None]


def outcome(text, cache):
    """What parse_problem_file makes of the text with this head cache: the
    ProblemFile, or the error's class, message, line and column."""
    saved, sygus_format._head = sygus_format._head, cache
    try:
        return parse_problem_file(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col
    finally:
        sygus_format._head = saved


def cold(text):
    return outcome(text, heads())


def full(text):
    """What the full reader makes of the text, with nothing looked up or kept."""
    try:
        return sygus_format._problem_file(list(_forms(text)), None)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col


def primed(*texts):
    cache = heads()
    for text in texts:
        outcome(text, cache)
    return cache


def head_end(text):
    """Where the text's kept head ends: past the newline of its first constraint line."""
    (head,) = kept(primed(text))
    assert text.startswith(head) and text.startswith("(constraint", len(head))
    return len(head)


MANY_SMALL_TEXTS = [req.text for req in harness.many_small_requests(1, k=20)]
BASE_TEXTS = [data.decode("utf-8") for data in SHIPPED_TEXTS] + MANY_SMALL_TEXTS

# Pieces that change how the text around them reads.
MUTATIONS = [
    "x", "1", '"', '"a', "(", ")", ";", "; (synth-fun", "\n; (synth-fun f\n", ")(", "((", "\n", " ",
    "(check-synth)", '(constraint (= (f "a") "a"))', "\n(constraint", '"\n(constraint',
]


@st.composite
def mutated_around_head(draw):
    """A base text with a piece put at the start of its head, inside it, at
    either side of its final newline or after it; or the head repeated, or the
    first constraint line turned into a comment."""
    text = draw(st.sampled_from(BASE_TEXTS))
    end = head_end(text)
    kind = draw(st.sampled_from(("start", "inside", "end", "glued", "after", "repeat", "comment")))
    if kind == "repeat":
        at = draw(st.sampled_from((end, len(text))))
        return text, text[:at] + draw(st.sampled_from(("", "\n", " "))) + text[:end] + text[at:]
    if kind == "comment":
        return text, text[:end] + ";" + text[end:]
    at = {
        "start": lambda: 0,
        "inside": lambda: draw(st.integers(1, end - 1)),
        "end": lambda: end - 1,
        "glued": lambda: end,
        "after": lambda: draw(st.integers(end, len(text))),
    }[kind]()
    piece = draw(st.sampled_from(MUTATIONS))
    return text, text[:at] + piece + text[at:]


class TestDeclarationReuse:
    def test_a_kept_declaration_is_not_walked_again(self, monkeypatch):
        expected = [cold(text) for text in MANY_SMALL_TEXTS]
        cache = primed(MANY_SMALL_TEXTS[0])
        assert len(kept(cache)) == 1
        walked = []
        real = sygus_format._parse_synth_fun
        monkeypatch.setattr(sygus_format, "_parse_synth_fun", lambda form: walked.append(form) or real(form))
        assert [outcome(text, cache) for text in MANY_SMALL_TEXTS] == expected
        assert walked == []
        cold(MANY_SMALL_TEXTS[1])
        assert len(walked) == 1

    def test_problems_declaring_one_grammar_share_it(self):
        cache = heads()
        first, second = (outcome(text, cache) for text in MANY_SMALL_TEXTS[:2])
        assert first.problem.grammar is second.problem.grammar
        assert cache.cache_info()[:2] == (1, 1)  # hits, misses: the second text's head was kept

    @given(mutated_around_head())
    @settings(max_examples=400, deadline=None)
    def test_mutated_texts_read_as_with_nothing_kept(self, texts):
        base, mutated = texts
        expected = full(mutated)
        assert outcome(mutated, primed(base)) == cold(mutated) == expected
        assert outcome(mutated, primed(mutated)) == expected  # its own head, if kept

    @pytest.mark.parametrize("text", BASE_TEXTS[:3] + MANY_SMALL_TEXTS[:1])
    def test_every_single_insertion_reads_as_with_nothing_kept(self, text):
        end = head_end(text)
        cache = heads()
        outcome(text, cache)
        after = end + len("(constraint")
        for at in (0, 1, end // 2, end - 1, end, end + 1, after, len(text)):
            for piece in MUTATIONS:
                mutated = text[:at] + piece + text[at:]
                assert outcome(mutated, cache) == cold(mutated) == full(mutated), (at, piece)
        # a piece after the first constraint line's "(constraint" leaves the head to be reused
        assert cache.cache_info().hits >= 2 * len(MUTATIONS)

    def test_benchmark_texts_read_the_same_cold_and_warm(self, generated_paths):
        texts = [req.text for seed in (1, 2) for req in harness.many_small_requests(seed)]
        texts += [path.read_text(encoding="utf-8") for path in generated_paths]
        assert len(texts) == 1437
        warm = primed(*texts)
        # every head here is kept: many-small's one and the suite's 26
        assert len(kept(warm)) == len({text[: head_end(text)] for text in texts}) == 27
        for text in texts:
            assert outcome(text, warm) == cold(text) == full(text)

    def test_the_least_recently_used_declaration_goes(self):
        base = MANY_SMALL_TEXTS[0]
        texts = [base.replace('(x0 ""', f'(x0 "{i}" ""', 1) for i in range(5)]
        cache = heads(maxsize=4)
        for text in texts:
            outcome(text, cache)
        assert cache.cache_info().misses == 5 and cache.cache_info().currsize == 4

        def read_again(*indices):
            """How many of these texts' heads were read again, not found kept."""
            misses = cache.cache_info().misses
            for k in indices:
                outcome(texts[k], cache)
            return cache.cache_info().misses - misses

        assert read_again(1) == 0  # now the most recently used
        assert read_again(0) == 1  # the first went, and is back in place of the third
        assert read_again(3, 4, 1, 0) == 0
        assert read_again(2) == 1

    @pytest.mark.parametrize(
        "text, error, n_kept",
        [
            (" ".join(MANY_SMALL_TEXTS[0].split("\n")), None, 0),  # no constraint line
            # the head holds one top-level synth-fun form, so it is kept, though
            # the text is refused for a form before it
            (
                MANY_SMALL_TEXTS[0].replace("\n(synth-fun", "\n(check-synth (synth-fun f () String ((S String (\"\")))))\n(synth-fun", 1),
                "check-synth takes no arguments",
                1,
            ),
            # the first "\n(constraint" is inside a literal, which the head cuts
            (MANY_SMALL_TEXTS[0].replace('(x0 ""', '(x0 "\n(constraint" ""', 1), None, 0),
        ],
        ids=["one-line", "nested-first", "literal-across-the-cut"],
    )
    def test_declarations_that_are_not_kept(self, text, error, n_kept):
        cache = primed(text)
        assert len(kept(cache)) == n_kept
        if error is None:
            assert not isinstance(cold(text), tuple)  # the text is accepted
        else:
            assert cold(text)[:2] == (ParseError, error)
        warm = primed(MANY_SMALL_TEXTS[0], text)
        assert len(kept(warm)) == 1 + n_kept  # the unchanged text's, and this one's if kept
        assert outcome(text, warm) == outcome(text, cache) == cold(text) == full(text)

    def test_a_declaration_split_by_a_line_is_kept(self):
        text = MANY_SMALL_TEXTS[0].replace("\n     (StartInt", "\n(StartInt", 1)
        assert "\n(StartInt" in text
        cache = primed(text)
        assert len(kept(cache)) == 1
        assert outcome(text, cache) == cold(text) == full(text)
        assert not isinstance(full(text), tuple)

    def test_a_nested_synth_fun_symbol_is_kept(self):
        # The first "(synth-fun" opens a parameter of a declaration spelled
        # "( synth-fun"; the head holds one top-level synth-fun form all the same.
        text = (
            "(set-logic SLIA)\n( synth-fun f ((synth-fun String)) String\n"
            '    ((Start String (synth-fun "" (str.++ Start Start)))))\n'
            '(declare-var synth-fun String)\n(constraint (= (f "a") "aa"))\n(check-synth)\n'
        )
        cache = primed(text)
        assert len(kept(cache)) == 1
        assert outcome(text, cache) == cold(text) == full(text)
        assert not isinstance(full(text), tuple)
        start, end = text.index("(synth-fun"), text.index("\n(declare-var")
        bare = "(set-logic SLIA)\n" + text[start:end] + text[end:]
        assert outcome(bare, cache) == full(bare)
        assert full(bare)[1].startswith("unexpected ')'")

    def test_a_parenthesis_in_a_comment_is_not_taken_for_the_end(self):
        text = MANY_SMALL_TEXTS[0].replace("StartInt)))))\n", "StartInt))))) ; x)\n", 1)
        assert "; x)" in text
        assert outcome(text, primed(text)) == cold(text) == full(text)
        assert not isinstance(full(text), tuple)

    def test_a_declaration_with_a_comment_inside_is_reused(self):
        text = MANY_SMALL_TEXTS[0].replace("String\n", "String ; a comment (with a paren\n", 1)
        cache = primed(text)
        (head,) = kept(cache)
        assert "; a comment (with a paren" in head
        other = MANY_SMALL_TEXTS[1].replace("String\n", "String ; a comment (with a paren\n", 1)
        assert outcome(other, cache) == cold(other)
        assert outcome(other, cache).problem.grammar is cold(text).problem.grammar


SYNTH_FUN = '(synth-fun f ((x0 String)) String ((Start String (x0 "-" (str.++ Start Start)))))\n'
SMALL_HEAD = "(set-logic SLIA)\n" + SYNTH_FUN + "(declare-var x0 String)\n"
SMALL_REST = '(constraint (= (f "a") "a-"))\n(check-synth)\n'


class TestHead:
    def test_a_text_without_a_constraint_line_never_consults_it(self):
        text = " ".join(MANY_SMALL_TEXTS[0].split("\n"))
        cache = heads()
        assert outcome(text, cache) == full(text)
        assert cache.cache_info().misses == cache.cache_info().hits == 0

    def test_a_head_reads_into_its_forms_and_one_declaration(self):
        forms = sygus_format._head(SMALL_HEAD)
        assert [type(form) for form in forms] == [list, sygus_format._Declaration, list]
        assert forms[0] == ["set-logic", "SLIA"] and forms[2] == ["declare-var", "x0", "String"]
        pf = full(SMALL_HEAD + SMALL_REST)
        assert forms[1] == (pf.fn_name, pf.problem.grammar)

    @pytest.mark.parametrize(
        "head",
        [
            "(set-logic SLIA)\n(synth-fun f ((x0 String)) String\n",
            '(set-logic SLIA)\n(synth-fun f ((x0 String)) String ((Start String ("\n',
            "(set-logic SLIA)\n(declare-var x0 String)\n",
            "(set-logic SLIA)\n(check-synth " + SYNTH_FUN + ")\n",
            SMALL_HEAD + SYNTH_FUN,
            SMALL_HEAD.replace("(synth-fun", '("synth-fun"'),
            SMALL_HEAD.replace("(x0 String)) String", "(x0 Int)) String"),
            SMALL_HEAD.replace("str.++ Start Start", "str.++ Start"),
            SMALL_HEAD.replace("str.++", "str.frob"),
        ],
        ids=["list-open-at-the-end", "cut-inside-a-literal", "no-synth-fun", "nested-synth-fun-only",
             "two-synth-funs", "synth-fun-as-a-literal", "int-parameter", "wrong-arity", "unknown-operator"],
    )
    def test_a_head_without_exactly_one_sound_declaration_is_none(self, head):
        assert sygus_format._head(head) is None
        text = head + SMALL_REST
        assert outcome(text, heads()) == full(text)

    def test_forms_that_are_not_lists_are_read_and_refused_by_the_full_reader(self):
        head = '5\n()\n"s"\n' + SMALL_HEAD
        forms = sygus_format._head(head)
        assert forms[:3] == (5, [], "s") and type(forms[4]) is sygus_format._Declaration
        text = head + SMALL_REST
        assert outcome(text, heads()) == full(text) == (ParseError, "unsupported top-level form: 5", 0, 0)


# --- Printing -----------------------------------------------------------------------


def printed_alike(pf):
    """The package's printer gives the reference printer's bytes, cold and warm."""
    expected = ref_print_problem(pf)
    assert print_problem(pf) == expected
    assert print_problem(pf) == expected
    return expected


def count_head_renders(monkeypatch):
    """The function names the printer renders a head for, from now on."""
    rendered = []
    real = sygus_format._print_head
    monkeypatch.setattr(sygus_format, "_print_head", lambda g, name: rendered.append(name) or real(g, name))
    return rendered


def text_digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8") + b"\0")
    return h.hexdigest()


LITERAL_TEXT = st.text(alphabet='ab "\n;()-', max_size=6)


@st.composite
def printable_problems(draw):
    """A problem over any subset of the catalog, in any order, with literal
    pools and constraints that hold quotes, doubled quotes and blanks."""
    n_vars = draw(st.integers(1, 3))
    input_vars = tuple((f"x{i}", Sort.STRING) for i in range(n_vars))
    names = draw(st.lists(st.sampled_from(DEFAULT_TERMINAL_ORDER), unique=True))
    terminals = [CATALOG[n] for n in names]
    if draw(st.booleans()):  # a named variable occurrence
        terminals.insert(draw(st.integers(0, len(terminals))), TerminalSymbol("x0", 0, (), Sort.STRING))
    literal = st.one_of(st.sampled_from(['"', '""', " ", "", 'a "b"']), LITERAL_TEXT)
    grammar = Grammar(
        terminals=tuple(terminals),
        string_literals=tuple(draw(st.lists(literal, unique=True, max_size=5))),
        int_literals=tuple(draw(st.lists(st.integers(-3, 20), unique=True, max_size=4))),
        input_vars=input_vars,
    )
    value = st.one_of(literal, st.text(max_size=8))
    constraints = draw(st.lists(
        st.builds(IoConstraint, st.tuples(*[value] * n_vars), value), max_size=4
    ))
    fn_name = draw(st.sampled_from(("f", "g", "name_1")))
    return ProblemFile(None, SygusProblem(grammar, tuple(constraints)), fn_name)


class TestPrintMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_many_small_problems(self, seed, monkeypatch):
        rendered = count_head_renders(monkeypatch)
        grammar = default_grammar()
        k = harness.MANY_SMALL_PROBLEMS
        samples = gen_crit_dataset(grammar, n_programs=k, seed=seed)
        problems = draw_crit_problems(samples, grammar, k, seed)
        assert len(problems) == 700
        for _, problem in problems:
            printed_alike(ProblemFile(None, problem, "f"))
        assert list(grammar._printed) == ["f"]
        assert len(rendered) == 1  # one head for all 700

    def test_every_reduction_by_up_to_two_terminals(self):
        grammar = default_grammar()
        constraints = (IoConstraint(("a b",), 'say "hi"'), IoConstraint(("",), ""))
        reduced = [
            grammar.without(names)
            for k in range(3)
            for names in itertools.combinations(grammar.terminal_names, k)
        ]
        assert len(reduced) == 1 + 15 + 105
        for g in reduced:
            printed_alike(ProblemFile(None, SygusProblem(g, constraints), "f"))
        # each reduction keeps its own head; without(()) is a grammar of its own
        assert all(list(g._printed) == ["f"] for g in reduced)
        assert grammar._printed == {}

    def test_one_grammar_under_two_names(self, monkeypatch):
        rendered = count_head_renders(monkeypatch)
        grammar = default_grammar()
        problem = SygusProblem(grammar, (IoConstraint(("a",), "b"),))
        first, second, again = (printed_alike(ProblemFile(None, problem, name)) for name in ("f", "g", "f"))
        assert first == again != second
        assert "(synth-fun g " in second and "(constraint (= (g " in second
        assert list(grammar._printed) == ["f", "g"]
        assert rendered == ["f", "g"]

    @given(printable_problems())
    @settings(max_examples=300, deadline=None)
    def test_any_problem(self, pf):
        printed_alike(pf)

    def test_many_small_request_texts_are_unchanged(self):
        # sha256 of each seed's 700 request texts as the printer made them when
        # it rendered every text whole: the benchmark's set-up sends the same requests
        digests = {seed: text_digest(req.text for req in harness.many_small_requests(seed)) for seed in (1, 2)}
        assert digests == {
            1: "b4bb7d5b3ef71d09a63676a1bb9fd6d69438e664bf1d832aa785e1b1a5e360d2",
            2: "62846ba305e4830cb2e169bf2e8af62378abea80a2691ad97108721d58e6310d",
        }
