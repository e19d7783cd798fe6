"""Parser and printer for a strict SyGuS-lite s-expression problem format.

Supported surface: ``set-logic SLIA``, one ``synth-fun`` with an explicit
grammar, ``declare-var``, ground PBE ``constraint`` forms, ``(check-synth)``.
Anything else is rejected loudly. String literals use SMT-LIB double-quote
escaping ("" inside a literal denotes one quote character).

Each distinct head is read once per process. A problem's head is its text
up to and including the newline of its first ``"\\n(constraint"``: in a
printed problem, the logic, the synth-fun declaration and the ``declare-var``
lines. Requests usually repeat their head verbatim and differ only in their
constraints, and the declaration is most of a problem's tokens. So
``parse_problem_file`` reads a head with ``_head``, a function of the head's
text alone whose last 256 results ``functools.lru_cache`` keeps. It gives the
head's top-level forms, with its one top-level synth-fun form read into a
``_Declaration`` (the function's name and the shared ``Grammar`` it declares),
or None for a head that does not read alone into whole forms, holds no
top-level synth-fun form or more than one, or whose synth-fun form is
malformed. A text whose head gives forms is tokenized from its first
constraint line on only.

This is exact. Such a head reads alone into whole forms, so no list is open
at its end. The one token that can run across its final newline is a string
literal, and cut there it holds an odd number of quotes, which the reader
refuses; so the whole text reads as the head's forms followed by the rest's.
The head's synth-fun form is the text's first, and reading it depends on
nothing else in the text, so its ``_Declaration`` is what the full reader
makes of it in that place.
Any ``ParseError`` on this path reads the whole text again, so every error,
with its message, line and column, is the full reader's.

Printing renders each grammar's head once per function name. The head is
everything before the constraints: ``(set-logic SLIA)``, the synth-fun
declaration with its nonterminal lines, and the ``declare-var`` lines. It is
kept in the grammar's ``_printed`` dict, so each ``print_problem`` call formats
only its constraints and ``(check-synth)``. The text is unchanged: the head is
a function of the grammar's fields and the name alone, which never change
after construction, and a reduced grammar (``Grammar.without``) is a grammar
of its own with its own head. Input variables must be String-sorted, which
is checked when the head is rendered.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    Apply,
    BoolLit,
    CATALOG,
    DEFAULT_TERMINAL_ORDER,
    Grammar,
    InputVar,
    IntLit,
    IoConstraint,
    ProgramAst,
    Sort,
    StrLit,
    SygusProblem,
    UnknownTerminal,
    require_string_inputs,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})" if line else message)
        self.line = line
        self.col = col


class UnknownEntry(ParseError, UnknownTerminal):
    """An operator or grammar entry outside the catalog."""


class Symbol(str):
    """A bare s-expression symbol, distinct from a string literal."""

    __slots__ = ()


# Deepest nesting the reader accepts, well inside Python's recursion limit:
# checking and printing a form recurse into it.
MAX_DEPTH = 100
_SORT_NAMES = {"String": Sort.STRING, "Int": Sort.INT, "Bool": Sort.BOOL}
# The reader hands out one Symbol per word for the last 4096 words it met:
# making a str subclass copies the word, which costs several times a dict
# lookup, and a problem's words (operators, sorts, names) repeat from text to
# text.
_symbol = functools.lru_cache(maxsize=4096)(Symbol)


@dataclass(frozen=True)
class ProblemFile:
    path: str | None
    problem: SygusProblem
    fn_name: str


@dataclass(frozen=True)
class ParsedSolution:
    fn_name: str
    params: tuple[tuple[str, Sort], ...]
    ret_sort: Sort
    program: ProgramAst


# --- Reader -----------------------------------------------------------------------


# One token per match, after any blanks and ``;`` comments: a parenthesis, a
# string literal from its opening quote to its closing one (if any), or a
# bare word, which ``_forms`` reads as an integer when it is one. A match with
# no token is the end of the text.
_TOKEN_RE = re.compile(r'(?:[ \t\r\n]+|;[^\n]*)*([()]|"[^"]*(?:""[^"]*)*"?|[^ \t\r\n();"]+)?')


def _error_at(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the index-th token of the text, with its line and column."""
    offset = next(itertools.islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _forms(text: str):
    """Yield each top-level s-expression of the text in turn; a caller that
    stops early gets no error for malformed text after the forms it took."""
    return _read(_TOKEN_RE.findall(text), text)


def _read(tokens: list, text: str):
    """Yield each top-level s-expression the tokens make; an error names the
    token's position in the text, counting ``tokens[0]`` as its first token.

    A token is told by its first character. A string literal is closed when
    it holds an even number of quotes: its doubled quotes come in pairs. An
    integer is an optional ``-`` and Unicode decimal digits (what ``\\d``
    matches), any other word a symbol.
    """
    stack: list[tuple[int, list]] = []  # (token index of "(", items so far) per open list
    items: list = []
    for index, token in enumerate(tokens):
        if token == "(":
            if len(stack) == MAX_DEPTH:
                raise _error_at(f"nesting deeper than {MAX_DEPTH}", text, index)
            stack.append((index, items))
            items = []
            continue
        if token == ")":
            if not stack:
                raise _error_at("unexpected ')'", text, index)
            form = items
            items = stack.pop()[1]
        elif not token:
            break
        elif token[0] == '"':
            if len(token) < 2 or token.count('"') % 2:
                raise _error_at("unterminated string literal", text, index)
            form = token[1:-1].replace('""', '"')
        elif token.isdecimal() or (token[0] == "-" and token[1:].isdecimal()):
            try:
                form = int(token)
            except ValueError:  # more digits than int() converts
                raise _error_at("integer literal too long", text, index) from None
        else:
            form = _symbol(token)
        if stack:
            items.append(form)
        else:
            yield form
    if stack:
        raise _error_at("unbalanced parenthesis", text, stack[-1][0])


def _sort_of(sym, where: str) -> Sort:
    if isinstance(sym, Symbol) and str(sym) in _SORT_NAMES:
        return _SORT_NAMES[str(sym)]
    raise ParseError(f"expected a sort in {where}, got {sym!r}")


# --- Problem parsing -----------------------------------------------------------


def parse_problem_file(text: str, path: str | None = None) -> ProblemFile:
    end = text.find("\n(constraint") + 1  # where the head ends; 0 without a constraint line
    head = _head(text[:end]) if end else None
    if head is not None:
        try:
            return _problem_file([*head, *_forms(text[end:])], path)
        except ParseError:
            pass  # read all of it again, so the error is the full reader's
    return _problem_file(list(_forms(text)), path)


def _problem_file(forms: list, path: str | None) -> ProblemFile:
    """The problem the top-level forms state; a ``_Declaration`` among them
    stands for a synth-fun form read before."""
    declared = None
    constraints: list[IoConstraint] = []
    saw_logic = False
    saw_check = False

    for form in forms:
        if type(form) is _Declaration:
            declared = form
            continue
        if not isinstance(form, list) or not form or not isinstance(form[0], Symbol):
            raise ParseError(f"unsupported top-level form: {form!r}")
        head = form[0]  # a Symbol, which compares and prints as its text
        if head == "set-logic":
            if len(form) != 2 or form[1] != "SLIA":
                raise ParseError("only (set-logic SLIA) is supported")
            saw_logic = True
        elif head == "synth-fun":
            if declared is not None:
                raise ParseError("multiple synth-fun declarations")
            declared = _declaration(form)
        elif head == "declare-var":
            if len(form) != 3 or not isinstance(form[1], Symbol):
                raise ParseError(f"malformed declare-var: {form!r}")
            _sort_of(form[2], "declare-var")
        elif head == "constraint":
            if declared is None:
                raise ParseError("constraint before synth-fun")
            constraints.append(_parse_constraint(form, declared.fn_name, len(declared.grammar.input_vars)))
        elif head == "check-synth":
            if len(form) != 1:
                raise ParseError("check-synth takes no arguments")
            saw_check = True
        else:
            raise ParseError(f"unsupported form ({head} ...)")

    if not saw_logic:
        raise ParseError("missing (set-logic SLIA)")
    if declared is None:
        raise ParseError("missing synth-fun declaration")
    if not saw_check:
        raise ParseError("missing (check-synth)")

    problem = SygusProblem(grammar=declared.grammar, constraints=tuple(constraints))
    return ProblemFile(path=path, problem=problem, fn_name=declared.fn_name)


class _Declaration(NamedTuple):
    """A synth-fun form read: the function's name and the grammar it declares,
    whose ``input_vars`` are the parameters."""

    fn_name: str
    grammar: Grammar


def _declaration(form) -> _Declaration:
    """The function a synth-fun form declares, with its grammar."""
    fn_name, params, ops, str_lits, int_lits = _parse_synth_fun(form)
    used = set(ops)
    grammar = _grammar(
        tuple([n for n in DEFAULT_TERMINAL_ORDER if n in used]),
        tuple(dict.fromkeys(str_lits)),
        tuple(dict.fromkeys(int_lits)),
        tuple(params),
    )
    return _Declaration(fn_name, grammar)


@functools.lru_cache(maxsize=256)
def _grammar(names: tuple, string_literals: tuple, int_literals: tuple, input_vars: tuple) -> Grammar:
    """The grammar a synth-fun declares. Problems that declare the same one
    share it, and with it what is worked out once per grammar
    (``Grammar.without``)."""
    return Grammar(
        terminals=tuple(CATALOG[n] for n in names),
        string_literals=string_literals,
        int_literals=int_literals,
        input_vars=input_vars,
    )


def parse_problem(text: str) -> SygusProblem:
    return parse_problem_file(text).problem


def _parse_synth_fun(form):
    if len(form) != 5:
        raise ParseError("synth-fun must be (synth-fun name (params) String (grammar))")
    _, name_sym, params_form, ret_form, grammar_form = form
    if not isinstance(name_sym, Symbol):
        raise ParseError("synth-fun name must be a symbol")
    if not isinstance(params_form, list):
        raise ParseError("synth-fun parameter list must be a list")
    params = []
    for p in params_form:
        if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], Symbol)):
            raise ParseError(f"malformed parameter: {p!r}")
        sort = _sort_of(p[1], "synth-fun parameters")
        if sort is not Sort.STRING:
            raise ParseError("only String-sorted parameters are supported")
        params.append((str(p[0]), sort))
    if _sort_of(ret_form, "synth-fun return sort") is not Sort.STRING:
        raise ParseError("only String-valued synthesis functions are supported")
    if not isinstance(grammar_form, list) or not grammar_form:
        raise ParseError("synth-fun requires an explicit grammar")

    nt_names = set()
    for decl in grammar_form:
        if not (isinstance(decl, list) and len(decl) == 3 and isinstance(decl[0], Symbol)):
            raise ParseError(f"malformed nonterminal declaration: {decl!r}")
        nt_names.add(str(decl[0]))

    param_names = {n for n, _ in params}
    ops: list[str] = []
    str_lits: list[str] = []
    int_lits: list[int] = []

    # A Symbol is looked up and reported as it is: it hashes, compares and
    # prints as the str it holds.
    def walk(entry):
        if isinstance(entry, Symbol):
            if entry in param_names or entry in nt_names or entry in ("true", "false"):
                return
            raise UnknownEntry(f"unsupported grammar entry {entry!r}")
        if isinstance(entry, str):
            str_lits.append(entry)
            return
        if isinstance(entry, int):
            int_lits.append(entry)
            return
        if isinstance(entry, list) and entry and isinstance(entry[0], Symbol):
            op = entry[0]
            term = CATALOG.get(op)
            if term is None:
                raise UnknownEntry(f"unsupported grammar operator {op!r}")
            if len(entry) - 1 != term.arity:
                raise ParseError(
                    f"operator {op!r} takes {term.arity} arguments, got {len(entry) - 1}"
                )
            ops.append(op)
            for child in entry[1:]:
                walk(child)
            return
        raise ParseError(f"malformed grammar entry: {entry!r}")

    for decl in grammar_form:
        _sort_of(decl[1], "nonterminal declaration")
        if not isinstance(decl[2], list):
            raise ParseError("nonterminal productions must be a list")
        for entry in decl[2]:
            walk(entry)

    return str(name_sym), params, ops, str_lits, int_lits


def _bad_constraint(fn_name: str) -> ParseError:
    return ParseError(f"constraints must look like (constraint (= ({fn_name} \"in\"...) \"out\"))")


def _parse_constraint(form, fn_name: str, n_params: int) -> IoConstraint:
    if len(form) != 2 or not isinstance(form[1], list):
        raise _bad_constraint(fn_name)
    eq = form[1]
    if len(eq) != 3 or eq[0] != "=" or not isinstance(eq[0], Symbol):
        raise _bad_constraint(fn_name)
    call, out = eq[1], eq[2]
    if not (isinstance(call, list) and call and isinstance(call[0], Symbol) and call[0] == fn_name):
        raise _bad_constraint(fn_name)
    args = call[1:]
    if len(args) != n_params:
        raise ParseError(
            f"constraint applies {fn_name} to {len(args)} arguments, expected {n_params}"
        )
    for a in args:
        if isinstance(a, Symbol) or not isinstance(a, str):
            raise ParseError("constraint arguments must be string literals")
    if isinstance(out, Symbol) or not isinstance(out, str):
        raise ParseError("constraint output must be a string literal")
    return IoConstraint(inputs=tuple(args), output=out)


# --- Heads read before -----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _head(text: str) -> tuple | None:
    """The top-level forms a problem's head reads into alone, its one
    top-level synth-fun form read into a ``_Declaration``; None if it does not
    read alone, holds no top-level synth-fun form or more than one, or its
    synth-fun form is malformed."""
    try:
        forms = list(_forms(text))
        at = [
            k for k, form in enumerate(forms)
            if isinstance(form, list) and form and isinstance(form[0], Symbol) and form[0] == "synth-fun"
        ]
        if len(at) != 1:
            return None
        forms[at[0]] = _declaration(forms[at[0]])
    except ParseError:
        return None
    return tuple(forms)


# --- Printing -------------------------------------------------------------------


_NT_NAME = {Sort.STRING: "Start", Sort.INT: "StartInt", Sort.BOOL: "StartBool"}


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def print_problem(pf: ProblemFile) -> str:
    """Emit the normalized problem text; a fixpoint of parse-then-print."""
    g = pf.problem.grammar
    head = g._printed.get(pf.fn_name)
    if head is None:
        head = g._printed[pf.fn_name] = _print_head(g, pf.fn_name)
    call = f"(constraint (= ({pf.fn_name}"
    lines = [head]
    for c in pf.problem.constraints:
        args = "".join([" " + _quote(s) for s in c.inputs])
        lines.append(f"{call}{args}) {_quote(c.output)}))\n")
    lines.append("(check-synth)\n")
    return "".join(lines)


def _print_head(g: Grammar, fn_name: str) -> str:
    """The problem text before its constraints: the logic, the synth-fun
    declaration and the declare-var lines, each ended by a newline."""
    require_string_inputs(g)
    used_sorts = {Sort.STRING}
    for t in g.terminals:
        used_sorts.add(t.ret_sort)
        used_sorts.update(t.arg_sorts)
    if g.int_literals:
        used_sorts.add(Sort.INT)

    productions: dict[Sort, list[str]] = {s: [] for s in (Sort.STRING, Sort.INT, Sort.BOOL)}
    for name, sort in g.input_vars:
        productions[sort].append(name)
    for s in g.string_literals:
        productions[Sort.STRING].append(_quote(s))
    for n in g.int_literals:
        productions[Sort.INT].append(str(n))
    for t in g.terminals:
        if t.arity == 0:
            continue  # variable occurrence, already listed
        args = " ".join(_NT_NAME[a] for a in t.arg_sorts)
        productions[t.ret_sort].append(f"({t.name} {args})")

    nt_lines = []
    for sort in (Sort.STRING, Sort.INT, Sort.BOOL):
        if sort in used_sorts and (productions[sort] or sort is Sort.STRING):
            entries = " ".join(productions[sort])
            nt_lines.append(f"({_NT_NAME[sort]} {sort.value} ({entries}))")

    params = " ".join(f"({name} {sort.value})" for name, sort in g.input_vars)
    lines = ["(set-logic SLIA)"]
    lines.append(f"(synth-fun {fn_name} ({params}) String")
    for i, nt in enumerate(nt_lines):
        prefix = "    (" if i == 0 else "     "
        suffix = "))" if i == len(nt_lines) - 1 else ""
        lines.append(f"{prefix}{nt}{suffix}")
    for name, sort in g.input_vars:
        lines.append(f"(declare-var {name} {sort.value})")
    return "\n".join(lines) + "\n"


def program_to_text(program: ProgramAst) -> str:
    """Render a program body as an s-expression."""
    if isinstance(program, Apply):
        inner = " ".join(program_to_text(c) for c in program.children)
        return f"({program.terminal.name} {inner})"
    if isinstance(program, InputVar):
        return program.name
    if isinstance(program, StrLit):
        return _quote(program.value)
    if isinstance(program, IntLit):
        return str(program.value)
    return "true" if program.value else "false"


def print_solution(program: ProgramAst, fn_name: str, params: Sequence[tuple[str, Sort]]) -> str:
    plist = " ".join(f"({name} {sort.value})" for name, sort in params)
    return f"(define-fun {fn_name} ({plist}) String {program_to_text(program)})"


# --- Solution parsing ------------------------------------------------------------


def parse_solution(text: str) -> ParsedSolution:
    """Parse the first (define-fun ...) in the text into a typed program."""
    start = text.find("(define-fun")
    if start < 0:
        raise ParseError("no define-fun found in solver output")
    form = next(_forms(text[start:]))
    if len(form) != 5 or str(form[0]) != "define-fun":
        raise ParseError("malformed define-fun")
    _, name_sym, params_form, ret_form, body = form
    if not isinstance(name_sym, Symbol):
        raise ParseError("define-fun name must be a symbol")
    if not isinstance(params_form, list):
        raise ParseError("define-fun parameter list must be a list")
    params: dict[str, Sort] = {}
    for p in params_form:
        if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], Symbol)):
            raise ParseError(f"malformed parameter: {p!r}")
        if p[0] in params:
            raise ParseError(f"duplicate parameter {str(p[0])!r}")
        params[str(p[0])] = _sort_of(p[1], "define-fun parameters")
    ret_sort = _sort_of(ret_form, "define-fun return sort")
    program = _typed_body(body, params)
    if program.sort is not ret_sort:
        raise ParseError(
            f"define-fun body has sort {program.sort.value}, declared {ret_sort.value}"
        )
    return ParsedSolution(str(name_sym), tuple(params.items()), ret_sort, program)


def _typed_body(entry, param_sorts: dict[str, Sort]) -> ProgramAst:
    if isinstance(entry, Symbol):
        s = str(entry)
        if s in param_sorts:
            return InputVar(s, param_sorts[s])
        if s in ("true", "false"):
            return BoolLit(s == "true")
        raise ParseError(f"unknown symbol {s!r} in program body")
    if isinstance(entry, str):
        return StrLit(entry)
    if isinstance(entry, int):
        return IntLit(entry)
    if isinstance(entry, list) and entry and isinstance(entry[0], Symbol):
        op = str(entry[0])
        term = CATALOG.get(op)
        if term is None:
            raise UnknownEntry(f"unsupported operator {op!r} in program body")
        children = tuple(_typed_body(c, param_sorts) for c in entry[1:])
        if len(children) != term.arity or any(
            c.sort is not s for c, s in zip(children, term.arg_sorts)
        ):
            raise ParseError(f"ill-typed application of {op!r}")
        return Apply(term, children)
    raise ParseError(f"malformed program body entry: {entry!r}")
