"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the string-theory definitions
with explicit index loops, sharing no helper code with the package, so a bug
in the package semantics cannot hide in the oracle.
"""

from __future__ import annotations

import itertools
import random
import re

from grt.core import (
    Apply,
    BoolLit,
    CATALOG,
    Grammar,
    InputVar,
    IntLit,
    ProgramAst,
    Sort,
    StrLit,
)
from grt.sygus_format import MAX_DEPTH, ParseError, Symbol

# --- Reference string-theory semantics -----------------------------------------


def ref_concat(a, b):
    out = []
    for ch in a:
        out.append(ch)
    for ch in b:
        out.append(ch)
    return "".join(out)


def _occurs_at(s, t, i):
    if i + len(t) > len(s):
        return False
    for j in range(len(t)):
        if s[i + j] != t[j]:
            return False
    return True


def ref_replace(s, t, r):
    # first occurrence of t in s replaced by r; empty t matches at position 0
    for i in range(len(s) + 1):
        if _occurs_at(s, t, i):
            return s[:i] + r + s[i + len(t):]
    return s


def ref_at(s, i):
    if i < 0 or i >= len(s):
        return ""
    return s[i]


def ref_substr(s, i, n):
    if i < 0 or i >= len(s) or n <= 0:
        return ""
    out = []
    j = i
    while j < len(s) and j < i + n:
        out.append(s[j])
        j += 1
    return "".join(out)


def ref_len(s):
    count = 0
    for _ in s:
        count += 1
    return count


def ref_indexof(s, t, i):
    if i < 0 or i > len(s):
        return -1
    for j in range(i, len(s) + 1):
        if _occurs_at(s, t, j):
            return j
    return -1


def ref_to_int(s):
    if not s:
        return -1
    value = 0
    for ch in s:
        if ch < "0" or ch > "9":
            return -1
        value = value * 10 + (ord(ch) - ord("0"))
    return value


def ref_int_to_str(n):
    if n < 0:
        return ""
    if n == 0:
        return "0"
    digits = []
    while n > 0:
        digits.append(chr(ord("0") + n % 10))
        n //= 10
    return "".join(reversed(digits))


def ref_prefixof(p, s):
    if len(p) > len(s):
        return False
    for j in range(len(p)):
        if s[j] != p[j]:
            return False
    return True


def ref_suffixof(p, s):
    if len(p) > len(s):
        return False
    offset = len(s) - len(p)
    for j in range(len(p)):
        if s[offset + j] != p[j]:
            return False
    return True


def ref_contains(s, t):
    for i in range(len(s) + 1):
        if _occurs_at(s, t, i):
            return True
    return False


REF_SEMANTICS = {
    "str.++": ref_concat,
    "str.replace": ref_replace,
    "str.at": ref_at,
    "str.substr": ref_substr,
    "str.len": ref_len,
    "str.indexof": ref_indexof,
    "str.to.int": ref_to_int,
    "int.to.str": ref_int_to_str,
    "str.prefixof": ref_prefixof,
    "str.suffixof": ref_suffixof,
    "str.contains": ref_contains,
    "ite": lambda c, a, b: a if c else b,
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "=": lambda a, b: a == b,
}


def ref_eval(program: ProgramAst, env: dict):
    if isinstance(program, Apply):
        args = [ref_eval(c, env) for c in program.children]
        return REF_SEMANTICS[program.terminal.name](*args)
    if isinstance(program, InputVar):
        return env[program.name]
    return program.value


# --- Random well-typed programs -------------------------------------------------

ORACLE_ALPHABET = "ab01 .-xyZ"


def random_leaf(rng: random.Random, sort: Sort, var_names=("x0",)):
    if sort is Sort.STRING:
        kind = rng.random()
        if kind < 0.45 and var_names:
            return InputVar(rng.choice(list(var_names)))
        n = rng.randint(0, 5)
        return StrLit("".join(rng.choice(ORACLE_ALPHABET) for _ in range(n)))
    if sort is Sort.INT:
        return IntLit(rng.randint(-3, 6))
    return BoolLit(rng.random() < 0.5)


def random_program(rng: random.Random, sort: Sort, depth: int, var_names=("x0",)) -> ProgramAst:
    """A random well-typed program; Bool leaves use literals for coverage."""
    ops = [t for t in CATALOG.values() if t.ret_sort is sort]
    if depth <= 0 or not ops or rng.random() < 0.25:
        return random_leaf(rng, sort, var_names)
    term = rng.choice(ops)
    children = tuple(
        random_program(rng, s, depth - 1, var_names) for s in term.arg_sorts
    )
    return Apply(term, children)


def random_program_with_root(rng: random.Random, root: str, depth: int = 2, var_names=("x0",)) -> ProgramAst:
    term = CATALOG[root]
    children = tuple(
        random_program(rng, s, depth - 1, var_names) for s in term.arg_sorts
    )
    return Apply(term, children)


# --- Brute-force enumeration (no observational-equivalence pruning) -------------


def all_programs(grammar: Grammar, sort: Sort, size: int, cache=None) -> list:
    """Every well-typed program of exactly this size, duplicates included."""
    if cache is None:
        cache = {}
    key = (sort, size)
    if key in cache:
        return cache[key]
    out = []
    if size == 1:
        for name, vsort in grammar.input_vars:
            if vsort is sort:
                out.append(InputVar(name, vsort))
        if sort is Sort.STRING:
            out.extend(StrLit(s) for s in grammar.string_literals)
        if sort is Sort.INT:
            out.extend(IntLit(n) for n in grammar.int_literals)
    else:
        for term in grammar.terminals:
            if term.arity == 0 or term.ret_sort is not sort:
                continue
            for parts in _partitions(size - 1, term.arity):
                pools = [all_programs(grammar, s, p, cache) for s, p in zip(term.arg_sorts, parts)]
                if any(not pool for pool in pools):
                    continue
                out.extend(Apply(term, combo) for combo in _product(pools))
    cache[key] = out
    return out


def _partitions(total, k):
    if k == 1:
        return [(total,)] if total >= 1 else []
    result = []
    for first in range(1, total - k + 2):
        for rest in _partitions(total - first, k - 1):
            result.append((first,) + rest)
    return result


def _product(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


def brute_force_min_size(grammar: Grammar, constraints, max_size: int):
    """Smallest size of any program meeting all constraints, or None.

    Checks satisfaction with the reference evaluator, sharing nothing with
    the solver under test.
    """
    var_names = [name for name, _ in grammar.input_vars]
    cache = {}
    for size in range(1, max_size + 1):
        for program in all_programs(grammar, Sort.STRING, size, cache):
            ok = True
            for c in constraints:
                env = dict(zip(var_names, c.inputs))
                if ref_eval(program, env) != c.output:
                    ok = False
                    break
            if ok:
                return size
    return None


# --- Reference s-expression reader ----------------------------------------------

# The reader as it was before tokens were told by their first character: one
# regex group per token kind, an integer recognised by the regex with a
# lookahead for the end of the word. It raises the package's ParseError and
# builds its Symbol, so both readers' results compare directly.
_REF_TOKEN_RE = re.compile(
    r'(?:[ \t\r\n]+|;[^\n]*)*'
    r'(?:([()])|("[^"]*(?:""[^"]*)*)("?)|(-?\d+)(?![^ \t\r\n();"])|([^ \t\r\n();"]+))?'
)


def _ref_error_at(message: str, text: str, index: int) -> ParseError:
    match = next(itertools.islice(_REF_TOKEN_RE.finditer(text), index, None))
    offset = min(start for start in map(match.start, range(1, _REF_TOKEN_RE.groups + 1)) if start >= 0)
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def ref_forms(text: str) -> list:
    """Every top-level s-expression of the text, or the reader's ParseError."""
    stack: list[tuple[int, list]] = []
    items: list = []
    out = []
    for index, (paren, string, closing, integer, word) in enumerate(_REF_TOKEN_RE.findall(text)):
        if paren == "(":
            if len(stack) == MAX_DEPTH:
                raise _ref_error_at(f"nesting deeper than {MAX_DEPTH}", text, index)
            stack.append((index, items))
            items = []
            continue
        if paren:
            if not stack:
                raise _ref_error_at("unexpected ')'", text, index)
            form = items
            items = stack.pop()[1]
        elif string:
            if not closing:
                raise _ref_error_at("unterminated string literal", text, index)
            form = string[1:].replace('""', '"')
        elif word:
            form = Symbol(word)
        elif integer:
            try:
                form = int(integer)
            except ValueError:
                raise _ref_error_at("integer literal too long", text, index) from None
        else:
            break
        (items if stack else out).append(form)
    if stack:
        raise _ref_error_at("unbalanced parenthesis", text, stack[-1][0])
    return out


# --- Reference problem printer ----------------------------------------------------

# The printer as it was before each grammar's head was kept: every call renders
# the whole text. The package's printer must give the same bytes.
_REF_NT_NAME = {Sort.STRING: "Start", Sort.INT: "StartInt", Sort.BOOL: "StartBool"}


def _ref_quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def ref_print_problem(pf) -> str:
    g = pf.problem.grammar
    used_sorts = {Sort.STRING}
    for t in g.terminals:
        used_sorts.add(t.ret_sort)
        used_sorts.update(t.arg_sorts)
    if g.int_literals:
        used_sorts.add(Sort.INT)

    productions = {s: [] for s in (Sort.STRING, Sort.INT, Sort.BOOL)}
    for name, sort in g.input_vars:
        productions[sort].append(name)
    for s in g.string_literals:
        productions[Sort.STRING].append(_ref_quote(s))
    for n in g.int_literals:
        productions[Sort.INT].append(str(n))
    for t in g.terminals:
        if t.arity == 0:
            continue  # variable occurrence, already listed
        args = " ".join(_REF_NT_NAME[a] for a in t.arg_sorts)
        productions[t.ret_sort].append(f"({t.name} {args})")

    nt_lines = []
    for sort in (Sort.STRING, Sort.INT, Sort.BOOL):
        if sort in used_sorts and (productions[sort] or sort is Sort.STRING):
            entries = " ".join(productions[sort])
            nt_lines.append(f"({_REF_NT_NAME[sort]} {sort.value} ({entries}))")

    params = " ".join(f"({name} {sort.value})" for name, sort in g.input_vars)
    lines = ["(set-logic SLIA)"]
    lines.append(f"(synth-fun {pf.fn_name} ({params}) String")
    for i, nt in enumerate(nt_lines):
        prefix = "    (" if i == 0 else "     "
        suffix = "))" if i == len(nt_lines) - 1 else ""
        lines.append(f"{prefix}{nt}{suffix}")
    for name, sort in g.input_vars:
        lines.append(f"(declare-var {name} {sort.value})")
    for c in pf.problem.constraints:
        args = " ".join(_ref_quote(s) for s in c.inputs)
        call = f"({pf.fn_name} {args})" if args else f"({pf.fn_name})"
        lines.append(f"(constraint (= {call} {_ref_quote(c.output)}))")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"
