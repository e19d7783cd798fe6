"""Typed grammars, program ASTs, and the string-DSL evaluation semantics.

The component functions follow the SMT-LIB string theory with every partial
function totalized (out-of-range indexing yields "", failed numeric parses
yield -1) so evaluation is a total, deterministic function on any inputs.
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import decimal
import enum
import itertools
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence, Union


class Sort(enum.Enum):
    """Value sorts the DSL can produce."""

    STRING = "String"
    INT = "Int"
    BOOL = "Bool"

    # Members are singletons, so identity hashing agrees with equality; the
    # search keys its pools and seen-sets by sort, and Enum.__hash__ runs in
    # Python on every such lookup.
    __hash__ = object.__hash__


class UnknownTerminal(KeyError):
    """A terminal name that is not part of the grammar (or catalog) at hand."""

    def __str__(self) -> str:  # KeyError quotes its message by default
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class TerminalSymbol:
    """A named component function usable as an AST operator."""

    name: str
    arity: int
    arg_sorts: tuple[Sort, ...]
    ret_sort: Sort

    def __post_init__(self) -> None:
        if self.arity != len(self.arg_sorts):
            raise ValueError(
                f"terminal {self.name!r}: arity {self.arity} does not match "
                f"{len(self.arg_sorts)} argument sorts"
            )


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Apply:
    terminal: TerminalSymbol
    children: "tuple[ProgramAst, ...]"

    @property
    def sort(self) -> Sort:
        return self.terminal.ret_sort


@dataclass(frozen=True)
class InputVar:
    name: str
    sort: Sort = Sort.STRING


@dataclass(frozen=True)
class StrLit:
    value: str

    @property
    def sort(self) -> Sort:
        return Sort.STRING


@dataclass(frozen=True)
class IntLit:
    value: int

    @property
    def sort(self) -> Sort:
        return Sort.INT


@dataclass(frozen=True)
class BoolLit:
    value: bool

    @property
    def sort(self) -> Sort:
        return Sort.BOOL


ProgramAst = Union[Apply, InputVar, StrLit, IntLit, BoolLit]


# --- Component function semantics (totalized SMT-LIB string theory) --------


def _str_at(s: str, i: int) -> str:
    return s[i] if 0 <= i < len(s) else ""


def _str_substr(s: str, i: int, n: int) -> str:
    if i < 0 or i >= len(s) or n <= 0:
        return ""
    return s[i : i + n]


def _str_indexof(s: str, t: str, i: int) -> int:
    if i < 0 or i > len(s):
        return -1
    return s.find(t, i)


# int() and str() refuse decimals longer than sys.get_int_max_str_digits()
# (4,300 digits by default); Decimal converts exactly at any length, so it is
# the slow path for those.


def _str_to_int(s: str) -> int:
    if s and s.isascii() and s.isdigit():
        try:
            return int(s)
        except ValueError:
            return int(decimal.Decimal(s))
    return -1


def _int_to_str(n: int) -> str:
    if n < 0:
        return ""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _ite(c: bool, a: str, b: str) -> str:
    return a if c else b


def _columnwise(fn: Callable) -> Callable[..., tuple]:
    return lambda *cols: tuple(map(fn, *cols))


_S, _I, _B = Sort.STRING, Sort.INT, Sort.BOOL

# Each function over columns: each argument is a tuple of values, one per
# example, and the result is the tuple of outputs. Where a str method computes
# the function, the loop over examples runs in C. str.replace replaces the
# first occurrence; an empty pattern matches at position 0.
_CATALOG_SPEC: tuple[tuple[str, tuple[Sort, ...], Sort, Callable[..., tuple]], ...] = (
    ("str.++", (_S, _S), _S, _columnwise(operator.add)),
    ("str.replace", (_S, _S, _S), _S, lambda s, t, r: tuple(map(str.replace, s, t, r, itertools.repeat(1)))),
    ("str.at", (_S, _I), _S, _columnwise(_str_at)),
    ("str.substr", (_S, _I, _I), _S, _columnwise(_str_substr)),
    ("str.len", (_S,), _I, _columnwise(len)),
    ("str.indexof", (_S, _S, _I), _I, _columnwise(_str_indexof)),
    ("str.to.int", (_S,), _I, _columnwise(_str_to_int)),
    ("int.to.str", (_I,), _S, _columnwise(_int_to_str)),
    ("str.prefixof", (_S, _S), _B, lambda p, s: tuple(map(str.startswith, s, p))),
    ("str.suffixof", (_S, _S), _B, lambda p, s: tuple(map(str.endswith, s, p))),
    ("str.contains", (_S, _S), _B, _columnwise(operator.contains)),
    ("ite", (_B, _S, _S), _S, _columnwise(_ite)),
    ("+", (_I, _I), _I, _columnwise(operator.add)),
    ("-", (_I, _I), _I, _columnwise(operator.sub)),
    ("=", (_I, _I), _B, _columnwise(operator.eq)),
)

CATALOG: dict[str, TerminalSymbol] = {
    name: TerminalSymbol(name, len(args), args, ret)
    for name, args, ret, _ in _CATALOG_SPEC
}

COLUMN_SEMANTICS: dict[str, Callable[..., tuple]] = {name: fn for name, _, _, fn in _CATALOG_SPEC}

_NO_SLICE = slice(0, 0)


def _at_slices(iv: tuple) -> tuple:
    # s[k:k+1] is (str.at s k) for every k >= 0; a negative k would count from the end.
    return tuple(slice(k, k + 1) if k >= 0 else _NO_SLICE for k in iv)


def _substr_slices(iv: tuple, nv: tuple) -> tuple:
    # s[k:k+m] is (str.substr s k m) for k >= 0 and m > 0; with m < 0 it would wrap around.
    return tuple(slice(k, k + m) if k >= 0 and m > 0 else _NO_SLICE for k, m in zip(iv, nv))


def _find_starts(iv: tuple) -> tuple:
    # str.find gives -1 from a start past the end, so a negative start is sent there.
    return tuple(k if k >= 0 else sys.maxsize for k in iv)


# Per-example C callables for evaluating every combination of the children at
# once (``product_values``): name -> (f, split, columns). f is mapped over one
# combination's value vectors, example by example. ``columns``, if given, turns
# the value lists of the children from ``split`` on (the arity: none of them)
# into the lists f reads there: str.replace gains a count, str.at and str.substr read slices built
# once per index vector or (start, length) pair, and str.indexof reads its
# starts remapped once per vector. They depend on those children's pools
# alone, so a caller that evaluates the same pools again can keep them.
KERNELS: dict[str, tuple[Callable, int, Callable | None]] = {
    "str.++": (operator.add, 2, None),
    "str.replace": (str.replace, 3, lambda: [(itertools.repeat(1),)]),
    "str.at": (operator.getitem, 1, lambda i: [list(map(_at_slices, i))]),
    "str.substr": (
        operator.getitem,
        1,
        lambda i, n: [list(itertools.starmap(_substr_slices, itertools.product(i, n)))],
    ),
    "str.len": (len, 1, None),
    "str.indexof": (str.find, 2, lambda i: [list(map(_find_starts, i))]),
    "str.contains": (operator.contains, 2, None),
    "+": (operator.add, 2, None),
    "-": (operator.sub, 2, None),
    "=": (operator.eq, 2, None),
}


def product_values(
    name: str, value_lists: Sequence[Sequence[tuple]], columns: list | None = None
) -> Iterator[tuple]:
    """The operator's value vector for each combination of its children's, in ``itertools.product`` order.

    With a kernel no Python frame runs per combination; every other operator
    goes through ``COLUMN_SEMANTICS``. ``columns``, if given, is what the
    kernel's ``columns`` made of the value lists from its split on earlier.
    """
    if name not in KERNELS:
        return itertools.starmap(COLUMN_SEMANTICS[name], itertools.product(*value_lists))
    fn, split, make = KERNELS[name]
    if make is not None:
        if columns is None:
            columns = make(*value_lists[split:])
        value_lists = [*value_lists[:split], *columns]
    return map(tuple, itertools.starmap(map, itertools.product((fn,), *value_lists)))


# Canonical terminal ordering: catalog order. Label vectors, vote vectors and
# the model output layer all index terminals in this order.
DEFAULT_TERMINAL_ORDER: tuple[str, ...] = tuple(CATALOG)

DEFAULT_STRING_LITERALS: tuple[str, ...] = ("", " ", "-", ".")
DEFAULT_INT_LITERALS: tuple[int, ...] = (0, 1, 2, 3)


# --- Grammar ----------------------------------------------------------------


@dataclass(frozen=True)
class Grammar:
    """A set of component functions plus the literal pools and input variables.

    The start symbol is String-sorted. ``terminals`` order is significant: it
    fixes the indexing of every label, vote, and prediction vector derived
    from this grammar. Arity-0 terminals are allowed as named variable
    occurrences (they must match an input variable) so tiny grammars can
    still expose a label slot for a variable.
    """

    terminals: tuple[TerminalSymbol, ...]
    string_literals: tuple[str, ...] = ()
    int_literals: tuple[int, ...] = ()
    input_vars: tuple[tuple[str, Sort], ...] = (("x0", Sort.STRING),)
    terminal_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _reduced: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # by ``without``
    _plan: object = field(default=None, init=False, repr=False, compare=False)  # by ``enumerator._plan``
    _printed: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # by ``sygus_format.print_problem``

    def __post_init__(self) -> None:
        names = tuple(t.name for t in self.terminals)
        if len(names) != len(set(names)):
            raise ValueError("duplicate terminal names in grammar")
        object.__setattr__(self, "terminal_names", names)
        var_sorts = dict(self.input_vars)
        for t in self.terminals:
            if t.arity == 0 and var_sorts.get(t.name) != t.ret_sort:
                raise ValueError(
                    f"arity-0 terminal {t.name!r} must name an input variable "
                    "of the same sort"
                )

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.input_vars)

    def terminal(self, name: str) -> TerminalSymbol:
        for t in self.terminals:
            if t.name == name:
                return t
        raise UnknownTerminal(f"terminal {name!r} not in grammar")

    def drop(self, name: str) -> "Grammar":
        """The same grammar without the named terminal."""
        return self.without((name,))

    def without(self, names: Iterable[str]) -> "Grammar":
        """The same grammar without the named terminals, made once per set of names."""
        names = frozenset(names)
        reduced = self._reduced.get(names)
        if reduced is None:
            if not names.issubset(self.terminal_names):
                missing = sorted(names.difference(self.terminal_names))
                raise UnknownTerminal(f"terminal {missing[0]!r} not in grammar")
            reduced = self._reduced[names] = Grammar(
                terminals=tuple(t for t in self.terminals if t.name not in names),
                string_literals=self.string_literals,
                int_literals=self.int_literals,
                input_vars=self.input_vars,
            )
        return reduced


def require_string_inputs(grammar: Grammar) -> None:
    """Raise ValueError naming the first input variable that is not String-sorted.

    Examples are fabricated, printed and read with String inputs only.
    """
    for name, sort in grammar.input_vars:
        if sort is not Sort.STRING:
            raise ValueError(f"input variable {name!r} has sort {sort.value}; only String inputs are supported")


def default_grammar(
    string_literals: Sequence[str] = DEFAULT_STRING_LITERALS,
    int_literals: Sequence[int] = DEFAULT_INT_LITERALS,
    input_vars: Sequence[tuple[str, Sort]] = (("x0", Sort.STRING),),
    terminals: Iterable[str] | None = None,
) -> Grammar:
    """The full string-manipulation grammar, optionally restricted by name."""
    if terminals is None:
        chosen = DEFAULT_TERMINAL_ORDER
    else:
        wanted = set(terminals)
        unknown = wanted - set(CATALOG)
        if unknown:
            raise UnknownTerminal(f"unknown terminals: {sorted(unknown)}")
        chosen = tuple(n for n in DEFAULT_TERMINAL_ORDER if n in wanted)
    return Grammar(
        terminals=tuple(CATALOG[n] for n in chosen),
        string_literals=tuple(string_literals),
        int_literals=tuple(int_literals),
        input_vars=tuple(input_vars),
    )


# --- Constraints and problems ------------------------------------------------


@dataclass(frozen=True)
class IoConstraint:
    """One input-output example; inputs are positional per grammar variable."""

    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class SygusProblem:
    grammar: Grammar
    constraints: tuple[IoConstraint, ...] = ()
    timeout_s: float = 3600.0
    # Budget in counted work (candidates explored); None means unlimited.
    max_explored: int | None = None

    def __post_init__(self) -> None:
        _check_budget(self.timeout_s, self.max_explored)
        n_vars = len(self.grammar.input_vars)
        for c in self.constraints:
            if len(c.inputs) != n_vars:
                raise ValueError(
                    f"constraint has {len(c.inputs)} inputs, grammar declares "
                    f"{n_vars} variables"
                )

    def variant(self, grammar: Grammar, timeout_s: float, max_explored: int | None) -> "SygusProblem":
        """``replace(self, grammar=grammar, timeout_s=timeout_s, max_explored=max_explored)``.

        The constraints are checked again only when the grammar has another
        number of input variables than the one they were checked against.
        """
        if len(grammar.input_vars) != len(self.grammar.input_vars):
            return replace(self, grammar=grammar, timeout_s=timeout_s, max_explored=max_explored)
        _check_budget(timeout_s, max_explored)
        problem = object.__new__(SygusProblem)  # the fields set as __init__ sets them, less __post_init__
        problem.__dict__.update(
            grammar=grammar, constraints=self.constraints, timeout_s=timeout_s, max_explored=max_explored
        )
        return problem


def _check_budget(timeout_s: float, max_explored: int | None) -> None:
    if timeout_s < 0:
        raise ValueError(f"timeout_s must be non-negative, got {timeout_s}")
    if max_explored is not None and max_explored < 1:
        raise ValueError("max_explored must be at least 1")


# --- Evaluation ---------------------------------------------------------------


def evaluate(program: ProgramAst, inputs: Sequence[str], var_names: Sequence[str] | None = None):
    """Run a program on concrete inputs; total for well-typed programs.

    ``var_names`` defaults to x0, x1, ... matching the inputs positionally.
    Raises TypeError when the input count does not fit the program's variables.
    """
    if var_names is None:
        var_names = tuple(f"x{i}" for i in range(len(inputs)))
    if len(var_names) != len(inputs):
        raise TypeError(
            f"{len(inputs)} inputs supplied for {len(var_names)} variables"
        )
    return _eval_rows(program, {name: (value,) for name, value in zip(var_names, inputs)}, 1)[0]


def evaluate_rows(program: ProgramAst, rows: Sequence[Sequence[str]], var_names: Sequence[str]) -> tuple:
    """``tuple(evaluate(program, row, var_names) for row in rows)``, walking the tree once.

    Each node is evaluated over every row at once through ``COLUMN_SEMANTICS``,
    so a program run on k rows costs one walk, not k. Raises the errors
    ``evaluate`` raises: TypeError for a row whose input count does not fit
    ``var_names`` (checked for every row first) or a variable with no input,
    and UnknownTerminal for a terminal with no semantics.
    """
    for row in rows:
        if len(row) != len(var_names):
            raise TypeError(f"{len(row)} inputs supplied for {len(var_names)} variables")
    if not rows:
        return ()
    return _eval_rows(program, dict(zip(var_names, zip(*rows))), len(rows))


def _eval_rows(node: ProgramAst, columns: dict[str, tuple], m: int) -> tuple:
    if isinstance(node, Apply):
        fn = COLUMN_SEMANTICS.get(node.terminal.name)
        if fn is None:
            raise UnknownTerminal(f"no semantics for terminal {node.terminal.name!r}")
        return fn(*[_eval_rows(c, columns, m) for c in node.children])
    if isinstance(node, InputVar):
        try:
            return columns[node.name]
        except KeyError:
            raise TypeError(f"no input bound for variable {node.name!r}") from None
    return (node.value,) * m


def satisfies(program: ProgramAst, constraint: IoConstraint, var_names: Sequence[str] | None = None) -> bool:
    """True iff the program maps the constraint's inputs to its exact output."""
    return evaluate(program, constraint.inputs, var_names) == constraint.output


def program_size(program: ProgramAst) -> int:
    """Node count of the AST: terminals, literals and variables, duplicates included."""
    n = 0
    stack = [program]
    while stack:
        node = stack.pop()
        n += 1
        if isinstance(node, Apply):
            stack.extend(node.children)
    return n


def terminals_used(program: ProgramAst) -> frozenset[str]:
    """Names of terminals (and named variable occurrences) in the program."""
    used = set()
    stack = [program]
    while stack:
        node = stack.pop()
        if isinstance(node, Apply):
            used.add(node.terminal.name)
            stack.extend(node.children)
        elif isinstance(node, InputVar):
            used.add(node.name)
    return frozenset(used)
