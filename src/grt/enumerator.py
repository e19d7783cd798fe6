"""Bottom-up enumerative synthesis with observational-equivalence pruning.

Kept programs live in pools, one per (sort, size). Each carries its vector of
outputs on the evaluation inputs (the constraint inputs when solving, a fixed
probe set when streaming); a candidate whose output vector was already kept
for its sort is pruned. New candidates are evaluated directly from their
children's output vectors, so no tree is ever re-walked.

A pool is grown the first time something reads it, so a search builds only
the pools it needs: a solved search never builds the Int and Bool pools that
only a larger size would read.

``solve`` goes size by size. At each size it first looks for a program rooted
at ``str.++``, ``str.at``, ``str.substr``, ``int.to.str`` or ``ite`` top-down:
the outputs fix what the children must evaluate to (a prefix and the rest, a
string holding the output at some index, or branches that meet it on the
examples the condition picks), and those values are looked up in the smaller
pools. One table (``_INVERSES``) holds how each operator is inverted, the Int
ones ``+``, ``-``, ``str.len``, ``str.to.int`` and ``str.indexof`` too, and one
lookup serves both sorts: a child whose pool is not complete is searched
top-down in turn, with its required value as the target. So neither a
``str.++`` child nor a ``str.substr`` start or ``str.at`` index (an occurrence
of the output in the host on every example) completes its pool. Nor do the
hosts, the String programs of a size whose every value contains the output:
where their pool is not complete they are built alone, a ``str.substr`` or
``str.at`` host from a smaller host. The outputs can also rule a root out at
once: ``str.at`` makes at most one character and ``int.to.str`` only
decimals. A ``str.substr``, ``str.at`` or ``ite`` size split is first checked
against those of its child pools that are already complete (a length pool
must reach every output's length; an index, start or condition pool must not
be empty; a branch pool must meet some output), so a split ruled out there
grows no other pool. These are the witness functions of FlashMeta (Polozov &
Gulwani, OOPSLA 2015), applied recursively and combined with bottom-up
enumeration as in Duet (Lee, POPL 2021). A top-down search is made once per
sort, size and target. Only the other operators (``str.replace`` in the full
grammar) are then enumerated at that size; the inverted operators' entries of
the String pool are added when a larger size reads it (see ``_Space``).
``stream`` defers nothing and yields the programs eager growth would.

Growing a pool is the inner loop. Its candidates are counted and deduplicated
in batches of up to 1024, and each is evaluated through its operator's row of
the one operator table (``core._CATALOG_SPEC``): the row's per-example
callable, a C function for most operators, is mapped over the children's
value vectors (``core.product_values``), so no Python frame runs per
candidate. The work counted, the stops and the programs kept are those of
counting one candidate at a time.

The search is fully deterministic: terminals, literals, and size partitions
are iterated in grammar order.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache, wraps

from . import sygus_format
from .core import (
    _CATALOG_SPEC,
    Apply,
    COLUMN_SEMANTICS,
    Grammar,
    InputVar,
    IntLit,
    ProgramAst,
    Sort,
    StrLit,
    SygusProblem,
    evaluate_rows,
    product_values,
    require_string_inputs,
)


class GrammarExhausted(RuntimeError):
    """Fewer observationally distinct programs exist than were requested."""


class SolverCrash(RuntimeError):
    """The external solver exited with a nonzero status."""


class UnparseableOutput(RuntimeError):
    """The external solver's output did not contain a readable define-fun."""


class WrongAnswer(RuntimeError):
    """The external solver's program failed verification against the constraints."""


# Probe inputs for stream mode: empty, single characters, digits, spaces,
# mixed case, punctuation. Multi-variable grammars rotate through these so
# distinct variables stay observationally distinct.
PROBE_STRINGS: tuple[str, ...] = ("", "a", "Z", "0", "123", "ab cd", "Hello World", "x.y-z9")

DEFAULT_STREAM_N = 2000

# The deadline is tested each time explored reaches a multiple of 1024 (the work
# budget on every candidate), before what was counted is used: per candidate by
# _Space._counted, per list by _Space._batches, whose lists end there.
_CHECK_MASK = 0x3FF


@dataclass(frozen=True)
class SynthesisResult:
    solved: bool
    program: ProgramAst | None
    elapsed_s: float
    programs_explored: int
    exhausted: bool = False


@lru_cache(maxsize=None)
def _compositions(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All ways to write total as k positive integers, in lexicographic order."""
    if k == 1:
        return ((total,),) if total >= 1 else ()
    out = []
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


def probe_assignments(n_vars: int) -> list[tuple[str, ...]]:
    k = len(PROBE_STRINGS)
    return [
        tuple(PROBE_STRINGS[(j + i) % k] for i in range(n_vars))
        for j in range(k)
    ]


class _Stop(Exception):
    """A checkpoint found the deadline passed ("deadline") or the work budget spent ("budget")."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _memo(method):
    """Cache a ``_Space`` method's results in ``self.memo``, keyed by (method name, arguments).

    ``None`` is a result like any other. A call cut by ``_Stop`` stores nothing.
    """
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        key = (name, *args)
        if key not in self.memo:
            self.memo[key] = method(self, *args)
        return self.memo[key]

    return cached


def _occurs_at(hosts: tuple, starts: tuple, target: tuple) -> bool:
    """Whether every non-empty target value occurs in its host at the given start."""
    return all(not t or (i >= 0 and s.startswith(t, i)) for s, i, t in zip(hosts, starts, target))


def _occurrences(host: str, part: str) -> list[int]:
    """Every index at which a non-empty part occurs in host."""
    found, i = [], host.find(part)
    while i >= 0:
        found.append(i)
        i = host.find(part, i + 1)
    return found


def _is_decimal(s: str) -> bool:
    """Whether s is what ``int.to.str`` makes of a non-negative integer."""
    return s.isascii() and s.isdigit() and (s == "0" or s[0] != "0")


_SORTS = tuple(Sort)


@dataclass(frozen=True)
class _Plan:
    """What a search over a grammar works out from the grammar alone.

    ``ops`` holds the operators of each sort in catalog order. ``deferred``
    and ``eager`` split the String operators for a search with a target:
    the inverted ones (``_INVERSES``) are deferred; ``stream`` reads
    neither. Each leaf is (program, sort, column, value): an input
    variable's values are its column of the assignments, a literal's its
    value on every one.
    """

    ops: dict
    max_arity: int
    deferred: tuple
    eager: tuple
    leaves: tuple


def _plan(grammar: Grammar) -> _Plan:
    """The grammar's search plan, made once per grammar."""
    if grammar._plan is None:
        ops = [t for t in grammar.terminals if t.arity > 0]
        by_sort = {s: tuple(t for t in ops if t.ret_sort is s) for s in _SORTS}
        leaves = [
            (InputVar(name, sort), sort, j, None)
            for j, (name, sort) in enumerate(grammar.input_vars)
            if name not in grammar.var_names[:j]
        ]
        leaves += [(StrLit(s), Sort.STRING, None, s) for s in grammar.string_literals]
        leaves += [(IntLit(n), Sort.INT, None, n) for n in grammar.int_literals]
        object.__setattr__(grammar, "_plan", _Plan(
            ops=by_sort,
            max_arity=max((t.arity for t in ops), default=0),
            deferred=tuple(t for t in by_sort[Sort.STRING] if t.name in _INVERSES),
            eager=tuple(t for t in by_sort[Sort.STRING] if t.name not in _INVERSES),
            leaves=tuple(leaves),
        ))
    return grammar._plan


class _Space:
    """Pools of observationally distinct programs, one per (sort, size), grown on demand.

    A pool is grown the first time something reads it (``pool``): the operators
    of its sort run in catalog order over the smaller pools, and a candidate
    whose value vector was kept at a smaller size is pruned. The pools therefore
    come out the same whichever reader asks first, and a search builds only the
    pools it reads.

    With a target, ``level(L)`` first searches the String programs of size L
    top-down (``_top_down``), one method per inverted operator in
    ``_INVERSES``: what each child must evaluate to follows from the target
    and is looked up in the smaller pools, and a root whose outputs cannot
    have the target's shape costs no work at all. A child is looked up by
    value with one lookup for both sorts, ``_find(sort, size, vector)``:
    ``seen`` holds the size and program of every value kept in a pool, and
    a value not kept at that size in a pool not yet complete (nor, for Int,
    kept smaller) is searched top-down with the child's value as its target
    (for Int, over every Int operator). For each size split ``str.++``, ``+``
    and ``-`` scan the child whose pool is complete and look the other up
    (``_invert_split``), so at size L the String pool of size L-2 is not
    completed just to supply ``str.++`` children. The ``str.substr``,
    ``str.at`` and ``ite`` inverses check each size split against its
    complete pools before reading the others, and ``str.substr`` grows its
    length pool only once a host and a start fit; so at size L neither the
    Int pool of size L-3 nor the String pool of size L-4 is completed for a
    split that cannot make the target; nor is an ``ite`` branch pool beside
    a complete one that meets the target on no example. The ``str.substr``
    starts and ``str.at`` indices are Int children found by value
    (``_placed``): where every output is non-empty they are its occurrences
    in the host, each looked up with ``_find``. Their hosts (``_hosts``) are
    the filtered pool if it is complete. Otherwise they are built without
    completing it, and none is written to a pool or to ``seen``: a
    ``str.substr`` or ``str.at`` value is contained in its first child's, so
    those hosts come from smaller hosts; the outputs' shape rules ``str.at``
    and ``int.to.str`` hosts in or out; the other operators' candidates are
    evaluated and filtered; and a value a smaller size already makes is
    dropped. ``_top_down`` is memoised by sort, size and target, so a search
    that found nothing is not made again. Then the other operators grow the
    String pool of size L, checking each new value against the target; a
    grammar without ``str.replace`` grows nothing there.
    The inverted operators' own entries of that pool are deferred until a
    later level reads it. A value they then produce that the other operators
    kept at a larger size moves down, with its new size and program in
    ``seen``, so a completed pool holds the same values as without deferral
    (only the representative program may differ).

    Work is counted in ``explored``: every candidate evaluated and every
    check an inverse makes, in nested lookups too. A scan that makes a nested
    lookup per item counts through ``_counted``, one item at a time; ``_grow``
    and the other scans count through ``_batches``, a list of up to 1024 items
    at a time. Both count before they yield, raise ``_Stop`` rather than
    count one past the work budget, and test the deadline at every multiple
    of 1024 explored; ``_checkpoint`` tests both before each level. What a
    lookup computes once is cached in ``memo`` by ``_memo``.
    """

    def __init__(
        self,
        grammar: Grammar,
        assignments: list[tuple[str, ...]],
        target: tuple | None = None,
        deadline: float | None = None,
        max_explored: int | None = None,
    ):
        self.grammar = grammar
        self.target = target
        self.deadline = math.inf if deadline is None else deadline
        self.max_explored = sys.maxsize if max_explored is None else max_explored  # an int, for a fast compare
        self.progs: dict[tuple[Sort, int], list] = {}
        self.vals: dict[tuple[Sort, int], list] = {}
        self.seen: dict[Sort, dict[tuple, tuple]] = {s: {} for s in _SORTS}  # value vector -> (size, program) kept
        self.memo: dict[tuple, object] = {}  # what the @_memo lookups returned, by (method name, arguments)
        self.explored = 0  # advanced by _counted and _batches alone, once the leaves are seeded
        plan = _plan(grammar)
        self.ops, self.max_arity, self.deferred, self.eager = plan.ops, plan.max_arity, plan.deferred, plan.eager
        self.grown = dict.fromkeys(_SORTS, 1)  # every pool up to this size is complete
        self.deferred_to = 1  # String pools above grown[STRING] up to here lack the deferred ops
        self._seed_leaves(plan.leaves, assignments)

    def _seed_leaves(self, leaves: tuple, assignments: list[tuple[str, ...]]) -> None:
        m = len(assignments)
        for sort in _SORTS:
            self.progs[(sort, 1)], self.vals[(sort, 1)] = [], []
        for prog, sort, column, value in leaves:
            vals = (value,) * m if column is None else tuple(a[column] for a in assignments)
            self.explored += 1
            if vals not in self.seen[sort]:
                self.seen[sort][vals] = (1, prog)
                self.progs[(sort, 1)].append(prog)
                self.vals[(sort, 1)].append(vals)

    def pool(self, sort: Sort, size: int) -> tuple[list, list]:
        """The programs kept at (sort, size) and their value vectors, grown on first read."""
        while self.grown[sort] < size:
            k = self.grown[sort] + 1
            if sort is Sort.STRING and k <= self.deferred_to:
                self._grow(sort, k, self.deferred, moves=True)
            else:
                self._grow(sort, k, self.ops[sort])
            self.grown[sort] = k
        return self.progs[(sort, size)], self.vals[(sort, size)]

    def level(self, size: int) -> ProgramAst | None:
        """A String program of this size that meets the target, or None.

        Every smaller size must have been searched already.
        """
        found = self._top_down(Sort.STRING, size, self.target)
        if found is None:
            found = self._grow(Sort.STRING, size, self.eager, target=self.target)
        self.deferred_to = size
        return found

    def exhausted_beyond(self, size: int) -> bool:
        """Whether no program of this size or larger can have a new value vector.

        Every candidate of size s combines kept programs whose sizes sum to
        s - 1, so nothing new appears past 1 + arity * (largest kept size). The
        answer is yes only once every pool below ``size`` is complete, so the
        pools are completed size by size until a kept size rules it out.
        """
        grown = min(self.grown.values())
        while size > 1 + self.max_arity * self._max_kept_size():
            if grown >= size - 1:
                return True
            grown += 1
            for sort in _SORTS:
                self.pool(sort, grown)
        return False

    def _max_kept_size(self) -> int:
        return max((size for (_, size), vals in self.vals.items() if vals), default=0)

    def _checkpoint(self) -> None:
        if time.monotonic() >= self.deadline:
            raise _Stop("deadline")
        if self.explored >= self.max_explored:
            raise _Stop("budget")

    def _counted(self, items):
        """Yield each item after counting it as explored.

        The work budget is tested before every item, so a search stops with
        exactly ``max_explored`` counted; the deadline is tested when the count
        reaches a multiple of 1024, before that item is used. ``explored`` is
        re-read per item, since the caller's nested lookups advance it; a scan
        without them counts faster through ``_batches``.
        """
        budget = self.max_explored
        for item in items:
            if self.explored >= budget:
                raise _Stop("budget")
            explored = self.explored = self.explored + 1
            if not (explored & _CHECK_MASK) and time.monotonic() >= self.deadline:
                raise _Stop("deadline")
            yield item

    def _batches(self, items):
        """Yield the items in lists, each counted as explored before it is yielded.

        A list ends at the work budget or at the next multiple of 1024
        explored, where the deadline is tested, so the stops are those of
        ``_counted``; an item past the budget raises ``_Stop`` instead. A
        caller that returns inside a list takes back what it did not use
        from ``explored``. A list's length is fixed from ``explored`` when it
        is taken, so the caller must count nothing else while it holds one.
        """
        items = iter(items)
        while True:
            room = min(self.max_explored - self.explored, _CHECK_MASK + 1 - (self.explored & _CHECK_MASK))
            batch = list(itertools.islice(items, max(room, 1)))
            if not batch:
                return
            if room <= 0:
                raise _Stop("budget")
            explored = self.explored = self.explored + len(batch)
            if not (explored & _CHECK_MASK) and time.monotonic() >= self.deadline:
                raise _Stop("deadline")
            yield batch

    def _count_all(self, items) -> list:
        """Every item, each counted as explored (``_batches``)."""
        return list(itertools.chain.from_iterable(self._batches(items)))

    def _args(self, sorts: tuple[Sort, ...], parts: tuple[int, ...]):
        """The children's program and value lists for one size split, or None if one is empty."""
        progs, vals = [], []
        for sort, sz in zip(sorts, parts):
            p, v = self.pool(sort, sz)
            if not v:
                return None
            progs.append(p)
            vals.append(v)
        return progs, vals

    def head(self, size: int, n: int) -> list[ProgramAst]:
        """The String programs of this size, or only their first n or more.

        Growth stops at the end of the batch in which the pool reaches n
        programs. The pool always grows in the same order, so those are its
        first programs, but a pool stopped short is not complete and must not
        be read again.
        """
        if self.grown[Sort.STRING] < size:
            self.pool(Sort.STRING, size - 1)
            self._grow(Sort.STRING, size, self.ops[Sort.STRING], keep=n)
            if len(self.progs[(Sort.STRING, size)]) < n:
                self.grown[Sort.STRING] = size
        return self.progs[(Sort.STRING, size)]

    def _grow(self, sort: Sort, size: int, ops, target=None, moves: bool = False, keep: int = sys.maxsize):
        """Add what ``ops`` make from the smaller pools to pool (sort, size).

        Returns the first new program whose value vector equals ``target``, if
        any. With ``moves``, a value kept at a larger size moves down to this one.
        Once the pool holds ``keep`` programs it stops at the end of the batch.
        """
        progs = self.progs.setdefault((sort, size), [])
        vals = self.vals.setdefault((sort, size), [])
        seen = self.seen[sort]
        moved: dict[int, set] = {}
        for term in ops:
            for parts in _compositions(size - 1, term.arity):
                args = self._args(term.arg_sorts, parts)
                if args is None:
                    continue
                batches, children = self._candidates(term, parts, *args)
                for batch in batches:
                    for v, kids in zip(batch, children):
                        if v in seen:
                            if not moves or seen[v][0] <= size:
                                continue
                            moved.setdefault(seen[v][0], set()).add(v)
                        prog = Apply(term, kids)
                        seen[v] = (size, prog)
                        progs.append(prog)
                        vals.append(v)
                        if v == target:  # give back the rest of the list; no copy of a new value comes before it
                            self.explored -= len(batch) - batch.index(v) - 1
                            return prog
                    if len(vals) >= keep:
                        return None
        for larger, gone in moved.items():
            kept = [(p, v) for p, v in zip(self.progs[(sort, larger)], self.vals[(sort, larger)]) if v not in gone]
            self.progs[(sort, larger)][:] = [p for p, _ in kept]
            self.vals[(sort, larger)][:] = [v for _, v in kept]
        return None

    def _candidates(self, term, parts: tuple[int, ...], progs: list, vals: list):
        """One operator's candidates for one size split, over the children's program and value lists.

        Returns the lists of value vectors (``_batches``) and an iterator of
        the children's programs, which the caller advances in step with the
        values. The values are evaluated by ``product_values``, so no Python
        frame runs per candidate.
        """
        spec = _CATALOG_SPEC[term.name]
        columns = None if spec.adapt is None else self._columns(term.name, parts[spec.split :])
        return self._batches(product_values(term.name, vals, columns)), itertools.product(*progs)

    @_memo
    def _columns(self, name: str, sizes: tuple[int, ...]) -> list:
        """What the operator's ``f`` reads in place of its children from its
        split on, whose complete pools have these sizes; made once per pool."""
        spec = _CATALOG_SPEC[name]
        return spec.columns([self.pool(sort, sz)[1] for sort, sz in zip(spec.arg_sorts[spec.split :], sizes)])

    def _find(self, sort: Sort, size: int, vector: tuple) -> ProgramAst | None:
        """A program of this sort and at most this size with this value vector, or None.

        Finds every vector whose smallest program has this size without
        completing the pool. A vector kept at this size gives its program
        (``seen``); otherwise a complete pool gives None, and so does an Int
        vector kept at a smaller size, since a solution using it would have
        been found at a smaller size; else ``_top_down`` searches. The String
        pools a search has passed lack the deferred operators' values, so
        ``seen`` cannot rule out a String vector.
        """
        kept, prog = self.seen[sort].get(vector, (None, None))
        if kept == size:
            return prog
        if size <= self.grown[sort] or (sort is Sort.INT and kept is not None and kept < size):
            return None
        return self._top_down(sort, size, vector)

    @_memo
    def _top_down(self, sort: Sort, size: int, target: tuple) -> ProgramAst | None:
        """A program of this size rooted at an inverted operator with this value vector, or None.

        Tries the deferred operators for String and every Int one. Memoised, so
        ``str.++`` looking up a level's own target two sizes down reads that
        level's answer instead of searching again.
        """
        for term in self.deferred if sort is Sort.STRING else self.ops[sort]:
            found = _INVERSES[term.name](self, term, size, target)
            if found is not None:
                return found
        return None

    @_memo
    def _images(self, term, size: int) -> dict[tuple, ProgramAst]:
        """What a unary operator makes of the complete pool of size - 1, by value, first child kept."""
        progs, vals = self.pool(term.arg_sorts[0], size - 1)
        images = {}
        for v, p in self._count_all(zip(product_values(term.name, [vals]), progs)):
            images.setdefault(v, p)
        return images

    def _invert_unary(self, term, size: int, vector: tuple) -> ProgramAst | None:
        # (str.len s) and (str.to.int s): every child is evaluated once per
        # size, and the images are kept by value.
        child = self._images(term, size).get(vector)
        return None if child is None else Apply(term, (child,))

    def _invert_indexof(self, term, size: int, vector: tuple) -> ProgramAst | None:
        # (str.indexof s t k) is v on an example only if v is -1 or t occurs at
        # v in s, so v is at most s's length. Per size split the s that fit are
        # kept, then the t that occur there, and only then is k read and
        # checked by evaluation.
        if any(v < -1 for v in vector):
            return None
        indexof = COLUMN_SEMANTICS[term.name]
        for a, b, c in _compositions(size - 1, 3):
            if self._complete_and_empty(Sort.INT, c):
                continue
            hosts = [
                (p, s) for p, s in self._counted(zip(*self.pool(Sort.STRING, a)))
                if all(map(operator.le, vector, map(len, s)))
            ]
            if not hosts:
                continue
            starts = None
            for (sp, sv), (tp, tv) in self._counted(itertools.product(hosts, zip(*self.pool(Sort.STRING, b)))):
                if not all(v < 0 or s.startswith(t, v) for s, t, v in zip(sv, tv, vector)):
                    continue
                if starts is None:
                    starts = list(zip(*self.pool(Sort.INT, c)))
                for kp, kv in self._counted(starts):
                    if indexof(sv, tv, kv) == vector:
                        return Apply(term, (sp, tp, kp))
        return None

    def _invert_split(self, term, size: int, target: tuple) -> ProgramAst | None:
        # (str.++ l r), (+ x y) and (- x y), whose children have the root's
        # sort: one child's value and the target fix the other's (``_SPLITS``).
        # Per size split the side whose pool is complete (else the smaller) is
        # scanned, and the other child is looked up by value (``_find``), so
        # the larger pool is not completed.
        sort = term.ret_sort
        for a in range(1, size - 1):
            b = size - 1 - a
            left = a <= max(self.grown[sort], b)
            scan, seek = (a, b) if left else (b, a)
            fits, rest = _SPLITS[term.name][not left]
            for p, x in self._counted(zip(*self.pool(sort, scan))):
                if fits is None or all(map(fits, target, x)):
                    found = self._find(sort, seek, tuple(map(rest, target, x)))
                    if found is not None:
                        return Apply(term, (p, found) if left else (found, p))
        return None

    @_memo
    def _hosts(self, size: int, target: tuple) -> list[tuple[ProgramAst, tuple]]:
        """The String programs of this size whose every value contains its output, one per value.

        A complete pool is filtered. Otherwise only the hosts are built, from
        the smaller pools, and none is written to a pool or to ``seen``: a
        ``str.substr`` or ``str.at`` value is contained in its first child's,
        so that child is a smaller host; ``str.at`` hosts need outputs of at
        most one character and ``int.to.str`` hosts outputs of digits; every
        other operator is evaluated and its values filtered. A value kept at a
        smaller size, or held by a smaller host list, is dropped: being a host
        depends on the value alone, so the values are those of the filtered pool.
        """
        if size <= self.grown[Sort.STRING]:
            return [
                (p, v)
                for p, v in self._count_all(zip(*self.pool(Sort.STRING, size)))
                if all(map(str.__contains__, v, target))
            ]
        kept: dict[tuple, ProgramAst] = {}
        for term in self.ops[Sort.STRING]:
            shape = _HOST_SHAPES.get(term.name)
            if shape is not None and not all(map(shape, target)):
                continue
            for parts in _compositions(size - 1, term.arity):
                if term.name in _SUBSTRINGS:
                    hosts = self._hosts(parts[0], target)
                    args = self._args(term.arg_sorts[1:], parts[1:]) if hosts else None
                    if args is None:
                        continue
                    firsts, values = zip(*hosts)
                    args = ([firsts, *args[0]], [values, *args[1]])
                else:
                    args = self._args(term.arg_sorts, parts)
                    if args is None:
                        continue
                batches, children = self._candidates(term, parts, *args)
                for batch in batches:
                    for v, kids in zip(batch, children):
                        if v not in kept and all(map(str.__contains__, v, target)):
                            kept[v] = Apply(term, kids)
        smaller = set()  # the hosts of the smaller pools not complete; seen holds the others
        for k in range(size - 1, self.grown[Sort.STRING], -1):
            smaller.update(v for _, v in self._hosts(k, target))
        seen = self.seen[Sort.STRING]
        return [(p, v) for v, p in kept.items() if v not in smaller and (v not in seen or seen[v][0] >= size)]

    @_memo
    def _matches(self, size: int, target: tuple) -> dict[tuple, ProgramAst]:
        """The String programs of this size by the examples on which they meet the target.

        Keys are tuples of booleans, one per example; the first program per key
        is kept, and values that meet no example are left out.
        """
        progs, vals = self.pool(Sort.STRING, size)
        matches = {}
        for p, v in self._count_all(zip(progs, vals)):
            hit = tuple(map(operator.eq, v, target))
            if any(hit):
                matches.setdefault(hit, p)
        return matches

    def _complete_and_empty(self, sort: Sort, size: int) -> bool:
        """Whether pool (sort, size) is complete and holds nothing, so a split needing it fails."""
        return size <= self.grown[sort] and not self.vals[(sort, size)]

    @_memo
    def _long_enough(self, size: int, target: tuple) -> bool:
        """Whether the complete Int pool of this size holds a length that can make every output.

        ``str.substr`` makes at most n characters, so n must reach the
        output's length on every example whose output is non-empty.
        """
        return any(
            all(n >= len(t) for n, t in zip(nv, target) if t)
            for nv in self._counted(self.vals[(Sort.INT, size)])
        )

    @_memo
    def _host_occurrences(self, host_size: int, target: tuple) -> tuple[list, int]:
        """Where each non-empty output occurs in its host, per host of this size, and how many index vectors that makes."""
        found = [list(map(_occurrences, sv, target)) for _, sv in self._hosts(host_size, target)]
        return found, sum(math.prod(map(len, occ)) for occ in found)

    def _placed(self, host_size: int, size: int, target: tuple):
        """Each (host, index) pair, the index an Int program of this size, that puts every non-empty output there in its host.

        The hosts are those of ``host_size`` (``_hosts``). When no output is
        empty the index vectors are the outputs' occurrences in each host,
        looked up by value (``_find``), so the Int pool of this size is
        not completed; unless there are more of them than the scan over that
        pool would count candidates, and then it is scanned.
        """
        hosts = self._hosts(host_size, target)
        if all(target):
            occurrences, vectors = self._host_occurrences(host_size, target)
            if vectors <= self._scan_cost(size, len(hosts)):
                for host, occ in zip(hosts, occurrences):
                    for iv in self._counted(itertools.product(*occ)):
                        ip = self._find(Sort.INT, size, iv)
                        if ip is not None:
                            yield host, (ip, iv)
                return
        for host, (ip, iv) in self._counted(itertools.product(hosts, zip(*self.pool(Sort.INT, size)))):
            if _occurs_at(host[1], iv, target):
                yield host, (ip, iv)

    def _scan_cost(self, size: int, n_hosts: int) -> int:
        """The candidates scanning n hosts against Int pool ``size`` counts, or a lower bound if the pool is incomplete.

        Completing the pool evaluates every operator over the products of its
        child pools; those not yet complete are counted as empty.
        """
        if size <= self.grown[Sort.INT]:
            return n_hosts * len(self.vals[(Sort.INT, size)])
        return sum(
            math.prod(len(self.vals[(s, k)]) if k <= self.grown[s] else 0 for s, k in zip(term.arg_sorts, parts))
            for term in self.ops[Sort.INT]
            for parts in _compositions(size - 1, term.arity)
        )

    def _invert_at(self, term, size: int, target: tuple) -> ProgramAst | None:
        # (str.at s i) is one character of s or "", so an output longer than
        # that rules the root out; otherwise every value of s contains its
        # output, a non-empty one at i (``_placed``), and i is checked by
        # evaluation. A split whose index pool is complete and empty is
        # skipped before the hosts are read.
        if any(len(t) > 1 for t in target):
            return None
        at = COLUMN_SEMANTICS[term.name]
        for a in range(1, size - 1):
            if self._complete_and_empty(Sort.INT, size - 1 - a):
                continue
            if not self._hosts(a, target):
                continue
            for (sp, sv), (ip, iv) in self._placed(a, size - 1 - a, target):
                if at(sv, iv) == target:
                    return Apply(term, (sp, ip))
        return None

    def _invert_substr(self, term, size: int, target: tuple) -> ProgramAst | None:
        # (str.substr s i n) meets the target only if every value of s contains
        # its output and, where the output is non-empty, i is an occurrence of
        # it (``_placed``) and n reaches its length; n is then checked by
        # evaluation. A split is first ruled out on whichever Int pools are
        # complete, before the hosts are read, and the length pool is grown
        # only once a host and a start fit.
        substr = COLUMN_SEMANTICS[term.name]
        for a in range(1, size - 2):
            rest = size - 1 - a
            for b in range(1, rest):
                c = rest - b
                if c <= self.grown[Sort.INT] and not self._long_enough(c, target):
                    continue
                if self._complete_and_empty(Sort.INT, b):
                    continue
                if not self._hosts(a, target):
                    break
                lengths = None
                for (sp, sv), (ip, iv) in self._placed(a, b, target):
                    if lengths is None:
                        lengths = list(zip(*self.pool(Sort.INT, c)))
                        if not self._long_enough(c, target):
                            break
                    for np_, nv in self._counted(lengths):
                        if substr(sv, iv, nv) == target:
                            return Apply(term, (sp, ip, np_))
        return None

    def _invert_int_to_str(self, term, size: int, target: tuple) -> ProgramAst | None:
        # (int.to.str n) is "" for a negative n and n's decimal otherwise, so
        # any other output rules the root out; otherwise the Int pool is
        # checked by evaluation.
        if not all(t == "" or _is_decimal(t) for t in target):
            return None
        to_str = COLUMN_SEMANTICS[term.name]
        for np_, nv in self._counted(zip(*self.pool(Sort.INT, size - 1))):
            if to_str(nv) == target:
                return Apply(term, (np_,))
        return None

    def _invert_ite(self, term, size: int, target: tuple) -> ProgramAst | None:
        # (ite c a b) meets the target iff a meets it wherever c is true and b
        # wherever c is false. A branch is reduced to the examples it meets
        # (``_matches``). A condition that is true, or false, everywhere would
        # need a branch that meets every example, and that branch alone would
        # have been found at a smaller size. A split whose condition pool is
        # complete and empty is skipped before the branches are read, and so
        # is one whose complete branch pool meets no example before the
        # other branch pool is grown.
        for c, a, b in _compositions(size - 1, 3):
            if self._complete_and_empty(Sort.BOOL, c):
                continue
            grown = self.grown[Sort.STRING]
            if (a <= grown < b and not self._matches(a, target)) or (b <= grown < a and not self._matches(b, target)):
                continue
            thens, elses = self._matches(a, target), self._matches(b, target)
            if not thens or not elses:
                continue
            for cp, cv in zip(*self.pool(Sort.BOOL, c)):
                if all(cv) or not any(cv):
                    continue
                then = None
                for hit, p in self._counted(thens.items()):
                    if all(map(operator.le, cv, hit)):  # meets the target wherever cv holds
                        then = p
                        break
                if then is None:
                    continue
                for hit, p in self._counted(elses.items()):
                    if all(map(operator.or_, cv, hit)):  # meets it wherever cv fails
                        return Apply(term, (cp, then, p))
        return None


# The operators a search with a target inverts top-down (``_Space._top_down``),
# with the method that does it: every Int operator of the catalog and every
# String one but str.replace. str.replace stays eager: the reduced grammars the
# grt lane runs on large problems drop it, so an inverse for it would speed up
# only the full-grammar searches.
_INVERSES = {
    "str.++": _Space._invert_split,
    "str.at": _Space._invert_at,
    "str.substr": _Space._invert_substr,
    "str.len": _Space._invert_unary,
    "str.indexof": _Space._invert_indexof,
    "str.to.int": _Space._invert_unary,
    "int.to.str": _Space._invert_int_to_str,
    "ite": _Space._invert_ite,
    "+": _Space._invert_split,
    "-": _Space._invert_split,
}

# ``_Space._invert_split``'s (fits, rest) per operator, for a scanned left and
# then right child with value x where the output is t: whether x can be that
# child (None: always), and the value the other child must then have.
_SPLITS = {
    "str.++": ((str.startswith, lambda t, x: t[len(x):]), (str.endswith, lambda t, x: t[: len(t) - len(x)])),
    "+": ((None, operator.sub), (None, operator.sub)),
    "-": ((None, lambda t, x: x - t), (None, operator.add)),
}

# ``_Space._hosts``' rules for a pool it has not completed: the operators whose
# value is a substring of their first child's, so that child is a smaller host,
# and per operator what every output must be for one of its values to contain it.
_SUBSTRINGS = frozenset({"str.at", "str.substr"})
_HOST_SHAPES = {
    "str.at": lambda t: len(t) <= 1,
    "int.to.str": lambda t: t.isascii() and (t == "" or t.isdigit()),
}


def solve(problem: SygusProblem) -> SynthesisResult:
    """Find a smallest-generation program satisfying every constraint.

    Timeouts are an outcome, not an error; the reported elapsed time never
    exceeds the problem's budget. With ``problem.max_explored`` set, the
    search also stops, unsolved and not exhausted, once exactly that many
    candidates have been explored (or before a size level, if the leaves
    alone took more), and reports the time it ran rather than the whole
    budget; so a budget of n solves every search that needs at most n.
    The budget is tested on every candidate and the deadline at every 1024th,
    each before the candidate is used (``_Space._counted`` per candidate,
    ``_Space._batches`` per list), and ``_Space._checkpoint`` tests both
    before each level. The checks a top-down inverse makes count as
    candidates; an inverted root the outputs rule out costs none.
    """
    if not problem.constraints:
        raise ValueError("cannot solve a problem with no constraints")
    grammar = problem.grammar
    timeout = problem.timeout_s
    start = time.monotonic()
    target = tuple(c.output for c in problem.constraints)
    assignments = [tuple(c.inputs) for c in problem.constraints]
    space = _Space(grammar, assignments, target, start + timeout, problem.max_explored)

    def elapsed():
        return min(time.monotonic() - start, timeout)

    def unsolved(**kw):
        return SynthesisResult(False, None, elapsed(), space.explored, **kw)

    for prog, vals in zip(*space.pool(Sort.STRING, 1)):
        if vals == target:
            return SynthesisResult(True, prog, elapsed(), space.explored)
    size = 2
    try:
        while True:
            if space.exhausted_beyond(size):
                return unsolved(exhausted=True)
            space._checkpoint()
            prog = space.level(size)
            if prog is not None:
                return SynthesisResult(True, prog, elapsed(), space.explored)
            size += 1
    except _Stop as stop:
        if stop.reason == "deadline":
            return SynthesisResult(False, None, timeout, space.explored)
        return unsolved()


def stream(grammar: Grammar, n: int = DEFAULT_STREAM_N) -> list[ProgramAst]:
    """Enumerate n observationally distinct String programs.

    Programs come out in nondecreasing size, deduplicated on the fixed probe
    inputs. The pool of the last size read grows only until n programs are
    out (``_Space.head``). Raises GrammarExhausted when fewer than n distinct
    programs exist, and ValueError when an input variable is not
    String-sorted: the probe inputs are strings.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    require_string_inputs(grammar)
    space = _Space(grammar, probe_assignments(len(grammar.input_vars)))
    out: list[ProgramAst] = []
    size = 1
    while not space.exhausted_beyond(size):
        out += space.head(size, n - len(out))
        if len(out) >= n:
            return out[:n]
        size += 1
    raise GrammarExhausted(f"grammar yields only {len(out)} distinct programs, {n} requested")


def solve_with_external(problem: SygusProblem, solver_cmd: str, fn_name: str = "f") -> SynthesisResult:
    """Run an external solver command on the problem and verify its answer.

    The command template gets the problem file path substituted for "{}" (or
    appended when no placeholder is present). The subprocess is killed as a
    process group when the budget is exceeded; its stdout must contain a
    define-fun for the synthesized function. The work budget
    ``problem.max_explored`` is ignored: only the wall-clock budget applies.
    """
    text = sygus_format.print_problem(sygus_format.ProblemFile(None, problem, fn_name))
    argv = shlex.split(solver_cmd)
    with tempfile.TemporaryDirectory(prefix="grt-solver-") as tmp:
        path = os.path.join(tmp, "problem.sl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if any(tok == "{}" for tok in argv):
            cmd = [path if tok == "{}" else tok for tok in argv]
        else:
            cmd = argv + [path]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=problem.timeout_s)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            return SynthesisResult(False, None, problem.timeout_s, 0)
        elapsed = min(time.monotonic() - start, problem.timeout_s)

    if proc.returncode != 0:
        raise SolverCrash(
            f"solver exited with status {proc.returncode}: {err.strip()[:500]}"
        )
    try:
        parsed = sygus_format.parse_solution(out)
    except (sygus_format.ParseError, KeyError) as exc:
        raise UnparseableOutput(f"could not parse solver output: {exc}") from exc
    var_names = [name for name, _ in parsed.params]
    if len(var_names) != len(problem.grammar.input_vars):
        raise WrongAnswer(
            f"solver defined {len(var_names)} parameters, problem has "
            f"{len(problem.grammar.input_vars)}"
        )
    for (name, sort), (_, wanted) in zip(parsed.params, problem.grammar.input_vars):
        if sort is not wanted:
            raise WrongAnswer(f"solver's parameter {name!r} has sort {sort.value}, the problem's has {wanted.value}")
    outputs = evaluate_rows(parsed.program, [c.inputs for c in problem.constraints], var_names)
    for c, output in zip(problem.constraints, outputs):
        if output != c.output:
            raise WrongAnswer(
                f"solver output fails constraint {c.inputs!r} -> {c.output!r}"
            )
    return SynthesisResult(True, parsed.program, elapsed, 0)
