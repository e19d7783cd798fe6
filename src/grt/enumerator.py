"""Bottom-up enumerative synthesis with observational-equivalence pruning.

Candidates are generated in nondecreasing AST size. Each kept program carries
its vector of outputs on the evaluation inputs (the constraint inputs when
solving, a fixed probe set when streaming); a candidate whose output vector
was already seen for its sort is pruned. New candidates are evaluated directly
from their children's output vectors, so no tree is ever re-walked.

The search is fully deterministic: terminals, literals, and size partitions
are iterated in grammar order.
"""

from __future__ import annotations

import itertools
import os
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache

from . import sygus_format
from .core import (
    Apply,
    COLUMN_SEMANTICS,
    Grammar,
    InputVar,
    IntLit,
    ProgramAst,
    Sort,
    StrLit,
    SygusProblem,
    satisfies,
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

_CHECK_MASK = 0x3FF  # deadline and work budget checked every 1024 candidates


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


class _Space:
    """Size-indexed pools of observationally distinct programs."""

    def __init__(self, grammar: Grammar, assignments: list[tuple[str, ...]]):
        self.grammar = grammar
        self.assignments = assignments
        self.pools: dict[tuple[Sort, int], list] = {}
        self.seen: dict[Sort, set] = {s: set() for s in Sort}
        self.explored = 0
        self.max_rep_size = 0
        self.ops = [t for t in grammar.terminals if t.arity > 0]
        self.max_arity = max((t.arity for t in self.ops), default=0)

    def seed_leaves(self) -> list:
        new = []
        seeded = set()
        for j, (name, sort) in enumerate(self.grammar.input_vars):
            if name in seeded:
                continue
            seeded.add(name)
            vals = tuple(a[j] for a in self.assignments)
            self._add(InputVar(name, sort), sort, vals, new)
        m = len(self.assignments)
        for s in self.grammar.string_literals:
            self._add(StrLit(s), Sort.STRING, (s,) * m, new)
        for n in self.grammar.int_literals:
            self._add(IntLit(n), Sort.INT, (n,) * m, new)
        return new

    def _add(self, prog, sort, vals, new):
        self.explored += 1
        if vals in self.seen[sort]:
            return
        self.seen[sort].add(vals)
        self.pools.setdefault((sort, 1), []).append((prog, vals))
        self.max_rep_size = 1
        new.append((prog, sort, vals))

    def exhausted_beyond(self, size: int) -> bool:
        # Every candidate of size s combines kept representatives whose sizes
        # sum to s - 1, so nothing new can appear past 1 + arity * max_rep.
        return size > 1 + self.max_arity * self.max_rep_size

    def grow(self, size: int, deadline: float | None = None, target=None, max_explored: int | None = None):
        """Generate every candidate of the given size.

        Returns ("found", entry) as soon as a start-sorted candidate matches
        ``target``, ("deadline", None) if the clock ran out, ("budget", None)
        at the first checkpoint where ``max_explored`` candidates have been
        explored, or ("ok", new_entries) after the full generation.
        """
        new_entries: list = []
        start_sort = self.grammar.start_sort
        explored = self.explored
        pools = self.pools
        for term in self.ops:
            fn = COLUMN_SEMANTICS[term.name]
            ret = term.ret_sort
            seen_ret = self.seen[ret]
            out_pool = None
            is_target_sort = target is not None and ret is start_sort
            for parts in _compositions(size - 1, term.arity):
                arg_pools = []
                for sort, sz in zip(term.arg_sorts, parts):
                    pool = pools.get((sort, sz))
                    if not pool:
                        arg_pools = None
                        break
                    arg_pools.append(pool)
                if arg_pools is None:
                    continue
                val_lists = [[vals for _, vals in pool] for pool in arg_pools]
                prog_lists = [[prog for prog, _ in pool] for pool in arg_pools]
                for args, children in zip(itertools.product(*val_lists), itertools.product(*prog_lists)):
                    explored += 1
                    if not (explored & _CHECK_MASK):
                        if deadline is not None and time.monotonic() >= deadline:
                            self.explored = explored
                            return "deadline", None
                        if max_explored is not None and explored >= max_explored:
                            self.explored = explored
                            return "budget", None
                    vals = fn(*args)
                    if vals in seen_ret:
                        continue
                    seen_ret.add(vals)
                    prog = Apply(term, children)
                    if out_pool is None:
                        out_pool = pools.setdefault((ret, size), [])
                    out_pool.append((prog, vals))
                    self.max_rep_size = size
                    entry = (prog, ret, vals)
                    new_entries.append(entry)
                    if is_target_sort and vals == target:
                        self.explored = explored
                        return "found", entry
        self.explored = explored
        return "ok", new_entries


def solve(problem: SygusProblem) -> SynthesisResult:
    """Find a smallest-generation program satisfying every constraint.

    Timeouts are an outcome, not an error; the reported elapsed time never
    exceeds the problem's budget. With ``problem.max_explored`` set, the
    search also stops, unsolved and not exhausted, before a size level once
    that many candidates have been explored, or at the first 1024-candidate
    checkpoint at or past it, and reports the time it ran rather than the
    whole budget.
    """
    if not problem.constraints:
        raise ValueError("cannot solve a problem with no constraints")
    grammar = problem.grammar
    timeout = problem.timeout_s
    max_explored = problem.max_explored
    start = time.monotonic()
    deadline = start + timeout
    target = tuple(c.output for c in problem.constraints)
    assignments = [tuple(c.inputs) for c in problem.constraints]
    space = _Space(grammar, assignments)

    def elapsed():
        return min(time.monotonic() - start, timeout)

    def done(prog):
        return SynthesisResult(True, prog, elapsed(), space.explored)

    for prog, sort, vals in space.seed_leaves():
        if sort is grammar.start_sort and vals == target:
            return done(prog)

    size = 2
    while True:
        if space.exhausted_beyond(size):
            return SynthesisResult(False, None, elapsed(), space.explored, exhausted=True)
        if time.monotonic() >= deadline:
            return SynthesisResult(False, None, timeout, space.explored)
        if max_explored is not None and space.explored >= max_explored:
            return SynthesisResult(False, None, elapsed(), space.explored)
        status, payload = space.grow(size, deadline=deadline, target=target, max_explored=max_explored)
        if status == "found":
            return done(payload[0])
        if status == "deadline":
            return SynthesisResult(False, None, timeout, space.explored)
        if status == "budget":
            return SynthesisResult(False, None, elapsed(), space.explored)
        size += 1


def stream(grammar: Grammar, n: int = DEFAULT_STREAM_N) -> list[ProgramAst]:
    """Enumerate n observationally distinct start-sorted programs.

    Programs come out in nondecreasing size, deduplicated on the fixed probe
    inputs. Raises GrammarExhausted when fewer than n distinct programs exist.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    space = _Space(grammar, probe_assignments(len(grammar.input_vars)))
    out: list[ProgramAst] = []

    def take(entries) -> bool:
        for prog, sort, _ in entries:
            if sort is grammar.start_sort:
                out.append(prog)
                if len(out) == n:
                    return True
        return False

    if take(space.seed_leaves()):
        return out
    size = 2
    while True:
        if space.exhausted_beyond(size):
            raise GrammarExhausted(
                f"grammar yields only {len(out)} distinct programs, {n} requested"
            )
        _, entries = space.grow(size)
        if take(entries):
            return out
        size += 1


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
    for c in problem.constraints:
        if not satisfies(parsed.program, c, var_names):
            raise WrongAnswer(
                f"solver output fails constraint {c.inputs!r} -> {c.output!r}"
            )
    return SynthesisResult(True, parsed.program, elapsed, 0)
