"""Training-set construction: criticality labels and per-terminal time deltas.

Criticality samples pair a fabricated input-output example with the terminal
occurrence bit vector of the program that generated it. Each streamed program
has its own generator, seeded by the dataset seed and the program's stream
index, which draws the program's inputs example by example and, within an
example, variable by variable (``random_inputs``: the draws of
``Random.randint`` and ``Random.choice``). The program then runs once over
all its examples, a column of values per node (``core.evaluate_rows``), not
once per example. Timing samples record, for every (problem, terminal) pair,
the synthesis-time difference between the full grammar and the grammar with
that terminal dropped.

Dataset files are newline-delimited JSON with a schema-version header line
that pins the terminal ordering; saving a loaded file reproduces it byte for
byte.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .core import (
    Grammar,
    IoConstraint,
    ProgramAst,
    SygusProblem,
    evaluate_rows,
    terminals_used,
)
from .enumerator import SynthesisResult, stream

ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 -."
DEFAULT_LENGTH_RANGE = (0, 12)
DEFAULT_N_PROGRAMS = 4000
DEFAULT_INPUTS_PER_PROGRAM = 5
DEFAULT_TIME_BUDGET_S = 1.5
DEFAULT_TIMING_REPEATS = 3


@dataclass(frozen=True)
class CritSample:
    constraint: IoConstraint
    label: tuple[int, ...]
    program_id: str


@dataclass(frozen=True)
class TimeSample:
    terminal: str
    problem_id: str
    t_full_s: float
    t_dropped_s: float
    delta_s: float


def random_input(
    rng: random.Random,
    length_range: tuple[int, int] = DEFAULT_LENGTH_RANGE,
    alphabet: str = ALPHABET,
) -> str:
    """A string whose length is drawn from ``length_range`` (both ends included)
    and whose characters are drawn from ``alphabet``."""
    return random_inputs(rng, 1, length_range, alphabet)[0]


def random_inputs(
    rng: random.Random,
    count: int,
    length_range: tuple[int, int] = DEFAULT_LENGTH_RANGE,
    alphabet: str = ALPHABET,
) -> list[str]:
    """``count`` strings drawn one after the other as ``random_input`` draws one.

    A string's draws are those of ``rng.randint(lo, hi)`` for its length and
    then one ``rng.choice(alphabet)`` per character: ``random.Random`` makes
    each by rejection on ``getrandbits(k)``, k the bit length of the number
    of choices. Here that loop runs inline, with no Python frame per draw.
    """
    lo, hi = length_range
    if lo < 0:
        raise ValueError(f"negative length bound in {length_range}")
    if lo > hi:
        raise ValueError(f"empty length range {length_range}")
    if not alphabet:
        raise ValueError("empty alphabet")
    getrandbits = rng.getrandbits
    width = hi - lo + 1
    width_bits = width.bit_length()
    size = len(alphabet)
    size_bits = size.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        chars = []
        for _ in range(lo + r):
            r = getrandbits(size_bits)
            while r >= size:
                r = getrandbits(size_bits)
            chars.append(alphabet[r])
        out.append("".join(chars))
    return out


def occurrence_label(program: ProgramAst, grammar: Grammar) -> tuple[int, ...]:
    used = terminals_used(program)
    return tuple([1 if name in used else 0 for name in grammar.terminal_names])


def gen_crit_dataset(
    grammar: Grammar,
    n_programs: int = DEFAULT_N_PROGRAMS,
    inputs_per_program: int = DEFAULT_INPUTS_PER_PROGRAM,
    seed: int = 0,
) -> list[CritSample]:
    """Stream programs, fabricate examples for each, label by occurrence.

    Programs are taken in an order shuffled by ``seed``, and program ``idx``
    of the stream draws its inputs from
    ``random.Random(f"crit-inputs:{seed}:{idx}")``, example by example and
    within an example variable by variable. Once
    a program's inputs are drawn it is run once over all of them
    (``core.evaluate_rows``). Inputs are fabricated strings, so ``stream``
    raises ValueError for a grammar with an input variable of another sort.
    """
    if n_programs < 1 or inputs_per_program < 1:
        raise ValueError("n_programs and inputs_per_program must be positive")
    programs = stream(grammar, n_programs)
    order = list(range(len(programs)))
    random.Random(f"crit-shuffle:{seed}").shuffle(order)
    var_names = grammar.var_names
    n_vars = len(var_names)
    examples = range(inputs_per_program)
    rng = random.Random()  # seeded again for each program
    samples = []
    for idx in order:
        program = programs[idx]
        rng.seed(f"crit-inputs:{seed}:{idx}")
        drawn = random_inputs(rng, n_vars * inputs_per_program)
        rows = [tuple(drawn[j * n_vars : (j + 1) * n_vars]) for j in examples]
        label = occurrence_label(program, grammar)
        pid = f"p{idx:05d}"
        samples += [
            CritSample(IoConstraint(inputs, output), label, pid)
            for inputs, output in zip(rows, evaluate_rows(program, rows, var_names))
        ]
    return samples


def group_constraints(samples: Sequence[CritSample]) -> dict[str, list[IoConstraint]]:
    """Constraint sets per generating program, in first-seen order."""
    groups: dict[str, list[IoConstraint]] = {}
    for s in samples:
        groups.setdefault(s.program_id, []).append(s.constraint)
    return groups


def draw_crit_problems(
    samples: Sequence[CritSample],
    grammar: Grammar,
    k: int,
    seed: int = 0,
) -> list[tuple[str, SygusProblem]]:
    """Sample k whole problems (grammar + one program's constraints)."""
    groups = group_constraints(samples)
    pids = sorted(groups)
    if k > len(pids):
        raise ValueError(f"asked for {k} problems, dataset has {len(pids)}")
    rng = random.Random(f"crit-draw:{seed}")
    chosen = rng.sample(pids, k)
    return [(pid, SygusProblem(grammar, tuple(groups[pid]))) for pid in chosen]


def gen_time_dataset(
    problems: Sequence[SygusProblem],
    solver: Callable[[SygusProblem], SynthesisResult],
    budget_s: float = DEFAULT_TIME_BUDGET_S,
    ids: Sequence[str] | None = None,
    repeats: int = DEFAULT_TIMING_REPEATS,
) -> list[TimeSample]:
    """Measure full-vs-dropped synthesis times for every (problem, terminal).

    Times are medians over ``repeats`` runs and are capped at the budget;
    a timed-out run is recorded at the budget itself. The solver is
    deterministic, so a run that hits the budget is not repeated.
    """
    if ids is None:
        ids = [f"problem{i:03d}" for i in range(len(problems))]
    if len(ids) != len(problems):
        raise ValueError("ids and problems must have equal length")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    samples = []
    for pid, problem in zip(ids, problems):
        capped = replace(problem, timeout_s=budget_s)
        t_full = _median_time(solver, capped, repeats, budget_s)
        for name in problem.grammar.terminal_names:
            dropped = replace(capped, grammar=problem.grammar.drop(name))
            t_drop = _median_time(solver, dropped, repeats, budget_s)
            samples.append(TimeSample(name, pid, t_full, t_drop, t_full - t_drop))
    return samples


def _median_time(solver, problem, repeats: int, budget_s: float) -> float:
    times = []
    for _ in range(repeats):
        result = solver(problem)
        if not result.solved:
            return budget_s
        times.append(min(result.elapsed_s, budget_s))
    return statistics.median(times)


# --- Dataset files ---------------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def save_crit_dataset(path, samples: Sequence[CritSample], terminal_names: Sequence[str]) -> None:
    header = {"schema": "grt.crit", "version": 1, "terminals": list(terminal_names)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        for s in samples:
            row = {
                "program_id": s.program_id,
                "inputs": list(s.constraint.inputs),
                "output": s.constraint.output,
                "label": list(s.label),
            }
            fh.write(_dump(row) + "\n")


def _terminals_in_header(fh, path, schema: str, kind: str) -> tuple[str, ...]:
    """The terminal order a dataset file's first line declares; ValueError
    unless that line is a ``schema`` header."""
    try:
        header = json.loads(fh.readline())
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or header.get("schema") != schema or header.get("version") != 1:
        raise ValueError(f"{path}: not a {kind} file")
    return tuple(header["terminals"])


def _row_fields(row, names: tuple[str, ...], path, lineno: int) -> list:
    """The named fields of one dataset row; ValueError, naming the line, for
    a row that is not an object holding all of them."""
    try:
        return [row[name] for name in names]
    except (KeyError, TypeError):
        raise ValueError(f"{path}:{lineno}: a row must be an object with {', '.join(names)}") from None


def load_crit_dataset(path) -> tuple[list[CritSample], tuple[str, ...]]:
    """The samples and terminal order of a file ``save_crit_dataset`` wrote.

    Raises ValueError, naming the line, for a row that lacks a field, or
    whose label has another length than the header's terminal list or
    holds a bit other than 0 or 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        terminals = _terminals_in_header(fh, path, "grt.crit", "criticality dataset")
        samples = []
        for lineno, line in enumerate(fh, start=2):
            inputs, output, label, program_id = _row_fields(
                json.loads(line), ("inputs", "output", "label", "program_id"), path, lineno
            )
            label = tuple(label)
            if len(label) != len(terminals):
                raise ValueError(
                    f"{path}:{lineno}: label has {len(label)} bits, the header lists {len(terminals)} terminals"
                )
            if not all(type(bit) is int and bit in (0, 1) for bit in label):
                raise ValueError(f"{path}:{lineno}: label bits must be 0 or 1, got {list(label)}")
            samples.append(CritSample(IoConstraint(tuple(inputs), output), label, program_id))
    return samples, terminals


def save_time_dataset(path, samples: Sequence[TimeSample], terminal_names: Sequence[str]) -> None:
    header = {"schema": "grt.time", "version": 1, "terminals": list(terminal_names)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(header) + "\n")
        for s in samples:
            row = {
                "terminal": s.terminal,
                "problem_id": s.problem_id,
                "t_full_s": s.t_full_s,
                "t_dropped_s": s.t_dropped_s,
                "delta_s": s.delta_s,
            }
            fh.write(_dump(row) + "\n")


def load_time_dataset(path) -> tuple[list[TimeSample], tuple[str, ...]]:
    """The samples and terminal order of a file ``save_time_dataset`` wrote.

    Raises ValueError, naming the line, for a row that lacks a field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        terminals = _terminals_in_header(fh, path, "grt.time", "timing dataset")
        rows = json.loads("[" + ",".join(fh) + "]")  # one parse for every row
    names = ("terminal", "problem_id", "t_full_s", "t_dropped_s", "delta_s")
    samples = [TimeSample(*_row_fields(row, names, path, lineno)) for lineno, row in enumerate(rows, start=2)]
    return samples, terminals
