"""Learned grammar pruning for syntax-guided string synthesis.

The pipeline: stream programs from the grammar to fabricate labeled examples,
train a multi-label criticality model, measure per-terminal time savings,
combine both into a reduced grammar per problem, and schedule the search: a
short full-grammar probe, then the reduced grammar, then a fallback to the
full grammar. ``pruner.Synthesizer`` runs vote -> decide -> schedule -> verify
for one problem; the CLI, the benchmark harness and the experiment script all
go through it.
"""

from .core import (
    Apply,
    BoolLit,
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
    program_size,
    satisfies,
)
from .enumerator import GrammarExhausted, SynthesisResult, solve, solve_with_external, stream
from .sygus_format import ParseError, ProblemFile, parse_problem, parse_problem_file, print_problem, print_solution

__all__ = [
    "Apply",
    "BoolLit",
    "Grammar",
    "GrammarExhausted",
    "InputVar",
    "IntLit",
    "IoConstraint",
    "ParseError",
    "ProblemFile",
    "Sort",
    "StrLit",
    "SygusProblem",
    "SynthesisResult",
    "TerminalSymbol",
    "UnknownTerminal",
    "default_grammar",
    "evaluate",
    "parse_problem",
    "parse_problem_file",
    "print_problem",
    "print_solution",
    "program_size",
    "satisfies",
    "solve",
    "solve_with_external",
    "stream",
]
