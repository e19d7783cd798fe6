"""Command-line interface: parse, solve, stream, data generation, training,
pruning, benchmarking, and scoring."""

from __future__ import annotations

import argparse
import functools
import glob
import json
import sys
from pathlib import Path

from . import bench, datagen, enumerator, neural, pruner
from .core import Sort, UnknownTerminal, default_grammar
from .sygus_format import ProblemFile, parse_problem_file, print_problem, print_solution


_SORT_NAMES = tuple(sort.value for sort in Sort)
# The lists a grammar config may hold: each one's default, a test of its
# items, and what a message calls them.
_CONFIG_LISTS = {
    "string_literals": (["", " ", "-", "."], lambda v: type(v) is str, "strings"),
    "int_literals": ([0, 1, 2, 3], lambda v: type(v) is int, "integers"),
    "input_vars": (
        [["x0", "String"]],
        lambda v: type(v) is list and len(v) == 2 and type(v[0]) is str and v[1] in _SORT_NAMES,
        "[name, sort] pairs",
    ),
    "terminals": (None, lambda v: type(v) is str, "terminal names"),
}


def _load_grammar_config(path):
    """Grammar from a JSON config: literal pools, input vars, terminal subset.

    Raises ValueError, naming the file, for a config that is not a JSON
    object, holds a field that is not a list of the items it takes, or names
    an unknown terminal.
    """
    if path is None:
        return default_grammar()
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a grammar config must be a JSON object")
    fields = {}
    for name, (default, ok, items) in _CONFIG_LISTS.items():
        value = fields[name] = cfg.get(name, default)
        if value is not default and not (isinstance(value, list) and all(map(ok, value))):
            raise ValueError(f"{path}: {name} must be a list of {items}")
    fields["input_vars"] = [(name, Sort(sort)) for name, sort in fields["input_vars"]]
    try:
        return default_grammar(**fields)
    except UnknownTerminal as exc:
        raise ValueError(f"{path}: {exc.args[0]}") from None


def _read_problem(path) -> ProblemFile:
    text = Path(path).read_text(encoding="utf-8")
    return parse_problem_file(text, path=str(path))


def _problem_paths(patterns):
    paths = []
    for pattern in patterns:
        matched = sorted(glob.glob(pattern))
        if Path(pattern).is_file():
            matched = [pattern]
        if not matched:
            raise FileNotFoundError(f"no problems match {pattern!r}")
        paths.extend(matched)
    return paths


def _checked(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, refused as a usage error unless ``ok``."""

    def parse(text):
        value = kind(text)
        if not ok(value):  # a nan fails every rule
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid <type> value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_positive_float = _checked(float, lambda v: v > 0, "positive")
_non_negative_float = _checked(float, lambda v: v >= 0, "non-negative")
_probability = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")


def _solver_for(args):
    if args.solver_cmd:
        return functools.partial(enumerator.solve_with_external, solver_cmd=args.solver_cmd)
    return enumerator.solve


def _synthesizer(args, grammar) -> pruner.Synthesizer:
    """The pipeline the flags ask for: model weights and, for --mode grt, the
    savings table are read only in a treated mode."""
    weights = table = None
    if args.mode != "baseline":
        if not args.weights:
            raise SystemExit(f"{args.command}: --mode {args.mode} requires --weights")
        if args.mode == "grt" and not args.time_data:
            raise SystemExit(f"{args.command}: --mode grt requires --time-data")
        weights = neural.load_weights(args.weights, grammar.terminal_names)
        if args.mode == "grt":
            samples, terms = datagen.load_time_dataset(args.time_data)
            if tuple(terms) != grammar.terminal_names:
                raise SystemExit(f"{args.command}: --time-data was made for another terminal order")
            table = pruner.savings(samples)
    return pruner.Synthesizer(args.mode, args.timeout, args.fallback_x, weights, table, _solver_for(args))


def cmd_parse(args) -> int:
    pf = _read_problem(args.problem)
    sys.stdout.write(print_problem(pf))
    return 0


def cmd_solve(args) -> int:
    pf = _read_problem(args.problem)
    result = _synthesizer(args, pf.problem.grammar).solve(pf.problem)
    if result.solved:
        params = pf.problem.grammar.input_vars
        print(print_solution(result.program, pf.fn_name, params))
        print(f"; elapsed {result.elapsed_s:.3f}s, explored {result.programs_explored}", file=sys.stderr)
        return 0
    if result.exhausted:
        print(f"; grammar exhausted: no solution (explored {result.programs_explored})", file=sys.stderr)
    else:
        print(f"; no solution within {args.timeout}s (explored {result.programs_explored})", file=sys.stderr)
    return 0


def cmd_stream(args) -> int:
    if args.problem:
        grammar = _read_problem(args.problem).problem.grammar
    else:
        grammar = _load_grammar_config(args.grammar_config)
    from .sygus_format import program_to_text

    programs = enumerator.stream(grammar, args.n)
    out = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    try:
        for p in programs:
            out.write(program_to_text(p) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_datagen_crit(args) -> int:
    grammar = _load_grammar_config(args.grammar_config)
    samples = datagen.gen_crit_dataset(
        grammar,
        n_programs=args.n_programs,
        inputs_per_program=args.inputs_per_program,
        seed=args.seed,
    )
    datagen.save_crit_dataset(args.output, samples, grammar.terminal_names)
    print(f"wrote {len(samples)} samples to {args.output}", file=sys.stderr)
    return 0


def cmd_datagen_time(args) -> int:
    grammar = _load_grammar_config(args.grammar_config)
    problems = []
    ids = []
    for path in _problem_paths(args.problems):
        pf = _read_problem(path)
        problems.append(pf.problem)
        ids.append(Path(path).stem)
    if args.crit_data:
        samples, terms = datagen.load_crit_dataset(args.crit_data)
        if tuple(terms) != grammar.terminal_names:
            raise SystemExit("crit dataset terminal ordering does not match the grammar")
        for pid, problem in datagen.draw_crit_problems(samples, grammar, args.crit_problems, args.seed):
            problems.append(problem)
            ids.append(pid)
    solver = _solver_for(args)
    samples = datagen.gen_time_dataset(
        problems, solver, budget_s=args.budget, ids=ids, repeats=args.repeats
    )
    datagen.save_time_dataset(args.output, samples, grammar.terminal_names)
    print(
        f"wrote {len(samples)} timing samples ({len(problems)} problems x "
        f"{len(grammar.terminal_names)} terminals) to {args.output}",
        file=sys.stderr,
    )
    return 0


def cmd_train(args) -> int:
    samples, terminals = datagen.load_crit_dataset(args.data)
    config = neural.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        dropout_rate=args.dropout,
        seed=args.seed,
    )
    weights = neural.train(samples, config, terminals)
    neural.save_weights(args.output, weights)
    losses = ", ".join(f"{x:.4f}" for x in weights.epoch_losses)
    print(f"epoch losses: {losses}", file=sys.stderr)
    print(f"wrote weights to {args.output}", file=sys.stderr)
    return 0


def cmd_prune(args) -> int:
    pf = _read_problem(args.problem)
    payload = _synthesizer(args, pf.problem.grammar).decide(pf.problem).to_dict()
    payload["benchmark"] = Path(args.problem).stem
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    files = [_read_problem(p) for p in _problem_paths(args.problems)]
    records = bench.run_suite(files, _synthesizer(args, files[0].problem.grammar), args.repeats)
    suite_score = bench.score(records)
    if args.output:
        bench.save_records(args.output, records)
    sys.stdout.write(bench.report(records, suite_score))
    return 1 if any(r.error for r in records) else 0


def cmd_score(args) -> int:
    records = bench.load_records(args.results)
    sys.stdout.write(bench.report(records, bench.score(records)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and normalize a problem file")
    p.add_argument("problem")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("solve", help="synthesize a program for a problem file")
    p.add_argument("problem")
    p.add_argument("--timeout", type=_non_negative_float, default=60.0, help="per-problem budget in seconds")
    p.add_argument("--solver-cmd", help="external solver command template ({} = problem path)")
    p.set_defaults(fn=cmd_solve, mode="baseline", fallback_x=None)

    p = sub.add_parser("stream", help="enumerate distinct programs from a grammar")
    p.add_argument("problem", nargs="?", help="problem file supplying the grammar")
    p.add_argument("-n", type=_positive_int, default=enumerator.DEFAULT_STREAM_N)
    p.add_argument("-o", "--output")
    p.add_argument("--grammar-config", help="JSON grammar configuration file")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("datagen-crit", help="generate the criticality training set")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--n-programs", type=_positive_int, default=datagen.DEFAULT_N_PROGRAMS)
    p.add_argument("--inputs-per-program", type=_positive_int, default=datagen.DEFAULT_INPUTS_PER_PROGRAM)
    p.add_argument("--grammar-config", help="JSON grammar configuration file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_datagen_crit)

    p = sub.add_parser("datagen-time", help="measure per-terminal timing deltas")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--problems", nargs="+", required=True, help="problem files or globs")
    p.add_argument("--crit-data", help="criticality dataset to draw extra problems from")
    p.add_argument("--crit-problems", type=_non_negative_int, default=20)
    p.add_argument("--budget", type=_non_negative_float, default=datagen.DEFAULT_TIME_BUDGET_S)
    p.add_argument("--repeats", type=_positive_int, default=datagen.DEFAULT_TIMING_REPEATS)
    p.add_argument("--grammar-config", help="JSON grammar configuration file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver-cmd", help="external solver command template ({} = problem path)")
    p.set_defaults(fn=cmd_datagen_time)

    p = sub.add_parser("train", help="train the criticality model")
    p.add_argument("--data", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--epochs", type=_positive_int, default=15)
    p.add_argument("--batch-size", type=_positive_int, default=200)
    p.add_argument("--learning-rate", type=_positive_float, default=3e-3)
    p.add_argument("--dropout", type=_probability, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("prune", help="emit the reduction decision for one problem")
    p.add_argument("problem")
    p.add_argument("--mode", choices=("grt", "grtc"), default="grt")
    p.add_argument("-o", "--output")
    p.add_argument("--weights", help="model weights file")
    p.add_argument("--time-data", help="timing dataset (required by --mode grt)")
    p.set_defaults(fn=cmd_prune, timeout=60.0, fallback_x=None, solver_cmd=None)

    p = sub.add_parser("bench", help="run a benchmark suite in one mode")
    p.add_argument("--problems", nargs="+", required=True)
    p.add_argument("--mode", choices=pruner.MODES, default="grt")
    p.add_argument(
        "--fallback-x",
        type=_non_negative_float,
        help="reduced-grammar budget in s (default: what the probe leaves; required with --solver-cmd)",
    )
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("-o", "--output")
    p.add_argument("--weights", help="model weights file")
    p.add_argument("--time-data", help="timing dataset (required by --mode grt)")
    p.add_argument("--timeout", type=_non_negative_float, default=60.0, help="per-problem budget in seconds")
    p.add_argument("--solver-cmd", help="external solver command template ({} = problem path)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("score", help="re-score a saved results file")
    p.add_argument("results")
    p.set_defaults(fn=cmd_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # unreadable or malformed input, or a refused value
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
