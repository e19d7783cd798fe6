import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grt import bench
from grt.cli import main
from grt.neural import init_weights, save_weights
from grt.sygus_format import parse_problem_file

PROBLEM = """
(set-logic SLIA)
(synth-fun f ((x0 String)) String
    ((Start String (x0 "-" (str.++ Start Start) (str.at Start StartInt)
                    (str.substr Start StartInt StartInt) (str.replace Start Start Start)
                    (int.to.str StartInt) (ite StartBool Start Start)))
     (StartInt Int (0 1 2 (str.len Start) (str.indexof Start Start StartInt)
                    (str.to.int Start) (+ StartInt StartInt) (- StartInt StartInt)))
     (StartBool Bool ((str.prefixof Start Start) (str.suffixof Start Start)
                      (str.contains Start Start) (= StartInt StartInt)))))
(declare-var x0 String)
(constraint (= (f "ab") "ab-ab"))
(constraint (= (f "q") "q-q"))
(constraint (= (f "xy1") "xy1-xy1"))
(check-synth)
"""


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "selfdash.sl"
    path.write_text(PROBLEM, encoding="utf-8")
    return path


def grammar_config(tmp_path):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps({
        "string_literals": ["", "-"],
        "int_literals": [0, 1],
        "input_vars": [["x0", "String"]],
    }))
    return path


def test_parse_normalizes(problem_file, capsys):
    assert main(["parse", str(problem_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(set-logic SLIA)")
    assert '(constraint (= (f "ab") "ab-ab"))' in out


def test_solve_prints_define_fun(problem_file, capsys):
    assert main(["solve", str(problem_file), "--timeout", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(define-fun f ((x0 String)) String")
    assert "str.++" in out


# str.at of a string at 0 gives nothing new after one step, so the grammar
# runs out of distinct programs long before any deadline
EXHAUSTIBLE = """
(set-logic SLIA)
(synth-fun f ((x0 String)) String
    ((Start String (x0 "" (str.at Start StartInt)))
     (StartInt Int (0))))
(declare-var x0 String)
(constraint (= (f "ab") "zz"))
(check-synth)
"""


def test_solve_reports_an_exhausted_grammar(tmp_path, capsys):
    path = tmp_path / "tiny.sl"
    path.write_text(EXHAUSTIBLE, encoding="utf-8")
    assert main(["solve", str(path), "--timeout", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "; grammar exhausted: no solution (explored 6)\n"


def test_solve_reports_a_deadline_stop(tmp_path, capsys):
    path = tmp_path / "far.sl"
    path.write_text(PROBLEM.replace('"ab-ab"', '"' + "q" * 40 + '"'), encoding="utf-8")
    assert main(["solve", str(path), "--timeout", "0.05"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("; no solution within 0.05s (explored ")
    assert "exhausted" not in captured.err


def test_stream_writes_programs(problem_file, tmp_path, capsys):
    out_file = tmp_path / "programs.txt"
    assert main(["stream", str(problem_file), "-n", "25", "-o", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 25
    assert lines[0] == "x0"


def test_full_pipeline_via_cli(tmp_path, problem_file, capsys):
    cfg = grammar_config(tmp_path)
    crit = tmp_path / "crit.jsonl"
    weights = tmp_path / "weights.bin"
    time_data = tmp_path / "time.jsonl"
    results = tmp_path / "results.jsonl"

    assert main([
        "datagen-crit", "-o", str(crit), "--n-programs", "120",
        "--inputs-per-program", "2", "--grammar-config", str(cfg),
    ]) == 0
    assert main([
        "train", "--data", str(crit), "-o", str(weights), "--epochs", "1",
    ]) == 0
    assert main([
        "datagen-time", "-o", str(time_data), "--problems", str(problem_file),
        "--crit-data", str(crit), "--crit-problems", "2",
        "--budget", "0.4", "--repeats", "1", "--grammar-config", str(cfg),
    ]) == 0
    assert main([
        "prune", str(problem_file), "--weights", str(weights),
        "--time-data", str(time_data),
    ]) == 0
    decision = json.loads(capsys.readouterr().out)
    assert set(decision) >= {"removed", "candidates", "votes", "kept_terminals"}

    assert main([
        "bench", "--problems", str(problem_file), "--mode", "grt",
        "--weights", str(weights), "--time-data", str(time_data),
        "--timeout", "10", "--fallback-x", "2", "-o", str(results),
    ]) == 0
    assert main(["score", str(results)]) == 0
    out = capsys.readouterr().out
    assert "score:" in out


def test_bench_baseline_smoke(problem_file, tmp_path, capsys):
    results = tmp_path / "baseline.jsonl"
    assert main([
        "bench", "--problems", str(problem_file), "--mode", "baseline",
        "--timeout", "10", "-o", str(results),
    ]) == 0
    out = capsys.readouterr().out
    assert "selfdash" in out


@pytest.mark.parametrize("argv, missing", [
    (["bench", "--problems", "{problem}", "--mode", "grt", "--weights", "{weights}"], "--time-data"),
    (["bench", "--problems", "{problem}", "--mode", "grtc"], "--weights"),
    (["prune", "{problem}", "--mode", "grtc"], "--weights"),
    (["bench", "--problems", "{problem}", "--mode", "grtc", "--weights", "{weights}", "--solver-cmd", "true"],
     "--fallback-x"),
])
def test_missing_pruning_input_names_the_flag(argv, missing, problem_file, tmp_path):
    weights = tmp_path / "weights.bin"
    save_weights(weights, init_weights(parse_problem_file(PROBLEM).problem.grammar.terminal_names))
    argv = [arg.format(problem=problem_file, weights=weights) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert missing in str(exc.value.code)


@pytest.mark.parametrize("argv", [
    ["parse", "p.sl", "--weights", "w.bin"],
    ["score", "results.jsonl", "--mode", "grt"],
    ["train", "--data", "crit.jsonl", "-o", "w.bin", "--timeout", "5"],
    ["solve", "p.sl", "--seed", "1"],
    ["prune", "p.sl", "--mode", "baseline"],
])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["stream", "missing.sl", "-n", "0"], "must be at least 1"),
    (["datagen-crit", "-o", "crit.jsonl", "--n-programs", "0"], "must be at least 1"),
    (["datagen-crit", "-o", "crit.jsonl", "--inputs-per-program", "0"], "must be at least 1"),
    (["datagen-time", "-o", "time.jsonl", "--problems", "missing.sl", "--repeats", "0"], "must be at least 1"),
    (["datagen-time", "-o", "time.jsonl", "--problems", "missing.sl", "--budget", "-1"], "must be non-negative"),
    (["bench", "--problems", "missing.sl", "--repeats", "0"], "must be at least 1"),
    (["train", "--data", "missing.jsonl", "-o", "w.bin", "--epochs", "0"], "must be at least 1"),
    (["train", "--data", "missing.jsonl", "-o", "w.bin", "--batch-size", "0"], "must be at least 1"),
    (["train", "--data", "missing.jsonl", "-o", "w.bin", "--learning-rate", "0"], "must be positive"),
    (["train", "--data", "missing.jsonl", "-o", "w.bin", "--dropout", "1.0"], "must be in [0, 1)"),
    (["datagen-time", "-o", "time.jsonl", "--problems", "missing.sl", "--crit-problems", "-1"], "must be non-negative"),
    (["solve", "missing.sl", "--timeout", "-1"], "must be non-negative"),
    (["bench", "--problems", "missing.sl", "--timeout", "-1"], "must be non-negative"),
    (["bench", "--problems", "missing.sl", "--fallback-x", "-1"], "must be non-negative"),
])
def test_rejected_value_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    # every path is missing, so only the argument check can stop the command
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "perfbench" / "fixture"

CONCAT_ONLY = """(set-logic SLIA)
(synth-fun f ((x0 String)) String ((Start String (x0 "-" (str.++ Start Start)))))
(declare-var x0 String)
(constraint (= (f "ab") "ab-ab"))
(check-synth)
"""


@pytest.mark.parametrize("argv, message", [
    (["solve", "{tmp}/nonexistent.sl"], "solve: [Errno 2] No such file or directory: "),
    (["parse", "{tmp}/bad.sl"], "parse: unsupported form (foo ...)"),
    (["prune", "{tmp}/concat.sl", "--weights", f"{FIXTURE}/weights.bin", "--time-data", f"{FIXTURE}/time.jsonl"],
     f"prune: {FIXTURE}/weights.bin: terminal ordering hash does not match the grammar"),
    (["bench", "--problems", "{problem}", "--weights", f"{FIXTURE}/weights.bin", "--time-data", "{problem}"],
     "bench: {problem}: not a timing dataset file"),
    (["bench", "--problems", "{problem}", "--weights", f"{FIXTURE}/weights.bin", "--time-data", "{tmp}/reversed.jsonl"],
     "bench: --time-data was made for another terminal order"),
    (["stream", "--grammar-config", "{tmp}/unknown.json"], "stream: {tmp}/unknown.json: unknown terminals: ['str.frob']"),
    (["datagen-crit", "-o", "{tmp}/crit.jsonl", "--grammar-config", "{tmp}/unknown.json"],
     "datagen-crit: {tmp}/unknown.json: unknown terminals: ['str.frob']"),
    (["stream", "--grammar-config", "{tmp}/list.json"], "stream: {tmp}/list.json: a grammar config must be a JSON object"),
    (["train", "--data", "{tmp}/no-label.jsonl", "-o", "{tmp}/w.bin"],
     "train: {tmp}/no-label.jsonl:2: a row must be an object with inputs, output, label, program_id"),
    (["bench", "--problems", "{problem}", "--weights", f"{FIXTURE}/weights.bin", "--time-data", "{tmp}/no-full.jsonl"],
     "bench: {tmp}/no-full.jsonl:3: a row must be an object with terminal, problem_id, t_full_s, t_dropped_s, delta_s"),
    (["bench", "--problems", "{problem}", "--weights", f"{FIXTURE}/weights.bin", "--time-data", "{tmp}/bad-row.jsonl"],
     "bench: {tmp}/bad-row.jsonl:3: not a JSON row: "),
    (["bench", "--problems", "{problem}", "--weights", f"{FIXTURE}/weights.bin", "--time-data",
      "{tmp}/no-terminals.jsonl"], "bench: {tmp}/no-terminals.jsonl: not a timing dataset file"),
    (["score", "{tmp}/no-mode.jsonl"], "score: {tmp}/no-mode.jsonl:2: a row must be a JSON object with benchmark_id, "),
    (["score", "{tmp}/array.json"], "score: {tmp}/array.json: not a results file"),
    (["prune", "{tmp}/concat.sl", "--weights", "{tmp}/array.json", "--time-data", f"{FIXTURE}/time.jsonl"],
     "prune: {tmp}/array.json: unsupported schema/version"),
    (["train", "--data", "{tmp}/inputs-string.jsonl", "-o", "{tmp}/w.bin"],
     "train: {tmp}/inputs-string.jsonl:2: inputs and label must be lists"),
    (["train", "--data", "{tmp}/label-int.jsonl", "-o", "{tmp}/w.bin"],
     "train: {tmp}/label-int.jsonl:2: inputs and label must be lists"),
    (["stream", "--grammar-config", "{tmp}/terminals-int.json"],
     "stream: {tmp}/terminals-int.json: terminals must be a list of terminal names"),
    (["stream", "-n", "300", "--grammar-config", "{tmp}/int-literals-string.json"],
     "stream: {tmp}/int-literals-string.json: int_literals must be a list of integers"),
], ids=["missing-problem", "parse-error", "weights-for-another-grammar", "time-data-not-json",
        "time-data-for-another-order", "stream-unknown-terminal", "datagen-crit-unknown-terminal",
        "grammar-config-not-an-object", "crit-row-without-label", "time-row-without-t-full",
        "time-row-not-json", "time-header-without-terminals", "results-row-without-mode",
        "results-header-not-an-object", "weights-header-not-an-object", "crit-inputs-not-a-list",
        "crit-label-not-a-list", "grammar-config-terminals-not-a-list", "grammar-config-int-literals-a-string"])
def test_bad_input_file_is_a_message_not_a_traceback(argv, message, problem_file, tmp_path):
    (tmp_path / "bad.sl").write_text("(set-logic SLIA)(foo)", encoding="utf-8")
    (tmp_path / "concat.sl").write_text(CONCAT_ONLY, encoding="utf-8")
    header, *rows = (FIXTURE / "time.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    second = json.loads(rows[1])
    del second["t_full_s"]
    (tmp_path / "no-full.jsonl").write_text(header + rows[0] + json.dumps(second) + "\n", encoding="utf-8")
    (tmp_path / "bad-row.jsonl").write_text(header + rows[0] + "{not json\n" + rows[1], encoding="utf-8")
    header = json.loads(header)
    header["terminals"].reverse()
    (tmp_path / "reversed.jsonl").write_text(json.dumps(header) + "\n" + "".join(rows), encoding="utf-8")
    del header["terminals"]
    (tmp_path / "no-terminals.jsonl").write_text(json.dumps(header) + "\n" + "".join(rows), encoding="utf-8")
    results_header = {"schema": bench.RESULTS_SCHEMA, "version": bench.RESULTS_VERSION}
    row = {"benchmark_id": "b", "solved_full": False, "t_full_s": None, "size_full": None, "solved_pruned": None,
           "t_pruned_s": None, "size_pruned": None, "removed": [], "error": None}
    (tmp_path / "no-mode.jsonl").write_text(json.dumps(results_header) + "\n" + json.dumps(row) + "\n",
                                            encoding="utf-8")
    (tmp_path / "array.json").write_text("[1]\n", encoding="utf-8")
    (tmp_path / "terminals-int.json").write_text(json.dumps({"terminals": 5}), encoding="utf-8")
    (tmp_path / "int-literals-string.json").write_text(json.dumps({"int_literals": "ab"}), encoding="utf-8")
    (tmp_path / "unknown.json").write_text(json.dumps({"terminals": ["str.++", "str.frob"]}), encoding="utf-8")
    (tmp_path / "list.json").write_text(json.dumps(["str.++"]), encoding="utf-8")
    crit_header = {"schema": "grt.crit", "version": 1, "terminals": ["str.++"]}
    crit_row = {"program_id": "p0", "inputs": ["a"], "output": "a"}
    (tmp_path / "no-label.jsonl").write_text(json.dumps(crit_header) + "\n" + json.dumps(crit_row) + "\n",
                                             encoding="utf-8")
    for name, fields in [("inputs-string", {"inputs": "a", "label": [1]}), ("label-int", {"label": 1})]:
        (tmp_path / f"{name}.jsonl").write_text(
            json.dumps(crit_header) + "\n" + json.dumps({**crit_row, "label": [1], **fields}) + "\n", encoding="utf-8"
        )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    fill = {"tmp": tmp_path, "problem": problem_file}
    proc = subprocess.run(
        [sys.executable, "-m", "grt.cli", *(arg.format(**fill) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(message.format(**fill))
    assert "Traceback" not in proc.stderr


def load_run_pipeline():
    spec = importlib.util.spec_from_file_location("run_pipeline", ROOT / "scripts" / "run_pipeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_pipeline_quick_changes_only_the_defaults():
    run_pipeline = load_run_pipeline()
    args = run_pipeline.parse_args(["--quick", "--n-programs", "1000"])
    assert args.n_programs == 1000
    assert args.inputs_per_program == run_pipeline.QUICK["inputs_per_program"]
    assert run_pipeline.parse_args([]).n_programs == run_pipeline.build_parser().get_default("n_programs")
    with pytest.raises(SystemExit) as exc:
        run_pipeline.parse_args(["--bench-repeats", "0"])
    assert exc.value.code == 2


PIPELINE_STEPS = {"vote", "decide", "run_with_fallback"}


@pytest.mark.parametrize("path", ["src/grt/bench.py", "src/grt/cli.py", "scripts/run_pipeline.py"])
def test_only_the_synthesizer_wires_the_pipeline(path):
    # vote -> decide -> schedule has one home, pruner.Synthesizer; these
    # callers go through it and never name the steps themselves
    named = set()
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pruner":
            named.add(node.attr)
    assert not named & PIPELINE_STEPS
