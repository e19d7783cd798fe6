import json

import pytest

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
