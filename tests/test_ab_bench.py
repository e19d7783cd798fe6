import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = sys.modules["ab_bench"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def checkouts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", d)
    return a, b


def run_argv(workload, seed, seconds=30):
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]


def stub(values, calls):
    """A runner whose i-th run in a checkout reads values[checkout name][i] for
    baseline_total_s and score, and 1.0 for every other metric."""

    def runner(checkout, argv):
        calls.append((checkout.name, argv))
        i = sum(name == checkout.name for name, *_ in calls) - 1
        total, score = values[checkout.name][i]
        run = {m["name"]: 1.0 for m in METRICS}
        run.update(baseline_total_s=total, score=score)
        return run

    return runner


def rows(out):
    return {line.split()[0]: line for line in out.splitlines()[1:-1]}


def test_pairs_alternate_and_a_clear_gain_is_resolved(tmp_path, capsys):
    a, b = checkouts(tmp_path)
    values = {
        "a": [(1.00 + 0.01 * i, 10.0) for i in range(10)],
        "b": [(0.80 + 0.01 * i, 10.0 + (i % 2)) for i in range(10)],
    }
    calls = []
    assert ab_bench.main([str(a), str(b), "--workload", "many-small", "--seed", "2", "--pairs", "10"],
                         runner=stub(values, calls)) == 0
    assert [name for name, *_ in calls] == ["a", "b", "b", "a"] * 5
    assert all(argv == run_argv("many-small", 2) for _, argv in calls)
    out = capsys.readouterr().out
    table = rows(out)
    assert set(table) == {m["name"] for m in METRICS}
    # 10/10 wins and a 0.2 drop against an IQR of 0.045
    assert "B wins 10/10" in table["baseline_total_s"] and table["baseline_total_s"].endswith(" resolved")
    assert "A 1.045 [1.0225-1.0675]" in table["baseline_total_s"]
    # half the pairs are ties, which count for neither side
    assert "B wins 5/10" in table["score"] and table["score"].endswith("not resolved")
    assert "B wins 0/10" in table["wall_s"] and table["wall_s"].endswith("not resolved")
    assert json.loads(out.splitlines()[-1])["b"][0]["baseline_total_s"] == 0.80
    assert "WORSE" not in out


def test_a_metric_worse_beyond_its_bound_is_flagged(tmp_path, capsys):
    a, b = checkouts(tmp_path)
    # baseline_total_s (bound 0.24) 30% worse, score (bound 0.02) 1% worse
    values = {"a": [(1.0, 100.0)] * 4, "b": [(1.3, 99.0)] * 4}
    assert ab_bench.main([str(a), str(b), "--workload", "suite", "--seed", "1", "--pairs", "4"],
                         runner=stub(values, [])) == 0
    table = rows(capsys.readouterr().out)
    assert table["baseline_total_s"].endswith("not resolved  WORSE beyond bound")
    assert table["score"].endswith("not resolved")
    assert not any("WORSE" in row for name, row in table.items() if name != "baseline_total_s")


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    a, b = checkouts(tmp_path)
    # baseline_total_s: A's IQR 1 against a bound of 0.24 x 1.5; score: A's
    # IQR 5 is past 0.02 x 102.5 too, but every B run beats every A run
    values = {
        "a": [(1.0, 100.0), (2.0, 105.0), (1.0, 100.0), (2.0, 105.0)],
        "b": [(1.1, 106.0), (1.9, 107.0), (1.1, 106.0), (1.9, 107.0)],
    }
    assert ab_bench.main([str(a), str(b), "--workload", "many-small", "--seed", "1", "--pairs", "4"],
                         runner=stub(values, [])) == 0
    table = rows(capsys.readouterr().out)
    assert "A IQR 1 " in table["baseline_total_s"]
    assert table["baseline_total_s"].endswith("unresolved (spread > bound)")
    assert table["score"].endswith(" resolved")
    assert not any("unresolved" in row for name, row in table.items() if name != "baseline_total_s")


@pytest.mark.parametrize(
    "better, a, b, spread",
    [("lower", (1.0, 2.0), (0.5, 0.9), False), ("lower", (1.0, 2.0), (0.5, 1.5), True),
     ("higher", (1.0, 2.0), (2.5, 3.0), False), ("higher", (1.0, 2.0), (2.5, 1.5), True),
     ("lower", (1.0, 1.1), (1.2, 1.3), False)],
)
def test_spread_is_the_iqr_against_the_bound_unless_b_wins_outright(better, a, b, spread):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.24}
    c = ab_bench.compare(metric, [{"m": v} for v in a * 2], [{"m": v} for v in b * 2])
    assert c.spread is spread


@pytest.mark.parametrize(
    "better, a, b, worse",
    [("lower", 1.0, 1.25, True), ("lower", 1.0, 1.2, False), ("lower", 1.0, 0.5, False),
     ("higher", 10.0, 7.5, True), ("higher", 10.0, 8.0, False), ("higher", 10.0, 20.0, False)],
)
def test_worse_beyond_bound_is_the_relative_change_of_the_median(better, a, b, worse):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.24}
    c = ab_bench.compare(metric, [{"m": a}] * 3, [{"m": b}] * 3)
    assert c.worse is worse


def test_each_run_uses_the_command_in_a_benchmark_json(tmp_path):
    a, b = checkouts(tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec.update(command=["python3", "-X", "dev", "bench/run.py"], run_seconds=12)
    (a / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    calls = []
    values = {"a": [(1.0, 1.0)] * 2, "b": [(1.0, 1.0)] * 2}
    assert ab_bench.main([str(a), str(b), "--workload", "suite", "--seed", "3", "--pairs", "2"],
                         runner=stub(values, calls)) == 0
    expected = ["python3", "-X", "dev", "bench/run.py", "--workload", "suite", "--seed", "3", "--seconds", "12"]
    assert [argv for _, argv in calls] == [expected] * 4


@pytest.mark.parametrize("wins, shift, resolved", [(9, 0.2, True), (8, 0.2, False), (10, 0.01, False)])
def test_the_rule_needs_nine_wins_in_ten_and_a_gap_past_the_iqr(wins, shift, resolved):
    metric = {"name": "m", "unit": "s", "better": "lower", "bound": 0.24}
    a_runs = [{"m": 1.0 + 0.01 * i} for i in range(10)]
    b_runs = [{"m": r["m"] - shift if i < wins else r["m"] + 0.001} for i, r in enumerate(a_runs)]
    c = ab_bench.compare(metric, a_runs, b_runs)
    assert c.b_wins == wins
    assert c.resolved is resolved


def test_higher_is_better_counts_the_other_way():
    metric = {"name": "m", "unit": "x", "better": "higher", "bound": 0.24}
    c = ab_bench.compare(metric, [{"m": 1.0}, {"m": 1.1}], [{"m": 2.0}, {"m": 0.5}])
    assert c.b_wins == 1


def test_a_failed_run_stops_the_comparison(tmp_path, capsys):
    a, b = checkouts(tmp_path)
    calls = []

    def runner(checkout, *rest):
        calls.append(checkout.name)
        if len(calls) == 3:
            raise ab_bench.RunFailed(f"{checkout}: exit status 1")
        return {m["name"]: 1.0 for m in METRICS}

    assert ab_bench.main([str(a), str(b), "--workload", "suite", "--seed", "1", "--pairs", "5"], runner=runner) == 1
    assert calls == ["a", "b", "b"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stopped:" in captured.err and "exit status 1" in captured.err


@pytest.mark.parametrize(
    "stdout, status",
    [
        ('{"correct": false, "attempted": 2, "failed": 1, "metrics": {}}\n', 1),
        ('{"correct": true, "attempted": 2, "failed": 0, "metrics": {}}\n', 3),
        ("not json\n", 0),
        ("", 0),
    ],
    ids=["incorrect", "exit-status", "no-result", "no-output"],
)
def test_run_once_rejects_failed_runs(tmp_path, monkeypatch, stdout, status):
    class Done:
        returncode = status
        stderr = "FAIL baseline gen-001: wrong answer\n"

    Done.stdout = stdout
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *a, **k: Done)
    with pytest.raises(ab_bench.RunFailed):
        ab_bench.run_once(tmp_path, run_argv("suite", 1))


def test_run_once_reads_the_metric_values(tmp_path, monkeypatch):
    class Done:
        returncode = 0
        stderr = ""
        stdout = 'header\n{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 2.5, "unit": "s"}}}\n'

    seen = []
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda argv, **k: seen.append((argv, k["cwd"])) or Done)
    assert ab_bench.run_once(tmp_path, run_argv("many-small", 3)) == {"wall_s": 2.5}
    assert seen == [(run_argv("many-small", 3), tmp_path)]
