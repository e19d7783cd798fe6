"""Self-tests of the benchmark's statistics, span arithmetic and input generation.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import harness  # noqa: E402
from spans import Span, Tracer, self_times, traced_total  # noqa: E402


# --- percentile rule -------------------------------------------------------------


def test_harrell_davis_small_cases_match_the_beta_weights():
    # n = 3, p = 0.5: Beta(2, 2) has distribution 3t^2 - 2t^3, so the weights
    # of the order statistics are 7/27, 13/27, 7/27.
    assert harness.hd_quantile([5.0, 1.0, 2.0], 0.5) == pytest.approx((7 * 1 + 13 * 2 + 7 * 5) / 27, rel=1e-6)
    assert harness.hd_quantile([1.0, 3.0], 0.5) == pytest.approx(2.0, rel=1e-6)
    assert harness.hd_quantile([4.0], 0.9) == 4.0


def test_harrell_davis_median_of_symmetric_samples_is_the_centre():
    values = [float(v) for v in range(1, 38)]
    assert harness.p50(values) == pytest.approx(19.0, rel=1e-6)
    assert harness.p50([2.5] * 9) == pytest.approx(2.5)


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1500])
def test_tail_is_the_percentile_with_ten_samples_above(n):
    values = [float(v) for v in range(n, 0, -1)]  # 1..n, unsorted
    value, pct, count = harness.tail(values)
    assert count == n
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # the estimate sits among the order statistics around the (n-10)th
    assert n - 13 < value < n - 7


def test_tail_with_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert harness.tail([float(v) for v in range(10)]) == (9.0, 100.0, 10)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.tail([])


# --- machine-speed scaling -----------------------------------------------------------


def test_speed_factor_is_nominal_over_the_local_mean():
    nominal = harness.REF_NOMINAL_S
    refs = [nominal] * 5 + [2 * nominal] * 5
    speeds = harness.speed_factors(refs, half_window=1)
    assert speeds[0] == pytest.approx(1.0)
    assert speeds[-1] == pytest.approx(0.5)
    assert speeds[4] == pytest.approx(3 / 4)  # neighbours: nominal, nominal, 2 * nominal


def test_scaling_keeps_deadline_waits():
    assert harness.scaled(3.0, 1.0, 0.5) == pytest.approx(2.0)
    assert harness.scaled(3.0, 0.0, 1.0) == pytest.approx(3.0)


# --- self-time arithmetic ----------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("pruner.run_with_fallback", 0.0, 10.0, None, "r"),
        Span("enumerator.solve", 1.0, 3.0, 0, "r"),
        Span("enumerator.solve", 5.0, 6.0, 0, "r"),
    ]
    own = self_times(spans)
    assert own["pruner.run_with_fallback"] == pytest.approx(7.0)
    assert own["enumerator.solve"] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(traced_total(spans))


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("a", 0.0, 10.0, None, None),
        Span("b", 2.0, 6.0, 0, None),
        Span("c", 4.0, 8.0, 0, None),  # overlaps b: together they cover 2..8
        Span("d", 9.0, 12.0, 0, None),  # runs past its parent: only 9..10 counts
    ]
    assert self_times(spans)["a"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parent_request_and_clock():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.request = "grt:gen-001"
    with tr.span("pruner.run_with_fallback"):
        tr.call("enumerator.solve", lambda: None)
    outer, inner = tr.spans
    assert (outer.start, outer.end, outer.parent) == (0.0, 10.0, None)
    assert (inner.start, inner.end, inner.parent) == (1.0, 4.0, 0)
    assert inner.request == outer.request == "grt:gen-001"
    assert tr.self_times() == {"pruner.run_with_fallback": 7.0, "enumerator.solve": 3.0}


# --- seeded inputs -------------------------------------------------------------------


def test_many_small_inputs_repeat_per_seed_and_differ_across_seeds():
    first = harness.many_small_requests(seed=3, k=25)
    again = harness.many_small_requests(seed=3, k=25)
    other = harness.many_small_requests(seed=4, k=25)
    assert first == again
    assert [r.text for r in first] != [r.text for r in other]
    assert len({r.text for r in first}) == 25


def test_suite_inputs_are_the_whole_suite_in_seeded_order():
    a = harness.suite_requests(ROOT, seed=1)
    b = harness.suite_requests(ROOT, seed=2)
    assert len(a) == 37
    assert sorted(r.key for r in a) == sorted(r.key for r in b)
    assert [r.key for r in a] != [r.key for r in b]
    assert a == harness.suite_requests(ROOT, seed=1)


# --- refusing to run outside a checkout ----------------------------------------------


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


# --- BENCHMARK.json matches what runs print ------------------------------------------


def test_benchmark_json_names_every_metric_the_runs_print():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)

    import run

    assert run.WORKLOAD_NAMES == tuple(harness.WORKLOADS)


# --- decisions must repeat across runs ------------------------------------------------


def test_changed_decision_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    assert harness.check_decisions("suite", [("gen-001", ("str.++",))], "d1") == []
    assert harness.check_decisions("suite", [("gen-001", ("str.++",)), ("gen-002", ())], "d1") == []
    problems = harness.check_decisions("suite", [("gen-002", ("ite",))], "d1")
    assert len(problems) == 1 and problems[0].startswith("gen-002")
    # within one run too
    assert len(harness.check_decisions("many-small", [("k", ("=",)), ("k", ("+",))], "d1")) == 1


def test_changed_library_code_starts_a_fresh_decision_record(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path / "out")
    root = tmp_path / "checkout"
    (root / "src" / "grt").mkdir(parents=True)
    module = root / "src" / "grt" / "pruner.py"
    module.write_text("POLICY = 1\n", encoding="utf-8")
    before = harness.decision_digest(root)
    assert harness.decision_digest(root) == before
    assert harness.check_decisions("suite", [("gen-001", ("ite",))], before) == []

    module.write_text("POLICY = 2\n", encoding="utf-8")
    after = harness.decision_digest(root)
    assert after != before
    # the changed code may decide differently; the old code may not
    assert harness.check_decisions("suite", [("gen-001", ("str.++",))], after) == []
    assert len(harness.check_decisions("suite", [("gen-001", ("str.++",))], before)) == 1


# --- the reference slice measures the machine, not the heap ---------------------------


def test_reference_slice_runs_no_garbage_collection_and_restores_the_collector():
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    heap = [[i, (i,), {}] for i in range(200_000)]  # a large live heap of containers
    gc.callbacks.append(on_gc)
    try:
        for _ in range(5):
            harness.reference_slice()
    finally:
        gc.callbacks.remove(on_gc)
    assert collections == []
    assert gc.isenabled()
    gc.disable()
    try:
        harness.reference_slice()
        assert not gc.isenabled()
    finally:
        gc.enable()
    del heap


# --- environment --------------------------------------------------------------------


def test_environment_reads_back_the_blas_thread_count():
    env = harness.environment()
    assert env["blas"] != ""
    if env["blas_threads"] != "unknown":
        assert 1 <= env["blas_threads"] <= env["nproc"]
