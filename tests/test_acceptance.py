"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The pipeline artifacts
(datasets, model, savings table, suite runs) are built once per session in
fixtures; wall-clock budgets stated per criterion are asserted from the
recorded build times.
"""

from __future__ import annotations

import contextlib
import random
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from grt.bench import run_suite
from grt.core import Sort, SygusProblem, IoConstraint, default_grammar, evaluate, program_size, satisfies
from grt.datagen import (
    draw_crit_problems,
    gen_crit_dataset,
    gen_time_dataset,
    load_crit_dataset,
    load_time_dataset,
    save_crit_dataset,
    save_time_dataset,
)
from grt.enumerator import solve, stream
from grt.neural import (
    TrainConfig,
    encode_batch,
    forward,
    hidden_layer_sizes,
    init_weights,
    load_weights,
    loss_and_grads,
    save_weights,
    train,
)
from grt.neural import _params
from grt.pruner import Synthesizer, fallback_point, fallback_runs, savings
from grt.sygus_format import parse_problem_file, print_problem
from oracles import all_programs, brute_force_min_size, random_program_with_root, ref_eval

SEED = 0
TIMING_BUDGET_S = 1.5
TIMING_REPEATS = 3
SUITE_TIMEOUT_S = 30.0
SUITE_REPEATS = 3

_durations: dict[str, float] = {}


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"\n[acceptance] {label}: PASS", flush=True)


@contextlib.contextmanager
def timed(name: str):
    start = time.monotonic()
    yield
    _durations[name] = time.monotonic() - start


@pytest.fixture(scope="module")
def grammar():
    return default_grammar()


@pytest.fixture(scope="module")
def crit_dataset(grammar):
    with timed("crit_dataset"):
        samples = gen_crit_dataset(grammar, 4000, 5, seed=SEED)
    assert len(samples) >= 20000
    return samples


@pytest.fixture(scope="module")
def split(crit_dataset):
    holdout = len(crit_dataset) // 10
    return crit_dataset[:-holdout], crit_dataset[-holdout:]


@pytest.fixture(scope="module")
def model(grammar, split):
    train_set, _ = split
    with timed("train"):
        weights = train(train_set, TrainConfig(seed=SEED), grammar.terminal_names)
    return weights


@pytest.fixture(scope="module")
def timing_problems(grammar, crit_dataset, handwritten_paths):
    problems = [
        (p.stem, parse_problem_file(p.read_text(encoding="utf-8"), path=str(p)).problem)
        for p in handwritten_paths
    ]
    problems += draw_crit_problems(crit_dataset, grammar, 20, SEED)
    return problems


@pytest.fixture(scope="module")
def time_dataset(timing_problems):
    with timed("time_dataset"):
        samples = gen_time_dataset(
            [p for _, p in timing_problems],
            solve,
            budget_s=TIMING_BUDGET_S,
            ids=[pid for pid, _ in timing_problems],
            repeats=TIMING_REPEATS,
        )
    return samples


@pytest.fixture(scope="module")
def savings_table(time_dataset):
    return savings(time_dataset)


@pytest.fixture(scope="module")
def fallback_x(model, savings_table, time_dataset, timing_problems):
    runs = fallback_runs(timing_problems, Synthesizer("grt", SUITE_TIMEOUT_S, None, model, savings_table), time_dataset)
    return fallback_point(runs, timeout_s=SUITE_TIMEOUT_S)


@pytest.fixture(scope="module")
def suite_files(generated_paths):
    return [
        parse_problem_file(p.read_text(encoding="utf-8"), path=str(p))
        for p in generated_paths
    ]


@pytest.fixture(scope="module")
def grt_records(suite_files, model, savings_table, fallback_x):
    synth = Synthesizer("grt", SUITE_TIMEOUT_S, fallback_x, model, savings_table)
    with timed("grt_suite"):
        return run_suite(suite_files, synth, SUITE_REPEATS)


@pytest.fixture(scope="module")
def grtc_records(suite_files, model, fallback_x, grt_records):
    # C8 compares this lane with grt_records' full-grammar times, so it takes
    # them from there rather than timing the full grammar a second time.
    synth = Synthesizer("grtc", SUITE_TIMEOUT_S, fallback_x, model)
    with timed("grtc_suite"):
        return run_suite(suite_files, synth, SUITE_REPEATS, grt_records)


def test_c01_interpreter_matches_reference(grammar):
    with criterion("C1 interpreter vs independent reference"):
        start = time.monotonic()
        rng = random.Random(101)
        mismatches = 0
        for name in grammar.terminal_names:
            for _ in range(500):
                program = random_program_with_root(rng, name, depth=2)
                s = "".join(rng.choice("ab 01.-Zx") for _ in range(rng.randint(0, 10)))
                got = evaluate(program, [s])
                want = ref_eval(program, {"x0": s})
                if got != want:
                    mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 10.0, f"interpreter oracle took {elapsed:.1f}s"


def test_c02_enumerator_minimality():
    with criterion("C2 enumerator finds brute-force minimal sizes"):
        start = time.monotonic()
        rng = random.Random(202)
        op_pool = [
            "str.++", "str.at", "str.substr", "str.len", "str.replace",
            "str.indexof", "int.to.str", "str.to.int", "+", "-",
        ]
        checked = 0
        attempts = 0
        while checked < 50:
            attempts += 1
            assert attempts < 600, "could not build enough minimality cases"
            ops = rng.sample(op_pool, rng.randint(1, 4))
            grammar = default_grammar(
                terminals=ops,
                string_literals=tuple(rng.sample(["", "a", "-", "0"], 2)),
                int_literals=(0, 1),
            )
            size = rng.randint(2, 5)
            pool = all_programs(grammar, Sort.STRING, size)
            if not pool:
                continue
            target = rng.choice(pool)
            inputs = ["xy1", "b-a", ""]
            constraints = tuple(
                IoConstraint((s,), ref_eval(target, {"x0": s})) for s in inputs
            )
            expected = brute_force_min_size(grammar, constraints, 5)
            assert expected is not None  # the target itself has size <= 5
            result = solve(SygusProblem(grammar, constraints, timeout_s=30))
            assert result.solved
            assert program_size(result.program) == expected
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"minimality check took {elapsed:.1f}s"


def test_c03_dataset_soundness(grammar, crit_dataset, time_dataset, timing_problems):
    with criterion("C3 dataset soundness and completeness"):
        programs = {f"p{i:05d}": p for i, p in enumerate(stream(grammar, 4000))}
        var_names = grammar.var_names
        for sample in crit_dataset:
            assert satisfies(programs[sample.program_id], sample.constraint, var_names)
        n_terms = len(grammar.terminal_names)
        assert len(time_dataset) == len(timing_problems) * n_terms
        pairs = {(s.problem_id, s.terminal) for s in time_dataset}
        assert len(pairs) == len(time_dataset)
        for s in time_dataset:
            assert s.delta_s == pytest.approx(s.t_full_s - s.t_dropped_s)
            assert 0.0 <= s.t_full_s <= TIMING_BUDGET_S
            assert 0.0 <= s.t_dropped_s <= TIMING_BUDGET_S
        build = _durations["crit_dataset"] + _durations["time_dataset"]
        assert build < 300.0, f"dataset generation took {build:.0f}s"


def test_c04_gradient_check(grammar, crit_dataset):
    with criterion("C4 analytic gradients match central differences"):
        start = time.monotonic()
        rng = random.Random(404)
        batch_pool = crit_dataset[:300]
        for config_idx in range(10):
            weights = init_weights(grammar.terminal_names, seed=1000 + config_idx)
            batch = rng.sample(batch_pool, 3)
            codes = encode_batch([s.constraint for s in batch])
            labels = np.array([s.label for s in batch], float)
            _, grads = loss_and_grads(weights, codes, labels)
            np_rng = np.random.default_rng(config_idx)
            for name, param in _params(weights):
                flat = param.reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in np_rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    h = 1e-5
                    original = flat[i]
                    flat[i] = original + h
                    lp, _ = loss_and_grads(weights, codes, labels)
                    flat[i] = original - h
                    lm, _ = loss_and_grads(weights, codes, labels)
                    flat[i] = original
                    numeric = (lp - lm) / (2 * h)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / denom < 1e-4, name
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_c05_hidden_layer_sizing(grammar):
    with criterion("C5 hidden layer sizes match high-precision evaluation"):
        getcontext().prec = 60
        n_terms = len(grammar.terminal_names)
        sizes = hidden_layer_sizes(100, n_terms, 3)
        inp, out = Decimal(100), Decimal(n_terms)
        for n in (1, 2, 3):
            exact = inp * (out / inp) ** (Decimal(n) / Decimal(6))
            expected = int((exact + Decimal("0.5")).to_integral_value(rounding="ROUND_FLOOR"))
            assert sizes[n - 1] == expected
        weights = init_weights(grammar.terminal_names, seed=0)
        assert list(weights.layer_dims) == [100, *sizes, n_terms]


def test_c06_training_sanity(grammar, crit_dataset, model, split):
    with criterion("C6 training converges and beats the all-ones baseline"):
        assert len(crit_dataset) >= 20000
        assert model.epoch_losses[-1] < model.epoch_losses[0]
        upticks = sum(
            1 for a, b in zip(model.epoch_losses, model.epoch_losses[1:]) if b > a
        )
        assert upticks <= 2
        _, held = split
        probs = forward(model, encode_batch([s.constraint for s in held]))
        labels = np.array([s.label for s in held], float)
        accuracy = float(((probs >= 0.5) == labels).mean())
        all_ones = float((labels == 1).mean())
        assert accuracy > all_ones
        assert _durations["train"] < 600.0, f"training took {_durations['train']:.0f}s"


def test_c07_pruning_safety(grt_records):
    with criterion("C7 reduction with fallback introduces no new failures"):
        assert len(grt_records) >= 30
        for record in grt_records:
            assert record.error is None, record
            if record.solved_full:
                assert record.solved_pruned, record.benchmark_id


def test_c08_speedup_and_crit_only_ablation(grt_records, grtc_records):
    with criterion("C8 reduced-grammar speedup and crit-only ablation ordering"):
        total_full = sum(r.t_full_s for r in grt_records)
        total_grt = sum(r.t_pruned_s for r in grt_records)
        ratio = total_grt / total_full
        total_grtc = sum(r.t_pruned_s for r in grtc_records)
        print(
            f"\n[acceptance] C8 detail: full={total_full:.2f}s grt={total_grt:.2f}s "
            f"(ratio {ratio:.3f}) grtc={total_grtc:.2f}s",
            flush=True,
        )
        assert ratio <= 0.8
        assert total_grtc > total_grt
        suite_time = _durations["grt_suite"] + _durations["grtc_suite"]
        assert suite_time < 1800.0, f"suite runs took {suite_time:.0f}s"


def test_c09_fallback_point_matches_exhaustive_cost(grammar):
    with criterion("C9 fallback switch point matches exhaustive evaluation"):
        rng = random.Random(909)
        grid = (1, 2, 5, 10, 20, 30, 60, 120, 300, 600)
        for _ in range(100):
            runs = []
            for _ in range(rng.randint(1, 10)):
                t_star = rng.choice([rng.uniform(0, 100), float("inf")])
                runs.append((t_star, rng.uniform(0, 100)))
            timeout = rng.uniform(10, 400)
            best_x, best_cost = None, None
            for x in grid:
                total = 0.0
                for t_star, t_full in runs:
                    total += t_star if t_star < x else min(x + t_full, timeout)
                if best_cost is None or total < best_cost:
                    best_cost, best_x = total, x
            assert fallback_point(runs, timeout, grid) == best_x


def test_c10_round_trips(tmp_path, grammar, model, crit_dataset, time_dataset,
                         handwritten_paths, generated_paths):
    with criterion("C10 file format round trips"):
        for path in list(handwritten_paths) + list(generated_paths):
            pf = parse_problem_file(path.read_text(encoding="utf-8"), path=str(path))
            text = print_problem(pf)
            again = parse_problem_file(text)
            assert again.problem == pf.problem
            assert print_problem(again) == text

        wpath = tmp_path / "weights.bin"
        save_weights(wpath, model)
        reloaded = load_weights(wpath, grammar.terminal_names)
        wpath2 = tmp_path / "weights2.bin"
        save_weights(wpath2, reloaded)
        assert wpath2.read_bytes() == wpath.read_bytes()

        cpath = tmp_path / "crit.jsonl"
        save_crit_dataset(cpath, crit_dataset[:500], grammar.terminal_names)
        loaded, terms = load_crit_dataset(cpath)
        cpath2 = tmp_path / "crit2.jsonl"
        save_crit_dataset(cpath2, loaded, terms)
        assert cpath2.read_bytes() == cpath.read_bytes()

        tpath = tmp_path / "time.jsonl"
        save_time_dataset(tpath, time_dataset, grammar.terminal_names)
        loaded_t, terms_t = load_time_dataset(tpath)
        tpath2 = tmp_path / "time2.jsonl"
        save_time_dataset(tpath2, loaded_t, terms_t)
        assert tpath2.read_bytes() == tpath.read_bytes()
