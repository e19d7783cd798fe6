#!/usr/bin/env python3
"""End-to-end experiment: data generation, training, reduction, benchmarks.

Steps: stream the training programs and fabricate the labeled criticality set;
train the predictor; measure per-terminal timing deltas over the handwritten
problems plus drawn training problems; compute the fallback switch point; run
the generated suite in baseline, grt, and grtc modes; write datasets, weights,
results, and a comparison report into the artifacts directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from grt.bench import BenchConfig, report, run_suite, save_records, score
from grt.core import default_grammar
from grt.datagen import (
    draw_crit_problems,
    gen_crit_dataset,
    gen_time_dataset,
    save_crit_dataset,
    save_time_dataset,
)
from grt.enumerator import solve
from grt.neural import TrainConfig, encode_batch, forward, save_weights, train
from grt.pruner import fallback_point, fallback_runs, savings
from grt.sygus_format import parse_problem_file

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(f"[pipeline] {msg}", file=sys.stderr, flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=ROOT / "artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-programs", type=int, default=4000)
    parser.add_argument("--inputs-per-program", type=int, default=5)
    parser.add_argument("--budget", type=float, default=1.5)
    parser.add_argument("--timing-repeats", type=int, default=3)
    parser.add_argument("--bench-timeout", type=float, default=30.0)
    parser.add_argument("--bench-repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="small, fast settings for a smoke run")
    args = parser.parse_args()
    if args.quick:
        args.n_programs = 400
        args.inputs_per_program = 2
        args.timing_repeats = 1
        args.bench_repeats = 1

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    grammar = default_grammar()
    terms = grammar.terminal_names

    t0 = time.monotonic()
    samples = gen_crit_dataset(grammar, args.n_programs, args.inputs_per_program, args.seed)
    save_crit_dataset(out / "crit.jsonl", samples, terms)
    log(f"criticality set: {len(samples)} samples ({time.monotonic()-t0:.1f}s)")

    holdout = max(1, len(samples) // 10)
    train_set, held = samples[:-holdout], samples[-holdout:]
    t0 = time.monotonic()
    weights = train(train_set, TrainConfig(seed=args.seed), terms)
    save_weights(out / "weights.bin", weights)
    probs = forward(weights, encode_batch([s.constraint for s in held]))
    labels = np.array([s.label for s in held], float)
    acc = float(((probs >= 0.5) == labels).mean())
    log(
        f"model: loss {weights.epoch_losses[0]:.4f} -> {weights.epoch_losses[-1]:.4f}, "
        f"held-out accuracy {acc:.4f} vs all-ones {labels.mean():.4f} "
        f"({time.monotonic()-t0:.1f}s)"
    )

    hand_paths = sorted((ROOT / "benchmarks" / "handwritten").glob("*.sl"))
    timing_problems = [
        (p.stem, parse_problem_file(p.read_text(encoding="utf-8"), path=str(p)).problem)
        for p in hand_paths
    ]
    timing_problems += draw_crit_problems(samples, grammar, 20, args.seed)
    t0 = time.monotonic()
    time_samples = gen_time_dataset(
        [p for _, p in timing_problems],
        solve,
        budget_s=args.budget,
        ids=[pid for pid, _ in timing_problems],
        repeats=args.timing_repeats,
    )
    save_time_dataset(out / "time.jsonl", time_samples, terms)
    table = savings(time_samples)
    log(f"timing set: {len(time_samples)} rows ({time.monotonic()-t0:.1f}s)")
    log("top savers: " + ", ".join(f"{g}={a:+.3f}" for g, a in table.positive()[:3]))

    runs = fallback_runs(timing_problems, weights, table, time_samples, solve)
    x = fallback_point(runs, timeout_s=args.bench_timeout)
    log(f"fallback switch point: {x}s")

    suite = [
        parse_problem_file(p.read_text(encoding="utf-8"), path=str(p))
        for p in sorted((ROOT / "benchmarks" / "generated").glob("*.sl"))
    ]
    config = BenchConfig(
        timeout_s=args.bench_timeout, fallback_x=x, repeats=args.bench_repeats
    )
    summary = {"fallback_x": x, "held_out_accuracy": acc, "modes": {}}
    baseline = None
    for mode in ("baseline", "grt", "grtc"):
        t0 = time.monotonic()
        records = run_suite(suite, mode, config, weights, table, baseline=baseline)
        if mode == "baseline":
            baseline = records
        save_records(out / f"results-{mode}.jsonl", records)
        mode_score = score(records)
        (out / f"report-{mode}.txt").write_text(report(records, mode_score), encoding="utf-8")
        lane = [r.t_pruned_s if mode != "baseline" else r.t_full_s for r in records]
        total = sum(t for t in lane if t is not None)
        summary["modes"][mode] = {
            "total_s": round(total, 2),
            "score": {"solved": mode_score.n_solved, "speed": mode_score.speed,
                      "size": mode_score.size, "total": mode_score.total},
        }
        log(f"{mode}: lane total {total:.2f}s, score {mode_score.total} "
            f"({time.monotonic()-t0:.1f}s)")

    base = summary["modes"]["baseline"]["total_s"]
    for mode in ("grt", "grtc"):
        total = summary["modes"][mode]["total_s"]
        summary["modes"][mode]["reduction_pct"] = round((1 - total / base) * 100, 2)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    log(f"summary: {json.dumps(summary['modes'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
