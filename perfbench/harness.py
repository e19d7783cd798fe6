"""Workloads, correctness checks and metrics of the grt benchmark.

One process acts as a single closed-loop client: it sends a problem, as
SyGuS text, only after the previous one has completed. Every problem goes
through two lanes, one after the other:

* ``baseline``: parse -> enumerator.solve on the full grammar -> verify -> print.
* ``grt``: parse -> pruner.vote -> pruner.decide -> pruner.run_with_fallback
  (reduced grammar until the fallback point, then the full grammar) -> verify
  -> print.

A lane's latency runs from the problem's text to its verified and printed
solution. Set-up (loading the frozen fixture, building the inputs from the
seed) is timed on its own and repeated, so work moved into set-up shows.

Times are reported at a fixed machine speed. On a machine shared with other
work the speed of identical Python code drifts by a fifth within seconds, far
more than the changes the benchmark must resolve. So after every lane the
client times a fixed reference computation that runs no grt code (a few ms),
and scales the lane's computing time by the reference's nominal time over its
measured time in the surrounding lanes. Time a lane spends in searches that
ran to their deadline is wall-clock time the user waits whatever the machine
speed, and is kept unscaled.

Every returned program is re-checked after the pass with the independent
reference interpreter in tests/oracles.py; suite solutions must also have
the manifest's size, and the terminals the grt lane removes must match the
ones earlier runs of the same code in the same checkout removed for the same
problem.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from grt.bench import BenchRecord, score
from grt.core import default_grammar, program_size, satisfies, terminals_used
from grt.datagen import draw_crit_problems, gen_crit_dataset, load_time_dataset
from grt.enumerator import solve
from grt.neural import load_weights
from grt.pruner import decide, run_with_fallback, savings, vote
from grt.sygus_format import ProblemFile, parse_problem_file, parse_solution, print_problem, print_solution
from oracles import ref_eval
from spans import NullTracer, Tracer, self_times, traced_total

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"
OUT_DIR = Path(".bench_out")
SETUP_REPEATS = 5
# Problems per many-small pass: the first this many programs the grammar
# streams, each with seed-drawn examples, in seed-drawn order. Keeping the
# programs and drawing only examples and order narrows the seed-to-seed spread
# of the fallback count, which sets most of the grt lane's time here.
MANY_SMALL_PROBLEMS = 700

# Traced runs pair lanes faster than this with an untraced run for the
# overhead figure; slower lanes' jitter would swamp a difference of
# microseconds per span.
PAIR_BELOW_S = 0.1

WORKLOADS = {
    # workload -> fallback class in fixture.json
    "suite": "suite",
    "many-small": "small",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "baseline_p50_s": "s",
    "baseline_total_s": "s",
    "grt_total_s": "s",
    "grt_speedup": "x",
    "solved_frac": "fraction",
    "baseline_solved_frac": "fraction",
    "score": "points",
    "peak_rss_mb": "MB",
}

# Modules the benchmark calls into; spans are named "<module>.<call>".
LAYERS = ("sygus_format", "pruner", "enumerator", "core", "bench")

PER_LAYER_UNITS = {
    "enumerator.solve_s": "s",
    "enumerator.solve_calls": "count",
    "enumerator.explored": "count",
    "enumerator.explored_per_s": "1/s",
    "enumerator.deadline_hits": "count",
    "enumerator.exhausted": "count",
    "pruner.vote_s": "s",
    "pruner.vote_constraints": "count",
    "pruner.decide_s": "s",
    "pruner.reduced_phase_s": "s",
    "pruner.full_phase_s": "s",
    "pruner.fallbacks": "count",
    "pruner.reduced_hit_ratio": "fraction",
    "pruner.critical_drop_ratio": "fraction",
    "sygus_format.parse_s": "s",
    "sygus_format.print_s": "s",
    "core.verify_s": "s",
    "core.verify_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_s": "s",
    "trace.overhead_pct": "%",
}


# The reference computation and its time on a 2-core x86-64 machine at rest.
REF_ITERATIONS = 5000
REF_NOMINAL_S = 0.0012
# Each lane is scaled by the references of this many lanes on either side.
REF_HALF_WINDOW = 10


@dataclass(frozen=True)
class Request:
    key: str  # stable across runs: decisions are compared by it
    text: str  # the SyGuS problem as the client sends it
    target: frozenset  # terminals of the known generating program
    solved_size: int | None  # manifest size of the baseline solution (suite only)


@dataclass
class Setup:
    weights: object
    table: object
    fallback_x: float
    timeout_s: float
    requests: list


@dataclass
class LaneResult:
    lane: str
    seconds: float
    waited: float = 0.0  # part of seconds spent in searches cut by their deadline
    scaled: float = 0.0  # seconds at the nominal machine speed
    program: object = None
    verified: bool = False
    printed: str | None = None
    removed: tuple = ()
    constraints: tuple = ()
    var_names: tuple = ()
    error: str | None = None


# --- Statistics ---------------------------------------------------------------------


def reference_slice() -> float:
    """Seconds taken by a fixed computation shaped like the enumerator's
    inner loop (tuple building, set membership, list appends).

    The reference must measure the machine, not the program, so the
    computation runs twice and only the second round is timed: the first
    refills the caches the preceding lane used, by an amount that depends on
    that lane. The cyclic garbage collector is off throughout, because a
    collection's cost grows with the objects the library keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            seen = set()
            pool = []
            for i in range(REF_ITERATIONS):
                v = (i * 2654435761 % 1000003, i & 1023)
                if v not in seen:
                    seen.add(v)
                    pool.append(v)
            took = time.perf_counter() - t0
        return took
    finally:
        if was_enabled:
            gc.enable()


def speed_factors(refs: list, half_window: int = REF_HALF_WINDOW) -> list:
    """Per position: nominal reference time over the mean measured nearby."""
    out = []
    for i in range(len(refs)):
        near = refs[max(0, i - half_window) : i + half_window + 1]
        out.append(REF_NOMINAL_S * len(near) / sum(near))
    return out


def scaled(seconds: float, waited: float, speed: float) -> float:
    """Computing time scaled to the nominal speed; deadline waits unscaled."""
    return waited + (seconds - waited) * speed


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the weights given by a Beta
    distribution centred on the p-quantile. Unlike a single order statistic
    it moves smoothly when samples trade places, which matters where the
    suite's 37 latencies have gaps near the quantile.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n == 1:
        return float(xs[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # the Beta(a, b) distribution function, integrated on a fine grid
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    grid = np.concatenate(([0.0], t, [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ xs)


def tail(values):
    """The tail latency: the highest percentile with at least ten samples above it.

    Returns (value, percentile, n), the value a Harrell-Davis estimate. With
    ten samples or fewer no percentile qualifies, so the maximum is reported
    and the percentile is 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return max(values), 100.0, n
    pct = 100.0 * (n - 10) / n
    return hd_quantile(values, pct / 100.0), pct, n


def p50(values) -> float:
    return hd_quantile(values, 0.5)


# --- Set-up -------------------------------------------------------------------------


def _known_terminals(target: str, params) -> frozenset:
    plist = " ".join(f"({name} {sort.value})" for name, sort in params)
    return terminals_used(parse_solution(f"(define-fun f ({plist}) String {target})").program)


def suite_requests(root: Path, seed: int) -> list:
    gen = root / "benchmarks" / "generated"
    manifest = json.loads((gen / "manifest.json").read_text(encoding="utf-8"))
    requests = []
    for entry in manifest:
        text = (gen / f"{entry['id']}.sl").read_text(encoding="utf-8")
        params = parse_problem_file(text).problem.grammar.input_vars
        requests.append(
            Request(entry["id"], text, _known_terminals(entry["target"], params), entry["solved_size"])
        )
    random.Random(f"perfbench-suite:{seed}").shuffle(requests)
    return requests


def many_small_requests(seed: int, k: int = MANY_SMALL_PROBLEMS) -> list:
    grammar = default_grammar()
    samples = gen_crit_dataset(grammar, n_programs=k, seed=seed)
    label_of = {s.program_id: s.label for s in samples}
    requests = []
    for pid, problem in draw_crit_problems(samples, grammar, k, seed):
        text = print_problem(ProblemFile(None, problem, "f"))
        used = frozenset(n for n, bit in zip(grammar.terminal_names, label_of[pid]) if bit)
        requests.append(Request(f"{seed}:{pid}", text, used, None))
    return requests


def set_up(workload: str, root: Path, seed: int) -> Setup:
    meta = json.loads((FIXTURE_DIR / "fixture.json").read_text(encoding="utf-8"))
    cls = meta["classes"][WORKLOADS[workload]]
    names = default_grammar().terminal_names
    weights = load_weights(FIXTURE_DIR / "weights.bin", names)
    time_samples, terms = load_time_dataset(FIXTURE_DIR / "time.jsonl")
    if tuple(terms) != names:
        raise ValueError("fixture timing set was made for another terminal order")
    requests = suite_requests(root, seed) if workload == "suite" else many_small_requests(seed)
    return Setup(weights, savings(time_samples), cls["fallback_x"], cls["timeout_s"], requests)


# --- The two lanes ------------------------------------------------------------------


def _verify(program, problem) -> bool:
    var_names = problem.grammar.var_names
    return all(satisfies(program, c, var_names) for c in problem.constraints)


def _solver(tr, out: LaneResult):
    """enumerator.solve as the lane calls it.

    It books the time of searches cut by their deadline into ``out.waited``;
    traced, it also records the span and the phase counters.
    """
    calls = []

    def observed_solve(problem):
        phase = out.lane if out.lane == "baseline" else ("reduced" if not calls else "full")
        calls.append(phase)
        t0 = time.perf_counter()
        with tr.span("enumerator.solve"):
            result = solve(problem)
        dt = time.perf_counter() - t0
        if not (result.solved or result.exhausted):
            out.waited += dt
        if not tr.enabled:
            return result
        tr.count("enumerator.solve_s", dt)
        tr.count("enumerator.solve_calls")
        if result.solved or result.exhausted:
            # calls cut by their deadline explore a machine-dependent amount
            tr.count("enumerator.explored", result.programs_explored)
            tr.count("enumerator.finished_s", dt)
        else:
            tr.count("enumerator.deadline_hits")
        if result.exhausted:
            tr.count("enumerator.exhausted")
        if phase == "reduced":
            tr.count("pruner.reduced_phase_s", dt)
            tr.count("pruner.reduced_attempts")
            tr.count("pruner.reduced_hits", int(result.solved))
        elif phase == "full":
            tr.count("pruner.full_phase_s", dt)
            tr.count("pruner.fallbacks")
        return result

    return observed_solve


def run_lane(lane: str, req: Request, st: Setup, tr) -> LaneResult:
    out = LaneResult(lane, 0.0)
    t0 = time.perf_counter()
    try:
        pf = tr.call("sygus_format.parse", parse_problem_file, req.text)
        problem = replace(pf.problem, timeout_s=st.timeout_s)
        solver = _solver(tr, out)
        if lane == "baseline":
            result = solver(problem)
        else:
            votes = tr.call("pruner.vote", vote, st.weights, problem.constraints)
            tr.count("pruner.vote_constraints", len(problem.constraints))
            decision = tr.call("pruner.decide", decide, problem.grammar, st.table, votes)
            out.removed = decision.removed
            result = tr.call(
                "pruner.run_with_fallback", run_with_fallback, problem, decision.reduced, st.fallback_x, solver
            )
        if result.solved:
            out.program = result.program
            out.verified = tr.call("core.verify", _verify, result.program, problem)
            tr.count("core.verify_calls")
            if out.verified:
                out.printed = tr.call(
                    "sygus_format.print", print_solution, result.program, pf.fn_name, problem.grammar.input_vars
                )
        out.constraints = problem.constraints
        out.var_names = problem.grammar.var_names
    except Exception:  # one failed request must not end the run; it is counted
        out.error = traceback.format_exc()
    out.seconds = time.perf_counter() - t0
    return out


# --- Checks -------------------------------------------------------------------------


def check(req: Request, res: LaneResult) -> str | None:
    """Why the lane's outcome is wrong, or None when it is right."""
    if res.error:
        return "exception: " + res.error.strip().splitlines()[-1]
    if res.program is not None:
        if not res.verified:
            return "returned program fails the constraints"
        for c in res.constraints:
            if ref_eval(res.program, dict(zip(res.var_names, c.inputs))) != c.output:
                return f"reference interpreter disagrees on {c.inputs!r}"
        if res.printed is None:
            return "verified program was not printed"
    if res.lane == "baseline" and req.solved_size is not None:
        size = None if res.program is None else program_size(res.program)
        if size != req.solved_size:
            return f"solution size {size}, manifest says {req.solved_size}"
    return None


def decision_digest(root: Path) -> str:
    """Short hash of what the grt lane's decisions depend on: the library's
    source files and the fixture. Decisions are compared only between runs
    with the same digest, so a change to the library starts a fresh record."""
    h = hashlib.sha256()
    src = root / "src" / "grt"
    files = sorted(src.rglob("*.py")) + [FIXTURE_DIR / n for n in ("fixture.json", "weights.bin", "time.jsonl")]
    for path in files:
        name = path.relative_to(src).as_posix() if path.is_relative_to(src) else path.name
        h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_decisions(workload: str, decided: list, digest: str) -> list:
    """Compare removed-terminal sets with each other and with earlier runs here.

    ``decided`` holds (request key, removed terminals) for every grt lane run.
    Runs in the same checkout record what they removed in OUT_DIR under the
    ``digest`` of the code and fixture (see decision_digest), so a decision
    that changes between runs of the same code is caught, and a decision that
    changes with the code is not.
    """
    path = OUT_DIR / f"decisions-{workload}-{digest}.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    fresh = {}
    problems = []
    for key, removed in decided:
        removed = list(removed)
        first = known.get(key, fresh.get(key))
        if first is None:
            fresh[key] = removed
        elif first != removed:
            problems.append(f"{key}: removed {removed}, an earlier run removed {first}")
    if fresh and not problems:
        known.update(fresh)
        OUT_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    return problems


# --- Runs ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    rows: list  # (request, baseline LaneResult, grt LaneResult)


def run_pass(st: Setup) -> Pass:
    """One untraced pass, each lane run followed by a reference slice."""
    off = NullTracer()
    rows = []
    refs = []
    ref_total = 0.0
    t0 = time.perf_counter()
    for req in st.requests:
        lanes = []
        for lane in ("baseline", "grt"):
            lanes.append(run_lane(lane, req, st, off))
            t_ref = time.perf_counter()
            refs.append(reference_slice())
            ref_total += time.perf_counter() - t_ref
        rows.append((req, *lanes))
    wall = time.perf_counter() - t0 - ref_total
    results = [res for _, base, grt in rows for res in (base, grt)]
    for res, speed in zip(results, speed_factors(refs)):
        res.scaled = scaled(res.seconds, res.waited, speed)
    # the pass as the client saw it: the lanes plus the loop between them
    between = wall - sum(res.seconds for res in results)
    mean_speed = len(refs) * REF_NOMINAL_S / sum(refs)
    return Pass(sum(res.scaled for res in results) + between * mean_speed, rows)


def _records(rows) -> list:
    def entry(res):
        size = program_size(res.program) if res.verified else None
        return res.verified, res.scaled, size

    out = []
    for req, base, grt in rows:
        ok_f, t_f, size_f = entry(base)
        ok_p, t_p, size_p = entry(grt)
        out.append(BenchRecord(req.key, "grt", ok_f, t_f, size_f, ok_p, t_p, size_p, grt.removed))
    return out


def end_to_end(passes: list, setup_times: list) -> dict:
    rows = [row for p in passes for row in p.rows]
    grt = [g.scaled for _, _, g in rows]
    base = [b.scaled for _, b, _ in rows]
    base_total = statistics.median(sum(b.scaled for _, b, _ in p.rows) for p in passes)
    grt_total = statistics.median(sum(g.scaled for _, _, g in p.rows) for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "solve_p50_s": p50(grt),
        "solve_tail_s": tail(grt)[0],
        "baseline_p50_s": p50(base),
        "baseline_total_s": base_total,
        "grt_total_s": grt_total,
        "grt_speedup": base_total / grt_total,
        "solved_frac": sum(g.verified for _, _, g in rows) / len(rows),
        "baseline_solved_frac": sum(b.verified for _, b, _ in rows) / len(rows),
        "score": statistics.median(score(_records(p.rows)).total for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(st: Setup) -> tuple:
    """Each lane of each request once, traced; then the overhead pairs.

    Lanes faster than PAIR_BELOW_S then run once more untraced and once more
    traced, alternating which goes first, under a second tracer whose spans
    are dropped; their summed latencies (untraced, traced) give the overhead
    figure.

    Returns the traced rows, every (request, result) to check, the tracer and
    the overhead sums.
    """
    tr = Tracer()
    rows = []
    for req in st.requests:
        lanes = []
        for lane in ("baseline", "grt"):
            tr.request = f"{lane}:{req.key}"
            res = run_lane(lane, req, st, tr)
            res.scaled = res.seconds  # traced runs are not scaled
            lanes.append(res)
        rows.append((req, *lanes))
    with tr.span("bench.score"):
        score(_records(rows))

    results = [(req, res) for req, base, grt in rows for res in (base, grt)]
    pairing = (NullTracer(), Tracer())
    sums = [0.0, 0.0]
    for i, (req, first) in enumerate(list(results)):
        if first.seconds >= PAIR_BELOW_S:
            continue
        for t in pairing if i % 2 == 0 else pairing[::-1]:
            res = run_lane(first.lane, req, st, t)
            sums[t.enabled] += res.seconds
            results.append((req, res))
    return rows, results, tr, sums


def per_layer(rows, tr: Tracer, sums) -> dict:
    c = tr.counters
    spans = tr.spans
    total_of = {}
    for s in spans:
        total_of[s.name] = total_of.get(s.name, 0.0) + s.duration
    own = self_times(spans)
    lane_s = sum(b.seconds + g.seconds for _, b, g in rows)
    grt_rows = [(req, g) for req, _, g in rows]
    dropped = sum(bool(set(g.removed) & req.target) for req, g in grt_rows)
    return {
        "enumerator.solve_s": c["enumerator.solve_s"],
        "enumerator.solve_calls": c["enumerator.solve_calls"],
        "enumerator.explored": c["enumerator.explored"],
        "enumerator.explored_per_s": c["enumerator.explored"] / c["enumerator.finished_s"],
        "enumerator.deadline_hits": c["enumerator.deadline_hits"],
        "enumerator.exhausted": c["enumerator.exhausted"],
        "pruner.vote_s": total_of.get("pruner.vote", 0.0),
        "pruner.vote_constraints": c["pruner.vote_constraints"],
        "pruner.decide_s": total_of.get("pruner.decide", 0.0),
        "pruner.reduced_phase_s": c["pruner.reduced_phase_s"],
        "pruner.full_phase_s": c["pruner.full_phase_s"],
        "pruner.fallbacks": c["pruner.fallbacks"],
        "pruner.reduced_hit_ratio": c["pruner.reduced_hits"] / c["pruner.reduced_attempts"],
        "pruner.critical_drop_ratio": dropped / len(grt_rows),
        "sygus_format.parse_s": total_of.get("sygus_format.parse", 0.0),
        "sygus_format.print_s": total_of.get("sygus_format.print", 0.0),
        "core.verify_s": total_of.get("core.verify", 0.0),
        "core.verify_calls": c["core.verify_calls"],
        **{f"{layer}.self_s": sum(v for k, v in own.items() if k.startswith(layer + ".")) for layer in LAYERS},
        "trace.untraced_s": lane_s - traced_total([s for s in spans if s.name != "bench.score"]),
        "trace.overhead_pct": 100.0 * (sums[1] - sums[0]) / sums[0],
    }


# Functions that return a BLAS library's thread count, by vendor.
BLAS_THREAD_QUERIES = {
    "openblas": ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads"),
    "mkl": ("MKL_Get_Max_Threads", "mkl_get_max_threads"),
    "blis": ("bli_thread_get_num_threads",),
}


def blas_vendor() -> str:
    """The BLAS numpy was built against, as numpy's build configuration names it."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict form
        return "unknown"


def blas_threads() -> int | None:
    """The thread count the loaded BLAS library reports, or None if no BLAS
    library with a known query function is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        name = Path(path).name.lower()
        for vendor, symbols in BLAS_THREAD_QUERIES.items():
            if vendor not in name:
                continue
            lib = ctypes.CDLL(path)
            for symbol in symbols:
                query = getattr(lib, symbol, None)
                if query is not None:
                    return int(query())
    return None


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS runs {threads} threads on {nproc} processors")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_threads": threads if threads is not None else "unknown",
        "machine": platform.machine(),
        "client": "closed loop, one client",
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> int:
    setup_times = []
    st = None
    for _ in range(SETUP_REPEATS):
        before = reference_slice()
        t0 = time.perf_counter()
        again = set_up(workload, root, seed)
        took = time.perf_counter() - t0
        setup_times.append(scaled(took, 0.0, 2 * REF_NOMINAL_S / (before + reference_slice())))
        if st is not None and again.requests != st.requests:
            raise RuntimeError("set-up built different inputs from the same seed")
        st = again
    print(json.dumps({"environment": environment(), "workload": workload, "seed": seed,
                      "requests": len(st.requests), "fallback_x": st.fallback_x,
                      "timeout_s": st.timeout_s}))

    if traced:
        rows, results, tr, sums = traced_pass(st)
        OUT_DIR.mkdir(exist_ok=True)
        tr.dump(OUT_DIR / f"spans-{workload}-{seed}.json")
        values, units = per_layer(rows, tr, sums), PER_LAYER_UNITS
    else:
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(st))
            now = time.perf_counter()
            # start another pass only if it is expected to end in time
            if now + (now - t0) - start > seconds:
                break
        rows = [row for p in passes for row in p.rows]
        values, units = end_to_end(passes, setup_times), END_TO_END_UNITS
        results = [(req, res) for req, base, grt in rows for res in (base, grt)]
        grt_lat = [g.seconds for _, _, g in rows]
        _, pct, n = tail(grt_lat)
        print(f"solve_tail_s is the p{pct:.1f} of {n} grt-lane latencies, baseline_p50_s and "
              f"solve_p50_s the p50 of {n} (Harrell-Davis estimates)")
        print("unscaled: baseline_total_s {:.4f} grt_total_s {:.4f}".format(
            sum(b.seconds for _, b, _ in rows) / len(passes),
            sum(g.seconds for _, _, g in rows) / len(passes)))

    failures = []
    for req, res in results:
        why = check(req, res)
        if why:
            failures.append(f"{res.lane} {req.key}: {why}")
    decided = [(req.key, res.removed) for req, res in results if res.lane == "grt" and res.error is None]
    failures += check_decisions(workload, decided, decision_digest(root))
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    n_lanes = len(results)
    print(f"fail_frac {len(failures)}/{n_lanes}")
    print(json.dumps({
        "correct": not failures,
        "attempted": n_lanes,
        "failed": len(failures),
        "metrics": _metrics(values, units),
    }))
    return 0 if not failures else 1
