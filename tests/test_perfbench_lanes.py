"""The benchmark in perfbench/ is frozen; these tests run its two lanes on a
few requests of each workload so a library API change that would break it
fails here first. Nothing is written."""

import ast
import hashlib
import importlib
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from grt.core import program_size
from grt.enumerator import solve
from grt.pruner import Synthesizer, decide, run_with_fallback, vote
from grt.sygus_format import parse_problem_file, program_to_text

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload, n_requests", [("many-small", 40), ("suite", 5)])
def test_both_lanes_pass_their_checks(workload, n_requests):
    st = harness.set_up(workload, ROOT, 1)
    tracer = spans.NullTracer()
    for req in st.requests[:n_requests]:
        for lane in ("baseline", "grt"):
            res = harness.run_lane(lane, req, st, tracer)
            assert harness.check(req, res) is None, (workload, req.key, lane)


# Per seed, the sha256 of the many-small requests as JSON, one
# [key, text, sorted target terminals] list per request in request order.
MANY_SMALL_REQUESTS = {
    1: "ea3c31b04621f6f5bad3c44af966fb39c42955d0f7115e55f44e3b8e9dad60c9",
    2: "3861576f9291a2bf563a52b7be4ca843343b753ebed9892c809a97a459bb4915",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_many_small_requests_are_pinned(seed):
    # The workload is built by datagen (stream, input draws, evaluation,
    # labels, the draw and the printer); a change there that alters one
    # request text or target set fails here, not only in the benchmark.
    requests = harness.many_small_requests(seed)
    rows = [[req.key, req.text, sorted(req.target)] for req in requests]
    assert len(rows) == harness.MANY_SMALL_PROBLEMS
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == MANY_SMALL_REQUESTS[seed]


# Per seed, the full-grammar searches' total explored count and the sha256 of
# their 700 programs' texts, one a line in request order.
MANY_SMALL_BASELINE = {
    1: (187_367, "e23db59b43a2cd31a332c8b3d8d0b32d400ee83e1ca1a14e4a515484dc0fbb44"),
    2: (184_348, "caf8e5f35abe15b8358da3819989a73525dd69dab37e4f86a9c1ff4f290b99d4"),
}

# The sha256 of the grt lane's removed-terminal sets, one a line (names joined
# by ","), for the 700 many-small requests of each seed in request order and
# for the 37 suite requests in key order.
MANY_SMALL_REMOVED = {
    1: "d4c8324ab3b3e0c7f8951df12b7eb376bb75b4c6bed8c00575b9745acc5d999c",
    2: "a118444336ae2b2e5be1bf40f665468de2713e6b39b1cb2d5375be16e65e29c7",
}
SUITE_REMOVED = "c55e0fc99cf33ef1a8260464b9b9afaf47e34d05e141fca257ad4e1ccd14a972"


def removed_digest(removed_sets) -> str:
    return hashlib.sha256("\n".join(map(",".join, removed_sets)).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_decisions_are_pinned(seed):
    st = harness.set_up("suite", ROOT, seed)
    removed = []
    for req in sorted(st.requests, key=lambda r: r.key):
        problem = parse_problem_file(req.text).problem
        removed.append(decide(problem.grammar, st.table, vote(st.weights, problem.constraints)).removed)
    assert removed_digest(removed) == SUITE_REMOVED


# The grt lane's counted work over the 37 suite requests of seed 1: the
# full-grammar probes, and the reduced-grammar searches after the probes that
# fail (the 9 large extractions).
SUITE_GRT_WORK = {"probe": 37_388, "reduced": 25_510}


def grt_answer(problem, st, through_library):
    """The grt lane's (result, removed set, phase calls, phase results) for
    one request: vote -> decide -> run_with_fallback called directly, as the
    harness calls them, or through the library's ``Synthesizer``. A phase
    call is the searched grammar, its time budget and its work budget."""
    calls, phases = [], []

    def recording(phase_problem):
        calls.append((phase_problem.grammar, phase_problem.timeout_s, phase_problem.max_explored))
        phases.append(solve(phase_problem))
        return phases[-1]

    if through_library:
        synth = Synthesizer("grt", st.timeout_s, st.fallback_x, st.weights, st.table, recording)
        decision = synth.decide(problem)
        result = synth.solve(problem, decision)
    else:
        decision = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        result = run_with_fallback(problem, decision.reduced, st.fallback_x, recording)
    return result, decision.removed, calls, phases


def assert_library_gives_the_lane_answer(problem, st, key):
    """The Synthesizer makes the harness lane's phase calls and returns its
    program, explored count and removed set; the lane's result and phase
    results are returned."""
    result, removed, calls, phases = grt_answer(problem, st, through_library=False)
    again, removed_again, calls_again, _ = grt_answer(problem, st, through_library=True)
    assert (calls_again, removed_again) == (calls, removed), key
    assert (again.program, again.programs_explored) == (result.program, result.programs_explored), key
    return result, phases


def test_suite_grt_answers_have_the_baseline_sizes():
    # Every suite request through parse, vote, decide and the fallback
    # schedule with the frozen fixture: the grt lane's answer has the
    # manifest's minimal size, no request needs the last full-grammar phase,
    # and the work of the probes and of the reduced phases is pinned. The
    # library's Synthesizer gives each request the same answer.
    st = harness.set_up("suite", ROOT, 1)
    work = dict.fromkeys(SUITE_GRT_WORK, 0)
    for req in st.requests:
        problem = replace(parse_problem_file(req.text).problem, timeout_s=st.timeout_s)
        result, phases = assert_library_gives_the_lane_answer(problem, st, req.key)
        assert result.solved and program_size(result.program) == req.solved_size, req.key
        assert len(phases) <= 2, req.key
        for phase, searched in zip(SUITE_GRT_WORK, phases):
            work[phase] += searched.programs_explored
    assert work == SUITE_GRT_WORK


def test_many_small_library_answers_are_the_lane_answers():
    st = harness.set_up("many-small", ROOT, 1)
    for req in st.requests[:200]:
        problem = replace(parse_problem_file(req.text).problem, timeout_s=st.timeout_s)
        assert_library_gives_the_lane_answer(problem, st, req.key)


@pytest.mark.parametrize("seed", [1, 2])
def test_many_small_decisions_are_stable(seed):
    # All 700 many-small problems of the seed, solved through the library
    # with the frozen fixture: both lanes solve every one, the grt lane's
    # answer has the size of the baseline's minimal one, and a second
    # vote and decision remove the same terminals. The baseline's programs
    # and counted work are pinned, so a change to the order in which the
    # enumerator makes candidates, or to which it keeps, fails here; so are
    # the removed-terminal sets, so a change to the model's arithmetic that
    # flips a vote fails here too.
    st = harness.set_up("many-small", ROOT, seed)
    explored, texts, removed = 0, [], []
    for req in st.requests:
        problem = replace(parse_problem_file(req.text).problem, timeout_s=st.timeout_s)
        baseline = solve(problem)
        decision = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        grt = run_with_fallback(problem, decision.reduced, st.fallback_x, solve)
        assert baseline.solved and grt.solved, req.key
        assert program_size(grt.program) == program_size(baseline.program), req.key
        again = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        assert again.removed == decision.removed, req.key
        explored += baseline.programs_explored
        texts.append(program_to_text(baseline.program))
        removed.append(decision.removed)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (explored, digest) == MANY_SMALL_BASELINE[seed]
    assert removed_digest(removed) == MANY_SMALL_REMOVED[seed]


def test_the_fixture_maker_calls_the_library_as_it_stands():
    # make_fixture.py regenerates the frozen fixture and no test runs it, so
    # read it without importing it: every name it imports from grt must
    # exist, and every call of an imported function must bind to that
    # function's signature, by its number of positional arguments and its
    # keyword names.
    tree = ast.parse((ROOT / "perfbench" / "make_fixture.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "grt":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    checked = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and callable(imported.get(node.func.id)):
            assert not any(isinstance(arg, ast.Starred) for arg in node.args), ast.unparse(node)
            assert all(kw.arg for kw in node.keywords), ast.unparse(node)
            try:
                inspect.signature(imported[node.func.id]).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            except TypeError as exc:
                pytest.fail(f"line {node.lineno}: {ast.unparse(node)}: {exc}")
            checked.add(node.func.id)
    assert {"gen_time_dataset", "fallback_point", "gen_crit_dataset", "train", "decide", "vote"} <= checked
