"""The benchmark in perfbench/ is frozen; these tests run its two lanes on a
few requests of each workload so a library API change that would break it
fails here first. Nothing is written."""

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from grt.core import program_size
from grt.enumerator import solve
from grt.pruner import decide, run_with_fallback, vote
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


def test_suite_grt_answers_have_the_baseline_sizes():
    # Every suite request through parse, vote, decide and the fallback
    # schedule with the frozen fixture: the grt lane's answer has the
    # manifest's minimal size, no request needs the last full-grammar phase,
    # and the work of the probes and of the reduced phases is pinned.
    st = harness.set_up("suite", ROOT, 1)
    work = dict.fromkeys(SUITE_GRT_WORK, 0)
    for req in st.requests:
        problem = replace(parse_problem_file(req.text).problem, timeout_s=st.timeout_s)
        decision = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        phases = []

        def recording(phase_problem):
            phases.append(solve(phase_problem))
            return phases[-1]

        result = run_with_fallback(problem, decision.reduced, st.fallback_x, recording)
        assert result.solved and program_size(result.program) == req.solved_size, req.key
        assert len(phases) <= 2, req.key
        for phase, searched in zip(SUITE_GRT_WORK, phases):
            work[phase] += searched.programs_explored
    assert work == SUITE_GRT_WORK


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
