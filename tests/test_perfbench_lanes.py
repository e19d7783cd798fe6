"""The benchmark in perfbench/ is frozen; these tests run its two lanes on a
few requests of each workload so a library API change that would break it
fails here first. Nothing is written."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from grt.core import program_size
from grt.enumerator import solve
from grt.pruner import decide, run_with_fallback, vote
from grt.sygus_format import parse_problem_file

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


@pytest.mark.parametrize("seed", [1, 2])
def test_many_small_decisions_are_stable(seed):
    # All 700 many-small problems of the seed, solved through the library
    # with the frozen fixture: both lanes solve every one, the grt lane's
    # answer is never smaller than the baseline's minimal one, and a second
    # vote and decision remove the same terminals.
    st = harness.set_up("many-small", ROOT, seed)
    for req in st.requests:
        problem = replace(parse_problem_file(req.text).problem, timeout_s=st.timeout_s)
        baseline = solve(problem)
        decision = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        grt = run_with_fallback(problem, decision.reduced, st.fallback_x, solve)
        assert baseline.solved and grt.solved, req.key
        assert program_size(grt.program) >= program_size(baseline.program), req.key
        again = decide(problem.grammar, st.table, vote(st.weights, problem.constraints))
        assert again.removed == decision.removed, req.key
