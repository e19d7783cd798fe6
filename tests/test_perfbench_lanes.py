"""The benchmark in perfbench/ is frozen; these tests run its two lanes on a
few requests of each workload so a library API change that would break it
fails here first. Nothing is written."""

import sys
from pathlib import Path

import pytest

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
