"""Online simulations are bit-identical under every kernel backend.

Plan install, re-planning and the reactive policy's re-predictions all
propagate through ``TimedKernel.propagate_kahn``, which runs compiled
under ``cext`` and as the Python loop otherwise; construction runs on
the backend's state class.  Identical floats at every step mean
identical decisions, so a seeded simulation must return the same
aggregates, placements, transfers and event log on each backend.
"""

import pytest

from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.online import check_execution, make_workload, simulate_online

POLICIES = [
    "reactive:threshold=0.05",
    "reactive:threshold=0.2",
    "periodic:period=300",
    "static",
]

ACCEL = [
    pytest.param("cext", marks=pytest.mark.skipif(
        not cext_available(), reason="cext extension not built")),
]


@pytest.fixture(scope="module")
def workload():
    return make_workload("lu", 10, count=6, arrival="poisson:rate=0.004", seed=1)


def run(backend, workload, platform, policy):
    with use_backend(backend):
        result = simulate_online(workload, platform, policy=policy,
                                 noise="lognormal:sigma=0.3", seed=5)
    check_execution(result)
    return result


@pytest.mark.parametrize("backend", ACCEL)
@pytest.mark.parametrize("policy", POLICIES)
def test_simulation_identical_to_python(backend, policy, workload, paper_platform):
    ref = run("python", workload, paper_platform, policy)
    got = run(backend, workload, paper_platform, policy)
    assert got.aggregate() == ref.aggregate()
    assert got.jobs == ref.jobs
    assert got.placements == ref.placements
    assert got.transfers == ref.transfers
    assert got.event_log == ref.event_log
    if policy.startswith("reactive"):
        assert ref.aggregate()["reschedules"] > 0, "expected the policy to re-plan"
