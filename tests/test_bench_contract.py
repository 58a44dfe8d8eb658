"""The benchmark's correctness check, run in-process on the tiny workloads.

perfbench refuses a run whose outputs fail the workload's referee or
differ between passes; these tests hold the library to the same contract
on every test run.  perfbench/ is only read: its modules are imported
without writing bytecode next to them.
"""

import sys

import pytest

import costate.solver
from costate import SolverConfig, random_smooth_problem


@pytest.fixture(scope="module")
def bench():
    old = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from perfbench import speed, tracing, workloads
    finally:
        sys.dont_write_bytecode = old
    return workloads, tracing.Untraced(), speed.NoClock()


@pytest.mark.parametrize("name", ["MpcCircle", "LongHorizon"])
def test_tiny_workload_passes_its_check_twice(bench, name):
    workloads, untraced, clock = bench
    wl = getattr(workloads, name)(0, tiny=True)
    passes = [wl.run_pass(untraced, clock) for _ in range(2)]
    first = passes[0]
    assert wl.check(first.outputs) == []
    assert [res.failed for res in passes] == [0, 0]
    assert first.attempted > 0 and first.fingerprint
    assert passes[1].fingerprint == first.fingerprint


def test_tracer_counts_escalations_by_cause(bench):
    # The traced solver.escalations.* metrics parse the solver's log; this
    # problem escalates on both causes, 5 failed factorizations and 1
    # increased trial cost, and converges in 10 outer iterations.
    from perfbench import tracing  # already imported by bench, no bytecode

    prob, x0, z0 = random_smooth_problem(2, 3, 2, 30)
    tracer = tracing.Tracer()
    with tracer.installed():
        rep = costate.solver.minimize(prob, 5 * x0, 5 * z0, SolverConfig())
    assert rep.outer_iters == 10
    assert dict(tracer.escalations) == {"factor_fail": 5, "cost_increase": 1}
    tried = sum(span[0] == "solver.step_direction" for span in tracer.spans)
    assert tried == rep.outer_iters + 6
