"""The benchmark's correctness check, run in-process on the tiny workloads.

perfbench refuses a run whose outputs fail the workload's referee or
differ between passes; these tests hold the library to the same contract
on every test run.  perfbench/ is only read: its modules are imported
without writing bytecode next to them.
"""

import sys

import pytest

import numpy as np

import costate.mpc
import costate.solver
from costate import (MpcConfig, SolverConfig, UnicycleSpec, WarmStart,
                     build_unicycle_plant, build_unicycle_tracking,
                     random_smooth_problem, run_mpc)


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
    # problem escalates on both causes, 2 failed factorizations and 1
    # increased trial cost, and converges in 9 outer iterations.
    from perfbench import tracing  # already imported by bench, no bytecode

    prob, x0, z0 = random_smooth_problem(2, 3, 2, 30)
    tracer = tracing.Tracer()
    with tracer.installed():
        rep = costate.solver.minimize(prob, 5 * x0, 5 * z0, SolverConfig())
    assert rep.outer_iters == 9
    assert dict(tracer.escalations) == {"factor_fail": 2, "cost_increase": 1}
    tried = sum(span[0] == "solver.step_direction" for span in tracer.spans)
    assert tried == rep.outer_iters + 3


@pytest.mark.parametrize("warm_start, tried", [(WarmStart.ZERO, 41),
                                               (WarmStart.SHIFT, 39)])
def test_traced_closed_loop_keeps_its_bytes(bench, monkeypatch, warm_start,
                                            tried):
    # The tracer swaps costate.mpc.minimize for a wrapper; run_mpc's shared
    # workspace reaches minimize through it as a keyword.  The traced run
    # must build one workspace, give the untraced bytes and make the
    # parent's 41 / 39 step_direction calls (one escalation each).
    from perfbench import tracing  # already imported by bench, no bytecode

    built = []

    class Counting(costate.solver.StagewiseFactor):
        def __init__(self, *dims):
            built.append(dims)
            super().__init__(*dims)

    monkeypatch.setattr(costate.mpc, "StagewiseFactor", Counting)
    spec = UnicycleSpec(N=12)
    plant = build_unicycle_plant(spec)
    cfg = MpcConfig(horizon=10, total_steps=12, warm_start=warm_start)

    def factory(state, step):
        return build_unicycle_tracking(spec, step, state)

    def trace_bytes(trace):
        parts = [trace.applied_states]
        for rep in trace.per_step_reports:
            parts += [rep.z_final, rep.grad_norm_history, rep.cost_history]
        return [np.asarray(a).tobytes() for a in parts]

    untraced = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    assert built == [(10, 3, 2), (10, 3, 2)]
    assert trace_bytes(traced) == trace_bytes(untraced)
    names = [span[0] for span in tracer.spans]
    assert names.count("solver.minimize") == 12
    assert names.count("solver.step_direction") == tried
    assert dict(tracer.escalations) == {"cost_increase": 1}
