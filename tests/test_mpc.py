"""Receding-horizon driver: degeneracies, replay, warm starts, failures."""

import dataclasses
import re

import numpy as np
import pytest

import costate.mpc
import costate.solver
from costate import (DimensionMismatchError, Dims, LqrSpec, MpcConfig,
                     NumericalBlowupError, ProblemDef, SolverConfig,
                     Termination, UnicycleSpec, WarmStart, build_lqr,
                     build_unicycle_plant, build_unicycle_tracking, minimize,
                     run_mpc)


def _unicycle_setup(total_steps, horizon=10):
    spec = UnicycleSpec(N=total_steps, N_p=horizon)
    plant = build_unicycle_plant(spec)

    def factory(state, step):
        return build_unicycle_tracking(spec, step, state)

    return spec, plant, factory


def test_full_horizon_single_step_degenerates_to_open_loop():
    spec, plant, factory = _unicycle_setup(total_steps=6, horizon=6)
    x0 = np.asarray(spec.X0)
    cfg = MpcConfig(horizon=6, total_steps=1, solver=SolverConfig(r_reg=0.1))
    trace = run_mpc(plant, factory, x0, cfg)
    direct = minimize(factory(x0, 0), x0, np.zeros(factory(x0, 0).dims.z_len),
                      cfg.solver)
    assert np.array_equal(trace.applied_controls[0], direct.z_final[:2])


def test_plant_replay_is_exact():
    spec, plant, factory = _unicycle_setup(total_steps=25)
    cfg = MpcConfig(horizon=10, total_steps=25)
    trace = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    assert trace.failed_step is None
    assert trace.applied_states.shape == (26, 3)
    for k in range(25):
        nxt = plant.dynamics(trace.applied_states[k],
                             trace.applied_controls[k], k)
        assert np.array_equal(trace.applied_states[k + 1], np.asarray(nxt))


def test_converged_steps_meet_the_tolerance():
    spec, plant, factory = _unicycle_setup(total_steps=20)
    cfg = MpcConfig(horizon=10, total_steps=20)
    trace = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    for report in trace.per_step_reports:
        assert report.termination is Termination.CONVERGED
        assert report.grad_norm_history[-1] < cfg.solver.grad_tol


def test_recorded_state_reproduces_recorded_control():
    spec, plant, factory = _unicycle_setup(total_steps=15)
    cfg = MpcConfig(horizon=10, total_steps=15)
    trace = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    k = 7
    state = trace.applied_states[k]
    prob = factory(state, k)
    redo = minimize(prob, state, np.zeros(prob.dims.z_len), cfg.solver)
    assert np.array_equal(redo.z_final[:2], trace.applied_controls[k])


def test_shift_warm_start_converges_and_usually_saves_iterations():
    spec, plant, factory = _unicycle_setup(total_steps=60)
    x0 = np.asarray(spec.X0)
    zero = run_mpc(plant, factory, x0,
                   MpcConfig(horizon=10, total_steps=60,
                             warm_start=WarmStart.ZERO))
    shift = run_mpc(plant, factory, x0,
                    MpcConfig(horizon=10, total_steps=60,
                              warm_start=WarmStart.SHIFT))
    assert zero.failed_step is None and shift.failed_step is None
    zero_iters = np.array([r.outer_iters for r in zero.per_step_reports])
    shift_iters = np.array([r.outer_iters for r in shift.per_step_reports])
    assert all(r.termination is Termination.CONVERGED
               for r in shift.per_step_reports)
    frac = np.mean(shift_iters <= zero_iters)
    assert frac >= 0.8, f"shift saved iterations on only {frac:.0%} of steps"


@pytest.mark.parametrize("n_last", [1, 2, 3, 7])
def test_shift_warm_start_drops_stage_zero(n_last):
    # Stages 1..N-1 move up one, the last meaningful control repeats and
    # the padding stage stays; at N = 1 only the padding stage is left.
    dims = Dims(n=3, m=2, N=n_last)
    u = np.arange(dims.z_len, dtype=float).reshape(-1, 2)
    expected = np.vstack([u[1:n_last], u[n_last - 1], u[n_last]])
    shifted = costate.mpc._shift_warm_start(u.reshape(-1), dims)
    assert np.array_equal(shifted, expected.reshape(-1))


def test_shift_warm_start_with_a_one_stage_horizon():
    spec, plant, factory = _unicycle_setup(total_steps=8, horizon=1)
    trace = run_mpc(plant, factory, np.asarray(spec.X0),
                    MpcConfig(horizon=1, total_steps=8,
                              warm_start=WarmStart.SHIFT))
    assert trace.failed_step is None
    assert all(r.termination is Termination.CONVERGED
               for r in trace.per_step_reports)


def test_warm_start_value_selects_the_member():
    # MpcConfig(warm_start="shift") used to run the zero warm start.
    cfg = MpcConfig(horizon=10, total_steps=1, warm_start="shift")
    assert cfg.warm_start is WarmStart.SHIFT
    assert MpcConfig(horizon=10, total_steps=1,
                     warm_start=WarmStart.ZERO).warm_start is WarmStart.ZERO


@pytest.mark.parametrize("value", ["previous", "SHIFT", None, 1, ["zero"]])
def test_unknown_warm_start_names_the_field(value):
    message = f"warm_start must be one of ['zero', 'shift'], got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MpcConfig(horizon=10, total_steps=1, warm_start=value)


def test_solver_failure_truncates_trace_with_report():
    n_last = 3

    def hopeless_factory(state, step):
        # A control curvature of -4e8, below -REG_MAX: no regularizer up to
        # the cap factors step 2's problem.
        concave = -2e8
        if step < 2:
            return build_unicycle_tracking(
                UnicycleSpec(N=10, N_p=n_last), step, state)
        return ProblemDef.from_stagewise(
            dims=Dims(n=3, m=2, N=n_last),
            dynamics=lambda x, u, k: x,
            stage_cost=lambda x, u, k: concave * float(u @ u) + float(u.sum()),
            d_dynamics=lambda x, u, k: (np.eye(3), np.zeros((3, 2))),
            d_stage_cost=lambda x, u, k: (np.zeros(3),
                                          2 * concave * u + 1.0),
            dd_stage_cost=lambda x, u, k: (np.zeros((3, 3)), np.zeros((3, 2)),
                                           2 * concave * np.eye(2)),
            dd_dynamics_contracted=lambda w, x, u, k: (np.zeros((3, 3)),
                                                       np.zeros((3, 2)),
                                                       np.zeros((2, 2))),
        )

    spec = UnicycleSpec(N=10, N_p=n_last)
    plant = build_unicycle_plant(spec)
    trace = run_mpc(plant, hopeless_factory, np.asarray(spec.X0),
                    MpcConfig(horizon=n_last, total_steps=10))
    assert trace.failed_step == 2
    assert trace.applied_controls.shape == (2, 2)
    assert len(trace.per_step_reports) == 3
    assert (trace.per_step_reports[-1].termination
            is Termination.LINEAR_SOLVE_FAILURE)
    assert trace.per_step_reports[-1].outer_iters == 0
    assert trace.failure.stage == n_last
    # The partial report counts among the terminations, not the iterations.
    summary = trace.summary()
    solved = [rep.outer_iters for rep in trace.per_step_reports[:2]]
    assert summary["terminations"] == {"Converged": 2,
                                       "LinearSolveFailure": 1}
    assert summary["per_step_iters"] == solved
    assert sum(summary["iteration_histogram"].values()) == 2
    assert summary["median_iters"] == float(np.median(solved))
    assert summary["max_iters"] == max(solved)
    assert (summary["steps_completed"], summary["failed_step"],
            summary["steps_unconverged"]) == (2, 2, 1)
    assert summary["failure"] == str(trace.failure)


def test_blowup_truncates_trace_and_keeps_the_prefix():
    spec = UnicycleSpec(N=10, N_p=4)
    plant = build_unicycle_plant(spec)

    def blowing_factory(state, step):
        prob = build_unicycle_tracking(spec, step, state)
        if step < 2:
            return prob
        return dataclasses.replace(
            prob, stage_cost=lambda xs, us, ks: np.full(len(ks), np.nan))

    trace = run_mpc(plant, blowing_factory, np.asarray(spec.X0),
                    MpcConfig(horizon=4, total_steps=10))
    assert trace.failed_step == 2
    assert trace.applied_controls.shape == (2, 2)
    assert trace.applied_states.shape == (3, 3)
    # A blow-up leaves no partial report.
    assert len(trace.per_step_reports) == 2
    assert isinstance(trace.failure, NumericalBlowupError)
    assert str(trace.failure) == "numerical blow-up at stage 0 (stage cost)"
    # With no partial report, the blown-up step counts as NumericalBlowup.
    summary = trace.summary()
    solved = [rep.outer_iters for rep in trace.per_step_reports]
    assert summary["terminations"] == {"Converged": 2, "NumericalBlowup": 1}
    assert summary["per_step_iters"] == solved
    assert summary["median_iters"] == float(np.median(solved))
    assert (summary["steps_completed"], summary["failed_step"],
            summary["steps_unconverged"]) == (2, 2, 1)
    assert summary["failure"] == str(trace.failure)
    assert summary["total_wall_time_s"] == float(
        trace.per_step_wall_time.sum())


def test_factory_dims_are_checked():
    spec, plant, _ = _unicycle_setup(total_steps=5)

    def wrong_horizon(state, step):
        return build_unicycle_tracking(UnicycleSpec(N=20, N_p=4), step, state)

    with pytest.raises(DimensionMismatchError, match="horizon"):
        run_mpc(plant, wrong_horizon, np.asarray(spec.X0),
                MpcConfig(horizon=10, total_steps=5))

    def wrong_dims(state, step):
        return build_lqr(LqrSpec(N=10))

    with pytest.raises(DimensionMismatchError,
                       match=r"^factory dims \(1, 1\) do not match plant "
                             r"\(3, 2\)$"):
        run_mpc(plant, wrong_dims, np.asarray(spec.X0),
                MpcConfig(horizon=10, total_steps=5))


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(horizon=0, total_steps=5)
    with pytest.raises(ValueError):
        MpcConfig(horizon=5, total_steps=0)


@pytest.mark.parametrize("field, value", [("total_steps", 2.5),
                                          ("horizon", 10.0)])
def test_fractional_counts_rejected(field, value):
    # run_mpc loops over range(total_steps): a float must fail up front.
    counts = {"horizon": 10, "total_steps": 5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        MpcConfig(**counts)
    counts[field] = np.int64(3)
    assert getattr(MpcConfig(**counts), field) == 3


def _trace_bytes(trace):
    parts = [trace.applied_states, trace.applied_controls]
    for rep in trace.per_step_reports:
        parts += [rep.z_final, rep.grad_norm_history, rep.cost_history]
    return [np.asarray(a).tobytes() for a in parts]


@pytest.mark.parametrize("warm_start", list(WarmStart))
def test_shared_workspace_matches_fresh_solves(warm_start):
    # run_mpc factors every step in one workspace; minimize as a _solve
    # override builds a fresh one per step.  The bytes must not differ.
    spec, plant, factory = _unicycle_setup(total_steps=12)
    cfg = MpcConfig(horizon=10, total_steps=12, warm_start=warm_start)
    shared = run_mpc(plant, factory, np.asarray(spec.X0), cfg)
    fresh = run_mpc(plant, factory, np.asarray(spec.X0), cfg, _solve=minimize)
    assert shared.failed_step is None
    assert _trace_bytes(shared) == _trace_bytes(fresh)


def test_one_workspace_per_closed_loop(monkeypatch):
    built = []

    class Counting(costate.solver.StagewiseFactor):
        def __init__(self, *dims):
            built.append(dims)
            super().__init__(*dims)

    monkeypatch.setattr(costate.solver, "StagewiseFactor", Counting)
    monkeypatch.setattr(costate.mpc, "StagewiseFactor", Counting)
    spec, plant, factory = _unicycle_setup(total_steps=6, horizon=4)
    trace = run_mpc(plant, factory, np.asarray(spec.X0),
                    MpcConfig(horizon=4, total_steps=6))
    assert len(trace.per_step_reports) == 6
    assert built == [(4, 3, 2)]


def _plant_failing_at(plant, step, output):
    def dynamics(x, u, k):
        return output if k == step else plant.dynamics(x, u, k)
    return dataclasses.replace(plant, dynamics=dynamics)


def test_wrong_shape_plant_output_names_the_step_and_shape():
    spec, plant, factory = _unicycle_setup(total_steps=5)
    bad = _plant_failing_at(plant, 2, np.zeros(4))
    with pytest.raises(DimensionMismatchError,
                       match=r"^plant dynamics at step 2 has shape \(4,\), "
                             r"expected \(3,\)$"):
        run_mpc(bad, factory, np.asarray(spec.X0),
                MpcConfig(horizon=10, total_steps=5))


def test_non_finite_plant_output_is_a_blowup():
    spec, plant, factory = _unicycle_setup(total_steps=5)
    bad = _plant_failing_at(plant, 2, np.array([0.0, np.inf, 0.0]))
    with pytest.raises(NumericalBlowupError) as err:
        run_mpc(bad, factory, np.asarray(spec.X0),
                MpcConfig(horizon=10, total_steps=5))
    assert (err.value.stage, err.value.what) == (2, "plant dynamics")
