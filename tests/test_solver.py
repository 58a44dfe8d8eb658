"""Second-order iteration, inner recursion, and the gradient baseline."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costate.curvature
import costate.solver
from costate import (AsymmetricHessianError, Dims, LinearSolveError, LqrSpec,
                     NumericalBlowupError, ProblemDef, SolverConfig,
                     Termination, UnicycleSpec, build_lqr,
                     build_unicycle_tracking, eval_cost, forward_adjoint,
                     gradient, hessian, minimize, minimize_gd, one_row,
                     random_smooth_problem, riccati_lqr, stage_curvature,
                     step_direction)


def _lq_problem(a, b, q, r_u, n_last):
    """Linear dynamics x' = a x + b u and stage cost x'q x/2 + u'r_u[k] u/2.

    r_u holds one control weight matrix per stage, so a single stage can be
    made non-convex.
    """
    a, b, q = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (a, b, q))
    r_u = [np.atleast_2d(np.asarray(v, dtype=float)) for v in r_u]
    n, m = b.shape
    zeros = np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, m))
    return ProblemDef.from_stagewise(
        dims=Dims(n=n, m=m, N=n_last),
        dynamics=lambda x, u, k: a @ x + b @ u,
        stage_cost=lambda x, u, k: float(0.5 * x @ q @ x
                                         + 0.5 * u @ r_u[k] @ u),
        d_dynamics=lambda x, u, k: (a, b),
        d_stage_cost=lambda x, u, k: (q @ x, r_u[k] @ u),
        dd_stage_cost=lambda x, u, k: (q, np.zeros((n, m)), r_u[k]),
        dd_dynamics_contracted=lambda w, x, u, k: zeros,
    )


def _snapshot(prob, x0, z):
    """(adj, stage curvature, dense Hessian) at one point."""
    roll, adj = forward_adjoint(prob, x0, z)
    return adj, stage_curvature(prob, roll, adj, z), hessian(prob, x0, z)


def _dense_direction(h, g, r, depth):
    """The inner recursion by dense solves against R + H."""
    a = h + r * np.eye(h.shape[0])
    d = np.linalg.solve(a, g)
    for _ in range(depth):
        d = np.linalg.solve(a, g + r * d)
    return d


def _convex_problem():
    """Three states, two controls, N=5, every stage weighted: H is PD."""
    rng = np.random.default_rng(14)
    return _lq_problem(0.5 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)),
                       np.diag([1.0, 0.5, 2.0]), [np.diag([0.3, 0.7])] * 6, 5)


class TestStepDirection:
    def test_zero_gradient_fixed_point(self):
        prob = _convex_problem()
        adj, c, _ = _snapshot(prob, np.ones(3), np.zeros(prob.dims.z_len))
        for depth in (0, 1, 7):
            d = step_direction(adj, c, np.zeros(prob.dims.z_len), 0.5,
                               depth)
            assert np.array_equal(d, np.zeros(prob.dims.z_len))

    def test_identity_pair_halves_gradient(self):
        # x' = 0 and cost u^2/2 at both stages: H is the 2x2 identity.
        prob = _lq_problem(0.0, 0.0, 1.0, [1.0, 1.0], 1)
        adj, c, h = _snapshot(prob, np.ones(1), np.zeros(2))
        assert np.array_equal(h, np.eye(2))
        g = np.array([2.0, -4.0])
        d = step_direction(adj, c, g, 1.0, 0)
        np.testing.assert_allclose(d, g / 2.0, rtol=1e-14)

    def test_lqr_depth_zero_numbers(self, lqr1):
        adj, c, h = _snapshot(lqr1, 1.0, np.zeros(2))
        np.testing.assert_allclose(h, [[10.86, 0.0], [0.0, 0.0]], atol=1e-12)
        g = np.array([9.72, 0.0])
        d = step_direction(adj, c, g, 0.1, 0)
        np.testing.assert_allclose(d, [9.72 / 10.96, 0.0], rtol=1e-12)

    def test_deep_recursion_reaches_newton_step(self, lqr1):
        adj, c, _ = _snapshot(lqr1, 1.0, np.zeros(2))
        g = np.array([9.72, 0.0])
        d = step_direction(adj, c, g, 0.1, 50)
        np.testing.assert_allclose(d, [9.72 / 10.86, 0.0], atol=1e-8)

    def test_depth_zero_matches_dense_solve(self):
        # N = 0 leaves the factor only the last stage, which has no dynamics.
        for n_last in (6, 0):
            prob, x0, z = random_smooth_problem(14, 3, 2, n_last)
            adj, c, h = _snapshot(prob, x0, z)
            g = np.random.default_rng(14).normal(size=prob.dims.z_len)
            assert np.linalg.eigvalsh(h + 0.3 * np.eye(h.shape[0])).min() > 0
            d = step_direction(adj, c, g, 0.3, 0)
            np.testing.assert_allclose(d, _dense_direction(h, g, 0.3, 0),
                                       rtol=1e-12)

    def test_monotone_approach_to_newton(self):
        prob = _convex_problem()
        adj, c, h = _snapshot(prob, np.ones(3), np.zeros(prob.dims.z_len))
        assert np.linalg.eigvalsh(h).min() > 0
        g = np.random.default_rng(2).normal(size=prob.dims.z_len)
        newton = np.linalg.solve(h, g)
        gaps = [np.linalg.norm(step_direction(adj, c, g, 0.4, j) - newton)
                for j in range(12)]
        assert all(gaps[j + 1] <= gaps[j] + 1e-15 for j in range(11))

    def test_not_positive_definite(self):
        prob = _lq_problem(np.eye(3), np.ones((3, 1)), np.eye(3),
                           [-np.eye(1)] * 3, 2)
        adj, c, _ = _snapshot(prob, np.ones(3), np.zeros(3))
        with pytest.raises(LinearSolveError):
            step_direction(adj, c, np.ones(3), 0.1, 0)

    @pytest.mark.parametrize("r", [0.0, -0.1, np.inf, np.nan])
    def test_regularizer_must_be_finite_and_positive(self, lqr1, r):
        adj, c, _ = _snapshot(lqr1, 1.0, np.zeros(2))
        with pytest.raises(ValueError, match="r must be finite and > 0"):
            step_direction(adj, c, np.ones(2), r, 0)

    def test_negative_depth_rejected(self, lqr1):
        adj, c, _ = _snapshot(lqr1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            step_direction(adj, c, np.ones(2), 0.1, -1)

    @pytest.mark.parametrize("depth", [1.5, 2.0])
    def test_fractional_depth_rejected(self, lqr1, depth):
        adj, c, _ = _snapshot(lqr1, 1.0, np.zeros(2))
        with pytest.raises(ValueError, match="^depth must be an integer >= 0"):
            step_direction(adj, c, np.ones(2), 0.1, depth)


def _stage_two_problem(weight):
    """n = 2, m = 1, N = 4, every control weight 1 but stage 2's."""
    weights = [np.eye(1)] * 5
    weights[2] = weight * np.eye(1)
    return _lq_problem(0.9 * np.eye(2), np.ones((2, 1)), np.eye(2),
                       weights, 4)


class TestStagewiseSolve:
    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1), r=st.sampled_from([1e-3, 0.1, 1.0]),
           depth=st.integers(0, 3), scale=st.sampled_from([1.0, 20.0]))
    def test_matches_dense_solve(self, n, m, n_last, seed, r, depth, scale):
        # Scaling the point by 20 makes about a third of the systems
        # indefinite, so both outcomes of the factorization are exercised.
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        adj, c, h = _snapshot(prob, scale * x0, scale * z)
        g = np.random.default_rng(seed).normal(size=prob.dims.z_len)
        lam = np.linalg.eigvalsh(h + r * np.eye(h.shape[0])).min()
        margin = 1e-6 * (1.0 + np.linalg.norm(h, 2))
        try:
            d = step_direction(adj, c, g, r, depth)
        except LinearSolveError:
            assert lam < margin, f"PD system ({lam}) rejected"
            return
        assert lam > -margin, f"indefinite system ({lam}) factored"
        dense = _dense_direction(h, g, r, depth)
        assert np.abs(d - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_minimize_never_forms_the_dense_hessian(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the solver formed the dense Hessian")

        monkeypatch.setattr(costate.solver, "hessian_with", forbidden)
        monkeypatch.setattr(costate.curvature, "hessian_product", forbidden)
        prob, x0, z0 = random_smooth_problem(3, 3, 2, 20)
        rep = minimize(prob, x0, z0, SolverConfig())
        assert rep.termination is Termination.CONVERGED
        assert rep.outer_iters > 0

    def test_nonfinite_stage_curvature_names_the_stage(self):
        base, x0, z0 = random_smooth_problem(5, 2, 2, 6)

        def bad_dd(x, u, k):
            xx, xu, uu = one_row(base.dd_stage_cost)(x, u, k)
            return (xx, xu, uu * np.nan) if k in (3, 5) else (xx, xu, uu)

        broken = ProblemDef.from_stagewise(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=one_row(base.stage_cost),
            d_dynamics=one_row(base.d_dynamics),
            d_stage_cost=one_row(base.d_stage_cost), dd_stage_cost=bad_dd,
            dd_dynamics_contracted=one_row(base.dd_dynamics_contracted))
        roll, adj = forward_adjoint(broken, x0, z0)
        with pytest.raises(NumericalBlowupError) as err:
            stage_curvature(broken, roll, adj, z0)
        assert err.value.stage == 3
        with pytest.raises(NumericalBlowupError) as err:
            minimize(broken, x0, z0, SolverConfig())
        assert err.value.stage == 3

    def test_skewed_stage_oracle_raises_asymmetry(self):
        base, x0, z0 = random_smooth_problem(6, 2, 2, 4)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])

        def skewed_dd(x, u, k):
            xx, xu, uu = one_row(base.dd_stage_cost)(x, u, k)
            return xx, xu, uu + skew if k == 2 else uu

        broken = ProblemDef.from_stagewise(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=one_row(base.stage_cost),
            d_dynamics=one_row(base.d_dynamics),
            d_stage_cost=one_row(base.d_stage_cost), dd_stage_cost=skewed_dd,
            dd_dynamics_contracted=one_row(base.dd_dynamics_contracted))
        with pytest.raises(AsymmetricHessianError) as err:
            minimize(broken, x0, z0, SolverConfig())
        assert err.value.defect == pytest.approx(1.0)
        assert err.value.index[0] == 2  # the stage of the skewed block

    def test_failed_pivot_names_its_stage(self):
        prob = _stage_two_problem(-5000.0)
        adj, c, _ = _snapshot(prob, np.ones(2), np.zeros(5))
        with pytest.raises(LinearSolveError) as err:
            step_direction(adj, c, np.ones(5), 0.1, 0)
        assert err.value.stage == 2
        with pytest.raises(LinearSolveError) as err:
            minimize(prob, np.ones(2), np.zeros(5), SolverConfig(r_reg=0.1))
        assert err.value.stage == 2
        assert err.value.report.termination is Termination.LINEAR_SOLVE_FAILURE

    def test_workspace_reuse_matches_a_fresh_factorization(self):
        # minimize factors every outer iteration and every escalation retry
        # in one workspace; a failed factorization must leave nothing behind
        # that a later one reads.
        g = np.random.default_rng(3).normal(size=5)
        x0, z0 = np.ones(2), np.zeros(5)
        bad_adj, bad_c, _ = _snapshot(_stage_two_problem(-5000.0), x0, z0)
        adj, c, _ = _snapshot(_stage_two_problem(2.0), x0, z0)
        r, retry_r = 0.1, 1e4
        workspace = costate.solver._StagewiseFactor(4, 2, 1)
        with pytest.raises(LinearSolveError) as err:
            step_direction(bad_adj, bad_c, g, r, 2, _factor=workspace)
        assert err.value.stage == 2
        reused = step_direction(adj, c, g, r, 2, _factor=workspace)
        assert np.array_equal(reused, step_direction(adj, c, g, r, 2))
        # The escalation retry: the same snapshot, a larger regularizer.
        with pytest.raises(LinearSolveError):
            step_direction(bad_adj, bad_c, g, r, 2, _factor=workspace)
        retried = step_direction(bad_adj, bad_c, g, retry_r, 2,
                                 _factor=workspace)
        assert np.array_equal(
            retried, step_direction(bad_adj, bad_c, g, retry_r, 2))

    def test_workspace_after_an_asymmetric_stack_matches_a_fresh_one(self):
        # The symmetry check writes the defect into the workspace's stack
        # before it raises; the next factorization must not read it.
        g = np.random.default_rng(4).normal(size=5)
        adj, c, _ = _snapshot(_stage_two_problem(2.0), np.ones(2), np.zeros(5))
        skewed = c.copy()
        skewed[2, 0, 1] += 1.0
        workspace = costate.solver._StagewiseFactor(4, 2, 1)
        with pytest.raises(AsymmetricHessianError):
            step_direction(adj, skewed, g, 0.1, 2, _factor=workspace)
        reused = step_direction(adj, c, g, 0.1, 2, _factor=workspace)
        assert np.array_equal(reused, step_direction(adj, c, g, 0.1, 2))


class TestMinimize:
    def test_stationary_start_returns_unchanged(self, lqr15):
        z0 = np.zeros(lqr15.dims.z_len)
        report = minimize(lqr15, 0.0, z0, SolverConfig(r_reg=0.1))
        assert report.termination is Termination.CONVERGED
        assert report.outer_iters == 0
        assert np.array_equal(report.z_final, z0)
        assert len(report.grad_norm_history) == 1

    @pytest.mark.parametrize("x0", [1.0, 2.0, 3.0])
    def test_lqr_matches_riccati(self, lqr15, x0):
        spec = LqrSpec()
        report = minimize(lqr15, x0, np.zeros(lqr15.dims.z_len),
                          SolverConfig(r_reg=0.1))
        assert report.termination is Termination.CONVERGED
        assert report.grad_norm_history[-1] < 1e-6
        ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term,
                          spec.N, x0)
        assert np.abs(report.z_final[:spec.N] - ric.controls).max() <= 1e-4

    def test_regularizer_moves_path_not_optimum(self, lqr15):
        finals = []
        for r_reg in (0.01, 0.1, 1.0):
            rep = minimize(lqr15, 2.0, np.zeros(lqr15.dims.z_len),
                           SolverConfig(r_reg=r_reg))
            assert rep.termination is Termination.CONVERGED
            finals.append(rep.z_final)
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                assert np.abs(finals[i] - finals[j]).max() <= 1e-6

    def test_history_lengths_and_convergence_marker(self, lqr15):
        rep = minimize(lqr15, 3.0, np.zeros(lqr15.dims.z_len), SolverConfig())
        assert len(rep.grad_norm_history) == rep.outer_iters + 1
        assert len(rep.cost_history) == rep.outer_iters + 1
        assert rep.grad_norm_history[-1] < rep.grad_norm_history[0]

    def test_cost_history_non_increasing_on_random_problems(self):
        for seed in (0, 1, 2, 3, 4):
            prob, x0, z0 = random_smooth_problem(seed, 3, 2, 8)
            rep = minimize(prob, x0, z0, SolverConfig(r_reg=0.1))
            diffs = np.diff(rep.cost_history)
            assert (diffs <= 1e-10 * (1 + np.abs(rep.cost_history[:-1]))).all(), \
                f"cost increased on seed {seed}: {rep.cost_history}"

    def test_indefinite_start_recovers_through_escalation(self):
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        rep = minimize(prob, x0, np.zeros(prob.dims.z_len),
                       SolverConfig())
        assert rep.termination is Termination.CONVERGED
        assert rep.grad_norm_history[-1] < 1e-6

    @pytest.mark.parametrize("step, offset, escalates", [
        (3, [0.1, 0.1, 0.1], False),
        (0, [0.0, 0.0, 0.0], True),
        (0, [0.5, -0.3, 0.4], True),
    ])
    def test_one_rollout_per_trial(self, caplog, step, offset, escalates):
        # The initial rollout, then one per trial point: an accepted trial's
        # rollout is reused by the next iteration, not recomputed.
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0) + np.asarray(offset)
        base = build_unicycle_tracking(spec, step, x0)
        calls = {"dynamics": 0, "stage_cost": 0}

        def counted(name):
            fn = getattr(base, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        prob = dataclasses.replace(base, **{name: counted(name)
                                            for name in calls})
        caplog.set_level(logging.INFO, logger="costate.solver")
        rep = minimize(prob, x0, np.zeros(prob.dims.z_len), SolverConfig())
        assert rep.termination is Termination.CONVERGED
        retried = sum(r.getMessage().startswith("trial cost")
                      for r in caplog.records)
        assert bool(caplog.records) is escalates
        rollouts = 1 + rep.outer_iters + retried
        assert calls["dynamics"] == prob.dims.N * rollouts
        assert calls["stage_cost"] == rollouts

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 5.0]),
           max_outer=st.sampled_from([1, 2, 50]))
    def test_report_matches_a_fresh_evaluation(self, n, m, n_last, seed,
                                               scale, max_outer):
        # The reported cost and gradient norm come from the kept rollout;
        # they must equal a fresh evaluation at z_final exactly.
        prob, x0, z0 = random_smooth_problem(seed, n, m, n_last)
        x0, z0 = scale * x0, scale * z0
        try:
            rep = minimize(prob, x0, z0, SolverConfig(max_outer=max_outer))
        except LinearSolveError as exc:
            rep = exc.report
        assert rep.cost_history[-1] == eval_cost(prob, x0, rep.z_final)
        assert rep.grad_norm_history[-1] == np.abs(
            gradient(prob, x0, rep.z_final).gradient).max(initial=0.0)

    def test_unrecoverable_linear_solve_failure(self):
        n_last = 2
        prob = ProblemDef.from_stagewise(
            dims=Dims(n=1, m=1, N=n_last),
            dynamics=lambda x, u, k: x,
            stage_cost=lambda x, u, k: -2000.0 * float(u[0] ** 2) + float(u[0]),
            d_dynamics=lambda x, u, k: (np.eye(1), np.zeros((1, 1))),
            d_stage_cost=lambda x, u, k: (np.zeros(1),
                                          np.array([-4000.0 * u[0] + 1.0])),
            dd_stage_cost=lambda x, u, k: (np.zeros((1, 1)), np.zeros((1, 1)),
                                           np.array([[-4000.0]])),
            dd_dynamics_contracted=lambda w, x, u, k: (np.zeros((1, 1)),) * 3,
        )
        with pytest.raises(LinearSolveError) as err:
            minimize(prob, 0.0, np.zeros(n_last + 1), SolverConfig(r_reg=0.1))
        report = err.value.report
        assert report is not None
        assert report.termination is Termination.LINEAR_SOLVE_FAILURE
        assert report.outer_iters == 0

    def test_blowup_through_every_escalation_has_no_stage(self, caplog):
        # H = I factors at every regularizer, but the gradient is so large
        # that every trial overflows the cost: LinearSolveError without a
        # stage, after MAX_ESCALATIONS escalations logged as trial costs.
        prob = ProblemDef.from_stagewise(
            dims=Dims(n=1, m=1, N=2),
            dynamics=lambda x, u, k: x,
            stage_cost=lambda x, u, k: float(1e306 * u[0] + 0.5 * u[0] ** 2),
            d_dynamics=lambda x, u, k: (np.eye(1), np.zeros((1, 1))),
            d_stage_cost=lambda x, u, k: (np.zeros(1),
                                          np.array([1e306 + u[0]])),
            dd_stage_cost=lambda x, u, k: (np.zeros((1, 1)), np.zeros((1, 1)),
                                           np.eye(1)),
            dd_dynamics_contracted=lambda w, x, u, k: (np.zeros((1, 1)),) * 3,
        )
        caplog.set_level(logging.INFO, logger="costate.solver")
        with pytest.raises(LinearSolveError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            minimize(prob, 0.0, np.zeros(3), SolverConfig())
        assert err.value.stage is None
        report = err.value.report
        assert report.termination is Termination.LINEAR_SOLVE_FAILURE
        assert report.outer_iters == 0
        escalations = costate.solver.MAX_ESCALATIONS
        assert report.inner_iters_total == escalations + 1
        assert np.array_equal(report.z_final, np.zeros(3))
        assert [r.getMessage().startswith("trial cost inf")
                for r in caplog.records] == [True] * escalations

    def test_budget_exhaustion_reported_not_thrown(self, lqr15):
        rep = minimize(lqr15, 3.0, np.zeros(lqr15.dims.z_len),
                       SolverConfig(r_reg=0.1, max_outer=1))
        assert rep.termination is Termination.MAX_ITERS
        assert rep.outer_iters == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(r_reg=0.0)
        with pytest.raises(ValueError, match="r_reg must be a scalar"):
            SolverConfig(r_reg=np.diag([0.5, 0.25]))
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1.0)

    @pytest.mark.parametrize("field", ["r_reg", "grad_tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_settings_rejected(self, field, value):
        # grad_tol=inf used to report Converged at iteration 0, and
        # r_reg=inf to overflow into a LinearSolveError.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_outer", "inner_depth_cap"])
    def test_fractional_counts_rejected(self, field):
        # A fractional max_outer was never matched by the iteration index,
        # and a fractional inner_depth_cap crashed range() mid-solve.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: 1.5})
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3


class TestMinimizeGd:
    def test_stationary_start(self, lqr15):
        z0 = np.zeros(lqr15.dims.z_len)
        rep = minimize_gd(lqr15, 0.0, z0, lr=0.01)
        assert rep.outer_iters == 0
        assert rep.termination is Termination.CONVERGED

    def test_benchmark_lqr_needs_at_least_ten_times_the_iterations(self, lqr15):
        # The benchmark plant is unstable (a = 1.8), so the cost curvature
        # spans ~1e7 and plain descent cannot reach the tolerance in any
        # sane budget; exhausting a budget 1000x the second-order count
        # already proves the comparative claim.
        z0 = np.zeros(lqr15.dims.z_len)
        newton = minimize(lqr15, 1.0, z0, SolverConfig(r_reg=0.1))
        gd = minimize_gd(lqr15, 1.0, z0, lr=8e-9, max_iters=3000)
        assert gd.termination is Termination.MAX_ITERS
        assert gd.outer_iters >= 10 * newton.outer_iters

    def test_stable_lqr_converges_but_much_slower(self):
        spec = LqrSpec(a=0.95, b=0.5, q=1.0, r=0.5, p_term=1.0, N=10)
        prob = build_lqr(spec)
        z0 = np.zeros(prob.dims.z_len)
        newton = minimize(prob, 1.0, z0, SolverConfig(r_reg=0.1))
        gd = minimize_gd(prob, 1.0, z0, lr=0.1, max_iters=100000)
        assert gd.termination is Termination.CONVERGED
        np.testing.assert_allclose(gd.z_final, newton.z_final, atol=1e-5)
        assert gd.outer_iters >= 10 * newton.outer_iters

    def test_oversized_rate_reports_divergence(self, lqr15):
        rep = minimize_gd(lqr15, 1.0, np.zeros(lqr15.dims.z_len), lr=1.0,
                          max_iters=500)
        assert rep.termination is Termination.DIVERGED
        assert rep.cost_history[-1] > 10 * rep.cost_history[0]

    def test_rate_must_be_positive(self, lqr15):
        with pytest.raises(ValueError):
            minimize_gd(lqr15, 1.0, np.zeros(lqr15.dims.z_len), lr=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lr", np.inf), ("lr", np.nan), ("grad_tol", np.inf),
        ("grad_tol", np.nan), ("grad_tol", -1.0)])
    def test_settings_must_be_finite_and_positive(self, lqr15, field, value):
        kwargs = {"lr": 0.01, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            minimize_gd(lqr15, 1.0, np.zeros(lqr15.dims.z_len), **kwargs)

    @pytest.mark.parametrize("max_iters", [2.5, -1])
    def test_budget_must_be_a_count(self, lqr15, max_iters):
        with pytest.raises(ValueError, match="max_iters must be"):
            minimize_gd(lqr15, 1.0, np.zeros(lqr15.dims.z_len), lr=1.0,
                        max_iters=max_iters)
