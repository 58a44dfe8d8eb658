"""Second-order iteration, inner recursion, and the gradient baseline."""

import numpy as np
import pytest

from costate import (Dims, LinearSolveError, LqrSpec, ProblemDef,
                     SolverConfig, Termination, UnicycleSpec, build_lqr,
                     build_unicycle_tracking, minimize, minimize_gd,
                     random_smooth_problem, riccati_lqr, step_direction)


class TestStepDirection:
    def test_zero_gradient_fixed_point(self):
        h = np.diag([2.0, 5.0])
        for depth in (0, 1, 7):
            d = step_direction(h, np.zeros(2), SolverConfig(r_reg=0.5), depth)
            assert np.array_equal(d, np.zeros(2))

    def test_identity_pair_halves_gradient(self):
        g = np.array([2.0, -4.0])
        d = step_direction(np.eye(2), g, SolverConfig(r_reg=1.0), 0)
        np.testing.assert_allclose(d, g / 2.0, rtol=1e-14)

    def test_lqr_depth_zero_numbers(self):
        h = np.array([[10.86, 0.0], [0.0, 0.0]])
        g = np.array([9.72, 0.0])
        d = step_direction(h, g, SolverConfig(r_reg=0.1), 0)
        np.testing.assert_allclose(d, [9.72 / 10.96, 0.0], rtol=1e-12)

    def test_deep_recursion_reaches_newton_step(self):
        h = np.array([[10.86, 0.0], [0.0, 0.0]])
        g = np.array([9.72, 0.0])
        d = step_direction(h, g, SolverConfig(r_reg=0.1), 50)
        np.testing.assert_allclose(d, [9.72 / 10.86, 0.0], atol=1e-8)

    def test_depth_zero_matches_dense_solve(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 6))
        h = a @ a.T + 0.5 * np.eye(6)
        g = rng.normal(size=6)
        cfg = SolverConfig(r_reg=0.3)
        d = step_direction(h, g, cfg, 0)
        expected = np.linalg.solve(h + 0.3 * np.eye(6), g)
        np.testing.assert_allclose(d, expected, rtol=1e-12)

    def test_monotone_approach_to_newton(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        h = a @ a.T + 0.2 * np.eye(5)
        g = rng.normal(size=5)
        cfg = SolverConfig(r_reg=0.4)
        newton = np.linalg.solve(h, g)
        gaps = [np.linalg.norm(step_direction(h, g, cfg, j) - newton)
                for j in range(12)]
        assert all(gaps[j + 1] <= gaps[j] + 1e-15 for j in range(11))

    def test_matrix_regularizer(self):
        h = np.diag([1.0, 2.0])
        r = np.diag([0.5, 0.25])
        g = np.array([3.0, 3.0])
        d = step_direction(h, g, SolverConfig(r_reg=r), 0)
        np.testing.assert_allclose(d, [3.0 / 1.5, 3.0 / 2.25], rtol=1e-14)

    def test_not_positive_definite(self):
        with pytest.raises(LinearSolveError):
            step_direction(-np.eye(3), np.ones(3), SolverConfig(r_reg=0.1), 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            step_direction(np.eye(2), np.ones(2), SolverConfig(), -1)


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

    def test_unrecoverable_linear_solve_failure(self):
        n_last = 2
        prob = ProblemDef(
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

    def test_budget_exhaustion_reported_not_thrown(self, lqr15):
        rep = minimize(lqr15, 3.0, np.zeros(lqr15.dims.z_len),
                       SolverConfig(r_reg=0.1, max_outer=1))
        assert rep.termination is Termination.MAX_ITERS
        assert rep.outer_iters == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(r_reg=0.0)
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(fallback_scale=1.0)


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
