"""Costate sweep and gradient checks against finite differences."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import zero_cost_problem
from costate import (DimensionMismatchError, Dims, LqrSpec,
                     NumericalBlowupError, ProblemDef, SolverConfig,
                     UnicycleSpec, adjoint_along, build_lqr,
                     build_unicycle_tracking, fd_gradient, forward_adjoint,
                     gradient, hessian, max_rel_error, minimize, minimize_gd,
                     one_row, random_smooth_problem, roll_forward)
from costate.problem import FD_STEP, central_difference


def _hamiltonian(p, x, u, lam_next, k):
    # Stage Hamiltonian: stage cost plus costate-weighted next state,
    # cost(x, u, k) + lam_next . dynamics(x, u, k).
    return one_row(p.stage_cost)(x, u, k) + float(
        lam_next @ p.dynamics(x, u, k))


class TestHamiltonian:
    def test_zero_costate_is_stage_cost(self, lqr1):
        h = _hamiltonian(lqr1, np.array([1.3]), np.array([0.2]), np.zeros(1),
                         0)
        assert h == pytest.approx(1.0 * 1.3 ** 2 + 3.0 * 0.2 ** 2, rel=1e-14)

    def test_lqr_hand_value(self, lqr1):
        # cost 1 + costate 10.8 times next state 1.8
        h = _hamiltonian(lqr1, np.array([1.0]), np.zeros(1),
                         np.array([10.8]), 0)
        assert h == pytest.approx(20.44, rel=1e-14)

    def test_pure_dynamics_term(self):
        prob = ProblemDef.from_stagewise(
            dims=Dims(n=2, m=1, N=2),
            dynamics=lambda x, u, k: x,
            stage_cost=lambda x, u, k: 0.0,
            d_dynamics=lambda x, u, k: (np.eye(2), np.zeros((2, 1))),
            d_stage_cost=lambda x, u, k: (np.zeros(2), np.zeros(1)),
        )
        x = np.array([0.5, -2.0])
        lam = np.array([3.0, 1.0])
        assert _hamiltonian(prob, x, np.zeros(1), lam, 0) == pytest.approx(
            lam @ x)

    def test_wrong_shape_dynamics_output_is_a_dimension_error(self, lqr1):
        # Not numpy's plain ValueError from the costate product: the
        # subclass, naming the output, its stage and both shapes, raised
        # by the rollout before any costate is formed.
        prob = dataclasses.replace(lqr1, dynamics=lambda x, u, k: np.zeros(2))
        with pytest.raises(DimensionMismatchError, match=r"^dynamics at stage "
                           r"0 has shape \(2,\), expected \(1,\)$"):
            forward_adjoint(prob, np.ones(1), np.zeros(2))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gradient_is_the_control_partial(self, seed):
        # g[k] = c_u[k] + f_u[k]' lam[k] is dH_k/du at (x_k, u_k), lam[k]
        # the costate of stage k + 1, for every stage with dynamics.
        prob, x0, z = random_smooth_problem(seed, 3, 2, 6)
        roll, adj = forward_adjoint(prob, x0, z)
        m = prob.dims.m
        for k in range(prob.dims.N):
            x_k, lam_k = roll.states[k], adj.costates[k]
            fd = central_difference(
                lambda uu: _hamiltonian(prob, x_k, uu, lam_k, k),
                roll.controls[k], FD_STEP)
            assert max_rel_error(adj.gradient[k * m:(k + 1) * m],
                                 fd) <= 1e-7


class TestBackwardCostates:
    def test_lqr_hand_values(self, lqr1):
        roll = roll_forward(lqr1, 1.0, np.zeros(2))
        lam = adjoint_along(lqr1, roll).costates
        # terminal costate zero, then d(p x1^2)/dx1 = 2*3*1.8
        np.testing.assert_allclose(lam.ravel(), [10.8, 0.0], rtol=1e-14)

    def test_zero_cost_gives_zero_costates(self):
        prob = zero_cost_problem()
        z = np.ones(prob.dims.z_len)
        roll = roll_forward(prob, np.ones(2), z)
        assert np.array_equal(adjoint_along(prob, roll).costates,
                              np.zeros((prob.dims.N + 1, 2)))

    def test_horizonless_problem(self, lqr1):
        prob = build_lqr(LqrSpec(N=0))
        roll = roll_forward(prob, 1.0, np.zeros(1))
        lam = adjoint_along(prob, roll).costates
        assert lam.shape == (1, 1)
        assert lam[0, 0] == 0.0

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(n=3, m=2, n_last=0, seed=5)
    @example(n=3, m=2, n_last=1, seed=5)
    @example(n=4, m=2, n_last=800, seed=2)
    def test_matches_a_plain_stage_recursion(self, n, m, n_last, seed):
        # The banded solve against the recursion it replaces, one stage and
        # one per-stage oracle call at a time; the sums run in another
        # order, so they agree to roundoff.
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        roll = roll_forward(prob, x0, z)
        adj = adjoint_along(prob, roll)
        lam = np.zeros((n_last + 1, n))
        grad = np.empty((n_last + 1, m))
        for k in range(n_last, -1, -1):
            x, u = roll.states[k], roll.controls[k]
            cx, cu = one_row(prob.d_stage_cost)(x, u, k)
            fx, fu = (one_row(prob.d_dynamics)(x, u, k) if k < n_last
                      else (np.zeros((n, n)), np.zeros((n, m))))
            grad[k] = cu + fu.T @ lam[k]
            if k:
                lam[k - 1] = cx + fx.T @ lam[k]
        tol = 1e-12 * (1.0 + np.abs(lam).max())
        assert np.abs(adj.costates - lam).max() <= tol
        assert np.abs(adj.gradient - grad.reshape(-1)).max() <= tol

    def test_matches_fused_pass_bitwise(self, lqr15):
        z = np.linspace(-1, 1, lqr15.dims.z_len)
        roll = roll_forward(lqr15, 2.0, z)
        _, adj = forward_adjoint(lqr15, 2.0, z)
        assert np.array_equal(adjoint_along(lqr15, roll).costates,
                              adj.costates)


class TestGradient:
    def test_lqr_hand_values(self, lqr1):
        adj = gradient(lqr1, 1.0, np.zeros(2))
        np.testing.assert_allclose(adj.gradient, [9.72, 0.0], atol=1e-14)
        err = max_rel_error(adj.gradient, fd_gradient(lqr1, 1.0, np.zeros(2)))
        assert err <= 1e-5

    def test_stationary_by_symmetry(self, lqr15):
        adj = gradient(lqr15, 0.0, np.zeros(lqr15.dims.z_len))
        assert np.array_equal(adj.gradient, np.zeros(lqr15.dims.z_len))

    def test_random_trig_problem_vs_fd(self):
        prob, x0, z = random_smooth_problem(123, 3, 2, 8)
        adj = gradient(prob, x0, z)
        assert max_rel_error(adj.gradient, fd_gradient(prob, x0, z)) <= 1e-5

    def test_fd_equivalence_50_random_points(self):
        """Bundled scenarios, 50 random (x0, z) draws total."""
        rng = np.random.default_rng(42)
        lqr = build_lqr(LqrSpec())
        spec = UnicycleSpec()
        uni = build_unicycle_tracking(spec, 5, np.asarray(spec.X0))
        worst = 0.0
        for trial in range(50):
            if trial % 2 == 0:
                prob, x0 = lqr, rng.normal(scale=1.5, size=1)
            else:
                prob = uni
                x0 = np.asarray(spec.X0) + rng.normal(scale=0.3, size=3)
            z = rng.normal(scale=0.5, size=prob.dims.z_len)
            adj = gradient(prob, x0, z)
            worst = max(worst, max_rel_error(adj.gradient,
                                             fd_gradient(prob, x0, z)))
        assert worst <= 1e-5

    def test_affine_in_stage_cost(self):
        """Doubling the cost doubles costates and gradient exactly."""
        prob, x0, z = random_smooth_problem(7, 2, 2, 5)

        doubled = ProblemDef(
            dims=prob.dims,
            dynamics=prob.dynamics,
            stage_cost=lambda x, u, k: 2.0 * prob.stage_cost(x, u, k),
            d_dynamics=prob.d_dynamics,
            d_stage_cost=lambda x, u, k: tuple(
                2.0 * np.asarray(g) for g in prob.d_stage_cost(x, u, k)),
        )
        base = gradient(prob, x0, z)
        two = gradient(doubled, x0, z)
        assert np.array_equal(two.costates, 2.0 * base.costates)
        assert np.array_equal(two.gradient, 2.0 * base.gradient)

    def test_terminal_entry_is_stage_cost_gradient_exactly(self):
        prob, x0, z = random_smooth_problem(11, 3, 2, 6)
        adj = gradient(prob, x0, z)
        roll = roll_forward(prob, x0, z)
        m, N = prob.dims.m, prob.dims.N
        _, cu = one_row(prob.d_stage_cost)(roll.states[N],
                                           z[N * m:(N + 1) * m], N)
        assert np.array_equal(adj.gradient[N * m:], np.asarray(cu))

    def test_dynamics_never_requested_at_last_stage(self):
        base, x0, z = random_smooth_problem(3, 2, 1, 4)

        def guarded_d_dynamics(x, u, k):
            assert k < base.dims.N, "dynamics Jacobian requested at stage N"
            return one_row(base.d_dynamics)(x, u, k)

        def guarded_dynamics(x, u, k):
            assert k < base.dims.N, "dynamics requested at stage N"
            return base.dynamics(x, u, k)

        guarded = ProblemDef.from_stagewise(
            dims=base.dims,
            dynamics=guarded_dynamics,
            stage_cost=one_row(base.stage_cost),
            d_dynamics=guarded_d_dynamics,
            d_stage_cost=one_row(base.d_stage_cost),
        )
        adj = gradient(guarded, x0, z)  # must not trip the guards
        n, m, N = base.dims.n, base.dims.m, base.dims.N
        assert adj.fx.shape == (N + 1, n, n)
        assert adj.fu.shape == (N + 1, n, m)
        assert not adj.fx[N].any() and not adj.fu[N].any()


def _poisoned(base, cx_at=None, cu_at=None, fx_at=None):
    # base with a NaN in the first entry of c_x, c_u or f_x at one stage.
    def d_stage_cost(x, u, ks):
        cx, cu = (part.copy() for part in base.d_stage_cost(x, u, ks))
        cx[ks == cx_at, 0] = np.nan
        cu[ks == cu_at, 0] = np.nan
        return cx, cu

    def d_dynamics(x, u, ks):
        fx, fu = base.d_dynamics(x, u, ks)
        fx = fx.copy()
        fx[ks == fx_at, 0, 0] = np.nan
        return fx, fu

    return dataclasses.replace(base, d_stage_cost=d_stage_cost,
                               d_dynamics=d_dynamics)


class TestNonFiniteFirstOrderData:
    BASE, X0, Z = random_smooth_problem(3, 3, 2, 6)

    @pytest.mark.parametrize("solve", [
        lambda p, x0, z: minimize(p, x0, z, SolverConfig()),
        lambda p, x0, z: minimize_gd(p, x0, z, 0.01),
    ], ids=["minimize", "minimize_gd"])
    def test_nan_in_c_u_is_a_named_blowup_in_both_solvers(self, solve):
        # minimize used to escalate to LinearSolveError on an infinite trial
        # cost, and minimize_gd to blame the stage cost of its next iterate.
        prob = _poisoned(self.BASE, cu_at=4)
        with pytest.raises(NumericalBlowupError) as err:
            solve(prob, self.X0, self.Z)
        assert (err.value.stage, err.value.what) == (
            4, "first-order stage data")

    @pytest.mark.parametrize("fx_at, cx_at", [(2, 3), (3, 2)])
    def test_first_stage_with_a_non_finite_input_is_named(self, fx_at,
                                                          cx_at):
        prob = _poisoned(self.BASE, cx_at=cx_at, fx_at=fx_at)
        with pytest.raises(NumericalBlowupError) as err:
            gradient(prob, self.X0, self.Z)
        assert (err.value.stage, err.value.what) == (
            2, "first-order stage data")

    @pytest.mark.parametrize("second_order", [
        lambda p, x0, z: minimize(p, x0, z, SolverConfig()),
        hessian,
    ], ids=["minimize", "hessian"])
    def test_non_finite_f_x_at_stage_0_is_named_by_second_order_work(
            self, second_order):
        # The gradient never reads f_x[0], so it stays finite; minimize used
        # to end in LinearSolveError on an infinite trial cost, and hessian()
        # to return a matrix of NaNs.
        prob = _poisoned(self.BASE, fx_at=0)
        assert np.isfinite(gradient(prob, self.X0, self.Z).gradient).all()
        with pytest.raises(NumericalBlowupError) as err:
            second_order(prob, self.X0, self.Z)
        assert (err.value.stage, err.value.what) == (
            0, "first-order stage data")
