"""Costate sweep and gradient checks against finite differences."""

import numpy as np
import pytest

from conftest import zero_cost_problem
from costate import (Dims, LqrSpec, ProblemDef, UnicycleSpec,
                     adjoint_along, build_lqr, build_unicycle_tracking,
                     fd_gradient, forward_adjoint, gradient, hamiltonian,
                     max_rel_error, one_row, random_smooth_problem,
                     roll_forward)


class TestHamiltonian:
    def test_zero_costate_is_stage_cost(self, lqr1):
        h = hamiltonian(lqr1, np.array([1.3]), np.array([0.2]), np.zeros(1), 0)
        assert h == pytest.approx(1.0 * 1.3 ** 2 + 3.0 * 0.2 ** 2, rel=1e-14)

    def test_lqr_hand_value(self, lqr1):
        # cost 1 + costate 10.8 times next state 1.8
        h = hamiltonian(lqr1, np.array([1.0]), np.zeros(1), np.array([10.8]), 0)
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
        assert hamiltonian(prob, x, np.zeros(1), lam, 0) == pytest.approx(lam @ x)


class TestBackwardCostates:
    def test_lqr_hand_values(self, lqr1):
        roll = roll_forward(lqr1, 1.0, np.zeros(2))
        lam = adjoint_along(lqr1, roll, np.zeros(2)).costates
        # terminal costate zero, then d(p x1^2)/dx1 = 2*3*1.8
        np.testing.assert_allclose(lam.ravel(), [10.8, 0.0], rtol=1e-14)

    def test_zero_cost_gives_zero_costates(self):
        prob = zero_cost_problem()
        z = np.ones(prob.dims.z_len)
        roll = roll_forward(prob, np.ones(2), z)
        assert np.array_equal(adjoint_along(prob, roll, z).costates,
                              np.zeros((prob.dims.N + 1, 2)))

    def test_horizonless_problem(self, lqr1):
        prob = build_lqr(LqrSpec(N=0))
        roll = roll_forward(prob, 1.0, np.zeros(1))
        lam = adjoint_along(prob, roll, np.zeros(1)).costates
        assert lam.shape == (1, 1)
        assert lam[0, 0] == 0.0

    def test_matches_fused_pass_bitwise(self, lqr15):
        z = np.linspace(-1, 1, lqr15.dims.z_len)
        roll = roll_forward(lqr15, 2.0, z)
        _, adj = forward_adjoint(lqr15, 2.0, z)
        assert np.array_equal(adjoint_along(lqr15, roll, z).costates,
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
