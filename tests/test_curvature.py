"""Second-order sweeps: row passes, full assembly, and symmetry handling."""

import numpy as np
import pytest

from conftest import zero_cost_problem
from costate import (AsymmetricHessianError, CurvatureOracleError,
                     LqrSpec, ProblemDef, RowIndex, UnicycleSpec, build_lqr,
                     build_unicycle_tracking, eval_cost, fd_hessian,
                     forward_adjoint, gradient, hessian, hessian_row,
                     max_rel_error, random_smooth_problem, raw_hessian,
                     roll_forward)


def _snapshot(prob, x0, z):
    roll, adj = forward_adjoint(prob, x0, z)
    return roll, adj


def _row_by_row(prob, roll, adj, z, flat):
    """Reference for one Hessian row: the single-row forward and backward
    recursions as plain loops over the oracles, independent of the
    vectorized pass.  Returns (betas, alphas, row)."""
    dims = prob.dims
    i, comp = divmod(flat, dims.m)
    u = z.reshape(dims.N + 1, dims.m)
    xs = roll.states
    fx, fu, cxx, cxu, cuu = [], [], [], [], []
    for k in range(dims.N + 1):
        xx, xu, uu = (np.asarray(v, dtype=float)
                      for v in prob.dd_stage_cost(xs[k], u[k], k))
        if k < dims.N:
            jx, ju = prob.d_dynamics(xs[k], u[k], k)
            fx.append(np.asarray(jx, dtype=float))
            fu.append(np.asarray(ju, dtype=float))
            wxx, wxu, wuu = prob.dd_dynamics_contracted(adj.costates[k], xs[k],
                                                        u[k], k)
            xx, xu, uu = xx + wxx, xu + wxu, uu + wuu
        cxx.append(xx)
        cxu.append(xu)
        cuu.append(uu)
    betas = np.zeros((dims.N + 1, dims.n))
    for k in range(dims.N):
        betas[k + 1] = fx[k] @ betas[k] + (fu[k][:, comp] if k == i else 0.0)
    alphas = np.zeros((dims.N + 1, dims.n))
    for k in range(dims.N, 0, -1):
        a = cxx[k] @ betas[k] + (cxu[k][:, comp] if k == i else 0.0)
        if k < dims.N:
            a = a + fx[k].T @ alphas[k]
        alphas[k - 1] = a
    row = np.empty(dims.z_len)
    for k in range(dims.N + 1):
        r = cxu[k].T @ betas[k] + (cuu[k][comp] if k == i else 0.0)
        if k < dims.N:
            r = r + fu[k].T @ alphas[k]
        row[k * dims.m:(k + 1) * dims.m] = r
    return betas, alphas, row


class TestHessianRow:
    def test_lqr_hand_values(self, lqr1):
        roll, adj = _snapshot(lqr1, 1.0, np.zeros(2))
        sp = hessian_row(lqr1, roll, adj, np.zeros(2), RowIndex(0, 0))
        np.testing.assert_allclose(sp.betas.ravel(), [0.0, 0.9], rtol=1e-14)
        np.testing.assert_allclose(sp.alphas.ravel(), [5.4, 0.0], rtol=1e-14)
        # d2J/du0^2 = 2r + 2 p b^2 = 10.86
        np.testing.assert_allclose(sp.row, [10.86, 0.0], rtol=1e-12)

    def test_zero_cost_rows_vanish(self):
        prob = zero_cost_problem()
        z = np.ones(prob.dims.z_len)
        roll, adj = _snapshot(prob, np.ones(2), z)
        for flat in range(prob.dims.z_len):
            sp = hessian_row(prob, roll, adj, z,
                             RowIndex.from_flat(prob.dims, flat))
            assert np.array_equal(sp.row, np.zeros(prob.dims.z_len))

    def test_quadratic_row_independent_of_z(self, lqr15):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(2):
            z = rng.normal(size=lqr15.dims.z_len)
            roll, adj = _snapshot(lqr15, 1.0, z)
            rows.append(hessian_row(lqr15, roll, adj, z, RowIndex(4, 0)).row)
        np.testing.assert_allclose(rows[0], rows[1], atol=1e-12)

    def test_row_index_validation(self, lqr1):
        roll, adj = _snapshot(lqr1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            hessian_row(lqr1, roll, adj, np.zeros(2), RowIndex(2, 0))
        with pytest.raises(ValueError):
            hessian_row(lqr1, roll, adj, np.zeros(2), RowIndex(0, 1))

    def test_beta_matches_fd_state_sensitivity(self):
        prob, x0, z = random_smooth_problem(5, 3, 2, 8)
        roll, adj = _snapshot(prob, x0, z)
        h = 1e-6
        for flat in range(prob.dims.z_len):
            sp = hessian_row(prob, roll, adj, z,
                             RowIndex.from_flat(prob.dims, flat))
            zp, zm = z.copy(), z.copy()
            zp[flat] += h
            zm[flat] -= h
            sens = (roll_forward(prob, x0, zp).states
                    - roll_forward(prob, x0, zm).states) / (2 * h)
            assert max_rel_error(sp.betas, sens) <= 1e-5


class TestHessian:
    def test_lqr_hand_matrix(self, lqr1):
        np.testing.assert_allclose(hessian(lqr1, 1.0, np.zeros(2)),
                                   [[10.86, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_random_problem_vs_fd(self):
        prob, x0, z = random_smooth_problem(9, 3, 2, 8)
        assert max_rel_error(hessian(prob, x0, z),
                             fd_hessian(prob, x0, z)) <= 1e-4

    def test_unicycle_control_blocks(self):
        """At zero controls the per-stage control-control block is the
        quadratic control penalty diag(1, 1) plus state-coupling terms."""
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        z = np.zeros(prob.dims.z_len)
        h = hessian(prob, x0, z)
        ref = fd_hessian(prob, x0, z)
        assert max_rel_error(h, ref) <= 1e-4
        m, horizon = prob.dims.m, prob.dims.N
        penalty = np.diag(2.0 * np.asarray(spec.R_weights))
        for k in range(horizon):
            block = h[k * m:(k + 1) * m, k * m:(k + 1) * m]
            coupling = block - penalty
            ref_coupling = ref[k * m:(k + 1) * m, k * m:(k + 1) * m] - penalty
            np.testing.assert_allclose(coupling, ref_coupling, atol=2e-4)
        # padded terminal block carries no curvature at all
        assert np.array_equal(h[horizon * m:, :], np.zeros((m, h.shape[0])))

    def test_matches_row_by_row_assembly(self):
        prob, x0, z = random_smooth_problem(21, 4, 3, 7)
        roll, adj = _snapshot(prob, x0, z)
        h = hessian(prob, x0, z)
        refs = [_row_by_row(prob, roll, adj, z, flat)
                for flat in range(prob.dims.z_len)]
        stacked = np.vstack([row for _, _, row in refs])
        stacked = 0.5 * (stacked + stacked.T)
        np.testing.assert_allclose(h, stacked, rtol=1e-13, atol=1e-13)
        for flat, (betas, alphas, row) in enumerate(refs):
            sp = hessian_row(prob, roll, adj, z,
                             RowIndex.from_flat(prob.dims, flat))
            np.testing.assert_allclose(sp.betas, betas, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(sp.alphas, alphas, rtol=1e-13,
                                       atol=1e-13)
            np.testing.assert_allclose(sp.row, row, rtol=1e-13, atol=1e-13)

    def test_symmetry_defect_within_tolerance(self):
        for seed in (1, 2, 3):
            prob, x0, z = random_smooth_problem(seed, 3, 2, 10)
            roll, adj = _snapshot(prob, x0, z)
            raw = raw_hessian(prob, roll, adj, z)
            defect = np.abs(raw - raw.T).max()
            assert defect <= 1e-8 * (1.0 + np.abs(raw).max())

    def test_returned_matrix_exactly_symmetric(self):
        prob, x0, z = random_smooth_problem(4, 2, 2, 6)
        h = hessian(prob, x0, z)
        assert np.array_equal(h, h.T)

    def test_quadratic_model_exact_for_lqr(self, lqr15):
        rng = np.random.default_rng(8)
        z = rng.normal(size=lqr15.dims.z_len)
        adj = gradient(lqr15, 1.0, z)
        h = hessian(lqr15, 1.0, z)
        j0 = eval_cost(lqr15, 1.0, z)
        for _ in range(5):
            d = rng.normal(size=z.size)
            model = j0 + adj.gradient @ d + 0.5 * d @ h @ d
            actual = eval_cost(lqr15, 1.0, z + d)
            assert abs(actual - model) <= 1e-10 * max(1.0, abs(actual))

    def test_missing_second_order_oracles(self):
        base = build_lqr(LqrSpec(N=2))
        stripped = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost, d_dynamics=base.d_dynamics,
            d_stage_cost=base.d_stage_cost,
        )
        with pytest.raises(CurvatureOracleError,
                           match="requires dd_\\* oracles or FD problem"):
            hessian(stripped, 1.0, np.zeros(3))

    def test_nonfinite_stage_data_reports_stage(self):
        base = build_lqr(LqrSpec(N=3))

        def bad_dd(x, u, k):
            if k == 2:
                return np.array([[np.nan]]), np.zeros((1, 1)), np.zeros((1, 1))
            return base.dd_stage_cost(x, u, k)

        broken = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost, d_dynamics=base.d_dynamics,
            d_stage_cost=base.d_stage_cost, dd_stage_cost=bad_dd,
            dd_dynamics_contracted=base.dd_dynamics_contracted,
        )
        with pytest.raises(Exception, match="stage 2"):
            hessian(broken, 1.0, np.zeros(4))

    def test_asymmetry_beyond_tolerance_raises(self):
        base = zero_cost_problem(n=2, m=2, N=3)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])

        def skewed_dd(x, u, k):
            cxx, cxu, cuu = base.dd_stage_cost(x, u, k)
            return cxx, cxu, cuu + skew  # violates the symmetry contract

        broken = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost, d_dynamics=base.d_dynamics,
            d_stage_cost=base.d_stage_cost, dd_stage_cost=skewed_dd,
            dd_dynamics_contracted=base.dd_dynamics_contracted,
        )
        with pytest.raises(AsymmetricHessianError) as err:
            hessian(broken, np.ones(2), np.zeros(base.dims.z_len))
        assert err.value.defect == pytest.approx(1.0)

    def test_dynamics_never_requested_at_last_stage(self):
        base, x0, z = random_smooth_problem(13, 2, 1, 4)

        def guarded_d_dynamics(x, u, k):
            assert k < base.dims.N
            return base.d_dynamics(x, u, k)

        def guarded_dd_contracted(w, x, u, k):
            assert k < base.dims.N
            return base.dd_dynamics_contracted(w, x, u, k)

        guarded = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost, d_dynamics=guarded_d_dynamics,
            d_stage_cost=base.d_stage_cost,
            dd_stage_cost=base.dd_stage_cost,
            dd_dynamics_contracted=guarded_dd_contracted,
        )
        hessian(guarded, x0, z)  # must not trip the guards
