"""Second-order sweeps: the stage curvature stack, the Hessian-vector
product, full assembly, and symmetry handling."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zero_cost_problem
from costate import (AsymmetricHessianError, CurvatureOracleError,
                     DimensionMismatchError, LqrSpec, ProblemDef,
                     SolverConfig, UnicycleSpec, build_lqr,
                     build_unicycle_tracking, eval_cost,
                     fd_hessian, forward_adjoint, gradient, hessian,
                     hessian_product, max_rel_error, one_row,
                     random_smooth_problem, roll_forward, stage_curvature,
                     step_direction)
from costate.curvature import hessian_with, symmetric_part
from costate.problem import central_difference


def _snapshot(prob, x0, z):
    roll, adj = forward_adjoint(prob, x0, z)
    return roll, adj


def _product(prob, x0, z, v=None):
    """hessian_product at (x0, z); v defaults to the identity."""
    roll, adj = _snapshot(prob, x0, z)
    if v is None:
        v = np.eye(prob.dims.z_len)
    return hessian_product(adj, stage_curvature(prob, roll, adj), v)


def _row_by_row(prob, roll, adj, flat):
    """Reference for one Hessian row: the single-row forward and backward
    recursions as plain loops over the oracles, independent of the
    vectorized product.  Returns (betas, row)."""
    dims = prob.dims
    i, comp = divmod(flat, dims.m)
    xs, u = roll.states, roll.controls
    fx, fu, cxx, cxu, cuu = [], [], [], [], []
    for k in range(dims.N + 1):
        xx, xu, uu = (np.asarray(v, dtype=float)
                      for v in one_row(prob.dd_stage_cost)(xs[k], u[k], k))
        if k < dims.N:
            jx, ju = one_row(prob.d_dynamics)(xs[k], u[k], k)
            fx.append(np.asarray(jx, dtype=float))
            fu.append(np.asarray(ju, dtype=float))
            wxx, wxu, wuu = one_row(prob.dd_dynamics_contracted)(
                adj.costates[k], xs[k], u[k], k)
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
    return betas, row


def _differenced_betas(prob, x0, z, flat, h=1e-6):
    zp, zm = z.copy(), z.copy()
    zp[flat] += h
    zm[flat] -= h
    return (roll_forward(prob, x0, zp).states
            - roll_forward(prob, x0, zm).states) / (2 * h)


def _assert_matches_row_by_row(prob, x0, z):
    roll, adj = _snapshot(prob, x0, z)
    hv, dx = _product(prob, x0, z)
    width = prob.dims.z_len
    assert dx.shape == (prob.dims.N + 1, prob.dims.n, width)
    assert hv.shape == (width, width)
    for flat in range(width):
        betas, row = _row_by_row(prob, roll, adj, flat)
        np.testing.assert_allclose(dx[..., flat], betas,
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(hv[:, flat], row,
                                   rtol=1e-13, atol=1e-13)
    return hv, dx


class TestHessianRow:
    """Columns H e_r of the Hessian, from one product with the identity."""

    def test_lqr_hand_values(self, lqr1):
        hv, dx = _product(lqr1, 1.0, np.zeros(2))
        np.testing.assert_allclose(dx[..., 0].ravel(), [0.0, 0.9],
                                   rtol=1e-14)
        # d2J/du0^2 = 2r + 2 p b^2 = 10.86
        np.testing.assert_allclose(hv[:, 0], [10.86, 0.0], rtol=1e-12)

    def test_zero_cost_rows_vanish(self):
        prob = zero_cost_problem()
        z = np.ones(prob.dims.z_len)
        hv, _ = _product(prob, np.ones(2), z)
        assert np.array_equal(hv, np.zeros((prob.dims.z_len,) * 2))

    def test_quadratic_row_independent_of_z(self, lqr15):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(2):
            z = rng.normal(size=lqr15.dims.z_len)
            rows.append(_product(lqr15, 1.0, z)[0][:, 4])
        np.testing.assert_allclose(rows[0], rows[1], atol=1e-12)

    def test_beta_matches_fd_state_sensitivity(self):
        prob, x0, z = random_smooth_problem(5, 3, 2, 8)
        _, dx = _product(prob, x0, z)
        for flat in range(prob.dims.z_len):
            assert max_rel_error(dx[..., flat],
                                 _differenced_betas(prob, x0, z, flat)) <= 1e-5


class TestSecondOrderPass:
    """hessian_product: one forward sensitivity pass and one backward
    second-order costate pass over a block of directions."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_match_row_by_row_and_differenced_rollouts(
            self, n, m, n_last, seed):
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        _, dx = _assert_matches_row_by_row(prob, x0, z)
        for flat in range(prob.dims.z_len):
            assert max_rel_error(dx[..., flat],
                                 _differenced_betas(prob, x0, z, flat)) <= 1e-5

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_block_product_matches_rows_and_directional_rollouts(
            self, n, m, n_last, k, seed):
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        v = np.random.default_rng(seed).normal(size=(prob.dims.z_len, k))
        roll, adj = _snapshot(prob, x0, z)
        hv, dx = _product(prob, x0, z, v)
        assert hv.shape == v.shape
        assert dx.shape == (n_last + 1, n, k)
        rows = np.vstack([_row_by_row(prob, roll, adj, flat)[1]
                          for flat in range(prob.dims.z_len)])
        # Column r of H is row r as the reference assembles it.
        assert max_rel_error(hv, rows.T @ v) <= 1e-13
        gram = v.T @ hv  # gram[i, j] = v_i' H v_j
        assert max_rel_error(gram, gram.T) <= 1e-12
        sens = central_difference(
            lambda a: roll_forward(prob, x0, z + v @ a).states,
            np.zeros(k), 1e-6)
        assert max_rel_error(dx, sens) <= 1e-5

    # A vector, a block with a row too many, and a block with an extra
    # axis: an IndexError, numpy's reshape ValueError and a silent
    # acceptance before the block had a shape rule.  A stage stack short
    # of stages was an IndexError.
    @pytest.mark.parametrize("block, shape", [
        ("v", (4,)), ("v", (5, 1)), ("v", (4, 1, 1)), ("c", (2, 2, 2))])
    def test_wrong_shape_block_is_a_dimension_error(self, block, shape):
        prob = build_lqr(LqrSpec(N=3))
        z = np.zeros(prob.dims.z_len)
        roll, adj = _snapshot(prob, np.ones(1), z)
        args = {"c": stage_curvature(prob, roll, adj), "v": np.eye(4)}
        args[block] = np.ones(shape)
        expected = {"c": "(4, 2, 2)", "v": "(4, K)"}[block]
        message = f"{block} has shape {shape}, expected {expected}"
        with pytest.raises(DimensionMismatchError,
                           match="^" + re.escape(message) + "$"):
            hessian_product(adj, args["c"], args["v"])

    def test_long_horizon_product_memory(self):
        prob, x0, z = random_smooth_problem(2, 4, 2, 800)
        roll, adj = _snapshot(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        v = np.random.default_rng(0).normal(size=(prob.dims.z_len, 3))
        tracemalloc.start()
        try:
            hessian_product(adj, c, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_long_horizon_newton_residual(self):
        """The stagewise Riccati solve against the product: at depth 0,
        (R + H) d = g to roundoff at N = 800."""
        prob, x0, z = random_smooth_problem(2, 4, 2, 800)
        roll, adj = _snapshot(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        r = SolverConfig().r_reg
        g = adj.gradient
        d = step_direction(adj, c, g, r, 0)
        hd = hessian_product(adj, symmetric_part(c), d[:, None])[0][:, 0]
        residual = np.abs(r * d + hd - g).max()
        assert residual <= 1e-12 * np.abs(g).max()

    def test_reuses_the_sweep_jacobians(self):
        base, x0, z = random_smooth_problem(17, 3, 2, 6)
        calls = Counter()

        def counted(name):
            fun = one_row(getattr(base, name))

            def wrapper(*args):
                calls[name] += 1
                return fun(*args)
            return wrapper

        names = ("d_dynamics", "dd_stage_cost", "dd_dynamics_contracted")
        counting = ProblemDef.from_stagewise(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=one_row(base.stage_cost),
            d_stage_cost=one_row(base.d_stage_cost),
            **{name: counted(name) for name in names})
        roll, adj = forward_adjoint(counting, x0, z)
        calls.clear()
        h = hessian_with(counting, roll, adj)
        n_last = base.dims.N
        assert calls == Counter({"dd_stage_cost": n_last + 1,
                                 "dd_dynamics_contracted": n_last})
        assert np.array_equal(h, hessian(base, x0, z))


class TestSnapshot:
    """A rollout carries the controls it was rolled out under, so the
    sweeps read one snapshot and no z that must match it."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_rollout_keeps_a_copy_of_its_controls(self, n, m, n_last, seed):
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        edited = z.copy()
        roll = roll_forward(prob, x0, edited)
        assert roll.controls.tobytes() == z.reshape(n_last + 1, m).tobytes()
        edited += 0.5
        assert roll.controls.tobytes() == z.reshape(n_last + 1, m).tobytes()
        assert np.array_equal(hessian_with(prob, *forward_adjoint(prob, x0, z)),
                              hessian(prob, x0, z))


class TestStageCurvature:
    def test_blocks_are_the_stage_hamiltonian_hessians(self):
        prob, x0, z = random_smooth_problem(23, 3, 2, 5)
        roll, adj = _snapshot(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        dims = prob.dims
        n, u = dims.n, z.reshape(dims.N + 1, dims.m)
        assert c.shape == (dims.N + 1, n + dims.m, n + dims.m)
        for k in range(dims.N + 1):
            blocks = [np.asarray(v, dtype=float) for v in
                      one_row(prob.dd_stage_cost)(roll.states[k], u[k], k)]
            if k < dims.N:
                blocks = [b + np.asarray(w, dtype=float) for b, w in zip(
                    blocks, one_row(prob.dd_dynamics_contracted)(
                        adj.costates[k], roll.states[k], u[k], k))]
            xx, xu, uu = blocks
            np.testing.assert_array_equal(c[k, :n, :n], xx)
            np.testing.assert_array_equal(c[k, :n, n:], xu)
            np.testing.assert_array_equal(c[k, n:, :n], xu.T)
            np.testing.assert_array_equal(c[k, n:, n:], uu)


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
        stacked = np.vstack([_row_by_row(prob, roll, adj, flat)[1]
                             for flat in range(prob.dims.z_len)])
        stacked = 0.5 * (stacked + stacked.T)
        np.testing.assert_allclose(h, stacked, rtol=1e-13, atol=1e-13)
        _assert_matches_row_by_row(prob, x0, z)

    def test_symmetry_defect_within_tolerance(self):
        for seed in (1, 2, 3):
            prob, x0, z = random_smooth_problem(seed, 3, 2, 10)
            raw, _ = _product(prob, x0, z)
            defect = np.abs(raw - raw.T).max()
            assert defect <= 1e-8 * (1.0 + np.abs(raw).max())

    def test_returned_matrix_exactly_symmetric(self):
        prob, x0, z = random_smooth_problem(4, 2, 2, 6)
        h = hessian(prob, x0, z)
        assert np.array_equal(h, h.T)

    def test_symmetric_part_into_a_buffer(self):
        # The solver symmetrizes into the stack its workspace owns; the bits
        # and the error must be those of the allocating form.
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3, 3))
        a = a + np.swapaxes(a, 1, 2) + 1e-12 * rng.normal(size=a.shape)
        buf = np.full_like(a, np.nan)
        assert symmetric_part(a, out=buf) is buf
        assert np.array_equal(buf, symmetric_part(a))
        assert np.array_equal(buf, 0.5 * (a + np.swapaxes(a, 1, 2)))
        a[2, 0, 1] += 1.0
        with pytest.raises(AsymmetricHessianError) as fresh:
            symmetric_part(a)
        with pytest.raises(AsymmetricHessianError) as into:
            symmetric_part(a, out=buf)
        assert (str(into.value), into.value.defect, into.value.index) == (
            str(fresh.value), fresh.value.defect, fresh.value.index)

    @pytest.mark.parametrize("a", [[[1.0, np.nan], [0.0, 1.0]],
                                   [[np.nan, 0.0], [0.0, 1.0]]])
    def test_a_nan_fails_the_symmetry_check(self, a):
        # A NaN defect used to pass defect > tol and come back as a NaN
        # matrix.
        with pytest.raises(AsymmetricHessianError):
            symmetric_part(np.array(a))

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
            return one_row(base.dd_stage_cost)(x, u, k)

        broken = ProblemDef.from_stagewise(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=one_row(base.stage_cost),
            d_dynamics=one_row(base.d_dynamics),
            d_stage_cost=one_row(base.d_stage_cost), dd_stage_cost=bad_dd,
            dd_dynamics_contracted=one_row(base.dd_dynamics_contracted),
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
            return one_row(base.d_dynamics)(x, u, k)

        def guarded_dd_contracted(w, x, u, k):
            assert k < base.dims.N
            return one_row(base.dd_dynamics_contracted)(w, x, u, k)

        guarded = ProblemDef.from_stagewise(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=one_row(base.stage_cost), d_dynamics=guarded_d_dynamics,
            d_stage_cost=one_row(base.d_stage_cost),
            dd_stage_cost=one_row(base.dd_stage_cost),
            dd_dynamics_contracted=guarded_dd_contracted,
        )
        hessian(guarded, x0, z)  # must not trip the guards
