"""Second-order iteration, inner recursion, and the gradient baseline."""

import dataclasses
import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import costate.adjoint
import costate.curvature
import costate.solver
from costate import (AsymmetricHessianError, DimensionMismatchError, Dims,
                     LinearSolveError, LqrSpec, NumericalBlowupError,
                     ProblemDef, SolverConfig, Termination, UnicycleSpec,
                     build_lqr, build_unicycle_tracking, eval_cost,
                     forward_adjoint, gradient, hessian, minimize,
                     minimize_gd, one_row, random_smooth_problem,
                     hessian_product, riccati_lqr, stage_curvature,
                     step_direction)
from costate.problem import BlockBidiagonal, central_difference
from costate.solver import B_MAX
from dense_twin import minimize_dense


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
    return adj, stage_curvature(prob, roll, adj), hessian(prob, x0, z)


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

    def test_wrong_length_gradient_is_a_dimension_error(self):
        prob = build_lqr(LqrSpec(N=3))
        adj, c, _ = _snapshot(prob, np.ones(1), np.zeros(4))
        with pytest.raises(DimensionMismatchError,
                           match=r"^g has shape \(3,\), expected \(4,\)$"):
            step_direction(adj, c, np.ones(3), 0.1, 0)
        # A stage stack short of stages was numpy's broadcast ValueError.
        with pytest.raises(DimensionMismatchError, match=r"^c has shape "
                           r"\(2, 2, 2\), expected \(4, 2, 2\)$"):
            step_direction(adj, c[:2], np.ones(4), 0.1, 0)


def _one_stage_problem(weight, stage=2, n_last=4):
    """n = 2, m = 1, every control weight 1 but the given stage's."""
    weights = [np.eye(1)] * (n_last + 1)
    weights[stage] = weight * np.eye(1)
    return _lq_problem(0.9 * np.eye(2), np.ones((2, 1)), np.eye(2),
                       weights, n_last)


def _blocks(n_last):
    """(block count, stages per block) of StagewiseFactor's condensing: one
    block of up to 2 B_MAX stages, else ceil((N+1) / B_MAX) blocks."""
    stages = n_last + 1
    count = 1 if stages <= 2 * B_MAX else -(-stages // B_MAX)
    return count, -(-stages // count)


# A horizon of several blocks whose last one is padded.
PADDED = 2 * B_MAX
assert _blocks(PADDED)[0] > 1 and np.prod(_blocks(PADDED)) > PADDED + 1


def _stagewise_referee(adj, c, r, b):
    """(R + H)^{-1} b by the stage-wise Riccati recursion, one control pivot
    per stage from the last; LinearSolveError names the first that fails."""
    stages, n, m = adj.fu.shape
    q = 0.5 * (c + np.swapaxes(c, 1, 2))
    b = b.reshape(stages, m)
    p, s, gains, ffs = np.zeros((n, n)), np.zeros(n), [], []
    for k in range(stages - 1, -1, -1):
        f = np.hstack([adj.fx[k], adj.fu[k]])
        qk = q[k] + f.T @ p @ f
        quu = qk[n:, n:] + r * np.eye(m)
        try:
            np.linalg.cholesky(quu)
        except np.linalg.LinAlgError:
            raise LinearSolveError("pivot failed", stage=k) from None
        gain = -np.linalg.solve(quu, qk[n:, :n])
        ffs.append(np.linalg.solve(quu, b[k] - adj.fu[k].T @ s))
        gains.append(gain)
        p = qk[:n, :n] + qk[:n, n:] @ gain
        s = (adj.fx[k] + adj.fu[k] @ gain).T @ s - gain.T @ b[k]
    dx, du = np.zeros(n), []
    for k, (gain, ff) in enumerate(zip(gains[::-1], ffs[::-1])):
        du.append(ff + gain @ dx)
        dx = adj.fx[k] @ dx + adj.fu[k] @ du[-1]
    return np.concatenate(du)


def _failed_stage(solve):
    """solve()'s result, or the stage its LinearSolveError names."""
    try:
        return solve(), None
    except LinearSolveError as exc:
        return None, exc.stage


def _check_workspace_reuse(n_last, stage):
    """A failed factorization of the one-stage problem in a workspace, then
    good ones there, match fresh workspaces bit for bit."""
    g = np.random.default_rng(3).normal(size=n_last + 1)
    x0, z0 = np.ones(2), np.zeros(n_last + 1)
    bad_adj, bad_c, _ = _snapshot(
        _one_stage_problem(-5000.0, stage, n_last), x0, z0)
    adj, c, _ = _snapshot(_one_stage_problem(2.0, stage, n_last), x0, z0)
    r, retry_r = 0.1, 1e4
    workspace = costate.solver.StagewiseFactor(n_last, 2, 1)
    with pytest.raises(LinearSolveError) as err:
        step_direction(bad_adj, bad_c, g, r, 2, _factor=workspace)
    assert err.value.stage == stage
    reused = step_direction(adj, c, g, r, 2, _factor=workspace)
    assert np.array_equal(reused, step_direction(adj, c, g, r, 2))
    # The escalation retry: the same snapshot, a larger regularizer.
    with pytest.raises(LinearSolveError):
        step_direction(bad_adj, bad_c, g, r, 2, _factor=workspace)
    retried = step_direction(bad_adj, bad_c, g, retry_r, 2,
                             _factor=workspace)
    assert np.array_equal(
        retried, step_direction(bad_adj, bad_c, g, retry_r, 2))


def _check_pivot_attribution(n_last):
    """Each stage of the one-stage problem in turn fails its pivot at every
    regularizer up to the cap, and LinearSolveError names it."""
    g = np.ones(n_last + 1)
    for k in range(n_last + 1):
        prob = _one_stage_problem(-5e8, k, n_last)
        adj, c, _ = _snapshot(prob, np.ones(2), np.zeros(n_last + 1))
        with pytest.raises(LinearSolveError) as err:
            step_direction(adj, c, g, 0.1, 0)
        assert err.value.stage == k


class TestStagewiseSolve:
    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 40),
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

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3),
           n_last=st.one_of(
               st.integers(0, 40), st.integers(0, B_MAX - 1),
               st.builds(lambda k, e: B_MAX * k + e - 1, st.integers(1, 4),
                         st.sampled_from([-1, 1])).filter(lambda v: v <= 40)),
           seed=st.integers(0, 2**32 - 1), r=st.sampled_from([1e-3, 0.1, 1.0]),
           scale=st.sampled_from([1.0, 20.0]))
    @example(n=2, m=1, n_last=0, seed=0, r=0.1, scale=1.0)
    @example(n=1, m=2, n_last=1, seed=1, r=0.1, scale=1.0)
    @example(n=3, m=2, n_last=B_MAX - 1, seed=2, r=0.1, scale=1.0)
    @example(n=3, m=2, n_last=PADDED, seed=3, r=0.1, scale=20.0)
    # Horizons of one block, the last of them (2 B_MAX stages) and the
    # first of three, the last of three and the first of four: the factor
    # skips the P products of its first block and the Schur update of
    # block 0, and a solve is one product on one block and two band solves
    # on more.
    @example(n=2, m=2, n_last=B_MAX - 1, seed=4, r=1e-3, scale=20.0)
    @example(n=2, m=1, n_last=B_MAX, seed=5, r=0.1, scale=1.0)
    @example(n=4, m=3, n_last=2 * B_MAX - 1, seed=6, r=1.0, scale=1.0)
    @example(n=1, m=2, n_last=2 * B_MAX, seed=7, r=0.1, scale=20.0)
    @example(n=3, m=1, n_last=3 * B_MAX - 1, seed=8, r=1e-3, scale=1.0)
    @example(n=4, m=2, n_last=3 * B_MAX, seed=9, r=0.1, scale=1.0)
    def test_matches_the_stagewise_recursion(self, n, m, n_last, seed, r,
                                             scale):
        # Horizons of one block, of several, and of B_MAX k +- 1 stages,
        # which pad the last block.  The scale of 20 makes about a third of
        # the systems indefinite: then both fail, at the same stage.
        prob, x0, z = random_smooth_problem(seed, n, m, n_last)
        roll, adj = forward_adjoint(prob, scale * x0, scale * z)
        c = stage_curvature(prob, roll, adj)
        g = np.random.default_rng(seed).normal(size=prob.dims.z_len)
        want, want_stage = _failed_stage(
            lambda: _stagewise_referee(adj, c, r, g))
        got, got_stage = _failed_stage(
            lambda: step_direction(adj, c, g, r, 0))
        assert got_stage == want_stage
        if want is not None:
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_failed_pivot_is_attributed_to_its_stage_at_block_edges(self):
        # Every stage in turn, the first and last of each block and the
        # padded block's stage N included, holds a control curvature that
        # no regularizer up to the cap absorbs.
        _check_pivot_attribution(PADDED)

    @pytest.mark.parametrize("n_last", [B_MAX - 1, 2 * B_MAX - 1, 2 * B_MAX,
                                        3 * B_MAX - 1],
                             ids=["one-block", "one-block-longest",
                                  "three-blocks-padded", "three-blocks"])
    def test_failed_pivot_is_attributed_on_one_and_three_blocks(self, n_last):
        # One block, whose factor skips both the P products and the Schur
        # update, and three, the fewest that a longer horizon has, whose
        # first block skips the P products and block 0 the Schur update.
        _check_pivot_attribution(n_last)

    @pytest.mark.parametrize("n_last, count", [
        (0, 1), (B_MAX - 1, 1), (2 * B_MAX - 1, 1), (2 * B_MAX, 3)])
    def test_horizons_of_up_to_two_b_max_stages_are_one_block(self, n_last,
                                                              count):
        # Past 2 B_MAX stages the horizon is cut into ceil((N+1) / B_MAX)
        # blocks; up to it, into one unpadded block.
        assert _blocks(n_last)[0] == count
        workspace = costate.solver.StagewiseFactor(n_last, 2, 1)
        assert len(workspace.blocks) == count
        if count == 1:
            assert workspace.b.size == n_last + 1

    @pytest.mark.parametrize("case", ["N=0", "N=B_MAX-1", "unicycle",
                                      "N=2B_MAX-1"])
    def test_one_block_solve_matches_the_stagewise_recursion(self, case):
        # A one-block solve is one product with the pivot's inverse, as
        # s_nb = 0 and dx_0 = 0 zero the rest of the passes.
        if case == "unicycle":
            x0 = np.asarray(UnicycleSpec().X0)
            prob = build_unicycle_tracking(UnicycleSpec(), 0, x0)
            z = np.zeros(prob.dims.z_len)
        else:
            n_last = {"N=0": 0, "N=B_MAX-1": B_MAX - 1,
                      "N=2B_MAX-1": 2 * B_MAX - 1}[case]
            prob, x0, z = random_smooth_problem(11, 3, 2, n_last)
        roll, adj = forward_adjoint(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        g = np.random.default_rng(11).normal(size=prob.dims.z_len)
        dims, r = prob.dims, 10.0
        workspace = costate.solver.StagewiseFactor(dims.N, dims.n, dims.m)
        assert len(workspace.blocks) == 1
        workspace.factor(adj, c, r)
        got = workspace.in_stages(workspace.solve(workspace.in_blocks(g)))
        want = _stagewise_referee(adj, c, r, g)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

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
            stage_curvature(broken, roll, adj)
        assert err.value.stage == 3
        with pytest.raises(NumericalBlowupError) as err:
            minimize(broken, x0, z0, SolverConfig())
        assert err.value.stage == 3

    @pytest.mark.parametrize("value, entry", [
        (np.nan, (2, 0, 0)), (np.inf, (2, 0, 0)), (np.inf, (2, 0, 1))],
        ids=["nan-diagonal", "inf-diagonal", "inf-off-diagonal"])
    def test_non_finite_stack_is_a_named_blowup(self, value, entry):
        # A caller's stack gets stage_curvature's error, before the symmetry
        # check reads the NaN as an asymmetry or subtracts infinities, and
        # before an infinity off the diagonal fails a later stage's pivot.
        # The suite turns numpy's RuntimeWarning into an error.
        prob, x0, z = random_smooth_problem(3, 3, 2, 6)
        roll, adj = forward_adjoint(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        c[entry] = value
        workspace = costate.solver.StagewiseFactor(6, 3, 2)
        for call in (lambda: step_direction(adj, c, adj.gradient, 0.1, 0),
                     lambda: workspace.factor(adj, c, 0.1)):
            with pytest.raises(NumericalBlowupError) as err:
                call()
            assert (err.value.stage, err.value.what) == (
                2, "second-order stage data")

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
        # Stage 2's control curvature is below -REG_MAX, so no regularizer
        # up to the cap factors it.
        prob = _one_stage_problem(-5e8)
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
        _check_workspace_reuse(4, 2)

    def test_workspace_reuse_on_a_padded_horizon(self):
        # The failed factorization stops at a block's first stage.
        _check_workspace_reuse(PADDED, _blocks(PADDED)[1])

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("case", ["unicycle", "random"])
    def test_block_order_levels_keep_the_stage_order_bytes(self, case,
                                                            depth):
        # step_direction's inner levels run in the factor's block order;
        # the stage-order recursion d = solve(g + r d) moves every
        # right-hand side into that order and every direction out of it.
        # Both horizons pad their last block of three or more.  The
        # unicycle's pivots at N_p = 18 from zero first factor at r = 10,
        # minimize's second escalation.
        if case == "unicycle":
            spec = UnicycleSpec(N_p=18)
            x0 = np.asarray(spec.X0)
            prob = build_unicycle_tracking(spec, 0, x0)
            z, r = np.zeros(prob.dims.z_len), 10.0
        else:
            prob, x0, z = random_smooth_problem(2, 4, 2, 40)
            r = 0.1
        roll, adj = forward_adjoint(prob, x0, z)
        c = stage_curvature(prob, roll, adj)
        g, dims = adj.gradient, prob.dims
        workspace = costate.solver.StagewiseFactor(dims.N, dims.n, dims.m)
        got = step_direction(adj, c, g, r, depth, _factor=workspace)

        def stage_order(b):
            return workspace.in_stages(workspace.solve(
                workspace.in_blocks(b)))

        want = stage_order(g)
        for _ in range(depth):
            want = stage_order(g + r * want)
        assert got.tobytes() == want.tobytes()
        # What makes them equal: a padded stage's entries of a block-ordered
        # direction are exactly zero, as those of the gradient are.
        padded = np.setdiff1d(np.arange(workspace.b.size), workspace.order)
        assert padded.size
        d = workspace.solve(workspace.in_blocks(g)).reshape(-1)
        assert not d[padded].any()

    def test_workspace_after_an_asymmetric_stack_matches_a_fresh_one(self):
        # The symmetry check writes the defect into the workspace's stack
        # before it raises; the next factorization must not read it.
        g = np.random.default_rng(4).normal(size=5)
        adj, c, _ = _snapshot(_one_stage_problem(2.0), np.ones(2), np.zeros(5))
        skewed = c.copy()
        skewed[2, 0, 1] += 1.0
        workspace = costate.solver.StagewiseFactor(4, 2, 1)
        with pytest.raises(AsymmetricHessianError):
            step_direction(adj, skewed, g, 0.1, 2, _factor=workspace)
        reused = step_direction(adj, c, g, 0.1, 2, _factor=workspace)
        assert np.array_equal(reused, step_direction(adj, c, g, 0.1, 2))


def _banded_snapshot(n_last):
    """(adj, stage curvature, gradient) of random_smooth_problem(2, 4, 2, N)."""
    prob, x0, z = random_smooth_problem(2, 4, 2, n_last)
    roll, adj = forward_adjoint(prob, x0, z)
    return adj, stage_curvature(prob, roll, adj), adj.gradient


def _residual(adj, c, d, rhs, r):
    """||(R + H) d - rhs|| / ||rhs||, H d from one Hessian-vector product."""
    hd = hessian_product(adj, c, d[:, None])[0][:, 0]
    return np.linalg.norm(hd + r * d - rhs) / np.linalg.norm(rhs)


class TestBandedSolve:
    """StagewiseFactor's solves checked against (R + H) itself: one block
    of one, two and three stages (N = 0, 1, 2), whose solve is one product;
    three blocks (N = 2 B_MAX), the fewest whose two band passes have a
    coupling; and the long horizon (N = 800)."""

    @pytest.mark.parametrize("n_last", [0, 1, 2, 2 * B_MAX, 800])
    def test_depth_zero_and_three_solve_their_systems(self, n_last):
        adj, c, g = _banded_snapshot(n_last)
        r = 1.0
        d0 = step_direction(adj, c, g, r, 0)
        assert _residual(adj, c, d0, g, r) <= 1e-9
        # Depth 3 solves (R + H) d3 = g + R d2 against the same factors.
        d2 = step_direction(adj, c, g, r, 2)
        d3 = step_direction(adj, c, g, r, 3)
        assert _residual(adj, c, d3, g + r * d2, r) <= 1e-9

    @pytest.mark.parametrize("n_last", [0, 1, 2, 2 * B_MAX, 800])
    def test_refactor_after_a_failed_pivot_refills_the_bands(self, n_last):
        # The workspace's bands hold the last good factorization when a
        # later one fails; the next must overwrite every block of them.
        adj, c, g = _banded_snapshot(n_last)
        workspace = costate.solver.StagewiseFactor(n_last, 4, 2)
        step_direction(adj, 2.0 * c, g, 0.5, 1, _factor=workspace)
        bad = c.copy()
        bad[n_last // 2, 4:, 4:] -= 1e6 * np.eye(2)
        with pytest.raises(LinearSolveError) as err:
            step_direction(adj, bad, g, 0.5, 1, _factor=workspace)
        assert err.value.stage == n_last // 2
        r = 1.0
        reused = step_direction(adj, c, g, r, 3, _factor=workspace)
        assert np.array_equal(reused, step_direction(adj, c, g, r, 3))
        d2 = step_direction(adj, c, g, r, 2)
        assert _residual(adj, c, reused, g + r * d2, r) <= 1e-9

    def test_workspace_reads_no_entry_it_did_not_write(self, monkeypatch):
        _check_no_unwritten_reads(monkeypatch, 10)

    def test_padded_workspace_reads_no_entry_it_did_not_write(
            self, monkeypatch):
        _check_no_unwritten_reads(monkeypatch, PADDED)


def _check_no_unwritten_reads(monkeypatch, n_last):
    """Every buffer the workspace leaves uninitialised is written before a
    solve reads it, and the terminal terms s_nb = 0 and dx_0 = 0 and the
    padded stages' entries are zeroed once: with np.empty's memory filled
    with NaN, the directions keep their bits.  s_nb reaches a solve only
    through Gamma_B' s_nb with the last block's Gamma_B = 0, so only a NaN
    there shows."""
    adj, c, g = _banded_snapshot(n_last)
    want = step_direction(adj, c, g, 1.0, 2)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    workspace = costate.solver.StagewiseFactor(n_last, 4, 2)
    monkeypatch.undo()
    got = step_direction(adj, c, g, 1.0, 2, _factor=workspace)
    assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("stacked", [True, False],
                             ids=["rollout", "per-stage"])
    @pytest.mark.parametrize("step, offset, escalates", [
        (3, [0.1, 0.1, 0.1], False),
        (0, [0.0, 0.0, 0.0], True),
        (0, [0.5, -0.3, 0.4], True),
    ])
    def test_one_rollout_per_trial(self, caplog, step, offset, escalates,
                                   stacked):
        # The initial rollout, then one per trial point: an accepted trial's
        # rollout is reused by the next iteration, not recomputed.  With its
        # rollout oracle the unicycle makes one rollout call per rollout
        # and no dynamics call; without it, one dynamics call per stage.
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0) + np.asarray(offset)
        base = build_unicycle_tracking(spec, step, x0)
        if not stacked:
            base = dataclasses.replace(base, rollout=None)
        calls = {"dynamics": 0, "stage_cost": 0, "rollout": 0}

        def counted(name):
            fn = getattr(base, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        prob = dataclasses.replace(base, **{name: counted(name)
                                            for name in calls
                                            if getattr(base, name)})
        caplog.set_level(logging.INFO, logger="costate.solver")
        rep = minimize(prob, x0, np.zeros(prob.dims.z_len), SolverConfig())
        assert rep.termination is Termination.CONVERGED
        retried = sum(r.getMessage().startswith("trial cost")
                      for r in caplog.records)
        assert bool(caplog.records) is escalates
        rollouts = 1 + rep.outer_iters + retried
        if stacked:
            assert calls["rollout"] == rollouts
            assert calls["dynamics"] == 0
        else:
            assert calls["rollout"] == 0
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
        # A control curvature below -REG_MAX: no regularizer up to the cap
        # factors the last stage's pivot, so the solve fails naming it.
        n_last = 2
        prob = ProblemDef.from_stagewise(
            dims=Dims(n=1, m=1, N=n_last),
            dynamics=lambda x, u, k: x,
            stage_cost=lambda x, u, k: -2e8 * float(u[0] ** 2) + float(u[0]),
            d_dynamics=lambda x, u, k: (np.eye(1), np.zeros((1, 1))),
            d_stage_cost=lambda x, u, k: (np.zeros(1),
                                          np.array([-4e8 * u[0] + 1.0])),
            dd_stage_cost=lambda x, u, k: (np.zeros((1, 1)), np.zeros((1, 1)),
                                           np.array([[-4e8]])),
            dd_dynamics_contracted=lambda w, x, u, k: (np.zeros((1, 1)),) * 3,
        )
        with pytest.raises(LinearSolveError) as err:
            minimize(prob, 0.0, np.zeros(n_last + 1), SolverConfig(r_reg=0.1))
        assert err.value.stage == n_last
        report = err.value.report
        assert report is not None
        assert report.termination is Termination.LINEAR_SOLVE_FAILURE
        assert report.outer_iters == 0
        assert report.inner_iters_total == 0

    def test_blowup_through_every_escalation_has_no_stage(self, caplog):
        # H = I factors at every regularizer, but the gradient is so large
        # that every trial overflows the cost: LinearSolveError without a
        # stage, after the 9 escalations from r = 0.1 to REG_MAX = 1e8,
        # each logged as a trial cost.
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
        assert report.inner_iters_total == 10
        assert np.array_equal(report.z_final, np.zeros(3))
        assert [r.getMessage().startswith("trial cost inf")
                for r in caplog.records] == [True] * 9
        assert caplog.records[-1].getMessage().endswith(
            "regularizer raised to 1e+08 at outer iteration 0")

    def test_inner_solves_count_rejected_trials(self, caplog):
        # This start escalates twice on a failed factorization (no solves)
        # and once on an increased trial cost at outer iteration 3, whose
        # depth + 1 = 4 solves count beside the 9 accepted steps'
        # 1 + 2 + ... + 9 = 45.
        prob, x0, z0 = random_smooth_problem(2, 3, 2, 30)
        caplog.set_level(logging.INFO, logger="costate.solver")
        rep = minimize(prob, 5 * x0, 5 * z0, SolverConfig())
        assert rep.termination is Termination.CONVERGED
        assert rep.outer_iters == 9
        assert rep.inner_iters_total == 49
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split()[0] for m in messages] == [
            "factorization", "factorization", "trial"]
        assert messages[-1].endswith("at outer iteration 3")

    def test_indefinite_start_converges_without_raising_the_cost(
            self, caplog):
        # From this start r_reg = 1e-3 is far too small: the solve escalates
        # on both causes, 3 failed factorizations and 2 increased trial
        # costs, and must still never accept a step that raises the cost.
        prob, x0, z0 = random_smooth_problem(4, 3, 2, 20)
        caplog.set_level(logging.INFO, logger="costate.solver")
        rep = minimize(prob, 3 * x0, 3 * z0,
                       SolverConfig(r_reg=1e-3, max_outer=30))
        assert rep.termination is Termination.CONVERGED
        assert rep.outer_iters == 8
        messages = [r.getMessage() for r in caplog.records]
        assert sum(m.startswith("factorization failed") for m in messages) == 3
        assert sum(m.startswith("trial cost") for m in messages) == 2
        costs = rep.cost_history
        assert costs[0] == pytest.approx(115.3425, abs=1e-4)
        assert costs[-1] == pytest.approx(14.0020, abs=1e-4)
        assert (np.diff(costs) <= 0).all()

    @pytest.mark.parametrize("r_reg", [1e-320, 1e-310])
    def test_subnormal_regularizer_rejects_a_non_finite_direction(
            self, caplog, r_reg):
        # The pivot of the unused u_N is r alone, whose inverse overflows
        # to inf; inf * 0 puts a NaN in the direction, which the LQR's
        # trial cost never reads.  The attempt is rejected under its own
        # cause and r escalates until the direction is finite.
        spec = LqrSpec()
        prob = build_lqr(spec)
        caplog.set_level(logging.INFO, logger="costate.solver")
        # No errstate here: the suite's warnings filter fails the test if
        # the rejected attempts warn.
        rep = minimize(prob, spec.x0, np.zeros(prob.dims.z_len),
                       SolverConfig(r_reg=r_reg))
        assert rep.termination is Termination.CONVERGED
        assert np.isfinite(rep.z_final).all()
        ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term,
                          spec.N, spec.x0)
        assert np.abs(rep.z_final - np.append(ric.controls, 0.0)).max(
            ) <= 1e-4
        assert caplog.records[0].getMessage().startswith(
            f"direction not finite at stage {spec.N}, regularizer raised")

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("n_p", [100, 200, 400])
    def test_long_open_loop_horizon_converges_to_a_minimum(self, n_p, start):
        # The smallest eigenvalue of H at the zero start is -709 at
        # N_p = 100, so R + H factors only once r has grown past it.  The
        # minima differ between starts, so each is checked for curvature,
        # not against a common optimum.  H's smallest eigenvalue is 0 at a
        # minimum: the terminal control is unused.
        spec = UnicycleSpec(N_p=n_p)
        x0 = np.asarray(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        z0 = np.zeros(prob.dims.z_len)
        if start == "random":
            z0 = np.random.default_rng(n_p).normal(size=z0.size)
        rep = minimize(prob, x0, z0, SolverConfig(max_outer=100))
        assert rep.termination is Termination.CONVERGED
        eig = np.linalg.eigvalsh(hessian(prob, x0, rep.z_final))
        assert eig.min() >= -1e-9 * np.abs(eig).max()

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 3.0, 5.0]),
           r_reg=st.sampled_from([1e-3, 0.1]))
    @example(n=3, m=2, n_last=20, seed=4, scale=3.0, r_reg=1e-3)
    def test_accepted_cost_never_rises_and_convergence_is_stationary(
            self, n, m, n_last, seed, scale, r_reg):
        # The example needs r far above r_reg before a step is accepted;
        # a step taken at a capped r raised its cost 1400-fold.
        prob, x0, z0 = random_smooth_problem(seed, n, m, n_last)
        x0, z0 = scale * x0, scale * z0
        try:
            rep = minimize(prob, x0, z0, SolverConfig(r_reg=r_reg))
        except LinearSolveError as exc:
            rep = exc.report
        costs = rep.cost_history
        # minimize's relative slack against last-ulp noise.
        slack = 1e-12 * (1.0 + np.abs(costs[:-1]))
        assert (np.diff(costs) <= slack).all(), costs
        if rep.termination is Termination.CONVERGED:
            v = np.random.default_rng(seed).normal(size=prob.dims.z_len)
            v /= np.linalg.norm(v)
            slope = central_difference(
                lambda t: eval_cost(prob, x0, rep.z_final + t[0] * v),
                np.zeros(1), 1e-5)[0]
            assert abs(slope) <= 1e-5 * (1.0 + abs(costs[-1]))

    def test_a_step_that_raises_the_cost_is_retried(self, caplog,
                                                     monkeypatch):
        # The first attempt is replaced by an ascent step along the gradient
        # whose trial cost is higher by a relative 1e-6.  That is far above
        # minimize's 1e-12 slack, so the step must be logged and retried at
        # a raised regularizer, and the accepted costs must never rise.
        prob, x0, z0 = random_smooth_problem(3, 3, 2, 6)
        cost0 = eval_cost(prob, x0, z0)
        g0 = gradient(prob, x0, z0).gradient
        t = 1e-6 * abs(cost0) / (g0 @ g0)
        rise = (eval_cost(prob, x0, z0 + t * g0) - cost0) / abs(cost0)
        assert 5e-7 < rise < 2e-6
        real = costate.solver.step_direction
        regularizers = []

        def uphill_once(adj, c, g, r, depth, _factor=None):
            regularizers.append(r)
            if len(regularizers) == 1:
                return -t * g0  # the trial point z0 - d = z0 + t g0
            return real(adj, c, g, r, depth, _factor=_factor)

        monkeypatch.setattr(costate.solver, "step_direction", uphill_once)
        caplog.set_level(logging.INFO, logger="costate.solver")
        rep = minimize(prob, x0, z0, SolverConfig())
        messages = [r.getMessage() for r in caplog.records]
        assert messages[:1] and re.fullmatch(
            r"trial cost \S+ above \S+, regularizer raised to 1 at outer "
            r"iteration 0", messages[0]), messages
        assert regularizers[:2] == [0.1, 1.0]
        assert rep.termination is Termination.CONVERGED
        costs = rep.cost_history
        assert (np.diff(costs) <= 1e-12 * (1.0 + np.abs(costs[:-1]))).all()

    def test_budget_exhaustion_reported_not_thrown(self, lqr15):
        rep = minimize(lqr15, 3.0, np.zeros(lqr15.dims.z_len),
                       SolverConfig(r_reg=0.1, max_outer=1))
        assert rep.termination is Termination.MAX_ITERS
        assert rep.outer_iters == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(r_reg=0.0)
        # No array, list or string is a regularizer: check_positive's rule.
        for value in (np.diag([0.5, 0.25]), np.array([0.1]), np.array(0.1),
                      [0.1], "0.1"):
            with pytest.raises(ValueError,
                               match="^r_reg must be finite and > 0, got "):
                SolverConfig(r_reg=value)
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


def _acceptance_random_problems():
    # The 50 random problems of tests/test_acceptance.py's problem set, drawn
    # in its order from the same generator.
    rng = np.random.default_rng(2024)
    problems = []
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        n_last = int(rng.integers(0, 13))
        problems.append(random_smooth_problem(rng, n, m, n_last))
    return problems


def _rate_case(prob, x0, z0):
    """(default, capped, rho) for a tight solve from (x0, z0), or None
    unless it converges under both configs to a point where H is positive
    definite.

    default and capped are the ratios g_{i+1}/g_i of the max-abs gradient
    with the default depth schedule and with inner_depth_cap=0; rho is
    r_reg / (r_reg + lambda_min(H)) at the solution, the factor by which
    one depth-0 solve shrinks the slowest error component."""
    default = SolverConfig(grad_tol=1e-10, max_outer=100)
    ratios = []
    for cfg in (default, dataclasses.replace(default, inner_depth_cap=0)):
        try:
            rep = minimize(prob, x0, z0, cfg)
        except LinearSolveError:
            return None
        if rep.termination is not Termination.CONVERGED:
            return None
        g = rep.grad_norm_history
        ratios.append(g[1:] / g[:-1])
    lam = np.linalg.eigvalsh(hessian(prob, x0, rep.z_final)).min()
    if lam <= 0.0:
        return None
    return ratios[0], ratios[1], default.r_reg / (default.r_reg + lam)


def _check_rates(default, capped, rho):
    # The depth schedule is superlinear: its last ratio is below 1e-2.
    # Depth 0 is linear: its last three ratios stay below 1, and its last
    # one is within a factor of 2 of rho, the rate the spectrum predicts.
    assert default[-1] < 1e-2, default
    assert capped[-3:].max() < 1.0, capped
    assert 0.5 * rho <= capped[-1] <= 1.5 * rho, (capped, rho)


class TestConvergenceRate:
    """The paper's superlinear-convergence claim, on the gradient norms that
    SolveReport keeps.  Depth j of the inner recursion shrinks the error of
    the Newton direction by about rho^(j+1), so the schedule depth = i
    drives the ratios g_{i+1}/g_i to zero, while inner_depth_cap=0 leaves
    the linear rate rho."""

    def test_acceptance_set_converges_superlinearly(self):
        for i, (prob, x0, z0) in enumerate(_acceptance_random_problems()):
            case = _rate_case(prob, x0, z0)
            assert case is not None, f"random-{i}"
            _check_rates(*case)

    @settings(max_examples=20, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 2.0]))
    def test_drawn_problems_converge_superlinearly(self, n, m, n_last, seed,
                                                   scale):
        # rho <= 1/2 (lambda_min >= r_reg): with a flatter spectrum the
        # ratios still fall as rho^(i+1), but 1e-10 is reached before they
        # pass 1e-2 (rho = 0.73 gave a last ratio of 0.02).
        prob, x0, z0 = random_smooth_problem(seed, n, m, n_last)
        case = _rate_case(prob, scale * x0, scale * z0)
        assume(case is not None and case[2] <= 0.5)
        _check_rates(*case)


_CAUSES = {"factorization": "factor", "direction": "finite", "trial": "cost"}


def _recorded_minimize(p, x0, z0, cfg):
    """minimize's report and attempts, each attempt (outer iteration, r,
    depth, outcome) as dense_twin.Attempt names them.

    step_direction is wrapped to see each attempt's r and depth, and the
    solver's log to see each rejection's cause; an attempt with no
    rejection after it was accepted."""
    events = []
    step = costate.solver.step_direction

    def recorded_step(adj, c, g, r, depth, _factor=None):
        events.append((r, depth))
        return step(adj, c, g, r, depth, _factor=_factor)

    class Log:
        def info(self, msg, cause, r, i):
            events.append(_CAUSES[cause.split()[0]])

    with mock.patch.object(costate.solver, "step_direction", recorded_step), \
            mock.patch.object(costate.solver, "log", Log()):
        try:
            rep = minimize(p, x0, z0, cfg)
        except LinearSolveError as exc:
            # The last attempt's cause ends the message instead of the log.
            rep = exc.report
            events.append(_CAUSES[str(exc).rsplit(": ", 1)[1].split()[0]])
    attempts, outer = [], 0
    for event, after in zip(events, events[1:] + [None]):
        if isinstance(event, str):
            continue
        outcome = after if isinstance(after, str) else "accept"
        attempts.append((outer, *event, outcome))
        outer += outcome == "accept"
    return rep, attempts


# The draws of TestDenseTwin that tier-1 always runs; none may be rejected.
_TWIN_EXAMPLES = [
    (4, 2, 10, 1158725112, 1.0),    # Converged, no escalation
    (1, 1, 0, 752767291, 20.0),     # one stage
    (4, 3, 14, 4157211330, 20.0),   # 7 escalations over 17 iterations
    (4, 1, 6, 2837943008, 5.0),     # factor failures and a cost increase
    (2, 3, 11, 3644404747, 20.0),   # the same, several blocks
    (3, 3, 17, 3431539539, 5.0),    # LinearSolveFailure after 4 iterations
    (1, 1, 18, 517229184, 5.0),     # LinearSolveFailure at the start
]


def _twin_examples(test):
    for case in _TWIN_EXAMPLES:
        test = example(**dict(zip(("n", "m", "n_last", "seed", "scale"),
                                  case)))(test)
    return test


class TestDenseTwin:
    """minimize against tests/dense_twin.py, the same iteration on dense
    matrices with its constants written out: the twin shares no code with
    StagewiseFactor, step_direction or minimize's schedule.

    Both runs are compared in iteration order.  While their costs agree to
    1e-9 (1 + |cost|), the iteration's attempts must agree exactly: r,
    depth and outcome.  Roundoff in the two directions can grow over a long
    nonconvex run until the iterates part; a drawn run whose costs part
    before any attempt differs is rejected, and so is a decision that sat
    within 1e-13 of flipping.  Rejections are reported as hypothesis events
    (--hypothesis-show-statistics): about 0.4% of 6,000 draws drifted and
    none tied.  An explicit example is never rejected."""

    @settings(max_examples=200, deadline=None, database=None)
    @_twin_examples
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 20),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 5.0, 20.0]))
    def test_minimize_makes_the_dense_twins_decisions(self, n, m, n_last,
                                                      seed, scale):
        explicit = (n, m, n_last, seed, scale) in _TWIN_EXAMPLES

        def reject(why):
            assert not explicit, why
            event(f"rejected: {why}")
            assume(False)

        prob, x0, z0 = random_smooth_problem(seed, n, m, n_last)
        x0, z0 = scale * x0, scale * z0
        rep, attempts = _recorded_minimize(prob, x0, z0, SolverConfig())
        twin = minimize_dense(prob, x0, z0, SolverConfig())
        costs, gnorms = rep.cost_history, rep.grad_norm_history
        for i, cost in enumerate(costs[:len(twin.costs)]):
            if abs(twin.costs[i] - cost) > 1e-9 * (1.0 + abs(cost)):
                reject("the runs drifted apart")
            assert abs(twin.gnorms[i] - gnorms[i]) <= 1e-5 * (1.0 + gnorms[i])
            mine = [a for a in attempts if a[0] == i]
            theirs = [a for a in twin.attempts if a.outer == i]
            if [(a.outer, a.r, a.depth, a.outcome) for a in theirs] != mine:
                if min(a.margin for a in theirs) < 1e-13:
                    reject("a decision tied")
                raise AssertionError((i, mine, theirs))
        assert len(costs) == len(twin.costs)
        assert rep.termination.value == twin.termination
        assert rep.outer_iters == len(costs) - 1
        scale_z = 1.0 + np.abs(twin.z_final).max(initial=0.0)
        assert np.abs(rep.z_final - twin.z_final).max(
            initial=0.0) <= 1e-6 * scale_z




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

    def test_one_band_per_solve(self, monkeypatch):
        # The solve builds one costate band and lends it to every
        # iteration's forward_adjoint.
        built = []

        class Counted(BlockBidiagonal):
            __slots__ = ()

            def __init__(self, count, n):
                built.append((count, n))
                super().__init__(count, n)

        monkeypatch.setattr(costate.solver, "BlockBidiagonal", Counted)
        monkeypatch.setattr(costate.adjoint, "BlockBidiagonal", Counted)
        spec = UnicycleSpec()
        prob = build_unicycle_tracking(spec, 0, np.asarray(spec.X0))
        rep = minimize_gd(prob, np.asarray(spec.X0),
                          np.zeros(prob.dims.z_len), lr=0.05, max_iters=30)
        assert rep.outer_iters == 30
        assert built == [(spec.N_p, 3)]

    @pytest.mark.parametrize("which", ["unicycle", "smooth"])
    def test_iterates_are_the_plain_update_bit_for_bit(self, which):
        if which == "unicycle":
            spec = UnicycleSpec()
            x0 = np.asarray(spec.X0)
            prob = build_unicycle_tracking(spec, 3, x0)
            z0, lr = np.zeros(prob.dims.z_len), 0.05
        else:
            prob, x0, z0 = random_smooth_problem(6, 3, 2, 12)
            lr = 0.02
        rep = minimize_gd(prob, x0, z0, lr=lr, max_iters=40)
        assert rep.outer_iters == 40
        z = z0
        for _ in range(rep.outer_iters):
            z = z - lr * forward_adjoint(prob, x0, z)[1].gradient
        assert rep.z_final.tobytes() == z.tobytes()

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
