"""Rollout, decision-vector layout, the finite-difference constructor, and
the stacked oracle contract."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costate import (DimensionMismatchError, Dims, LinearSolveError,
                     NumericalBlowupError, ProblemDef, SolverConfig,
                     UnicycleSpec, build_unicycle_tracking, eval_cost,
                     flat_index, forward_adjoint, gradient, make_fd_problem,
                     max_rel_error, minimize, one_row, random_smooth_problem,
                     roll_forward, stage_controls, stage_curvature)


class TestDims:
    def test_z_len(self):
        assert Dims(n=3, m=2, N=9).z_len == 20
        assert Dims(n=1, m=1, N=0).z_len == 1

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, m=1, N=1), dict(n=1, m=0, N=1), dict(n=1, m=1, N=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Dims(**kwargs)

    @pytest.mark.parametrize("field", ["n", "m", "N"])
    def test_fractional_counts_rejected(self, field):
        # Dims(n=2, m=1, N=2.5) used to build, with z_len == 3.5.
        counts = dict(n=2, m=1, N=3)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            Dims(**{**counts, field: 2.5})
        assert getattr(Dims(**{**counts, field: np.int64(2)}), field) == 2

    def test_flat_index_bijection(self):
        dims = Dims(n=2, m=3, N=4)
        seen = set()
        for k in range(dims.N + 1):
            for p in range(dims.m):
                idx = flat_index(dims, k, p)
                assert idx == k * dims.m + p
                seen.add(idx)
        assert seen == set(range(dims.z_len))

    def test_flat_index_bounds(self):
        dims = Dims(n=1, m=2, N=3)
        with pytest.raises(DimensionMismatchError):
            flat_index(dims, 4, 0)
        with pytest.raises(DimensionMismatchError):
            flat_index(dims, 0, 2)

    def test_stage_controls_layout(self):
        dims = Dims(n=1, m=2, N=2)
        z = np.arange(6.0)
        u = stage_controls(z, dims)
        assert u.shape == (3, 2)
        assert u[1, 0] == z[flat_index(dims, 1, 0)]
        assert u[2, 1] == z[flat_index(dims, 2, 1)]


class TestRollForward:
    def test_lqr_two_stages(self, lqr1):
        """x0=1, zero controls: states [1, 1.8], cost 1 + 3*1.8^2 = 10.72."""
        roll = roll_forward(lqr1, 1.0, np.zeros(2))
        np.testing.assert_allclose(roll.states.ravel(), [1.0, 1.8])
        assert roll.total_cost == pytest.approx(10.72, rel=1e-12)
        np.testing.assert_allclose(roll.stage_costs,
                                   [1.0, 3.0 * 1.8 ** 2], rtol=1e-12)

    def test_single_stage_is_just_the_stage_cost(self, lqr1):
        spec_prob = lqr1
        dims = Dims(n=1, m=1, N=0)
        prob = ProblemDef.from_stagewise(
            dims=dims,
            dynamics=spec_prob.dynamics,
            stage_cost=lambda x, u, k: 2.5 * x[0] ** 2 + u[0],
            d_dynamics=one_row(spec_prob.d_dynamics),
            d_stage_cost=lambda x, u, k: (np.array([5.0 * x[0]]), np.ones(1)),
        )
        roll = roll_forward(prob, 2.0, np.array([0.5]))
        assert roll.states.shape == (1, 1)
        assert roll.total_cost == 2.5 * 4.0 + 0.5

    def test_unicycle_straight_line(self):
        spec = UnicycleSpec(N=10, N_p=2)
        prob = build_unicycle_tracking(spec, 0, np.zeros(3))
        z = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        roll = roll_forward(prob, np.zeros(3), z)
        np.testing.assert_allclose(
            roll.states, [[0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]], atol=1e-15)

    def test_bad_x0_named(self, lqr1):
        with pytest.raises(DimensionMismatchError, match="x0"):
            roll_forward(lqr1, np.zeros(2), np.zeros(2))

    def test_bad_z_length_named(self, lqr1):
        with pytest.raises(DimensionMismatchError, match="decision vector"):
            roll_forward(lqr1, 1.0, np.zeros(3))

    def test_blowup_reports_stage(self):
        def dyn(x, u, k):
            return np.array([np.inf]) if k == 1 else x + u

        prob = ProblemDef.from_stagewise(
            dims=Dims(n=1, m=1, N=3),
            dynamics=dyn,
            stage_cost=lambda x, u, k: float(x[0] ** 2),
            d_dynamics=lambda x, u, k: (np.eye(1), np.eye(1)),
            d_stage_cost=lambda x, u, k: (2 * x, np.zeros(1)),
        )
        with pytest.raises(NumericalBlowupError, match="numerical blow-up at stage 1") as err:
            roll_forward(prob, 1.0, np.zeros(4))
        assert err.value.stage == 1

    def test_nan_cost_reports_stage(self, lqr1):
        prob = ProblemDef.from_stagewise(
            dims=lqr1.dims,
            dynamics=lqr1.dynamics,
            stage_cost=lambda x, u, k: float("nan") if k == 1 else 0.0,
            d_dynamics=one_row(lqr1.d_dynamics),
            d_stage_cost=one_row(lqr1.d_stage_cost),
        )
        with pytest.raises(NumericalBlowupError) as err:
            roll_forward(prob, 1.0, np.zeros(2))
        assert err.value.stage == 1

    @staticmethod
    def _doubling(n, dynamics):
        return ProblemDef.from_stagewise(
            dims=Dims(n=n, m=1, N=3), dynamics=dynamics,
            stage_cost=lambda x, u, k: float(x @ x),
            d_dynamics=lambda x, u, k: (2.0 * np.eye(n), np.zeros((n, 1))),
            d_stage_cost=lambda x, u, k: (2.0 * x, np.zeros(1)))

    @pytest.mark.parametrize("n, convert", [
        (2, lambda y: y.tolist()),
        (2, lambda y: y.astype(np.int64)),
        (1, lambda y: float(y[0])),
        (2, lambda y: y.astype(">f8")),
    ], ids=["list", "int-array", "scalar", "big-endian"])
    def test_dynamics_output_is_converted(self, n, convert):
        ref = roll_forward(self._doubling(n, lambda x, u, k: 2.0 * x),
                           np.ones(n), np.zeros(4))
        roll = roll_forward(
            self._doubling(n, lambda x, u, k: convert(2.0 * x)),
            np.ones(n), np.zeros(4))
        assert np.array_equal(roll.states, ref.states)
        assert roll.total_cost == ref.total_cost

    @pytest.mark.parametrize("bad, error", [
        (np.zeros(3), DimensionMismatchError),
        ([0.0, 0.0, 0.0], DimensionMismatchError),
        (np.array([1.0, np.inf]), NumericalBlowupError),
        ([np.nan, 1.0], NumericalBlowupError),
    ])
    def test_bad_dynamics_output_names_the_stage(self, bad, error):
        prob = self._doubling(2, lambda x, u, k: bad if k == 1 else 2.0 * x)
        with pytest.raises(error, match="at stage 1"):
            roll_forward(prob, np.ones(2), np.zeros(4))

    def test_replay_determinism(self, lqr15):
        z = np.linspace(-1, 1, lqr15.dims.z_len)
        a = roll_forward(lqr15, 2.0, z)
        b = roll_forward(lqr15, 2.0, z)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.stage_costs, b.stage_costs)
        assert a.total_cost == b.total_cost

    def test_cost_decomposition_exact(self, lqr15):
        z = np.linspace(-0.5, 0.5, lqr15.dims.z_len)
        roll = roll_forward(lqr15, 1.5, z)
        total = 0.0
        for c in roll.stage_costs:
            total += c
        assert roll.total_cost == total


class TestEvalCost:
    def test_matches_rollout(self, lqr1):
        z = np.array([0.3, -0.2])
        assert eval_cost(lqr1, 1.0, z) == roll_forward(lqr1, 1.0, z).total_cost

    def test_zero_cost(self):
        from conftest import zero_cost_problem
        prob = zero_cost_problem()
        assert eval_cost(prob, np.ones(2), np.ones(prob.dims.z_len)) == 0.0

    def test_quadratic_scaling_brute_force(self, lqr1):
        # Independent replay of the recursion, evaluated at 2z.
        z = np.array([0.4, -0.1])
        a, b, q, r, pt = 1.8, 0.9, 1.0, 3.0, 3.0
        x0 = 1.2
        x1 = a * x0 + b * (2 * z[0])
        expected = q * x0 ** 2 + r * (2 * z[0]) ** 2 + pt * x1 ** 2
        assert eval_cost(lqr1, x0, 2 * z) == pytest.approx(expected, rel=1e-14)


class TestFdProblem:
    def test_linear_dynamics_near_exact(self):
        a, b = 1.7, -0.4
        dims = Dims(n=1, m=1, N=3)
        prob = make_fd_problem(lambda x, u, k: np.array([a * x[0] + b * u[0]]),
                               lambda x, u, k: 0.0, dims)
        fx, fu = one_row(prob.d_dynamics)(np.array([0.3]), np.array([-1.1]), 0)
        assert abs(fx[0, 0] - a) < 1e-8
        assert abs(fu[0, 0] - b) < 1e-8

    def test_quadratic_cost_curvature(self):
        q = 2.5
        dims = Dims(n=1, m=1, N=1)
        prob = make_fd_problem(lambda x, u, k: x + u,
                               lambda x, u, k: q * float(x[0] ** 2), dims)
        cxx, cxu, cuu = one_row(prob.dd_stage_cost)(np.array([0.7]),
                                                    np.array([0.1]), 0)
        assert abs(cxx[0, 0] - 2 * q) < 1e-6
        assert abs(cxu[0, 0]) < 1e-6
        assert abs(cuu[0, 0]) < 1e-6

    def test_unicycle_heading_column_zero_at_zero_heading(self):
        delta = 0.05

        def dyn(x, u, k):
            return np.array([
                x[0] + delta * u[0] * np.cos(x[2]),
                x[1] + delta * u[0] * np.sin(x[2]),
                x[2] + delta * u[1],
            ])

        prob = make_fd_problem(dyn, lambda x, u, k: 0.0, Dims(n=3, m=2, N=2))
        fx, _ = one_row(prob.d_dynamics)(np.zeros(3), np.array([1.0, 0.0]), 0)
        # d(next x)/d(heading) = -delta * speed * sin(0) = 0
        assert abs(fx[0, 2]) < 1e-9

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step"):
            make_fd_problem(lambda x, u, k: x, lambda x, u, k: 0.0,
                            Dims(n=1, m=1, N=1), step=0.0)


def _stagewise_random_smooth(seed, n, m, n_last):
    """random_smooth_problem written one stage at a time: the same draws
    from the same generator, per-stage formulas, stacked by from_stagewise.
    An independent reference for the scenario's vectorized oracles."""
    rng = np.random.default_rng(seed)
    amat = rng.normal(size=(n, n)) * (0.6 / np.sqrt(n))
    bmat = rng.normal(size=(n, m)) * (0.6 / np.sqrt(m))
    samp = rng.uniform(0.05, 0.2, size=n)
    dvec = rng.normal(size=(n, n)) * 0.5
    evec = rng.normal(size=(n, m)) * 0.5
    phase = rng.uniform(-np.pi, np.pi, size=n)
    gq = rng.normal(size=(n, n))
    qmat = gq.T @ gq / n + 0.3 * np.eye(n)
    gr = rng.normal(size=(m, m))
    rmat = gr.T @ gr / m + 0.3 * np.eye(m)
    qlin = rng.normal(size=n) * 0.3
    rlin = rng.normal(size=m) * 0.3
    kappa = rng.uniform(0.05, 0.2)
    wx = rng.normal(size=n) * 0.5
    wu = rng.normal(size=m) * 0.5

    def args(x, u):
        return dvec @ x + evec @ u + phase

    def d_dynamics(x, u, k):
        sc = samp * np.cos(args(x, u))
        return amat + sc[:, None] * dvec, bmat + sc[:, None] * evec

    def dd_dynamics_contracted(w, x, u, k):
        coef = w * (-samp * np.sin(args(x, u)))
        wxx = (dvec * coef[:, None]).T @ dvec
        wxu = (dvec * coef[:, None]).T @ evec
        wuu = (evec * coef[:, None]).T @ evec
        return 0.5 * (wxx + wxx.T), wxu, 0.5 * (wuu + wuu.T)

    def ripple(x, u):
        return wx @ x + wu @ u

    def stage_cost(x, u, k):
        return float(0.5 * x @ qmat @ x + 0.5 * u @ rmat @ u + qlin @ x
                     + rlin @ u + kappa * np.cos(ripple(x, u)))

    def d_stage_cost(x, u, k):
        s = kappa * np.sin(ripple(x, u))
        return qmat @ x + qlin - s * wx, rmat @ u + rlin - s * wu

    def dd_stage_cost(x, u, k):
        c = kappa * np.cos(ripple(x, u))
        return (qmat - c * np.outer(wx, wx), -c * np.outer(wx, wu),
                rmat - c * np.outer(wu, wu))

    prob = ProblemDef.from_stagewise(
        dims=Dims(n=n, m=m, N=n_last),
        dynamics=lambda x, u, k: (amat @ x + bmat @ u
                                  + samp * np.sin(args(x, u))),
        stage_cost=stage_cost, d_dynamics=d_dynamics,
        d_stage_cost=d_stage_cost, dd_stage_cost=dd_stage_cost,
        dd_dynamics_contracted=dd_dynamics_contracted)
    x0 = rng.normal(size=n)
    return prob, x0, rng.normal(scale=0.5, size=(n_last + 1) * m)


def _counting(prob, calls):
    """Copy of prob whose six callables count their calls."""
    def counted(name):
        fun = getattr(prob, name)

        def wrapper(*args):
            calls[name] += 1
            return fun(*args)
        return wrapper

    names = ("dynamics", "stage_cost", "d_dynamics", "d_stage_cost",
             "dd_stage_cost", "dd_dynamics_contracted")
    return ProblemDef(dims=prob.dims,
                      **{name: counted(name) for name in names})


class TestStackedOracles:
    @settings(max_examples=25, deadline=None, database=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 3), n_last=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_stagewise_forms_match_the_native_stacked_problem(
            self, n, m, n_last, seed):
        native, x0, z = random_smooth_problem(seed, n, m, n_last)
        staged, x0_s, z_s = _stagewise_random_smooth(seed, n, m, n_last)
        assert np.array_equal(x0, x0_s) and np.array_equal(z, z_s)
        snaps = [forward_adjoint(p, x0, z) for p in (native, staged)]
        (roll, adj), (roll_s, adj_s) = snaps
        assert max_rel_error(adj.gradient, adj_s.gradient) <= 1e-12
        assert max_rel_error(roll.stage_costs, roll_s.stage_costs) <= 1e-12
        curv = stage_curvature(native, roll, adj, z)
        curv_s = stage_curvature(staged, roll_s, adj_s, z)
        assert max_rel_error(curv, curv_s) <= 1e-12
        reports = []
        for p in (native, staged):
            try:
                reports.append(minimize(p, x0, z, SolverConfig()))
            except LinearSolveError as exc:
                reports.append(exc.report)
        rep, rep_s = reports
        assert rep.termination is rep_s.termination
        assert rep.outer_iters == rep_s.outer_iters
        for a, b in ((rep.grad_norm_history, rep_s.grad_norm_history),
                     (rep.cost_history, rep_s.cost_history),
                     (rep.z_final, rep_s.z_final)):
            assert max_rel_error(a, b) <= 1e-12

    def test_from_stagewise_calls_once_per_row_in_stage_order(self):
        seen = []

        def stage_cost(x, u, k):
            seen.append(k)
            return float(k)

        prob = ProblemDef.from_stagewise(
            dims=Dims(n=2, m=1, N=3),
            dynamics=lambda x, u, k: x,
            stage_cost=stage_cost,
            d_dynamics=lambda x, u, k: (np.eye(2), np.ones(2)),
            d_stage_cost=lambda x, u, k: (x, 2.0 * u))
        roll = roll_forward(prob, np.ones(2), np.zeros(4))
        assert seen == [0, 1, 2, 3]
        assert all(type(k) is int for k in seen)
        assert roll.total_cost == 6.0
        fx, fu = prob.d_dynamics(np.zeros((3, 2)), np.zeros((3, 1)),
                                 np.arange(3))
        assert fx.shape == (3, 2, 2) and fu.shape == (3, 2, 1)
        assert prob.dd_stage_cost is None

    def test_one_row_inverts_from_stagewise(self):
        base, x0, z = random_smooth_problem(4, 3, 2, 5)
        x, u = np.arange(3.0), np.array([0.5, -1.0])
        cx, cu = one_row(base.d_stage_cost)(x, u, 2)
        sx, su = base.d_stage_cost(x[None], u[None], np.array([2]))
        assert np.array_equal(cx, sx[0]) and np.array_equal(cu, su[0])
        assert one_row(base.stage_cost)(x, u, 2) == float(
            base.stage_cost(x[None], u[None], np.array([2]))[0])

    def test_each_pass_calls_each_stacked_oracle_once(self):
        base, x0, z = random_smooth_problem(8, 3, 2, 7)
        calls = Counter()
        prob = _counting(base, calls)
        roll, adj = forward_adjoint(prob, x0, z)
        assert calls == Counter(dynamics=7, stage_cost=1, d_stage_cost=1,
                                d_dynamics=1)
        calls.clear()
        stage_curvature(prob, roll, adj, z)
        assert calls == Counter(dd_stage_cost=1, dd_dynamics_contracted=1)


class TestBlowupOrder:
    """A non-finite stage cost or state is reported at the first stage in
    the order stage cost k, then dynamics k, and no callable is ever handed
    a non-finite state."""

    @pytest.mark.parametrize("cost_at, dyn_at, stage, what", [
        (2, None, 2, "stage cost"),
        (None, 2, 2, "dynamics"),
        (2, 2, 2, "stage cost"),
        (3, 2, 2, "dynamics"),
        (2, 3, 2, "stage cost"),
        (0, None, 0, "stage cost"),
        (None, 4, 4, "dynamics"),
        (5, None, 5, "stage cost"),
    ])
    def test_nan_injection(self, cost_at, dyn_at, stage, what):
        handed = []

        def dynamics(x, u, k):
            handed.append(x.copy())
            return np.full(2, np.nan) if k == dyn_at else 0.9 * x + u

        def stage_cost(x, u, k):
            handed.append(x.copy())
            return float("nan") if k == cost_at else float(x @ x + u @ u)

        prob = ProblemDef.from_stagewise(
            dims=Dims(n=2, m=1, N=5), dynamics=dynamics,
            stage_cost=stage_cost,
            d_dynamics=lambda x, u, k: (0.9 * np.eye(2), np.ones((2, 1))),
            d_stage_cost=lambda x, u, k: (2.0 * x, 2.0 * u))
        for run in (roll_forward, gradient):
            handed.clear()
            with pytest.raises(NumericalBlowupError) as err:
                run(prob, np.ones(2), np.full(6, 0.1))
            assert err.value.stage == stage
            assert err.value.what == what
            assert f"({what})" in str(err.value)
            assert handed and all(np.isfinite(x).all() for x in handed)
