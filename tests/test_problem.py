"""Rollout, decision-vector layout, the finite-difference constructor, and
the stacked oracle contract."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costate import (AdjointSolution, CircleReference,
                     DimensionMismatchError, Dims, LinearSolveError, LqrSpec,
                     MpcConfig, NumericalBlowupError, ProblemDef, Rollout,
                     SolverConfig,
                     UnicycleSpec, build_lqr, build_unicycle_tracking,
                     eval_cost, fd_gradient, flat_index, forward_adjoint,
                     gradient, make_fd_problem, max_rel_error, minimize,
                     one_row, random_smooth_problem, riccati_lqr,
                     roll_forward, stage_controls, stage_curvature)
from costate.cli import GdBaseline, LqrOutput, MpcOutput
import costate.problem
from costate.problem import BlockBidiagonal, check_positive


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


@pytest.mark.parametrize("record, fields", [
    (Rollout, ("states", "controls", "stage_costs", "total_cost")),
    (AdjointSolution, ("costates", "gradient", "fx", "fu"))])
def test_snapshot_records_keep_their_fields_read_only(record, fields):
    # Every outer iteration builds both records, so they are named tuples:
    # the fields and their order stay, and none can be reassigned.
    built = record(*range(len(fields)))
    assert record._fields == fields
    assert tuple(getattr(built, name) for name in fields) == (0, 1, 2, 3)
    with pytest.raises(AttributeError):
        setattr(built, fields[0], None)


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

    def test_shape_errors_read_as_the_vector_rule(self, lqr1):
        # Every vector goes through check_state: one wording, and the
        # dynamics error still names its stage.
        bad_dynamics = self._doubling(
            2, lambda x, u, k: np.zeros(3) if k == 1 else 2.0 * x)
        column_cost = dataclasses.replace(lqr1, stage_cost=lambda x, u, ks:
                                          lqr1.stage_cost(x, u, ks)[:, None])
        for args, message in (
                ((lqr1, 1.0, np.zeros(3)),
                 "decision vector has shape (3,), expected (2,)"),
                ((bad_dynamics, np.ones(2), np.zeros(4)),
                 "dynamics at stage 1 has shape (3,), expected (2,)"),
                ((column_cost, 1.0, np.zeros(2)),
                 "stage_cost has shape (2, 1), expected (2,)")):
            with pytest.raises(DimensionMismatchError,
                               match="^" + re.escape(message) + "$"):
                roll_forward(*args)

    def test_one_stage_takes_scalars_for_its_vectors(self):
        # With N = 0 and m = 1, z and the stage costs have length 1; a
        # scalar passes for either, as it does for x0 when n = 1.
        prob = build_lqr(LqrSpec(N=0))

        def scalar_cost(x, u, ks):
            return float(prob.stage_cost(x, u, ks)[0])

        ref = roll_forward(prob, np.array([2.0]), np.array([0.5]))
        for p, z in ((prob, np.array(0.5)), (prob, 0.5),
                     (dataclasses.replace(prob, stage_cost=scalar_cost),
                      np.array([0.5]))):
            roll = roll_forward(p, 2.0, z)
            assert np.array_equal(roll.states, ref.states)
            assert np.array_equal(roll.stage_costs, ref.stage_costs)
            assert roll.total_cost == ref.total_cost

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
        curv = stage_curvature(native, roll, adj)
        curv_s = stage_curvature(staged, roll_s, adj_s)
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

    def test_list_and_flat_oracle_outputs_keep_the_bits(self, lqr15):
        # Outputs that are not float64 stacks of the documented shape, lists
        # and a (K,) c_u for m = 1, are converted to the same numbers.
        def listed_costs(x, u, ks):
            return lqr15.stage_cost(x, u, ks).tolist()

        def listed(oracle):
            return lambda *args: tuple(part.tolist() for part in oracle(*args))

        def flat_cu(x, u, ks):
            cx, cu = lqr15.d_stage_cost(x, u, ks)
            return cx, cu.reshape(-1)

        converted = dataclasses.replace(
            lqr15, stage_cost=listed_costs, d_stage_cost=flat_cu,
            d_dynamics=listed(lqr15.d_dynamics),
            dd_stage_cost=listed(lqr15.dd_stage_cost),
            dd_dynamics_contracted=listed(lqr15.dd_dynamics_contracted))
        z = np.linspace(-1.0, 1.0, lqr15.dims.z_len)
        (roll, adj), (roll_c, adj_c) = (forward_adjoint(p, 1.5, z)
                                        for p in (lqr15, converted))
        assert roll.total_cost == roll_c.total_cost
        for a, b in ((roll.stage_costs, roll_c.stage_costs),
                     (adj.gradient, adj_c.gradient), (adj.fx, adj_c.fx),
                     (adj.fu, adj_c.fu), (adj.costates, adj_c.costates),
                     (stage_curvature(lqr15, roll, adj),
                      stage_curvature(converted, roll_c, adj_c))):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("oracle, part, name", [
        ("d_stage_cost", 0, "d_stage_cost c_x"),
        ("d_stage_cost", 1, "d_stage_cost c_u"),
        ("d_dynamics", 0, "d_dynamics f_x"),
        ("d_dynamics", 1, "d_dynamics f_u"),
        ("dd_stage_cost", 0, "dd_stage_cost c_xx"),
        ("dd_stage_cost", 1, "dd_stage_cost c_xu"),
        ("dd_stage_cost", 2, "dd_stage_cost c_uu"),
        ("dd_dynamics_contracted", 0, "dd_dynamics_contracted w.f_xx"),
        ("dd_dynamics_contracted", 1, "dd_dynamics_contracted w.f_xu"),
        ("dd_dynamics_contracted", 2, "dd_dynamics_contracted w.f_uu"),
    ])
    def test_output_with_the_rows_on_another_axis_names_the_oracle(
            self, oracle, part, name):
        # The row axis moved last, as c_x.T returns it: the size is right,
        # so a reshape used to accept it and mix the stages' entries (the
        # transposed d_stage_cost gave a gradient 98% off fd_gradient).
        base, x0, z = random_smooth_problem(3, 3, 2, 6)
        stacked = getattr(base, oracle)

        def rows_last(*args):
            out = list(stacked(*args))
            out[part] = np.moveaxis(out[part], 0, -1)
            return tuple(out)

        prob = dataclasses.replace(base, **{oracle: rows_last})
        with pytest.raises(DimensionMismatchError,
                           match=f"^{re.escape(name)} has shape "):
            roll, adj = forward_adjoint(prob, x0, z)
            stage_curvature(prob, roll, adj)

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
        stage_curvature(prob, roll, adj)
        assert calls == Counter(dd_stage_cost=1, dd_dynamics_contracted=1)


_BLOWUPS = [  # (cost_at, dyn_at, stage, what)
    (2, None, 2, "stage cost"),
    (None, 2, 2, "dynamics"),
    (2, 2, 2, "stage cost"),
    (3, 2, 2, "dynamics"),
    (2, 3, 2, "stage cost"),
    (0, None, 0, "stage cost"),
    (None, 4, 4, "dynamics"),
    (5, None, 5, "stage cost"),
]


def _nan_injected(cost_at, dyn_at, handed):
    # N = 5, n = 2, m = 1: NaN from the stage cost at cost_at and from the
    # dynamics at dyn_at; every state a callable receives lands in handed.
    def dynamics(x, u, k):
        handed.append(x.copy())
        return np.full(2, np.nan) if k == dyn_at else 0.9 * x + u

    def stage_cost(x, u, k):
        handed.append(x.copy())
        return float("nan") if k == cost_at else float(x @ x + u @ u)

    return ProblemDef.from_stagewise(
        dims=Dims(n=2, m=1, N=5), dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=lambda x, u, k: (0.9 * np.eye(2), np.ones((2, 1))),
        d_stage_cost=lambda x, u, k: (2.0 * x, 2.0 * u))


class TestBlowupOrder:
    """A non-finite stage cost or state is reported at the first stage in
    the order stage cost k, then dynamics k, and no callable is ever handed
    a non-finite state."""

    @pytest.mark.parametrize("cost_at, dyn_at, stage, what", _BLOWUPS)
    def test_nan_injection(self, cost_at, dyn_at, stage, what):
        handed = []
        prob = _nan_injected(cost_at, dyn_at, handed)
        for run in (roll_forward, gradient):
            handed.clear()
            with pytest.raises(NumericalBlowupError) as err:
                run(prob, np.ones(2), np.full(6, 0.1))
            assert err.value.stage == stage
            assert err.value.what == what
            assert f"({what})" in str(err.value)
            assert handed and all(np.isfinite(x).all() for x in handed)

    @pytest.mark.parametrize("cost_at, dyn_at, stage, what", _BLOWUPS)
    def test_rollout_oracle_blows_up_at_the_same_stage(self, cost_at, dyn_at,
                                                       stage, what):
        # The stacked path takes the first non-finite row as the blown
        # stage and prices the states before it alone; the rows after it
        # are unspecified, here finite junk that no callable may see.
        handed = []
        base = _nan_injected(cost_at, dyn_at, handed)

        def rollout(x0, u):
            states = [x0]
            for k, u_k in enumerate(u):
                states.append(np.full(2, np.nan) if k == dyn_at
                              else np.zeros(2) if dyn_at is not None
                              and k > dyn_at else 0.9 * states[-1] + u_k)
            return np.array(states)

        prob = dataclasses.replace(base, rollout=rollout)
        with pytest.raises(NumericalBlowupError) as err:
            roll_forward(prob, np.ones(2), np.full(6, 0.1))
        assert (err.value.stage, err.value.what) == (stage, what)
        assert handed and all(np.isfinite(x).all() for x in handed)
        assert len(handed) == (5 if dyn_at is None else dyn_at) + 1

    LQR3 = build_lqr(LqrSpec(N=3))

    def test_stage_cost_before_a_later_dynamics_blowup(self):
        # The stage costs are scanned only once their sum is not finite;
        # the infinite cost at stage 1 still comes before the NaN state
        # that the dynamics return at stage 2.
        base = self.LQR3
        prob = dataclasses.replace(
            base,
            stage_cost=lambda x, u, ks: np.where(ks == 1, np.inf,
                                                 base.stage_cost(x, u, ks)),
            dynamics=lambda x, u, k: (np.full(1, np.nan) if k == 2
                                      else base.dynamics(x, u, k)))
        with pytest.raises(NumericalBlowupError) as err:
            roll_forward(prob, 1.0, np.full(4, 0.1))
        assert (err.value.stage, err.value.what) == (1, "stage cost")

    def test_finite_costs_whose_sum_overflows_give_an_infinite_total(self):
        prob = dataclasses.replace(
            self.LQR3, stage_cost=lambda x, u, ks: np.full(len(ks), 1e308))
        roll = roll_forward(prob, 1.0, np.full(4, 0.1))
        assert roll.total_cost == math.inf
        assert np.array_equal(roll.stage_costs, np.full(4, 1e308))


_RICCATI = dict(a=1.8, b=0.9, q=1.0, r=3.0, p_term=3.0, N=15, x0=1.0)
_LQR = build_lqr(LqrSpec(N=2))


@pytest.mark.parametrize("build, message", [
    (lambda: LqrSpec(r=math.inf), "r must be finite and > 0"),
    (lambda: LqrSpec(q=math.nan), "q must be finite and >= 0"),
    (lambda: UnicycleSpec(delta=math.inf), "delta must be finite and > 0"),
    (lambda: UnicycleSpec(R_weights=(math.nan, 1.0)),
     "R_weights[0] must be finite and > 0"),
    (lambda: UnicycleSpec(Q_weights=(1.0, 1.0, -1.0)),
     "Q_weights[2] must be finite and >= 0"),
    (lambda: CircleReference(radius=math.inf), "radius must be finite and > 0"),
    (lambda: GdBaseline(lr=math.inf), "lr must be finite and > 0"),
    (lambda: LqrOutput(tolerance=math.inf), "tolerance must be finite and > 0"),
    (lambda: MpcOutput(transient_time_s=math.nan),
     "transient_time_s must be finite and >= 0"),
    (lambda: riccati_lqr(**{**_RICCATI, "r": math.inf}),
     "r must be finite and > 0"),
    (lambda: riccati_lqr(**{**_RICCATI, "N": 2.5}), "N must be an integer"),
    (lambda: make_fd_problem(_LQR.dynamics, lambda x, u, k: 0.0, _LQR.dims,
                             step=math.inf), "step must be finite and > 0"),
    (lambda: fd_gradient(_LQR, np.ones(1), np.zeros(3), h=math.inf),
     "h must be finite and > 0"),
    (lambda: riccati_lqr(math.nan, 0.9, 1.0, 3.0, 3.0, 5, 1.0),
     "a must be finite, got nan"),
    (lambda: UnicycleSpec(reference=CircleReference(angular_rate=math.nan),
                          N=20), "angular_rate must be finite, got nan"),
    (lambda: SolverConfig(max_outer=True),
     "max_outer must be an integer >= 1, got True"),
    # A string is quoted, so it does not read as the valid value 0.05.
    (lambda: UnicycleSpec(delta="0.05"),
     "delta must be finite and > 0, got '0.05'"),
    # An integer beyond float range is no finite value, not an
    # OverflowError.
    (lambda: LqrSpec(r=10**400), "r must be finite and > 0, got 1000"),
    (lambda: UnicycleSpec(delta=10**400),
     "delta must be finite and > 0, got 1000"),
], ids=["LqrSpec.r", "LqrSpec.q", "UnicycleSpec.delta",
        "UnicycleSpec.R_weights", "UnicycleSpec.Q_weights",
        "CircleReference.radius", "GdBaseline.lr", "LqrOutput.tolerance",
        "MpcOutput.transient_time_s", "riccati_lqr.r", "riccati_lqr.N",
        "make_fd_problem.step", "fd_gradient.h", "riccati_lqr.a",
        "CircleReference.angular_rate", "SolverConfig.max_outer",
        "UnicycleSpec.delta-string", "LqrSpec.r-huge-int",
        "UnicycleSpec.delta-huge-int"])
def test_range_errors_name_their_field(build, message):
    # A non-finite or out-of-range setting is a ValueError naming its field,
    # not a value that surfaces later as a blow-up or a numpy TypeError.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda v: Dims(n=v, m=1, N=1), "n"),
    (lambda v: Dims(n=1, m=1, N=v), "N"),
    (lambda v: LqrSpec(N=v), "N"),
    (lambda v: UnicycleSpec(N_p=v), "N_p"),
    (lambda v: MpcConfig(horizon=v, total_steps=1), "horizon"),
], ids=["Dims.n", "Dims.N", "LqrSpec.N", "UnicycleSpec.N_p",
        "MpcConfig.horizon"])
def test_counts_end_at_numpy_index_range(build, field):
    # A size or step numpy cannot index used to pass, then fail in numpy
    # with a bare ValueError or TypeError.  Below the bound the message is
    # the integer rule's, as before.
    top = int(np.iinfo(np.intp).max)
    with pytest.raises(ValueError, match=f"^{field} must be at most {top}, "
                       f"numpy's index range, got {2**70}$"):
        build(2**70)
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        build(-2**70)


def _numeric_entries():
    # (id, name, build) for every numeric field of the config dataclasses
    # and every entry of a tuple field; build(v) sets that one value.
    for cls in (LqrSpec, UnicycleSpec, CircleReference, SolverConfig,
                MpcOutput, LqrOutput, GdBaseline):
        for f in dataclasses.fields(cls):
            if isinstance(f.default, tuple):
                for i in range(len(f.default)):
                    def build(v, cls=cls, f=f, i=i):
                        entries = list(f.default)
                        entries[i] = v
                        return cls(**{f.name: tuple(entries)})
                    name = f"{f.name}[{i}]"
                    yield f"{cls.__name__}.{name}", name, build
            elif isinstance(f.default, (int, float)):
                yield (f"{cls.__name__}.{f.name}", f.name,
                       lambda v, cls=cls, f=f: cls(**{f.name: v}))


_ENTRIES = list(_numeric_entries())


@pytest.mark.parametrize("name, build", [e[1:] for e in _ENTRIES],
                         ids=[e[0] for e in _ENTRIES])
@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "1"])
def test_every_numeric_field_rejects_non_finite_bool_and_string(name, build,
                                                                bad):
    # The dataclasses are the one place that checks a value, so every number
    # they hold is checked there, under its own name.
    with pytest.raises(ValueError, match="^" + re.escape(name) + " must be "):
        build(bad)


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None, database=None)
@given(value=st.floats(), zero_ok=st.booleans())
@example(value=0.0, zero_ok=False)
@example(value=-0.0, zero_ok=True)
@example(value=5e-324, zero_ok=False)
def test_check_positive_accepts_exactly_the_finite_positive_floats(value,
                                                                    zero_ok):
    expected = math.isfinite(value) and (value >= 0 if zero_ok else value > 0)
    assert _accepts(lambda: check_positive(value, "v", zero_ok)) == expected
    assert _accepts(lambda: LqrSpec(r=value)) == _accepts(
        lambda: check_positive(value, "r"))


@pytest.mark.parametrize("count", [0, 1])
def test_a_system_without_couplings_is_the_identity(monkeypatch, count):
    # count 0 and 1 have no block below the diagonal: both solves return
    # their input as it is, and no BLAS routine runs.
    def no_blas(*args, **kwargs):
        raise AssertionError("a BLAS routine ran")

    monkeypatch.setattr(costate.problem, "dtbsv", no_blas)
    n = 3
    system = BlockBidiagonal(count, n)
    rng = np.random.default_rng(count)
    x = rng.normal(size=count * n)
    kept = x.tobytes()
    for trans in (0, 1):
        assert system.solve(x, trans) is x
        assert x.tobytes() == kept


@settings(max_examples=200, deadline=None, database=None)
@given(count=st.integers(0, 6), n=st.integers(1, 5),
       trans=st.sampled_from([0, 1]), seed=st.integers(0, 2**32 - 1))
@example(count=0, n=3, trans=1, seed=0)
@example(count=1, n=4, trans=0, seed=0)
def test_block_bidiagonal_solves_the_matrix_its_blocks_make(count, n, trans,
                                                            seed):
    # count 0 and 1, the systems of N = 0 and N = 1, have no block.
    rng = np.random.default_rng(seed)
    system = BlockBidiagonal(count, n)
    system.blocks[...] = rng.uniform(-1.0, 1.0, system.blocks.shape)
    size = count * n
    dense = np.eye(size)
    for b, block in enumerate(system.blocks):
        dense[(b + 1) * n:(b + 2) * n, b * n:(b + 1) * n] = block
    # The LAPACK storage that dtbsv reads, rebuilt from dense: the blocks
    # are where they claim to be, and every other entry, the unit diagonal's
    # included, is zero.
    storage = system.band.T
    k = storage.shape[0] - 1
    expected = np.zeros_like(storage)
    for j in range(size):
        for d in range(1, k + 1):
            if j + d < size:
                expected[d, j] = dense[j + d, j]
    assert np.array_equal(storage, expected)
    # One trailing entry past the matrix, which the solve must not touch.
    x = rng.normal(size=size + 1)
    want = np.linalg.solve(dense.T if trans else dense, x[:size])
    rhs = x.copy()
    got = system.solve(rhs, trans)
    assert np.shares_memory(got, rhs)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got[:size] - want).max(initial=0.0) <= 1e-12 * scale
    assert got[size] == x[size]
