"""Finite-difference referees and the closed-form scalar LQR solution."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import zero_cost_problem
from costate import (DimensionMismatchError, Dims, LqrSpec, ProblemDef,
                     UnicycleSpec, build_lqr,
                     build_unicycle_tracking, eval_cost, fd_consistency,
                     fd_gradient, fd_hessian, max_rel_error,
                     random_smooth_problem, riccati_lqr)
from costate.cli import run_check_suites


class TestFdGradient:
    def test_lqr_hand_value(self, lqr1):
        g = fd_gradient(lqr1, 1.0, np.zeros(2), h=1e-6)
        np.testing.assert_allclose(g, [9.72, 0.0], atol=1e-6)

    def test_constant_cost(self):
        prob = zero_cost_problem()
        g = fd_gradient(prob, np.ones(2), np.zeros(prob.dims.z_len))
        assert np.abs(g).max() == 0.0

    def test_h_must_be_positive(self, lqr1):
        with pytest.raises(ValueError):
            fd_gradient(lqr1, 1.0, np.zeros(2), h=0.0)


class TestFdHessian:
    def test_lqr_hand_matrix(self, lqr1):
        h = fd_hessian(lqr1, 1.0, np.zeros(2), h=1e-6)
        np.testing.assert_allclose(h, [[10.86, 0.0], [0.0, 0.0]], atol=1e-5)

    def test_linear_cost_zero_curvature(self):
        prob = ProblemDef.from_stagewise(
            dims=Dims(n=1, m=1, N=2),
            dynamics=lambda x, u, k: x + u,
            stage_cost=lambda x, u, k: float(3.0 * x[0] + 2.0 * u[0]),
            d_dynamics=lambda x, u, k: (np.eye(1), np.eye(1)),
            d_stage_cost=lambda x, u, k: (np.full(1, 3.0), np.full(1, 2.0)),
        )
        h = fd_hessian(prob, 0.5, np.zeros(3))
        assert np.abs(h).max() < 1e-9

    def test_symmetric_output(self, lqr15):
        h = fd_hessian(lqr15, 1.0, np.zeros(lqr15.dims.z_len))
        assert np.array_equal(h, h.T)


class TestRiccati:
    def test_costless_problem_is_all_zero(self):
        sol = riccati_lqr(1.8, 0.9, 0.0, 3.0, 0.0, 10, 2.0)
        assert np.abs(sol.gains).max() == 0.0
        assert np.abs(sol.controls).max() == 0.0
        assert sol.cost == 0.0

    def test_two_stage_hand_recursion(self):
        sol = riccati_lqr(1.8, 0.9, 1.0, 3.0, 3.0, 1, 1.0)
        k0 = 1.8 * 0.9 * 3.0 / (3.0 + 0.81 * 3.0)
        assert sol.gains[0] == pytest.approx(k0, rel=1e-14)
        assert sol.gains[0] == pytest.approx(0.8950, abs=1e-4)
        assert sol.controls[0] == pytest.approx(-k0, rel=1e-14)

    def test_cost_matches_rollout_evaluation(self, lqr15):
        spec = LqrSpec()
        sol = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term,
                          spec.N, 2.0)
        z = np.append(sol.controls, 0.0)
        assert eval_cost(lqr15, 2.0, z) == pytest.approx(sol.cost, rel=1e-12)

    def test_local_minimum_spot_check(self, lqr15):
        """1000 random perturbations never beat the closed-form controls."""
        spec = LqrSpec()
        sol = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term,
                          spec.N, 1.0)
        z_star = np.append(sol.controls, 0.0)
        j_star = eval_cost(lqr15, 1.0, z_star)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            z = z_star + rng.normal(scale=0.01, size=z_star.size)
            assert eval_cost(lqr15, 1.0, z) >= j_star - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            riccati_lqr(1.0, 1.0, 1.0, 0.0, 1.0, 3, 1.0)
        with pytest.raises(ValueError):
            riccati_lqr(1.0, 1.0, -1.0, 1.0, 1.0, 3, 1.0)


class TestFdConsistency:
    def test_flags_sign_flipped_oracle(self):
        base = build_lqr(LqrSpec(N=4))
        flipped = ProblemDef(
            dims=base.dims, dynamics=base.dynamics,
            stage_cost=base.stage_cost,
            d_dynamics=lambda x, u, k: tuple(-np.asarray(j)
                                             for j in base.d_dynamics(x, u, k)),
            d_stage_cost=base.d_stage_cost,
            dd_stage_cost=base.dd_stage_cost,
            dd_dynamics_contracted=base.dd_dynamics_contracted,
        )
        errs = fd_consistency(flipped, np.random.default_rng(0), n_points=10)
        assert errs["d_dynamics"] > 1e-2
        assert errs["d_stage_cost"] <= 1e-5

    def test_clean_problem_passes(self):
        base = build_lqr(LqrSpec(N=4))
        errs = fd_consistency(base, np.random.default_rng(0), n_points=25)
        assert max(errs.values()) <= 1e-5

    def test_wrong_length_dynamics_output_is_named(self):
        # The referee differences the problem's own dynamics; an output of
        # the wrong length is a dimension error naming them, not a reshape
        # failure inside the stacking.
        bad = replace(build_lqr(LqrSpec(N=3)),
                      dynamics=lambda x, u, k: np.zeros(2))
        with pytest.raises(DimensionMismatchError,
                           match=r"^dynamics output has shape \(2,\), "
                                 r"expected \(1,\)$"):
            fd_consistency(bad, np.random.default_rng(0), n_points=3)

    @pytest.mark.parametrize("n_points", [0, -1, 2.0])
    def test_needs_at_least_one_sample(self, n_points):
        # No sample is no evidence: zero errors from none would pass.
        with pytest.raises(ValueError,
                           match="^n_points must be an integer >= 1"):
            fd_consistency(build_lqr(LqrSpec(N=4)),
                           np.random.default_rng(0), n_points=n_points)

    @pytest.mark.parametrize("build", [
        lambda: build_lqr(LqrSpec(N=4)),
        lambda: random_smooth_problem(3, 3, 2, 5)[0],
        lambda: build_unicycle_tracking(UnicycleSpec(), 2, np.zeros(3)),
    ])
    def test_bundled_oracles_treat_rows_independently(self, build):
        errs = fd_consistency(build(), np.random.default_rng(1), n_points=20)
        assert errs["row_independence"] == 0.0

    @pytest.mark.parametrize("name", ["stage_cost", "d_stage_cost",
                                      "dd_dynamics_contracted"])
    def test_row_mixing_oracle_fails(self, name):
        base, _, _ = random_smooth_problem(3, 3, 2, 5)
        fun = getattr(base, name)

        def mixing(*args):
            # Shifts every row by the mean state of the whole stack.
            *vecs, x, u, ks = args
            return fun(*vecs, x + x.mean(axis=0), u, ks)

        mixed = replace(base, **{name: mixing})
        errs = fd_consistency(mixed, np.random.default_rng(0), n_points=10)
        assert errs["row_independence"] > 1e-3
        results = run_check_suites(seed=0, sizes=[(1, 1, 0)], extra_problems=[
            ("row-mixing", mixed, np.zeros(3), np.zeros(12))])
        suite = {r.name: r for r in results}["fd-consistency"]
        assert not suite.passed and "row-mixing" in suite.detail

    def test_nan_oracle_output_is_an_infinite_error(self):
        # A NaN error used to vanish in the max() over the points, and an
        # oracle whose every c_xx[0, 0] is NaN read 1.28e-8: a pass.
        base, _, _ = random_smooth_problem(3, 3, 2, 6)

        def dd_stage_cost(x, u, ks):
            cxx, cxu, cuu = base.dd_stage_cost(x, u, ks)
            cxx = cxx.copy()
            cxx[:, 0, 0] = np.nan
            return cxx, cxu, cuu

        errs = fd_consistency(replace(base, dd_stage_cost=dd_stage_cost),
                              np.random.default_rng(0), n_points=5)
        assert errs["dd_stage_cost"] == np.inf

    def test_rollout_entry_referees_the_rollout_oracle(self):
        # Only a problem with a rollout oracle gets the entry, and the
        # unicycle's and the random problem's equal their stepped dynamics
        # exactly.
        uni = build_unicycle_tracking(UnicycleSpec(), 2, np.zeros(3))
        errs = fd_consistency(uni, np.random.default_rng(1), n_points=5)
        assert errs["rollout"] == 0.0
        for n, m in ((1, 2), (4, 2), (9, 3), (12, 6)):
            rand, _, _ = random_smooth_problem(5, n, m, 30)
            errs = fd_consistency(rand, np.random.default_rng(1), n_points=5)
            assert errs["rollout"] == 0.0
        assert "rollout" not in fd_consistency(
            build_lqr(LqrSpec(N=4)), np.random.default_rng(1), n_points=5)

    def test_rollout_off_in_one_row_fails_the_suite(self):
        # 1e-6 is far inside the derivative tolerance; the rollout is held
        # to its stepped dynamics exactly.
        base = build_unicycle_tracking(UnicycleSpec(), 2, np.zeros(3))

        def rollout(x0, u):
            states = base.rollout(x0, u).copy()
            states[4] += 1e-6
            return states

        off = replace(base, rollout=rollout)
        errs = fd_consistency(off, np.random.default_rng(0), n_points=5)
        assert 0.0 < errs["rollout"] < 1e-5
        results = run_check_suites(seed=0, sizes=[(1, 1, 0)], extra_problems=[
            ("off-rollout", off, np.zeros(3), np.zeros(off.dims.z_len))])
        suite = {r.name: r for r in results}["fd-consistency"]
        assert not suite.passed
        assert 0.0 < suite.max_error < suite.tolerance
        assert "off-rollout rollout" in suite.detail


def test_oracles_do_not_touch_curvature_code():
    """The referee stays independent of the module it referees."""
    source = (Path(__file__).resolve().parent.parent / "src" / "costate"
              / "oracles.py").read_text()
    assert "curvature" not in source


def test_max_rel_error_uses_unit_floor():
    assert max_rel_error(np.array([1e-7]), np.array([0.0])) == 1e-7
    assert max_rel_error(np.array([2.0]), np.array([4.0])) == pytest.approx(0.5)


@pytest.mark.parametrize("actual, expected", [
    ([np.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, np.nan]),
    ([np.inf], [np.inf]), ([1.0], [np.inf])])
def test_max_rel_error_is_inf_where_it_would_be_nan(actual, expected):
    assert max_rel_error(np.array(actual), np.array(expected)) == np.inf
