"""Bundled scenario builders: LQR, unicycle tracking, circle references."""

import dataclasses
import gc
import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import costate.scenarios
from conftest import rolled_table
from costate import (CircleReference, DimensionMismatchError,
                     LinearSolveError, LqrSpec, NumericalBlowupError,
                     SolverConfig, Termination, UnicycleSpec, WaypointTable,
                     build_unicycle_plant, build_unicycle_tracking,
                     circle_reference, eval_cost,
                     fd_consistency, gradient, hessian, minimize, one_row,
                     random_smooth_problem, reference_at, roll_forward,
                     tracking_errors, unicycle_step, wrap_angle)
from costate.scenarios import tracking_sampler


class TestWrapAngle:
    def test_range_is_half_open_at_minus_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_angle(0.3) == pytest.approx(0.3)
        assert wrap_angle(0.3 + 4 * np.pi) == pytest.approx(0.3)


class TestLqrScenario:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="r"):
            LqrSpec(r=-1.0)
        with pytest.raises(ValueError, match="q"):
            LqrSpec(q=-0.5)

    def test_stationary_origin(self, lqr15):
        adj = gradient(lqr15, 0.0, np.zeros(lqr15.dims.z_len))
        assert np.abs(adj.gradient).max() == 0.0

    def test_hessian_constant_in_z(self, lqr15):
        rng = np.random.default_rng(17)
        h1 = hessian(lqr15, 1.0, rng.normal(size=lqr15.dims.z_len))
        h2 = hessian(lqr15, 1.0, rng.normal(size=lqr15.dims.z_len))
        assert np.abs(h1 - h2).max() <= 1e-12 * (1 + np.abs(h1).max())

    def test_fd_consistency_100_points(self, lqr15):
        errs = fd_consistency(lqr15, np.random.default_rng(5), n_points=100)
        assert max(errs.values()) <= 1e-5


@pytest.mark.parametrize("spec, field, value", [
    (LqrSpec, "N", 3.5), (UnicycleSpec, "N", 20.5), (UnicycleSpec, "N_p", 4.0),
])
def test_fractional_counts_rejected(spec, field, value):
    # UnicycleSpec(N_p=4.0) used to build and then fail in range().
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        spec(**{field: value})
    assert getattr(spec(**{field: np.int64(4)}), field) == 4


class TestCircleReference:
    def test_start_of_default_circle(self):
        xr, ur = circle_reference(CircleReference(), 0.05, 0)
        np.testing.assert_allclose(xr, [1.0, 0.0, np.pi / 2], rtol=1e-14)
        np.testing.assert_allclose(ur, [0.3, 0.3], rtol=1e-14)

    def test_zero_rate_freezes_the_reference(self):
        circle = CircleReference(center=(2.0, -1.0), radius=0.5,
                                 angular_rate=0.0)
        for step in (0, 10, 500):
            xr, ur = circle_reference(circle, 0.05, step)
            np.testing.assert_allclose(xr, [2.5, -1.0, np.pi / 2])
            np.testing.assert_allclose(ur, [0.0, 0.0])

    def test_consecutive_references_nearly_satisfy_dynamics(self):
        circle = CircleReference()
        delta = 0.05
        bound = 2.0 * circle.radius * circle.angular_rate ** 2 * delta ** 2
        for step in range(0, 500, 7):
            xr, ur = circle_reference(circle, delta, step)
            nxt, _ = circle_reference(circle, delta, step + 1)
            pred = unicycle_step(xr, ur, delta)
            gap = np.hypot(pred[0] - nxt[0], pred[1] - nxt[1])
            gap_heading = abs(wrap_angle(pred[2] - nxt[2]))
            assert max(gap, gap_heading) <= bound

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            circle_reference(CircleReference(), 0.05, -1)

    @pytest.mark.parametrize("step", [2.5, 2.0])
    def test_fractional_step_rejected(self, step):
        # A float step used to return the pose between two samples.
        with pytest.raises(ValueError, match="^step must be an integer"):
            circle_reference(CircleReference(), 0.05, step)
        xr, ur = circle_reference(CircleReference(), 0.05, np.int64(2))
        assert np.array_equal(xr, circle_reference(CircleReference(), 0.05,
                                                   2)[0])

    @pytest.mark.parametrize("delta", [-0.05, 0.0, math.nan, "0.05", True])
    def test_circle_reference_names_a_bad_delta(self, delta):
        # circle_reference is reference_at of a circle scenario, so delta
        # takes UnicycleSpec's rule.  It used to return the pose before the
        # start for -0.05 and raise numpy's TypeError for "0.05".
        with pytest.raises(ValueError, match="^" + re.escape(
                f"delta must be finite and > 0, got {delta!r}") + "$"):
            circle_reference(CircleReference(), delta, 3)

    def test_step_beyond_numpy_index_range_is_named(self):
        # A huge step used to reach the circle formula as an object array,
        # where cos raised a TypeError; the range's last step still works.
        with pytest.raises(ValueError, match="^step must be at most"):
            reference_at(UnicycleSpec(), 2**70)
        xr, _ = reference_at(UnicycleSpec(), np.iinfo(np.intp).max)
        assert np.isfinite(xr).all()


class TestUnicycleScenario:
    def test_spec_invariants(self):
        with pytest.raises(ValueError, match="delta"):
            UnicycleSpec(delta=0.0)
        with pytest.raises(ValueError, match="R_weights"):
            UnicycleSpec(R_weights=(0.5, 0.0))
        with pytest.raises(ValueError, match="radius"):
            CircleReference(radius=0.0)

    def test_zero_speed_freezes_position(self):
        spec = UnicycleSpec(N=20, N_p=4)
        prob = build_unicycle_tracking(spec, 0, np.asarray(spec.X0))
        z = np.zeros(prob.dims.z_len)
        z[1::2] = 0.7  # turn without driving
        roll = roll_forward(prob, np.array([0.3, -0.2, 0.1]), z)
        np.testing.assert_allclose(roll.states[:, 0], 0.3)
        np.testing.assert_allclose(roll.states[:, 1], -0.2)
        np.testing.assert_allclose(np.diff(roll.states[:, 2]), 0.05 * 0.7)

    def test_fd_consistency_100_points(self):
        spec = UnicycleSpec()
        prob = build_unicycle_tracking(spec, 2, np.asarray(spec.X0))
        errs = fd_consistency(prob, np.random.default_rng(12), n_points=100,
                              sampler=tracking_sampler(spec, 2))
        assert max(errs.values()) <= 1e-5

    def test_rolled_table_is_cost_free(self):
        """A plant started on the rolled table under the reference controls
        accumulates essentially no tracking cost."""
        circle = CircleReference()
        table = rolled_table(circle, 0.05, 30)
        spec = UnicycleSpec(N=30, N_p=12, reference=table)
        prob = build_unicycle_tracking(spec, 0, table.states[0])
        z = np.tile(table.controls[0], spec.N_p + 1).reshape(-1)
        roll = roll_forward(prob, table.states[0], z)
        assert np.abs(roll.stage_costs).max() <= 1e-9

    def test_heading_cost_continuous_across_the_seam(self):
        """A reference heading near the wrap seam must not blow the cost up
        for a plant heading just across it."""
        circle = CircleReference(angular_rate=0.3)
        delta = 0.05
        # phase + pi/2 crosses pi at step ~ (pi/2) / (0.3 * 0.05)
        seam_step = int((np.pi / 2) / (0.3 * delta)) + 1
        spec = UnicycleSpec(N=seam_step + 20, N_p=4)
        xr, ur = circle_reference(circle, delta, seam_step)
        prob = build_unicycle_tracking(spec, seam_step, xr)
        just_below = xr.copy()
        just_below[2] = wrap_angle(xr[2] - 0.01)
        just_above = xr.copy()
        just_above[2] = wrap_angle(xr[2] + 0.01)
        c_below = one_row(prob.stage_cost)(just_below, ur, 0)
        c_above = one_row(prob.stage_cost)(just_above, ur, 0)
        assert c_below == pytest.approx(3.0 * 0.01 ** 2, rel=1e-6)
        assert c_above == pytest.approx(3.0 * 0.01 ** 2, rel=1e-6)

    def test_terminal_padding_has_no_gradient_or_curvature(self):
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        rng = np.random.default_rng(3)
        z = rng.normal(scale=0.4, size=prob.dims.z_len)
        adj = gradient(prob, x0, z)
        m, horizon = prob.dims.m, prob.dims.N
        assert np.array_equal(adj.gradient[horizon * m:], np.zeros(m))
        h = hessian(prob, x0, z)
        assert np.array_equal(h[horizon * m:, :], np.zeros((m, h.shape[0])))

    def test_non_finite_terminal_control_is_a_blowup(self):
        # The terminal R weights are zero, not masked out: the control
        # error times zero is NaN, and the rollout names the stage.
        spec = UnicycleSpec()
        x0 = np.asarray(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        z = np.zeros(prob.dims.z_len)
        z[-1] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalBlowupError) as err:
                roll_forward(prob, x0, z)
        assert (err.value.stage, err.value.what) == (spec.N_p, "stage cost")

    def test_waypoint_table_must_cover_the_horizon(self):
        table = rolled_table(CircleReference(), 0.05, 12)
        spec = UnicycleSpec(N=12, N_p=10, reference=table)
        build_unicycle_tracking(spec, 2, table.states[2])
        with pytest.raises(ValueError, match="waypoint table"):
            build_unicycle_tracking(spec, 3, table.states[3])

    @pytest.mark.parametrize("states, controls, message", [
        (np.zeros((4, 2)), np.zeros((4, 2)),
         r"waypoint states must be \(L, 3\), got \(4, 2\)"),
        (np.zeros((4, 3)), np.zeros((3, 2)),
         r"waypoint controls must be \(4, 2\), got \(3, 2\)"),
        (np.zeros((4, 3)), np.full((4, 2), np.nan),
         "waypoint controls must be finite"),
    ])
    def test_waypoint_table_rejects_bad_arrays(self, states, controls,
                                               message):
        with pytest.raises(ValueError, match="^" + message + "$"):
            WaypointTable(states=states, controls=controls)

    @pytest.mark.parametrize("convert", [
        lambda a: a.astype(np.float32), lambda a: a.astype(np.int64),
        lambda a: a.tolist(), lambda a: a.astype(bool)],
        ids=["float32", "int", "list", "bool"])
    def test_step_reads_any_vector_as_its_float64_values(self, convert):
        x, u = np.array([0.3, -1.0, 2.5]), np.array([1.0, 0.0])
        got = unicycle_step(convert(x), convert(u), 0.05)
        want = unicycle_step(np.asarray(convert(x), dtype=float),
                             np.asarray(convert(u), dtype=float), 0.05)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x, u, message", [
        ([0.0, 0.0], [1.0, 0.0], r"^x has shape \(2,\), expected \(3,\)$"),
        ([0.0, 0.0, 0.0], [1.0], r"^u has shape \(1,\), expected \(2,\)$"),
    ])
    def test_step_names_a_wrong_length_list(self, x, u, message):
        with pytest.raises(DimensionMismatchError, match=message):
            unicycle_step(x, u, 0.05)

    @pytest.mark.parametrize("x, u, message", [
        (np.zeros(4), np.zeros(2), r"^x has shape \(4,\), expected \(3,\)$"),
        (np.zeros((3, 1)), np.zeros(2),
         r"^x has shape \(3, 1\), expected \(3,\)$"),
        (np.zeros((1, 3)), np.zeros(2),
         r"^x has shape \(1, 3\), expected \(3,\)$"),
        (np.zeros(3), np.zeros((2, 1)),
         r"^u has shape \(2, 1\), expected \(2,\)$"),
    ])
    def test_step_names_a_wrong_shape_array(self, x, u, message):
        with pytest.raises(DimensionMismatchError, match=message):
            unicycle_step(x, u, 0.05)

    def test_circle_reference_extends_past_total_steps(self):
        spec = UnicycleSpec(N=20, N_p=10)
        prob = build_unicycle_tracking(spec, 19, np.asarray(spec.X0))
        assert prob.dims.N == 10


class TestRandomSmoothProblem:
    def test_seed_determinism(self):
        p1, x1, z1 = random_smooth_problem(33, 3, 2, 6)
        p2, x2, z2 = random_smooth_problem(33, 3, 2, 6)
        assert np.array_equal(x1, x2)
        assert np.array_equal(z1, z2)
        assert eval_cost(p1, x1, z1) == eval_cost(p2, x2, z2)

    def test_derivatives_are_consistent(self):
        prob, _, _ = random_smooth_problem(1, 4, 3, 5)
        errs = fd_consistency(prob, np.random.default_rng(2), n_points=40)
        assert max(errs.values()) <= 1e-5

    def test_an_unstable_draw_ends_in_a_linear_solve_error(self):
        # A is not made stable.  At n = 1 it is the generator's first
        # normal draw times 0.6, here -1.53, so the rollout from the
        # returned start grows to about 1e3, and no regularizer up to the
        # cap factors the Hessian after two accepted steps.
        seed = 944755129
        assert np.random.default_rng(seed).normal() * 0.6 == pytest.approx(
            -1.53, abs=5e-3)
        prob, x0, z0 = random_smooth_problem(seed, 1, 2, 17)
        assert np.abs(roll_forward(prob, x0, z0).states).max() > 1e3
        with pytest.raises(LinearSolveError) as err:
            minimize(prob, x0, z0, SolverConfig())
        report = err.value.report
        assert report.termination is Termination.LINEAR_SOLVE_FAILURE
        assert report.outer_iters == 2
        assert np.all(np.diff(report.cost_history) < 0)
        assert len(report.cost_history) == 3
        assert np.isfinite(report.z_final).all()


def _seam_specs():
    # Circle headings wrap from +pi to -pi near this step; the waypoint
    # table rolled from the same circle keeps its heading unwrapped.
    circle, delta = CircleReference(), 0.05
    seam = int((np.pi / 2) / (circle.angular_rate * delta)) + 1
    spec = UnicycleSpec(N=seam + 30, N_p=10)
    table = rolled_table(circle, delta, seam + 30)
    return seam, {"circle": spec,
                  "table": dataclasses.replace(spec, reference=table)}


@pytest.mark.parametrize("kind", ["circle", "table"])
def test_fractional_anchor_rejected(kind):
    # A float anchor used to track a time between samples on the circle
    # and to raise a bare IndexError on the table.
    spec = _seam_specs()[1][kind]
    x0 = np.asarray(spec.X0)
    with pytest.raises(ValueError, match="^anchor_step must be an integer"):
        build_unicycle_tracking(spec, 1.5, x0)
    with pytest.raises(ValueError, match="^step must be an integer"):
        reference_at(spec, 1.5)
    with pytest.raises(ValueError, match="^step must be an integer"):
        reference_at(spec, -1)
    prob = build_unicycle_tracking(spec, np.int64(2), x0)
    z = np.full(prob.dims.z_len, 0.2)
    assert (roll_forward(prob, x0, z).total_cost
            == roll_forward(build_unicycle_tracking(spec, 2, x0), x0,
                            z).total_cost)


@pytest.mark.parametrize("kind", ["circle", "table"])
def test_builder_tracks_the_reference_bits(kind):
    # The builder's stacked reference rows and reference_at (and, on the
    # circle, circle_reference) come from one formula: placed exactly on
    # the reference, every stage has an exactly zero gradient.
    seam, specs = _seam_specs()
    spec = specs[kind]
    ks = np.arange(spec.N_p + 1)
    for anchor in range(seam - spec.N_p - 2, seam + 2):
        prob = build_unicycle_tracking(spec, anchor, np.asarray(spec.X0))
        rows = [reference_at(spec, anchor + k) for k in ks]
        if kind == "circle":
            assert all(
                np.array_equal(xr, circle_reference(
                    spec.reference, spec.delta, anchor + k)[0])
                for k, (xr, _) in zip(ks, rows))
        x = np.array([xr for xr, _ in rows])
        u = np.array([ur for _, ur in rows])
        cx, cu = prob.d_stage_cost(x, u, ks)
        assert not cx.any() and not cu.any()
        assert not prob.stage_cost(x, u, ks).any()


def test_trimmed_unicycle_oracles_keep_the_stacked_contract():
    # fd_consistency passes ks that repeat, run backwards and outnumber the
    # N + 1 stages; each row must be its one-row evaluation bit for bit,
    # and a caller that changes a returned block must not change the next
    # call's output.
    spec = UnicycleSpec(N=30, N_p=4)
    prob = build_unicycle_tracking(spec, 3, np.asarray(spec.X0))
    ks = np.array([4, 4, 3, 2, 1, 0, 0, 2, 4, 1, 3, 3, 0])
    k_dyn = np.minimum(ks, spec.N_p - 1)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(len(ks), 3))
    u = rng.normal(size=(len(ks), 2))
    w = rng.normal(size=(len(ks), 3))
    calls = {"stage_cost": (x, u, ks), "d_stage_cost": (x, u, ks),
             "dd_stage_cost": (x, u, ks), "d_dynamics": (x, u, k_dyn),
             "dd_dynamics_contracted": (w, x, u, k_dyn)}

    def parts(out):
        return [np.asarray(p) for p in (out if isinstance(out, tuple)
                                        else (out,))]

    for name, args in calls.items():
        oracle = getattr(prob, name)
        got = parts(oracle(*args))
        single = one_row(oracle)
        for i in range(len(ks)):
            alone = parts(single(*(a[i] for a in args)))
            assert [g[i].tobytes() for g in got] == [
                a.tobytes() for a in alone], (name, i)
        kept = [g.tobytes() for g in got]
        for g in got:
            g[...] = np.nan
        assert [g.tobytes() for g in parts(oracle(*args))] == kept, name


_ORACLES = ("stage_cost", "d_stage_cost", "dd_stage_cost", "d_dynamics",
            "dd_dynamics_contracted", "rollout")


def _tables(prob):
    """name -> the constant table that a unicycle oracle closes over; the
    reference rows, which are the problem's own, are left out."""
    return {name: value for oracle in _ORACLES
            for name, value in inspect.getclosurevars(
                getattr(prob, oracle)).nonlocals.items()
            if isinstance(value, np.ndarray)
            and name not in ("ref_x", "ref_u")}


def _oracle_bytes(prob):
    """Every unicycle oracle's output at one stack of stages 0..N_p."""
    ks = np.arange(prob.dims.N + 1)
    rng = np.random.default_rng(8)
    x, w = rng.normal(size=(2, len(ks), 3))
    u = rng.normal(size=(len(ks), 2))
    run = (x[:-1], u[:-1], ks[:-1])
    outs = [prob.stage_cost(x, u, ks), *prob.d_stage_cost(x, u, ks),
            *prob.dd_stage_cost(x, u, ks), *prob.d_dynamics(*run),
            *prob.dd_dynamics_contracted(w[:-1], *run),
            prob.rollout(x[0], u[:-1])]
    return [np.asarray(out).tobytes() for out in outs]


def _uncached_bytes(monkeypatch, spec, anchor=0):
    """_oracle_bytes of a problem whose tables were built for it alone."""
    tables = costate.scenarios._tracking_tables
    with monkeypatch.context() as patch:
        patch.setattr(costate.scenarios, "_tracking_tables",
                      tables.__wrapped__)
        return _oracle_bytes(build_unicycle_tracking(
            spec, anchor, np.asarray(spec.X0)))


class TestTrackingTables:
    """build_unicycle_tracking's constant tables: built once per (delta,
    Q weights, R weights, N_p) and shared read-only."""

    def test_equal_specs_share_one_build(self):
        cache = costate.scenarios._tracking_tables
        cache.cache_clear()
        spec = UnicycleSpec(N_p=6)
        x0 = np.asarray(spec.X0)
        first = _tables(build_unicycle_tracking(spec, 0, x0))
        # An equal spec: its Q weights a list of ints, another anchor.
        same = _tables(build_unicycle_tracking(
            dataclasses.replace(spec, Q_weights=[150, 150, 3]), 9, x0))
        assert (cache.cache_info().hits, cache.cache_info().misses) == (1, 1)
        assert same.keys() == first.keys()
        assert all(same[name] is table for name, table in first.items())
        for misses, changes in enumerate(
                [{"delta": 0.04}, {"Q_weights": (150.0, 150.0, 2.0)},
                 {"R_weights": (0.5, 0.25)}, {"N_p": 7}], start=2):
            other = _tables(build_unicycle_tracking(
                dataclasses.replace(spec, **changes), 0, x0))
            assert cache.cache_info().misses == misses, changes
            assert not any(other[name] is table
                           for name, table in first.items()), changes

    def test_table_reference_and_list_weights_keep_the_bytes(
            self, monkeypatch):
        table_spec = dataclasses.replace(_seam_specs()[1]["table"],
                                         Q_weights=[100.0, 120.0, 2.0])
        for spec in (table_spec, UnicycleSpec(N_p=5, R_weights=[0.3, 0.7])):
            got = _oracle_bytes(build_unicycle_tracking(
                spec, 4, np.asarray(spec.X0)))
            assert got == _uncached_bytes(monkeypatch, spec, 4)

    def test_a_negative_zero_weight_gives_its_own_bytes(self, monkeypatch):
        # -0.0 == 0.0 as a key of floats; its tables hold -0.0, which shows
        # in the sign of zero derivative entries.
        spec = UnicycleSpec(N_p=5, Q_weights=(150.0, 150.0, 0.0))
        x0 = np.asarray(spec.X0)
        positive = _oracle_bytes(build_unicycle_tracking(spec, 0, x0))
        negative = dataclasses.replace(spec, Q_weights=(150.0, 150.0, -0.0))
        got = _oracle_bytes(build_unicycle_tracking(negative, 0, x0))
        assert got == _uncached_bytes(monkeypatch, negative)
        assert got != positive

    def test_shared_tables_are_read_only(self):
        spec = UnicycleSpec(N_p=4)
        prob = build_unicycle_tracking(spec, 0, np.asarray(spec.X0))
        tables = _tables(prob)
        assert tables.keys() == {
            "q_col", "q2", "r_cols", "r2_rows", "fx_rows", "fu_rows",
            "hess_x", "hess_u", "zero_xx", "zero_xu", "zero_uu"}
        for table in tables.values():
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 1.0
        # What an oracle returns is its caller's to change.
        xx, _, _ = prob.dd_stage_cost(np.zeros((5, 3)), np.zeros((5, 2)),
                                      np.arange(5))
        xx[...] = np.nan


def _scalar_wrap(a):
    # wrap_angle in Python floats: float % is numpy's floor remainder.
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def _scalar_oracles(spec, anchor, k, x, u, w):
    """Stage cost, its derivatives and the Euler kinematics' derivatives
    (second ones contracted with w) at one row, from the formulas in
    Python floats; stage k tracks the circle at absolute step anchor + k."""
    circle, delta = spec.reference, spec.delta
    q, r = spec.Q_weights, spec.R_weights
    phase = circle.angular_rate * ((anchor + k) * delta)
    xr = (circle.center[0] + circle.radius * math.cos(phase),
          circle.center[1] + circle.radius * math.sin(phase),
          _scalar_wrap(phase + 0.5 * math.pi))
    ur = (circle.radius * circle.angular_rate, circle.angular_rate)
    ex = [x[0] - xr[0], x[1] - xr[1], _scalar_wrap(x[2] - xr[2])]
    eu = [u[0] - ur[0], u[1] - ur[1]]
    run = 1.0 if k < spec.N_p else 0.0
    s, c = math.sin(x[2]), math.cos(x[2])
    return {
        "stage_cost": [sum(q[i] * ex[i] ** 2 for i in range(3))
                       + run * sum(r[j] * eu[j] ** 2 for j in range(2))],
        "d_stage_cost": [[2.0 * q[i] * ex[i] for i in range(3)],
                         [run * 2.0 * r[j] * eu[j] for j in range(2)]],
        "dd_stage_cost": [np.diag([2.0 * qi for qi in q]), np.zeros((3, 2)),
                          np.diag([run * 2.0 * rj for rj in r])],
        "d_dynamics": [[[1.0, 0.0, -delta * u[0] * s],
                        [0.0, 1.0, delta * u[0] * c],
                        [0.0, 0.0, 1.0]],
                       [[delta * c, 0.0], [delta * s, 0.0], [0.0, delta]]],
        "dd_dynamics_contracted": [
            [[0.0] * 3, [0.0] * 3,
             [0.0, 0.0, -delta * u[0] * (w[0] * c + w[1] * s)]],
            [[0.0] * 2, [0.0] * 2, [delta * (w[1] * c - w[0] * s), 0.0]],
            np.zeros((2, 2))],
    }


_WEIGHT = st.floats(0.0, 300.0)


@settings(max_examples=60, deadline=None)
@given(anchor=st.integers(0, 100_000), horizon=st.integers(1, 12),
       delta=st.floats(1e-3, 0.5), rate=st.floats(-2.0, 2.0),
       radius=st.floats(0.1, 5.0), q=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT),
       r=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_unicycle_oracles_match_scalar_formulas(anchor, horizon, delta, rate,
                                                radius, q, r, seed, data):
    # An independent referee for the five stacked oracles, on ks that
    # repeat, run backwards and outnumber the stages.  The dynamics
    # derivatives are asked for stages 0..N_p-1 only, as the contract says.
    spec = UnicycleSpec(delta=delta, N=horizon, N_p=horizon, Q_weights=q,
                        R_weights=r, reference=CircleReference(
                            radius=radius, angular_rate=rate))
    prob = build_unicycle_tracking(spec, anchor, np.asarray(spec.X0))
    drawn = data.draw(st.lists(st.integers(0, horizon), min_size=1,
                               max_size=2 * (horizon + 1)))
    ks = np.array(drawn + drawn[::-1])
    k_dyn = np.minimum(ks, horizon - 1)
    rng = np.random.default_rng(seed)
    x, u, w = (rng.uniform(-10.0, 10.0, size=(len(ks), size))
               for size in (3, 2, 3))
    x[:, 2] *= 3.0  # headings over several turns, across the seam
    args = {"stage_cost": (x, u, ks), "d_stage_cost": (x, u, ks),
            "dd_stage_cost": (x, u, ks), "d_dynamics": (x, u, k_dyn),
            "dd_dynamics_contracted": (w, x, u, k_dyn)}
    for name, call in args.items():
        out = getattr(prob, name)(*call)
        got = out if isinstance(out, tuple) else (out,)
        refs = [_scalar_oracles(spec, anchor, int(k), xi, ui, wi)[name]
                for k, xi, ui, wi in zip(call[-1], x, u, w)]
        for part, ref in zip(got, zip(*refs)):
            ref = np.array(ref, dtype=float).reshape(part.shape)
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(part - ref).max() <= 1e-13 * scale, name
    # The padded terminal control carries exactly zero cost and derivatives.
    last = ks == horizon
    cost = prob.stage_cost(x, u, ks)
    assert np.array_equal(prob.stage_cost(x, u + 1.0, ks)[last], cost[last])
    assert not prob.d_stage_cost(x, u, ks)[1][last].any()
    assert not prob.dd_stage_cost(x, u, ks)[2][last].any()


# Heading differences on and next to the +-pi seam, and whole turns off it.
_SEAM = [math.pi, -math.pi, np.nextafter(math.pi, 0.0),
         np.nextafter(math.pi, 4.0), np.nextafter(-math.pi, 0.0),
         np.nextafter(-math.pi, -4.0), 3.0 * math.pi, -3.0 * math.pi,
         2.0 * math.pi, 0.0, -0.0]


@settings(max_examples=60, deadline=None, database=None)
@given(anchor=st.integers(0, 100_000),
       diffs=st.lists(st.sampled_from(_SEAM) | st.floats(-25.0, 25.0),
                      min_size=11, max_size=11),
       seed=st.integers(0, 2**32 - 1))
@example(anchor=0, diffs=_SEAM, seed=0)
def test_in_place_heading_error_is_wrap_angle_of_the_difference(
        anchor, diffs, seed):
    # The oracles wrap the heading error in place by wrap_angle's three
    # operations; with every Q weight 0.5, c_x is 1.0 times the error, so
    # its bits are the error's.  stage_cost squares and weighs it in place,
    # and must give the bits of the formula on fresh temporaries.
    spec = UnicycleSpec(N_p=10, Q_weights=(0.5, 0.5, 0.5))
    prob = build_unicycle_tracking(spec, anchor, np.asarray(spec.X0))
    ks = np.arange(11)
    rng = np.random.default_rng(seed)
    xr = np.array([reference_at(spec, anchor + k)[0] for k in ks])
    ur = np.array([reference_at(spec, anchor + k)[1] for k in ks])
    x = xr + rng.normal(size=(11, 3))
    x[:, 2] = xr[:, 2] + np.array(diffs)
    u = ur + rng.normal(size=(11, 2))
    ex = x - xr
    ex[:, 2] = wrap_angle(x[:, 2] - xr[:, 2])
    cx, _ = prob.d_stage_cost(x, u, ks)
    assert cx.tobytes() == ex.tobytes()
    eu = u - ur
    q = np.full((3, 1), 0.5)
    r = np.zeros((11, 2, 1))
    r[:10, :, 0] = spec.R_weights
    cost = (((ex * ex)[:, None, :] @ q)[:, 0, 0]
            + ((eu * eu)[:, None, :] @ r)[:, 0, 0])
    assert prob.stage_cost(x, u, ks).tobytes() == cost.tobytes()


def test_a_deleted_plant_frees_its_tables():
    # The plant's tables are N + 1 stages long and its own: none stays in
    # the cache of the horizon problems' tables once the plant is gone.
    build_unicycle_plant(UnicycleSpec(N=20))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plant = build_unicycle_plant(UnicycleSpec(N=20000))
        built = tracemalloc.get_traced_memory()[0] - before
        del plant
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built > 5e6
    assert kept < 0.5e6


def test_table_problem_keeps_its_reference():
    # The builder slices the waypoint table; the problem must not see a
    # later change to the table's arrays.
    spec = _seam_specs()[1]["table"]
    x0 = np.asarray(spec.X0)
    prob = build_unicycle_tracking(spec, 5, x0)
    z = np.full(prob.dims.z_len, 0.2)
    before = roll_forward(prob, x0, z).stage_costs
    spec.reference.states[5:20] += 1.0
    spec.reference.controls[5:20] += 1.0
    assert np.array_equal(roll_forward(prob, x0, z).stage_costs, before)


@pytest.mark.parametrize("kind", ["circle", "table"])
def test_tracking_errors_match_the_per_step_formula(kind):
    # States scattered about the reference, headings wrapped, over steps
    # that cross the circle's heading seam: each row is the per-step
    # reference_at + hypot + |wrap_angle| result, byte for byte.
    seam, specs = _seam_specs()
    spec = specs[kind]
    rng = np.random.default_rng(5)
    steps = seam + 20
    states = np.array([reference_at(spec, k)[0] for k in range(steps)])
    states += rng.normal(scale=0.3, size=states.shape)
    states[:, 2] = wrap_angle(states[:, 2])
    ref, pos, heading = tracking_errors(spec, states)
    assert ref.shape == (steps, 3) and pos.shape == heading.shape == (steps,)
    for k, x in enumerate(states):
        xr, _ = reference_at(spec, k)
        expected = np.array([np.hypot(x[0] - xr[0], x[1] - xr[1]),
                             abs(wrap_angle(x[2] - xr[2]))])
        assert ref[k].tobytes() == xr.tobytes(), k
        assert np.array([pos[k], heading[k]]).tobytes() == expected.tobytes()
    assert heading.max() <= np.pi
    empty = tracking_errors(spec, np.empty((0, 3)))
    assert [a.shape for a in empty] == [(0, 3), (0,), (0,)]


def test_tracking_errors_need_the_table_to_cover_the_states():
    spec = _seam_specs()[1]["table"]
    rows = len(spec.reference)
    assert len(tracking_errors(spec, np.zeros((rows, 3)))[1]) == rows
    with pytest.raises(ValueError, match=f"^waypoint table has {rows} "
                       f"entries, no reference at step {rows}$"):
        tracking_errors(spec, np.zeros((rows + 1, 3)))
    with pytest.raises(ValueError, match=r"^states must be \(K, 3\)"):
        tracking_errors(spec, np.zeros(3))


def _rolled(prob, x0, z, quiet=True):
    # roll_forward's outcome as bytes, or the blow-up it raised.  numpy's
    # overflow and invalid warnings are the blow-ups themselves here, unless
    # quiet is False: then the oracles must raise none of their own.
    try:
        with np.errstate(**({"over": "ignore", "invalid": "ignore"}
                            if quiet else {})):
            roll = roll_forward(prob, x0, z)
    except NumericalBlowupError as exc:
        return "blowup", exc.stage, exc.what
    return ("rolled", roll.states.tobytes(), roll.controls.tobytes(),
            roll.stage_costs.tobytes(), np.float64(roll.total_cost).tobytes())


_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308])


class TestStackedRollout:
    """The unicycle's rollout oracle against its own per-stage dynamics."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(horizon=st.integers(1, 60), anchor=st.integers(0, 500),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
           specials=st.lists(st.tuples(st.integers(-1, 60), st.integers(0, 2),
                                       _SPECIAL), max_size=3))
    def test_rollout_oracle_matches_the_stepped_dynamics(
            self, horizon, anchor, seed, scale, specials):
        # Same bytes, or the same NumericalBlowupError(stage, what), with a
        # non-finite or huge entry at random stages: stage -1 puts it in
        # the start, stage k >= 0 in control k (the terminal one included).
        spec = UnicycleSpec(N_p=horizon)
        rng = np.random.default_rng(seed)
        x0 = np.asarray(spec.X0) + rng.normal(scale=2.0, size=3)
        u = rng.normal(scale=scale, size=(horizon + 1, 2))
        for stage, part, value in specials:
            if stage < 0:
                x0[part] = value
            elif stage <= horizon:
                u[stage, part % 2] = value
        stacked = build_unicycle_tracking(spec, anchor, np.zeros(3))
        stepped = dataclasses.replace(stacked, rollout=None)
        assert _rolled(stacked, x0, u.ravel()) == _rolled(stepped, x0,
                                                          u.ravel())

    @settings(max_examples=200, deadline=None, database=None)
    @given(horizon=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.integers(-1, 30), st.integers(0, 2),
                                       _SPECIAL), min_size=1, max_size=3))
    @example(horizon=5, seed=0, specials=[(-1, 0, math.nan)])
    def test_no_callable_receives_a_non_finite_state(self, horizon, seed,
                                                     specials):
        # ProblemDef's promise on the stepped path, for a non-finite start
        # (stage -1) as for a state that a step made non-finite: dynamics
        # and stage_cost record every state they are handed, and a
        # non-finite start is named before either runs.
        spec = UnicycleSpec(N_p=horizon)
        base = build_unicycle_tracking(spec, 0, np.zeros(3))
        seen = []

        def dynamics(x, u, k):
            seen.append(np.array(x))
            return base.dynamics(x, u, k)

        def stage_cost(x, u, ks):
            seen.append(np.array(x))
            return base.stage_cost(x, u, ks)

        prob = dataclasses.replace(base, dynamics=dynamics,
                                   stage_cost=stage_cost, rollout=None)
        rng = np.random.default_rng(seed)
        x0 = np.asarray(spec.X0) + rng.normal(scale=2.0, size=3)
        u = rng.normal(size=(horizon + 1, 2))
        for stage, part, value in specials:
            if stage < 0:
                x0[part] = value
            elif stage <= horizon:
                u[stage, part % 2] = value
        outcome = _rolled(prob, x0, u.ravel())
        assert all(np.isfinite(x).all() for x in seen)
        if not np.isfinite(x0).all():
            assert (outcome, seen) == (("blowup", 0, "x0"), [])

    @pytest.mark.parametrize("stacked", [True, False],
                             ids=["rollout", "per-stage"])
    def test_infinite_heading_is_a_blowup(self, stacked):
        # math.cos(inf) used to escape the per-stage rollout as a bare
        # ValueError; the kinematics now give a NaN state.  A start with an
        # infinite heading is named as such before any callable runs.
        assert np.isnan(unicycle_step(np.array([0.0, 0.0, math.inf]),
                                      np.array([1.0, 0.0]), 0.05)).all()
        prob = build_unicycle_tracking(UnicycleSpec(), 0, np.zeros(3))
        if not stacked:
            prob = dataclasses.replace(prob, rollout=None)
        x0 = np.array([1.0, 0.0, math.inf])
        assert _rolled(prob, x0, np.zeros(22)) == ("blowup", 0, "x0")

    @settings(max_examples=100, deadline=None, database=None)
    @given(horizon=st.integers(1, 12), rows=st.integers(0, 15),
           cols=st.integers(1, 5))
    def test_wrong_shape_rollout_is_named(self, horizon, rows, cols):
        shape = (rows, cols) if (rows, cols) != (horizon + 1, 3) else (0, 3)
        base = build_unicycle_tracking(UnicycleSpec(N_p=horizon), 0,
                                       np.zeros(3))
        prob = dataclasses.replace(base,
                                   rollout=lambda x0, u: np.zeros(shape))
        expected = re.escape(f"rollout has shape {shape}, expected "
                             f"{(horizon + 1, 3)}")
        with pytest.raises(DimensionMismatchError, match=f"^{expected}$"):
            roll_forward(prob, np.zeros(3), np.zeros(2 * horizon + 2))


def _stepped_states(prob, x0, u):
    # The states of ProblemDef's rollout contract by stepping dynamics,
    # which never sees a non-finite state: the rows up to and including
    # the first non-finite one.
    states = [x0]
    for k, u_k in enumerate(u):
        if not np.isfinite(states[-1]).all():
            break
        states.append(prob.dynamics(states[-1], u_k, k))
    return np.array(states)


class TestRandomSmoothRollout:
    """random_smooth_problem's rollout oracle against its own per-stage
    dynamics."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 6), horizon=st.integers(0, 40))
    @example(seed=0, n=9, m=1, horizon=40)
    @example(seed=0, n=12, m=6, horizon=40)
    @example(seed=0, n=1, m=2, horizon=40)
    @example(seed=0, n=4, m=2, horizon=0)
    def test_rollout_oracle_matches_the_stepped_dynamics(self, seed, n, m,
                                                         horizon):
        # Same bytes for every (n, m): a formula of its own would round the
        # map's sums in another order than the kernel's one product of
        # [[A, B, 0], [D, E, phase]] per stage, so dynamics must be the
        # rollout's own one-row call.
        prob, x0, z = random_smooth_problem(seed, n, m, horizon)
        stepped = dataclasses.replace(prob, rollout=None)
        assert _rolled(prob, x0, z) == _rolled(stepped, x0, z)

    @settings(max_examples=200, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 6), horizon=st.integers(0, 40))
    @example(seed=0, n=4, m=2, horizon=40)
    def test_rollout_and_dynamics_step_the_drawn_map(self, seed, n, m,
                                                     horizon):
        # The map's values, whatever the kernel's layout: A, B, samp, D, E
        # and phase are random_smooth_problem's first six draws, redrawn
        # here in its order and with its scales.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) * (0.6 / np.sqrt(n))
        b = rng.normal(size=(n, m)) * (0.6 / np.sqrt(m))
        samp = rng.uniform(0.05, 0.2, size=n)
        d = rng.normal(size=(n, n)) * 0.5
        e = rng.normal(size=(n, m)) * 0.5
        phase = rng.uniform(-np.pi, np.pi, size=n)
        prob, x0, z = random_smooth_problem(seed, n, m, horizon)
        u = z.reshape(horizon + 1, m)[:horizon]
        states = prob.rollout(x0, u)
        assert states.shape == (horizon + 1, n)
        assert states[0].tobytes() == x0.tobytes()
        for k, (x, u_k) in enumerate(zip(states, u)):
            want = (a @ x + b @ u_k) + samp * np.sin((d @ x + e @ u_k) + phase)
            tol = 4e-15 * max(1.0, np.abs(want).max())
            assert np.abs(states[k + 1] - want).max() <= tol
            assert np.abs(prob.dynamics(x, u_k, k) - want).max() <= tol

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 6), horizon=st.integers(1, 30),
           special=st.one_of(
               st.just(None),
               st.tuples(st.integers(0, 30), st.integers(0, 5),
                         st.sampled_from([1e308, -1e308, math.inf,
                                          math.nan]))))
    @example(seed=3, n=4, m=3, horizon=30, special=(5, 1, math.nan))
    @example(seed=3, n=4, m=3, horizon=30, special=None)
    def test_blowups_match_the_stepped_dynamics(self, seed, n, m, horizon,
                                                special):
        # A start scaled by 1e200 (special None) or one control set to a
        # huge or non-finite value: the rollout's states equal the stepped
        # ones up to the same first non-finite row, and roll_forward raises
        # the same NumericalBlowupError(stage, what) on both paths.
        prob, x0, z = random_smooth_problem(seed, n, m, horizon)
        u = z.reshape(horizon + 1, m)
        if special is None:
            x0 = 1e200 * x0
        else:
            stage, part, value = special
            u[stage % (horizon + 1), part % m] = value
        # The kernel runs outside any errstate here: it must raise no
        # RuntimeWarning of its own.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = prob.rollout(x0, u[:horizon])
            want = _stepped_states(prob, x0, u[:horizon])
        kept = got[:len(want)]
        finite = np.isfinite(kept).all(axis=1)
        assert finite.tolist() == np.isfinite(want).all(axis=1).tolist()
        assert kept[finite].tobytes() == want[finite].tobytes()
        assert len(kept) == len(got) or not finite[-1]
        # The stage-cost oracle prices such inputs quietly too, so both
        # paths run outside any errstate, and the suite's warnings filter
        # turns a RuntimeWarning into a failure.
        stepped = dataclasses.replace(prob, rollout=None)
        assert _rolled(prob, x0, u.ravel(), quiet=False) == _rolled(
            stepped, x0, u.ravel(), quiet=False)

    def test_an_overflowing_stage_cost_is_a_named_blowup(self):
        # The start scaled by 1e200 overflows stage 0's quadratic cost.
        # Under the suite's error::RuntimeWarning filter, numpy's overflow
        # warning would end the call before roll_forward names the stage.
        prob, x0, z = random_smooth_problem(3, 4, 2, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalBlowupError) as err:
                roll_forward(prob, 1e200 * x0, z)
        assert (err.value.stage, err.value.what) == (0, "stage cost")
