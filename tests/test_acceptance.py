"""Acceptance gate.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s).  Criteria 5 and 6
share one full-length tracking run; the gradient-descent comparison run is
the slow part of this module.

Determinism (criterion 9) is checked on the command outputs byte for byte,
with the documented wall-time fields masked first: timing is measurement,
not a function of config and seed.
"""

import csv
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from costate import (LqrSpec, MpcConfig, SolverConfig, Termination,
                     UnicycleSpec, build_lqr, build_unicycle_plant,
                     build_unicycle_tracking, circle_reference, fd_gradient,
                     fd_hessian, forward_adjoint, gradient, hessian_product,
                     max_rel_error, minimize, minimize_gd,
                     random_smooth_problem, riccati_lqr, roll_forward,
                     run_mpc, stage_curvature, wrap_angle)
from costate.cli import main

REPO = Path(__file__).resolve().parent.parent

GD_LR = 0.05
GD_MAX_ITERS = 5000


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def problem_set():
    """50 seeded random smooth problems (n<=4, m<=3, N<=12) plus the two
    bundled scenarios."""
    rng = np.random.default_rng(2024)
    problems = []
    for i in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        n_last = int(rng.integers(0, 13))
        prob, x0, z = random_smooth_problem(rng, n, m, n_last)
        problems.append((f"random-{i}", prob, x0, z))
    lqr = build_lqr(LqrSpec())
    problems.append(("lqr-benchmark", lqr, np.array([1.0]),
                     rng.normal(scale=0.4, size=lqr.dims.z_len)))
    spec = UnicycleSpec()
    x_uni = np.asarray(spec.X0)
    uni = build_unicycle_tracking(spec, 0, x_uni)
    problems.append(("unicycle-horizon", uni, x_uni,
                     rng.normal(scale=0.3, size=uni.dims.z_len)))
    return problems


@pytest.fixture(scope="module")
def agv_runs():
    """Full 410-step tracking run, once with the second-order solver and
    once with the gradient-descent baseline."""
    spec = UnicycleSpec()
    plant = build_unicycle_plant(spec)
    x0 = np.asarray(spec.X0)

    def factory(state, step):
        return build_unicycle_tracking(spec, step, state)

    cfg = MpcConfig(horizon=spec.N_p, total_steps=spec.N,
                    solver=SolverConfig())
    t0 = time.perf_counter()
    trace = run_mpc(plant, factory, x0, cfg)
    wall = time.perf_counter() - t0

    def gd_solve(prob, x, z0, scfg):
        return minimize_gd(prob, x, z0, lr=GD_LR, grad_tol=scfg.grad_tol,
                           max_iters=GD_MAX_ITERS)

    gd_trace = run_mpc(plant, factory, x0, cfg, _solve=gd_solve)
    return {"spec": spec, "trace": trace, "wall": wall, "gd_trace": gd_trace}


def test_criterion_1_gradient_exactness(problem_set):
    worst, where = 0.0, ""
    for name, prob, x0, z in problem_set:
        err = max_rel_error(gradient(prob, x0, z).gradient,
                            fd_gradient(prob, x0, z, 1e-6))
        if err > worst:
            worst, where = err, name
    _report(1, "gradient-exactness", worst <= 1e-5,
            f"max rel err {worst:.3e} @ {where}, tol 1e-5, "
            f"{len(problem_set)} problems")


def test_criterion_2_hessian_exactness(problem_set):
    worst_err, worst_sym, where = 0.0, 0.0, ""
    for name, prob, x0, z in problem_set:
        roll, adj = forward_adjoint(prob, x0, z)
        raw = hessian_product(adj, stage_curvature(prob, roll, adj),
                              np.eye(prob.dims.z_len))[0]
        sym = float(np.abs(raw - raw.T).max()
                    / (1.0 + np.abs(raw).max(initial=0.0)))
        err = max_rel_error(0.5 * (raw + raw.T), fd_hessian(prob, x0, z, 1e-6))
        if err > worst_err:
            worst_err, where = err, name
        worst_sym = max(worst_sym, sym)
    ok = worst_err <= 1e-4 and worst_sym <= 1e-8
    _report(2, "hessian-exactness", ok,
            f"max rel err {worst_err:.3e} @ {where} (tol 1e-4), "
            f"max symmetry defect {worst_sym:.3e} (tol 1e-8)")


def test_criterion_3_sensitivity_identity(problem_set):
    worst, where = 0.0, ""
    h = 1e-6
    for name, prob, x0, z in problem_set:
        roll, adj = forward_adjoint(prob, x0, z)
        betas = hessian_product(adj, stage_curvature(prob, roll, adj),
                                np.eye(prob.dims.z_len))[1]
        for flat in range(prob.dims.z_len):
            zp, zm = z.copy(), z.copy()
            zp[flat] += h
            zm[flat] -= h
            sens = (roll_forward(prob, x0, zp).states
                    - roll_forward(prob, x0, zm).states) / (2 * h)
            err = max_rel_error(betas[..., flat], sens)
            if err > worst:
                worst, where = err, f"{name} row {flat}"
    _report(3, "state-sensitivity-identity", worst <= 1e-5,
            f"max rel err {worst:.3e} @ {where}, tol 1e-5, every row checked")


def test_criterion_4_lqr_reproduction():
    spec = LqrSpec()
    prob = build_lqr(spec)
    worst = 0.0
    slowest = 0.0
    for x0 in (1.0, 2.0, 3.0):
        rep = minimize(prob, x0, np.zeros(prob.dims.z_len),
                       SolverConfig(r_reg=0.1, grad_tol=1e-6))
        assert rep.termination is Termination.CONVERGED
        assert rep.grad_norm_history[-1] < 1e-6
        ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term,
                          spec.N, x0)
        states = roll_forward(prob, x0, rep.z_final).states[:, 0]
        dev_u = float(np.abs(rep.z_final[:spec.N] - ric.controls).max())
        dev_x = float(np.abs(states - ric.states).max())
        worst = max(worst, dev_u, dev_x)
        slowest = max(slowest, rep.wall_time)
    ok = worst <= 1e-4 and slowest < 1.0
    _report(4, "lqr-reproduction", ok,
            f"max state/control deviation {worst:.3e} (tol 1e-4), "
            f"slowest solve {slowest * 1e3:.1f} ms (< 1 s)")


def test_criterion_5_solver_vs_gradient_baseline(agv_runs):
    iters = [r.outer_iters for r in agv_runs["trace"].per_step_reports]
    gd_iters = [r.outer_iters for r in agv_runs["gd_trace"].per_step_reports]
    med, gd_med = statistics.median(iters), statistics.median(gd_iters)
    print("\nper-step iteration comparison (410 tracking steps):")
    print(f"  {'solver':>22}  median  max  at-cap")
    print(f"  {'second-order':>22}  {med:6g}  {max(iters):3d}  {'-':>6}")
    print(f"  {'gradient descent':>22}  {gd_med:6g}  {max(gd_iters):3d}  "
          f"{sum(1 for v in gd_iters if v >= GD_MAX_ITERS):6d}")
    ratio_ok = med <= gd_med / 10.0
    print(f"  tenfold-margin check: {'PASS' if ratio_ok else 'FAIL (soft)'} "
          f"(median ratio {gd_med / med:.1f}x)")
    _report(5, "solver-vs-gradient-baseline", max(iters) <= 30,
            f"second-order max {max(iters)} <= 30 strict; median {med} vs "
            f"gradient-descent median {gd_med}")


def test_criterion_6_tracking_quality_and_runtime(agv_runs):
    spec = agv_runs["spec"]
    trace = agv_runs["trace"]
    assert trace.failed_step is None
    pos_errors, heading_errors = [], []
    for k in range(spec.N):
        xr, _ = circle_reference(spec.reference, spec.delta, k)
        st = trace.applied_states[k]
        pos_errors.append(float(np.hypot(st[0] - xr[0], st[1] - xr[1])))
        heading_errors.append(abs(wrap_angle(st[2] - xr[2])))
    t = np.arange(spec.N) * spec.delta
    steady = t > 3.0
    max_pos = float(np.asarray(pos_errors)[steady].max())
    max_heading = float(np.asarray(heading_errors)[steady].max())
    solve_times = trace.per_step_wall_time
    assert len(solve_times) == spec.N and (solve_times > 0).all()
    print(f"\nper-step solve time: median {np.median(solve_times) * 1e3:.2f} ms, "
          f"max {solve_times.max() * 1e3:.2f} ms")
    ok = max_pos <= 0.02 and max_heading <= 0.05 and agv_runs["wall"] < 10.0
    _report(6, "tracking-quality-and-runtime", ok,
            f"steady-state pos err {max_pos:.4f} m (<= 0.02), heading err "
            f"{max_heading:.4f} rad (<= 0.05), wall {agv_runs['wall']:.2f} s "
            f"(< 10)")


def test_criterion_7_stationary_fixed_point():
    spec = LqrSpec()
    prob = build_lqr(spec)
    cfg = SolverConfig(r_reg=0.1, grad_tol=1e-6)

    ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N, 1.0)
    z_star = np.append(ric.controls, 0.0)
    rep_star = minimize(prob, 1.0, z_star, cfg)
    z0 = np.zeros(prob.dims.z_len)
    rep_origin = minimize(prob, 0.0, z0, cfg)

    ok = (rep_star.outer_iters == 0 and np.array_equal(rep_star.z_final, z_star)
          and rep_origin.outer_iters == 0
          and np.array_equal(rep_origin.z_final, z0))
    _report(7, "stationary-fixed-point", ok,
            f"closed-form start: {rep_star.outer_iters} outer iterations, "
            f"origin start: {rep_origin.outer_iters}; iterates unchanged")


def test_criterion_8_regularizer_invariance():
    prob = build_lqr(LqrSpec())
    finals = []
    for r_reg in (0.01, 0.1, 1.0):
        rep = minimize(prob, 1.0, np.zeros(prob.dims.z_len),
                       SolverConfig(r_reg=r_reg, grad_tol=1e-6))
        assert rep.termination is Termination.CONVERGED
        finals.append(rep.z_final)
    worst = max(float(np.abs(a - b).max())
                for i, a in enumerate(finals) for b in finals[i + 1:])
    _report(8, "regularizer-invariance", worst <= 1e-6,
            f"max pairwise control gap {worst:.3e} over r_reg in "
            "{0.01, 0.1, 1.0}, tol 1e-6")


# --- criterion 9: determinism of the command outputs -----------------------

_TIMING_KEY_FRAGMENTS = ("wall_time", "solve_ms")


def _masked_json_bytes(path: Path) -> bytes:
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()
                    if not any(f in k for f in _TIMING_KEY_FRAGMENTS)}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return json.dumps(scrub(json.loads(path.read_text())),
                      sort_keys=True).encode()


def _masked_csv_bytes(path: Path) -> bytes:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    drop = [i for i, name in enumerate(header)
            if any(f in name for f in _TIMING_KEY_FRAGMENTS)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([v for i, v in enumerate(row) if i not in drop])
    return out.getvalue().encode()


def test_criterion_9_determinism(tmp_path):
    lqr_cfg = str(REPO / "configs" / "lqr.json")
    mpc_cfg = tmp_path / "mpc.json"
    mpc_cfg.write_text(json.dumps({"scenario": {"N": 80}}))

    pairs = []
    for run in ("a", "b"):
        out_check = tmp_path / f"check-{run}"
        out_lqr = tmp_path / f"lqr-{run}"
        out_mpc = tmp_path / f"mpc-{run}"
        assert main(["check", "--seed", "7", "--sizes", "2,1,5;3,2,6",
                     "--out", str(out_check)]) == 0
        assert main(["run-lqr", "--config", lqr_cfg, "--out", str(out_lqr)]) == 0
        assert main(["run-mpc", "--config", str(mpc_cfg), "--out",
                     str(out_mpc)]) == 0
        pairs.append({
            "check_report": (out_check / "check_report.json").read_bytes(),
            "lqr_trace": (out_lqr / "lqr_trace.csv").read_bytes(),
            "lqr_report": _masked_json_bytes(out_lqr / "report.json"),
            "mpc_trace": _masked_csv_bytes(out_mpc / "mpc_trace.csv"),
            "mpc_report": _masked_json_bytes(out_mpc / "report.json"),
        })

    mismatched = [key for key in pairs[0] if pairs[0][key] != pairs[1][key]]
    _report(9, "determinism", not mismatched,
            "bit-identical reruns of check/run-lqr/run-mpc"
            + (f"; mismatches: {mismatched}" if mismatched
               else " (wall-time fields masked as documented)"))
