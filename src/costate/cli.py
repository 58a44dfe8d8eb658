"""Command-line entry point.

Three commands:

    run-lqr --config F [--out DIR]     solve the scalar LQR scenario and
                                       compare against the closed-form
                                       solution
    run-mpc --config F [--baseline gd] [--out DIR]
                                       run the unicycle tracking scenario
                                       under the receding-horizon driver
    check [--seed S] [--sizes LIST] [--out DIR]
                                       run the validation suites on seeded
                                       random problems plus the bundled
                                       scenarios

Exit codes: 0 pass, 1 quantitative failure (a numerical blow-up of a run
included), 2 usage or config error.
Configs are JSON with sections {scenario, solver, mpc, baseline, output},
each read into a dataclass whose defaults fill missing fields and whose
checks reject bad values.  CSV and JSON outputs are deterministic for a
fixed config and seed, except for the documented wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import statistics
import sys
import typing
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import forward_adjoint, gradient
from .curvature import hessian_product, stage_curvature, symmetric_part
from .mpc import MpcConfig, run_mpc
from .oracles import (fd_consistency, fd_gradient, fd_hessian, max_rel_error,
                      riccati_lqr)
from .problem import (NumericalBlowupError, central_difference, check_count,
                      roll_forward)
from .scenarios import (CircleReference, LqrSpec, UnicycleSpec, WaypointTable,
                        build_lqr, build_unicycle_plant,
                        build_unicycle_tracking, random_smooth_problem,
                        reference_at, tracking_sampler, wrap_angle)
from .solver import SolverConfig, Termination, minimize, minimize_gd

SCHEMA_VERSION = 1

DEFAULT_CHECK_SIZES: Tuple[Tuple[int, int, int], ...] = (
    (2, 1, 6), (3, 2, 8), (4, 3, 12), (1, 1, 0)
)


class ConfigError(Exception):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config error in field '{field}': {message}")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LqrOutput:
    """run-lqr passes when no solver control deviates from the closed-form
    control by more than tolerance."""

    tolerance: float = 1e-4

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class MpcOutput:
    """run-mpc pass thresholds on the errors after the transient."""

    max_pos_error_m: float = 0.02
    max_heading_error_rad: float = 0.05
    transient_time_s: float = 3.0

    def __post_init__(self):
        for name in ("max_pos_error_m", "max_heading_error_rad"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.transient_time_s < 0:
            raise ValueError(
                f"transient_time_s must be >= 0, got {self.transient_time_s}")


@dataclass(frozen=True)
class GdBaseline:
    """Step size and per-step iteration cap (an integer >= 1) of the
    --baseline gd run."""

    lr: float = 0.05
    max_iters: int = 5000

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        check_count(self.max_iters, 1, "max_iters")


def _load_json(path: str, sections: Sequence[str]) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError("config", f"file not found: {path}")
    try:
        with p.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    for key in data:
        if key not in sections:
            raise ConfigError(key, "unknown field")
    return data


def _typed(value, default, optional: bool, where: str):
    # A JSON value checked against the type of the field's default; fields
    # without one (a waypoint table's arrays) are left to the dataclass.
    if value is None and optional:
        return None
    if default is MISSING:
        return value
    if isinstance(default, CircleReference):
        return _reference(value, where)
    if isinstance(default, Enum):
        allowed = [e.value for e in type(default)]
        if value not in allowed:
            raise ConfigError(where, f"expected one of {allowed}, got {value!r}")
        return type(default)(value)
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(where, f"expected a list of {len(default)} "
                              f"numbers, got {value!r}")
        return tuple(_typed(v, d, False, where) for v, d in zip(value, default))
    if isinstance(default, int):
        if type(value) is not int:
            raise ConfigError(where, f"expected an integer, got {value!r}")
        return value
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
    return float(value)


def _build(cls, user, where: str, **fixed):
    """Instance of the dataclass cls from the JSON object at where.

    Defaults and range checks are those of cls.  Each value must have the
    JSON type of the field's default, null is accepted where the field is
    Optional, and the fields in fixed cannot be set from the config.  A
    range error of cls names the field it mentions first.
    """
    if not isinstance(user, dict):
        raise ConfigError(where, "expected an object")
    hints = typing.get_type_hints(cls)
    kwargs = dict(fixed)
    for f in fields(cls):
        if f.name in user and f.name not in fixed:
            default = (f.default if f.default_factory is MISSING
                       else f.default_factory())
            kwargs[f.name] = _typed(user[f.name], default,
                                    type(None) in typing.get_args(hints[f.name]),
                                    f"{where}.{f.name}")
    for key in user:
        if key not in kwargs or key in fixed:
            raise ConfigError(f"{where}.{key}", "unknown field")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        names = [f.name for f in fields(cls)]
        named = [w for w in re.findall(r"\w+", str(exc)) if w in names]
        raise ConfigError(f"{where}.{named[0]}" if named else where,
                          str(exc)) from exc


def _solver_config(cfg: dict) -> SolverConfig:
    sec = cfg.get("solver", {})
    if isinstance(sec, dict) and sec.get("inner_depth_cap") == "unbounded":
        sec = {**sec, "inner_depth_cap": None}
    return _build(SolverConfig, sec, "solver")


def _reference(user, where: str):
    if not isinstance(user, dict):
        raise ConfigError(where, "expected an object")
    rest = dict(user)
    kind = rest.pop("type", "circle")
    if kind == "circle":
        return _build(CircleReference, rest, where)
    if kind == "table":
        return _build(WaypointTable, rest, where)
    raise ConfigError(f"{where}.type", f"unknown type {kind!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _write_json(path: Path, obj: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run-lqr
# ---------------------------------------------------------------------------

def cmd_run_lqr(config_path: str, out_dir: str) -> int:
    cfg = _load_json(config_path, ("scenario", "solver", "output"))
    spec = _build(LqrSpec, cfg.get("scenario", {}), "scenario")
    solver_cfg = _solver_config(cfg)
    tol = _build(LqrOutput, cfg.get("output", {}), "output").tolerance

    prob = build_lqr(spec)
    x0 = np.array([spec.x0])
    report = minimize(prob, x0, np.zeros(prob.dims.z_len), solver_cfg)
    roll = roll_forward(prob, x0, report.z_final)
    ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N,
                      spec.x0)

    u_ric = np.append(ric.controls, 0.0)
    max_u_dev = float(np.abs(report.z_final - u_ric).max())
    max_x_dev = float(np.abs(roll.states[:, 0] - ric.states).max())
    passed = report.termination is Termination.CONVERGED and max_u_dev <= tol

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (k, float(roll.states[k, 0]), float(report.z_final[k]),
         float(ric.states[k]), float(u_ric[k]))
        for k in range(spec.N + 1)
    ]
    _write_csv(out / "lqr_trace.csv",
               ["k", "x_solver", "u_solver", "x_riccati", "u_riccati"], rows)
    _write_json(out / "report.json", {
        "schema_version": SCHEMA_VERSION,
        "command": "run-lqr",
        "scenario": asdict(spec),
        "termination": report.termination.value,
        "outer_iters": report.outer_iters,
        "inner_iters_total": report.inner_iters_total,
        "grad_norm_history": [float(v) for v in report.grad_norm_history],
        "max_control_deviation": max_u_dev,
        "max_state_deviation": max_x_dev,
        "tolerance": tol,
        "passed": passed,
        "wall_time_s": report.wall_time,
    })
    print(f"run-lqr: {'PASS' if passed else 'FAIL'} "
          f"(max control deviation {max_u_dev:.3e}, tolerance {tol:.1e}, "
          f"{report.outer_iters} outer iterations)")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# run-mpc
# ---------------------------------------------------------------------------

def _trace_summary(trace) -> dict:
    """Report fields of one run_mpc trace, shared by both run-mpc blocks.

    The iteration median is over the solved steps; the termination
    histogram also counts a failed step's partial report, or the step as
    "NumericalBlowup" when a blow-up left none.  failure is present only
    when a step's solve failed.
    """
    steps_done = trace.applied_controls.shape[0]
    iters = [rep.outer_iters for rep in trace.per_step_reports[:steps_done]]
    terminations = Counter(rep.termination.value
                           for rep in trace.per_step_reports)
    if isinstance(trace.failure, NumericalBlowupError):
        terminations["NumericalBlowup"] += 1
    summary = {
        "failed_step": trace.failed_step,
        "median_iters": float(statistics.median(iters)) if iters else None,
        "terminations": dict(sorted(terminations.items())),
        "steps_unconverged": sum(v for k, v in terminations.items()
                                 if k != Termination.CONVERGED.value),
        "total_wall_time_s": float(trace.per_step_wall_time.sum()),
    }
    if trace.failed_step is not None:
        summary["failure"] = str(trace.failure)
    return summary


def cmd_run_mpc(config_path: str, out_dir: str, baseline: Optional[str]) -> int:
    cfg = _load_json(config_path,
                     ("scenario", "solver", "mpc", "baseline", "output"))
    spec = _build(UnicycleSpec, cfg.get("scenario", {}), "scenario")
    if spec.N_p > spec.N:
        raise ConfigError("scenario.N_p", f"prediction horizon {spec.N_p} "
                          f"exceeds total steps N={spec.N}")
    if (isinstance(spec.reference, WaypointTable)
            and len(spec.reference) < spec.N + spec.N_p):
        raise ConfigError("scenario.reference", f"waypoint table has "
                          f"{len(spec.reference)} rows, N + N_p = "
                          f"{spec.N + spec.N_p} are needed")
    mpc_cfg = _build(MpcConfig, cfg.get("mpc", {}), "mpc", horizon=spec.N_p,
                     total_steps=spec.N, solver=_solver_config(cfg))
    gd = _build(GdBaseline, cfg.get("baseline", {}), "baseline")
    limits = _build(MpcOutput, cfg.get("output", {}), "output")
    if (spec.N - 1) * spec.delta <= limits.transient_time_s:
        raise ConfigError("output.transient_time_s", f"the last step is at "
                          f"{(spec.N - 1) * spec.delta:g} s, not after the "
                          f"{limits.transient_time_s:g} s transient, so no "
                          f"step would be scored")

    plant = build_unicycle_plant(spec)
    x_init = np.asarray(spec.X0, dtype=float)

    def factory(state, step):
        return build_unicycle_tracking(spec, step, state)

    trace = run_mpc(plant, factory, x_init, mpc_cfg)
    steps_done = trace.applied_controls.shape[0]

    rows = []
    pos_errors = np.empty(steps_done)
    heading_errors = np.empty(steps_done)
    times = np.arange(steps_done) * spec.delta
    for k in range(steps_done):
        state = trace.applied_states[k]
        ctrl = trace.applied_controls[k]
        xr, _ = reference_at(spec, k)
        pos_errors[k] = float(np.hypot(state[0] - xr[0], state[1] - xr[1]))
        heading_errors[k] = abs(wrap_angle(state[2] - xr[2]))
        rows.append((
            k, float(times[k]), float(state[0]), float(state[1]),
            float(state[2]), float(ctrl[0]), float(ctrl[1]), float(xr[0]),
            float(xr[1]), float(xr[2]), float(pos_errors[k]),
            trace.per_step_reports[k].outer_iters,
            float(trace.per_step_wall_time[k] * 1e3),
        ))

    iters = [rep.outer_iters for rep in trace.per_step_reports[:steps_done]]
    summary = _trace_summary(trace)
    unconverged = summary["steps_unconverged"]
    steady = times > limits.transient_time_s
    steady_any = bool(steady.any())
    max_pos_err = float(pos_errors[steady].max()) if steady_any else float("nan")
    mean_pos_err = float(pos_errors[steady].mean()) if steady_any else float("nan")
    max_heading_err = (float(heading_errors[steady].max()) if steady_any
                       else float("nan"))

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "run-mpc",
        "steps_completed": steps_done,
        "steady_state": {
            "transient_time_s": limits.transient_time_s,
            "max_pos_error_m": max_pos_err,
            "mean_pos_error_m": mean_pos_err,
            "max_heading_error_rad": max_heading_err,
        },
        "thresholds": {"max_pos_error_m": limits.max_pos_error_m,
                       "max_heading_error_rad": limits.max_heading_error_rad},
        "iteration_histogram": {str(k): v for k, v in
                                sorted(Counter(iters).items())},
        "max_iters": max(iters) if iters else None,
        **summary,
    }

    if baseline == "gd":
        def gd_solve(prob, x, z0, scfg):
            return minimize_gd(prob, x, z0, lr=gd.lr, grad_tol=scfg.grad_tol,
                               max_iters=gd.max_iters)

        gd_trace = run_mpc(plant, factory, x_init, mpc_cfg, _solve=gd_solve)
        gd_iters = [rep.outer_iters for rep in gd_trace.per_step_reports]
        report["baseline"] = {
            "method": "gd",
            "lr": gd.lr,
            "max_iters": gd.max_iters,
            "per_step_iters": gd_iters,
            "steps_at_cap": sum(1 for v in gd_iters if v >= gd.max_iters),
            **_trace_summary(gd_trace),
        }
        report["per_step_iters"] = iters

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "mpc_trace.csv",
               ["k", "t", "x", "y", "theta", "v", "omega", "x_r", "y_r",
                "theta_r", "pos_error", "iters", "solve_ms"], rows)

    if trace.failed_step is not None:
        report["passed"] = False
        _write_json(out / "report.json", report)
        reason = (str(trace.failure)
                  if isinstance(trace.failure, NumericalBlowupError)
                  else f"solver failure at step {trace.failed_step}")
        print(f"run-mpc: FAIL ({reason})", file=sys.stderr)
        return 1

    passed = (steady_any and unconverged == 0
              and max_pos_err <= limits.max_pos_error_m
              and max_heading_err <= limits.max_heading_error_rad)
    report["passed"] = passed
    _write_json(out / "report.json", report)
    print(f"run-mpc: {'PASS' if passed else 'FAIL'} "
          f"(steady-state max position error {max_pos_err:.4f} m, "
          f"max heading error {max_heading_err:.4f} rad, "
          f"median iterations {report['median_iters']})")
    if unconverged:
        print(f"run-mpc: {unconverged} of {steps_done} steps did not "
              f"converge {report['terminations']}", file=sys.stderr)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _named_problems(seed: int, sizes: Sequence[Tuple[int, int, int]],
                    extra_problems=None):
    """(name, problem, x0, z, fd_sampler) tuples for the suites."""
    rng = np.random.default_rng(seed)
    problems = []
    for (n, m, n_last) in sizes:
        prob, x0, z = random_smooth_problem(rng, n, m, n_last)
        problems.append((f"random-n{n}m{m}N{n_last}", prob, x0, z, None))
    lqr_spec = LqrSpec()
    lqr = build_lqr(lqr_spec)
    problems.append(("lqr", lqr, np.array([lqr_spec.x0]),
                     rng.normal(scale=0.4, size=lqr.dims.z_len), None))
    uni_spec = UnicycleSpec()
    x_uni = np.asarray(uni_spec.X0) + rng.normal(scale=0.2, size=3)
    uni = build_unicycle_tracking(uni_spec, 3, x_uni)
    problems.append(("unicycle", uni, x_uni,
                     rng.normal(scale=0.3, size=uni.dims.z_len),
                     tracking_sampler(uni_spec, 3)))
    if extra_problems:
        for entry in extra_problems:
            problems.append(tuple(entry) if len(entry) == 5
                            else tuple(entry) + (None,))
    return rng, problems


def run_check_suites(seed: int = 0,
                     sizes: Optional[Sequence[Tuple[int, int, int]]] = None,
                     extra_problems=None) -> List[SuiteResult]:
    """Run the validation suites and return one result per suite.

    extra_problems is a hook for fault-injection tests: a list of
    (name, problem, x0, z) tuples appended to the generated set.
    """
    sizes = tuple(sizes) if sizes is not None else DEFAULT_CHECK_SIZES
    rng, problems = _named_problems(seed, sizes, extra_problems)
    results: List[SuiteResult] = []

    def record(name, tol, errors):
        # errors yields (error, where); the first largest one is reported.
        worst, where = max([(0.0, "")] + list(errors), key=lambda e: e[0])
        results.append(SuiteResult(
            name=name, passed=worst <= tol, max_error=worst, tolerance=tol,
            detail=f"seed {seed}, problem {where}"))

    # Analytic oracles against finite differences of the raw callables.
    record("fd-consistency", 1e-5, (
        (max(fd_consistency(prob, rng, n_points=30, sampler=sampler).values()),
         name) for name, prob, _, _, sampler in problems))

    # Adjoint gradient against central differences of the cost.
    record("gradient-vs-fd", 1e-5, (
        (max_rel_error(gradient(prob, x0, z).gradient,
                       fd_gradient(prob, x0, z, 1e-6)), name)
        for name, prob, x0, z, _ in problems))

    # One snapshot and one Hessian product with the identity per problem
    # serve the three second-order suites: (H, state sensitivities).
    def product(prob, x0, z):
        roll, adj = forward_adjoint(prob, x0, z)
        return hessian_product(adj, stage_curvature(prob, roll, adj, z),
                               np.eye(prob.dims.z_len))

    products = [product(prob, x0, z) for _, prob, x0, z, _ in problems]

    # Assembled second-order matrix against differenced adjoint gradients.
    record("hessian-vs-fd", 1e-4, (
        (max_rel_error(symmetric_part(hv), fd_hessian(prob, x0, z, 1e-6)),
         name)
        for (name, prob, x0, z, _), (hv, _) in zip(problems, products)))

    # Raw (pre-symmetrization) asymmetry, scaled.
    def asymmetry(raw):
        return (float(np.abs(raw - raw.T).max())
                / (1.0 + float(np.abs(raw).max(initial=0.0))))

    record("hessian-symmetry", 1e-8, (
        (asymmetry(hv), name)
        for (name, *_), (hv, _) in zip(problems, products)))

    # Forward sensitivity sequences against differenced rollouts.
    def sensitivity_errors():
        for (name, prob, x0, z, _), (_, dx) in zip(problems, products):
            width = prob.dims.z_len
            if width <= 12:
                flats = range(width)
            else:
                flats = sorted(rng.choice(width, size=8, replace=False).tolist())
            sens = central_difference(
                lambda v: roll_forward(prob, x0, v).states, z, 1e-6)
            for flat in flats:
                yield (max_rel_error(dx[..., flat], sens[..., flat]),
                       f"{name} row {flat}")

    record("rollout-sensitivity", 1e-5, sensitivity_errors())

    # Solver against the closed-form scalar LQR solution.
    lqr_spec = LqrSpec()
    lqr = build_lqr(lqr_spec)

    def lqr_deviation(x0_val):
        rep = minimize(lqr, np.array([x0_val]), np.zeros(lqr.dims.z_len),
                       SolverConfig())
        ric = riccati_lqr(lqr_spec.a, lqr_spec.b, lqr_spec.q, lqr_spec.r,
                          lqr_spec.p_term, lqr_spec.N, x0_val)
        return float(np.abs(rep.z_final[:lqr_spec.N] - ric.controls).max())

    record("lqr-riccati", 1e-4, ((lqr_deviation(v), f"lqr x0={v}")
                                 for v in (1.0, 2.0, 3.0)))

    return results


def _print_suite_table(results: List[SuiteResult]) -> None:
    width = max(len(r.name) for r in results)
    print(f"{'suite'.ljust(width)}  status  max error  tolerance")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {status}    {r.max_error:.2e}   "
              f"{r.tolerance:.0e}")


def _parse_sizes(text: str) -> List[Tuple[int, int, int]]:
    sizes = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ConfigError("sizes", f"expected 'n,m,N' triples separated "
                              f"by ';', got {chunk!r}")
        try:
            n, m, n_last = (int(v) for v in parts)
        except ValueError as exc:
            raise ConfigError("sizes", f"non-integer entry in {chunk!r}") from exc
        if n < 1 or m < 1 or n_last < 0:
            raise ConfigError("sizes", f"invalid dimensions {chunk!r}")
        sizes.append((n, m, n_last))
    return sizes


def cmd_check(seed: int, sizes_text: Optional[str],
              out_dir: Optional[str]) -> int:
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    sizes = _parse_sizes(sizes_text) if sizes_text else None
    results = run_check_suites(seed=seed, sizes=sizes)
    print(f"validation suites, seed {seed}")
    _print_suite_table(results)
    failing = [r for r in results if not r.passed]
    for r in failing:
        print(f"FAILED: {r.name} (max error {r.max_error:.3e}, {r.detail})",
              file=sys.stderr)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "check_report.json", {
            "schema_version": SCHEMA_VERSION,
            "command": "check",
            "seed": seed,
            "sizes": [list(s) for s in (sizes or DEFAULT_CHECK_SIZES)],
            "suites": [{"name": r.name, "passed": r.passed,
                        "max_error": r.max_error, "tolerance": r.tolerance,
                        "detail": r.detail} for r in results],
            "passed": not failing,
        })
    return 0 if not failing else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costate",
        description="Discrete-time optimal control: scenario runners and "
                    "validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lqr = sub.add_parser("run-lqr", help="solve the scalar LQR scenario "
                           "and compare against the closed-form solution")
    p_lqr.add_argument("--config", required=True, help="JSON config file")
    p_lqr.add_argument("--out", default=".", help="output directory")

    p_mpc = sub.add_parser("run-mpc", help="run the unicycle tracking "
                           "scenario under the receding-horizon driver")
    p_mpc.add_argument("--config", required=True, help="JSON config file")
    p_mpc.add_argument("--baseline", choices=["gd"], default=None,
                       help="also run a gradient-descent baseline for "
                            "iteration-count comparison")
    p_mpc.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check", help="run the validation suites")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--sizes", default=None,
                         help="problem sizes as 'n,m,N' triples separated "
                              "by ';' (default: %s)" % ";".join(
                                  ",".join(str(v) for v in s)
                                  for s in DEFAULT_CHECK_SIZES))
    p_check.add_argument("--out", default=None,
                         help="optional directory for check_report.json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Rollouts check every state and cost for finiteness and raise
        # NumericalBlowupError, so numpy's overflow warnings add nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "run-lqr":
                return cmd_run_lqr(args.config, args.out)
            if args.command == "run-mpc":
                return cmd_run_mpc(args.config, args.out, args.baseline)
            if args.command == "check":
                return cmd_check(args.seed, args.sizes, args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NumericalBlowupError as exc:
        # A finite config whose rollout overflows is a failed run.
        print(f"{args.command}: FAIL ({exc})", file=sys.stderr)
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            _write_json(out / "report.json", {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "passed": False,
                "failure": str(exc),
            })
        return 1
    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
