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

Exit codes: 0 pass, 1 quantitative failure (a numerical blow-up or a
solver failure of a run included), 2 usage or config error, an --out
that cannot be created or written included.  main creates --out and writes
each command's report there, on failure too.
Configs are JSON with sections {scenario, solver, mpc, baseline, output},
each read into a dataclass whose defaults fill missing fields and whose
checks reject bad values.  CSV and JSON outputs are deterministic for a
fixed config and seed, except for the documented wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adjoint import forward_adjoint, gradient
from .curvature import SYMMETRY_TOL, hessian_product, stage_curvature
from .mpc import MpcConfig, run_mpc
from .oracles import (fd_consistency, fd_gradient, fd_hessian, max_rel_error,
                      riccati_lqr)
from .problem import (FD_STEP, Dims, NumericalBlowupError, central_difference,
                      check_byte_range, check_count, check_positive,
                      roll_forward)
from .scenarios import (CircleReference, LqrSpec, UnicycleSpec, WaypointTable,
                        build_lqr, build_unicycle_plant,
                        build_unicycle_tracking, random_smooth_problem,
                        reference_at, tracking_errors, tracking_sampler)
from .solver import (LinearSolveError, SolverConfig, Termination, minimize,
                     minimize_gd)

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
        check_positive(self.tolerance, "tolerance")


@dataclass(frozen=True)
class MpcOutput:
    """run-mpc pass thresholds on the errors after the transient."""

    max_pos_error_m: float = 0.02
    max_heading_error_rad: float = 0.05
    transient_time_s: float = 3.0

    def __post_init__(self):
        check_positive(self.max_pos_error_m, "max_pos_error_m")
        check_positive(self.max_heading_error_rad, "max_heading_error_rad")
        check_positive(self.transient_time_s, "transient_time_s", zero_ok=True)


@dataclass(frozen=True)
class GdBaseline:
    """Step size and per-step iteration cap (an integer >= 1) of the
    --baseline gd run."""

    lr: float = 0.05
    max_iters: int = 5000

    def __post_init__(self):
        check_positive(self.lr, "lr")
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
    except (OSError, ValueError, RecursionError) as exc:
        # Unreadable, not UTF-8, nested past the parser's depth, or an
        # integer literal past Python's digit limit.
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    for key in data:
        if key not in sections:
            raise ConfigError(key, "unknown field")
    return data


def _typed(value, default, where: str):
    # Structure only, read off the field's default: a reference object, a
    # tuple, an int as a float.  Values are the dataclass's to check.
    if default is MISSING:
        return value
    if isinstance(default, CircleReference):
        return _reference(value, where)
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(where, f"expected a list of {len(default)} "
                              f"numbers, got {value!r}")
        return tuple(_typed(v, d, where) for v, d in zip(value, default))
    if isinstance(default, float) and type(value) is int:
        try:  # one beyond float range stays an int, for the dataclass
            return float(value)
        except OverflowError:
            pass
    return value


def _build(cls, user, where: str, **fixed):
    """Instance of the dataclass cls from the JSON object at where.

    Only the JSON structure is read here (_typed); the fields in fixed
    cannot be set from the config.  Defaults and every value check are
    cls's, and an error of cls names the field it mentions first.
    """
    if not isinstance(user, dict):
        raise ConfigError(where, "expected an object")
    kwargs = dict(fixed)
    for f in fields(cls):
        if f.name in user and f.name not in fixed:
            default = (f.default if f.default_factory is MISSING
                       else f.default_factory())
            kwargs[f.name] = _typed(user[f.name], default, f"{where}.{f.name}")
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

@contextmanager
def _out_file(path: Path):
    """path opened for writing; an OSError, from the open or a write, is
    ConfigError("out", ...) naming the path."""
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("out", f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    # csv writes a float as its repr, which round-trips.
    with _out_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj: dict) -> None:
    with _out_file(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run-lqr
# ---------------------------------------------------------------------------

def _lqr_against_riccati(spec: LqrSpec, solver_cfg: SolverConfig):
    """The scalar LQR scenario solved from zero controls beside its
    closed-form solution: (problem, solver report, Riccati solution, largest
    control deviation).  The solver's u_N carries no cost and is compared
    with 0."""
    prob = build_lqr(spec)
    report = minimize(prob, np.array([spec.x0]), np.zeros(prob.dims.z_len),
                      solver_cfg)
    ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N,
                      spec.x0)
    u_ric = np.append(ric.controls, 0.0)
    return prob, report, ric, float(np.abs(report.z_final - u_ric).max())


def cmd_run_lqr(config_path: str, out: Path) -> dict:
    cfg = _load_json(config_path, ("scenario", "solver", "output"))
    spec = _build(LqrSpec, cfg.get("scenario", {}), "scenario")
    check_byte_range(spec.N + 1, "scenario.N")
    solver_cfg = _build(SolverConfig, cfg.get("solver", {}), "solver")
    tol = _build(LqrOutput, cfg.get("output", {}), "output").tolerance

    prob, report, ric, max_u_dev = _lqr_against_riccati(spec, solver_cfg)
    roll = roll_forward(prob, np.array([spec.x0]), report.z_final)
    max_x_dev = float(np.abs(roll.states[:, 0] - ric.states).max())
    passed = report.termination is Termination.CONVERGED and max_u_dev <= tol

    _write_csv(out / "lqr_trace.csv",
               ["k", "x_solver", "u_solver", "x_riccati", "u_riccati"],
               zip(range(spec.N + 1), roll.states[:, 0].tolist(),
                   report.z_final.tolist(), ric.states.tolist(),
                   [*ric.controls.tolist(), 0.0]))
    print(f"run-lqr: {'PASS' if passed else 'FAIL'} "
          f"(max control deviation {max_u_dev:.3e}, tolerance {tol:.1e}, "
          f"{report.outer_iters} outer iterations)")
    return {
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
    }


# ---------------------------------------------------------------------------
# run-mpc
# ---------------------------------------------------------------------------

def cmd_run_mpc(config_path: str, out: Path, baseline: Optional[str]) -> dict:
    cfg = _load_json(config_path,
                     ("scenario", "solver", "mpc", "baseline", "output"))
    spec = _build(UnicycleSpec, cfg.get("scenario", {}), "scenario")
    check_byte_range(spec.N + 1, "scenario.N")
    if spec.N_p > spec.N:
        raise ConfigError("scenario.N_p", f"prediction horizon {spec.N_p} "
                          f"exceeds total steps N={spec.N}")
    try:  # the last horizon ends at step N + N_p - 1
        reference_at(spec, spec.N + spec.N_p - 1)
    except ValueError as exc:
        raise ConfigError("scenario.reference", str(exc)) from exc
    solver_cfg = _build(SolverConfig, cfg.get("solver", {}), "solver")
    mpc_cfg = _build(MpcConfig, cfg.get("mpc", {}), "mpc", horizon=spec.N_p,
                     total_steps=spec.N, solver=solver_cfg)
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
    summary = trace.summary()
    states = trace.applied_states[:-1]
    ref, pos, heading = tracking_errors(spec, states)
    times = np.arange(len(states)) * spec.delta
    steady = times > limits.transient_time_s

    def steady_stat(reduce, errors):
        # null when the run failed before any step after the transient.
        return float(reduce(errors[steady])) if steady.any() else None

    stats = {"transient_time_s": limits.transient_time_s,
             "max_pos_error_m": steady_stat(np.max, pos),
             "mean_pos_error_m": steady_stat(np.mean, pos),
             "max_heading_error_rad": steady_stat(np.max, heading)}
    report = {
        "steady_state": stats,
        "thresholds": {"max_pos_error_m": limits.max_pos_error_m,
                       "max_heading_error_rad": limits.max_heading_error_rad},
        **summary,
        "iteration_histogram": {str(k): v for k, v in
                                summary["iteration_histogram"].items()},
    }
    if baseline == "gd":
        def gd_solve(prob, x, z0, scfg):
            return minimize_gd(prob, x, z0, lr=gd.lr, grad_tol=scfg.grad_tol,
                               max_iters=gd.max_iters)

        gd_summary = run_mpc(plant, factory, x_init, mpc_cfg,
                             _solve=gd_solve).summary()
        for key in ("steps_completed", "iteration_histogram", "max_iters"):
            del gd_summary[key]
        report["baseline"] = {
            "method": "gd", "lr": gd.lr, "max_iters": gd.max_iters,
            "steps_at_cap": sum(v >= gd.max_iters
                                for v in gd_summary["per_step_iters"]),
            **gd_summary}
    else:  # the per-step counts are there to compare with the baseline's
        del report["per_step_iters"]

    _write_csv(out / "mpc_trace.csv",
               ["k", "t", "x", "y", "theta", "v", "omega", "x_r", "y_r",
                "theta_r", "pos_error", "iters", "solve_ms"],
               zip(range(len(states)), times.tolist(), *states.T.tolist(),
                   *trace.applied_controls.T.tolist(), *ref.T.tolist(),
                   pos.tolist(), summary["per_step_iters"],
                   (trace.per_step_wall_time[:len(states)] * 1e3).tolist()))

    # A run that did not fail solved all N steps, the last one after the
    # transient (checked above), so its steady-state statistics are numbers.
    failed = trace.failed_step is not None
    unconverged = summary["steps_unconverged"]
    report["passed"] = passed = (
        not failed and unconverged == 0
        and stats["max_pos_error_m"] <= limits.max_pos_error_m
        and stats["max_heading_error_rad"] <= limits.max_heading_error_rad)
    if failed:
        reason = (str(trace.failure)
                  if isinstance(trace.failure, NumericalBlowupError)
                  else f"solver failure at step {trace.failed_step}")
        print(f"run-mpc: FAIL ({reason})", file=sys.stderr)
    else:
        print(f"run-mpc: {'PASS' if passed else 'FAIL'} (steady-state max "
              f"position error {stats['max_pos_error_m']:.4f} m, max heading "
              f"error {stats['max_heading_error_rad']:.4f} rad, median "
              f"iterations {summary['median_iters']})")
        if unconverged:
            print(f"run-mpc: {unconverged} of {len(states)} steps did not "
                  f"converge {summary['terminations']}", file=sys.stderr)
    return report


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
    """(name, problem, x0, z, fd_sampler) tuples for the suites; the extra
    (name, problem, x0, z) tuples use the default sampler."""
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
    problems.extend((name, prob, x0, z, None)
                    for name, prob, x0, z in extra_problems or ())
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

    def record(name, tol, errors, exact=()):
        # errors yields (error, where) pairs held to tol, exact yields pairs
        # that must be zero.  The first nonzero exact error is reported,
        # else the first largest error.
        nonzero = [e for e in exact if e[0]]
        worst, where = nonzero[0] if nonzero else max(
            [(0.0, "")] + list(errors), key=lambda e: e[0])
        results.append(SuiteResult(
            name=name, passed=worst <= tol and not nonzero, max_error=worst,
            tolerance=tol, detail=f"seed {seed}, problem {where}"))

    # Analytic oracles against finite differences of the raw callables.  A
    # rollout oracle has no differencing error: it must equal the stepped
    # dynamics bit for bit.
    consistency = [(fd_consistency(prob, rng, n_points=30, sampler=sampler),
                    name) for name, prob, _, _, sampler in problems]
    record("fd-consistency", 1e-5, (
        (max(err for key, err in errs.items() if key != "rollout"), name)
        for errs, name in consistency), exact=(
        (errs["rollout"], f"{name} rollout")
        for errs, name in consistency if "rollout" in errs))

    # Adjoint gradient against central differences of the cost.
    record("gradient-vs-fd", 1e-5, (
        (max_rel_error(gradient(prob, x0, z).gradient,
                       fd_gradient(prob, x0, z, FD_STEP)), name)
        for name, prob, x0, z, _ in problems))

    # One snapshot and one Hessian product with the identity per problem
    # serve the three second-order suites: (H, state sensitivities).
    def product(prob, x0, z):
        roll, adj = forward_adjoint(prob, x0, z)
        return hessian_product(adj, stage_curvature(prob, roll, adj),
                               np.eye(prob.dims.z_len))

    products = [product(prob, x0, z) for _, prob, x0, z, _ in problems]

    # Assembled second-order matrix against differenced adjoint gradients.
    # Symmetrized unchecked: an asymmetry is hessian-symmetry's FAIL.
    record("hessian-vs-fd", 1e-4, (
        (max_rel_error(0.5 * (hv + hv.T), fd_hessian(prob, x0, z, FD_STEP)),
         name)
        for (name, prob, x0, z, _), (hv, _) in zip(problems, products)))

    # Raw (pre-symmetrization) asymmetry, scaled.
    def asymmetry(raw):
        return (float(np.abs(raw - raw.T).max())
                / (1.0 + float(np.abs(raw).max(initial=0.0))))

    record("hessian-symmetry", SYMMETRY_TOL, (
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
                lambda v: roll_forward(prob, x0, v).states, z, FD_STEP)
            for flat in flats:
                yield (max_rel_error(dx[..., flat], sens[..., flat]),
                       f"{name} row {flat}")

    record("rollout-sensitivity", 1e-5, sensitivity_errors())

    # Solver against the closed-form scalar LQR solution.
    record("lqr-riccati", 1e-4, (
        (_lqr_against_riccati(LqrSpec(x0=v), SolverConfig())[3],
         f"lqr x0={v}") for v in (1.0, 2.0, 3.0)))

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
        try:
            n, m, n_last = (int(v) for v in chunk.split(","))
            Dims(n, m, n_last)
        except ValueError as exc:
            raise ConfigError("sizes", f"expected 'n,m,N' triples separated "
                              f"by ';', got {chunk!r} ({exc})") from exc
        # The largest arrays of a check problem: the identity product's
        # Hessian and sensitivity stack, and the n x n random matrices (the
        # n x m and m x m ones are no larger than these).
        z_len = m * (n_last + 1)
        check_byte_range(max(z_len * z_len, (n_last + 1) * n * z_len, n * n),
                         f"sizes {chunk!r}")
        sizes.append((n, m, n_last))
    return sizes


def cmd_check(seed: int, sizes_text: Optional[str]) -> dict:
    try:
        check_count(seed, 0, "seed", bounded=False)  # default_rng's range
    except ValueError as exc:
        raise ConfigError("seed", str(exc)) from exc
    sizes = _parse_sizes(sizes_text) if sizes_text else None
    results = run_check_suites(seed=seed, sizes=sizes)
    print(f"validation suites, seed {seed}")
    _print_suite_table(results)
    failing = [r for r in results if not r.passed]
    for r in failing:
        print(f"FAILED: {r.name} (max error {r.max_error:.3e}, {r.detail})",
              file=sys.stderr)
    return {"seed": seed,
            "sizes": [list(s) for s in (sizes or DEFAULT_CHECK_SIZES)],
            "suites": [asdict(r) for r in results], "passed": not failing}


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
    """Run one command: create --out, write the command's report there on
    pass and failure alike, and return the exit code."""
    args = _build_parser().parse_args(argv)
    out = None if args.out is None else Path(args.out)
    try:
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError("out", f"cannot create directory: {exc}"
                                  ) from exc
        try:
            # Rollouts check every state and cost for finiteness and raise
            # NumericalBlowupError, so numpy's overflow warnings add nothing.
            with np.errstate(over="ignore", invalid="ignore"):
                if args.command == "run-lqr":
                    report = cmd_run_lqr(args.config, out)
                elif args.command == "run-mpc":
                    report = cmd_run_mpc(args.config, out, args.baseline)
                else:
                    report = cmd_check(args.seed, args.sizes)
        except (NumericalBlowupError, LinearSolveError, MemoryError) as exc:
            # A finite config whose rollout overflows, whose solve finds no
            # acceptable step, or whose arrays cannot be allocated is a
            # failed run.
            print(f"{args.command}: FAIL ({exc})", file=sys.stderr)
            report = {"passed": False, "failure": str(exc)}
        if out is not None:
            name = ("check_report.json" if args.command == "check"
                    else "report.json")
            _write_json(out / name, {"schema_version": SCHEMA_VERSION,
                                     "command": args.command, **report})
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
