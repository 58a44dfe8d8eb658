"""Receding-horizon driver.

At each plant step: build the horizon problem anchored at the current state
and absolute step, solve it, apply the first control, advance the plant.
The factory receives the absolute step so time-varying references stay
aligned with plant time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from .problem import (DimensionMismatchError, NumericalBlowupError,
                      ProblemDef, check_count, check_state, stage_controls)
from .solver import (LinearSolveError, SolveReport, SolverConfig,
                     StagewiseFactor, Termination, minimize)


class WarmStart(Enum):
    ZERO = "zero"
    SHIFT = "shift"


@dataclass(frozen=True)
class MpcConfig:
    """Receding-horizon settings: prediction horizon N_p, number of plant
    steps (both integers >= 1), warm-start policy (a WarmStart or its
    value), and the per-step solver configuration."""

    horizon: int
    total_steps: int
    warm_start: WarmStart = WarmStart.ZERO
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        check_count(self.horizon, 1, "horizon")
        check_count(self.total_steps, 1, "total_steps")
        try:
            object.__setattr__(self, "warm_start", WarmStart(self.warm_start))
        except ValueError:
            raise ValueError(
                f"warm_start must be one of {[w.value for w in WarmStart]}, "
                f"got {self.warm_start!r}") from None


@dataclass
class MpcTrace:
    """Closed-loop record.

    applied_states has one more row than applied_controls and replays
    exactly through the plant dynamics.  If a step's solve failed, the
    trace stops there: failed_step holds its index and failure the error
    that ended it.  A LinearSolveError leaves its partial report as the
    last entry of per_step_reports; a NumericalBlowupError has no partial
    report, so per_step_reports ends with the last solved step.
    """

    applied_states: np.ndarray
    applied_controls: np.ndarray
    per_step_reports: List[SolveReport]
    per_step_wall_time: np.ndarray
    failed_step: Optional[int] = None
    failure: Optional[Exception] = None

    def summary(self) -> dict:
        """JSON-ready account of the run's steps and iterations.

        per_step_iters lists the outer iterations of the solved steps;
        iteration_histogram, max_iters and median_iters summarize them
        (None when no step was solved).  terminations counts the solver
        terminations by name, a failed step's partial report included, or
        that step as "NumericalBlowup" when a blow-up left none, and
        steps_unconverged those that are not Converged.  failure, the
        error's message, is present only when a step's solve failed.
        """
        done = self.applied_controls.shape[0]
        iters = [rep.outer_iters for rep in self.per_step_reports[:done]]
        ends = Counter(rep.termination.value for rep in self.per_step_reports)
        if isinstance(self.failure, NumericalBlowupError):
            ends["NumericalBlowup"] += 1
        summary = {
            "steps_completed": done,
            "per_step_iters": iters,
            "iteration_histogram": dict(sorted(Counter(iters).items())),
            "max_iters": max(iters, default=None),
            "median_iters": float(np.median(iters)) if iters else None,
            "terminations": dict(sorted(ends.items())),
            "steps_unconverged": (sum(ends.values())
                                  - ends[Termination.CONVERGED.value]),
            "failed_step": self.failed_step,
            "total_wall_time_s": float(self.per_step_wall_time.sum()),
        }
        if self.failed_step is not None:
            summary["failure"] = str(self.failure)
        return summary


def _shift_warm_start(z_prev: np.ndarray, dims) -> np.ndarray:
    # Drop stage 0, repeat the last meaningful control, keep the padding
    # stage as is (its entries never matter to the cost).
    u = stage_controls(z_prev, dims)
    shifted = u.copy()
    shifted[:dims.N - 1] = u[1:dims.N]
    return shifted.reshape(-1)


def run_mpc(plant: ProblemDef, ocp_factory: Callable, x0, cfg: MpcConfig,
            _solve: Optional[Callable] = None) -> MpcTrace:
    """Run the receding-horizon loop.

    Args:
        plant: problem definition acting as the simulator; only its
            dynamics are used, with the absolute step index.
        ocp_factory: callable (state, step) -> ProblemDef of horizon
            cfg.horizon, anchored at the given absolute step.
        x0: initial plant state.
        cfg: horizon length, number of steps, warm start, solver settings.
        _solve: override for the per-step solver (internal; used to drive
            the same loop with baseline optimizers), called as
            _solve(problem, state, z0, cfg.solver).  Without it every step
            runs minimize in one factorization workspace, built once:
            every step's problem has the same (N_p, n, m).

    Returns:
        MpcTrace.  A step whose solve raises LinearSolveError or
        NumericalBlowupError truncates the trace and names the error; a
        LinearSolveError's partial report is attached.

    Raises:
        DimensionMismatchError: a factory problem does not match cfg.horizon
            or the plant's (n, m); or the plant dynamics returned the wrong
            shape, named with the step.
        NumericalBlowupError: the plant dynamics returned a non-finite
            state; carries the step.
        AsymmetricHessianError: a step's stage curvature failed the
            symmetry check; the loop ends without a trace.
    """
    if _solve is not None:
        solve = _solve
    else:
        solve = partial(minimize, _factor=StagewiseFactor(
            cfg.horizon, plant.dims.n, plant.dims.m))
    x = check_state(x0, plant.dims.n, "x0")
    states = [x.copy()]
    controls: List[np.ndarray] = []
    reports: List[SolveReport] = []
    walls: List[float] = []
    failed: Optional[int] = None
    failure: Optional[Exception] = None
    z_prev: Optional[np.ndarray] = None

    for k in range(cfg.total_steps):
        prob = ocp_factory(x.copy(), k)
        if prob.dims.N != cfg.horizon:
            raise DimensionMismatchError(
                f"factory produced horizon {prob.dims.N}, expected {cfg.horizon}")
        if prob.dims.n != plant.dims.n or prob.dims.m != plant.dims.m:
            raise DimensionMismatchError(
                f"factory dims ({prob.dims.n}, {prob.dims.m}) do not match "
                f"plant ({plant.dims.n}, {plant.dims.m})")
        if cfg.warm_start is WarmStart.SHIFT and z_prev is not None:
            z0 = _shift_warm_start(z_prev, prob.dims)
        else:
            z0 = np.zeros(prob.dims.z_len)
        t0 = time.perf_counter()
        try:
            report = solve(prob, x, z0, cfg.solver)
        except (LinearSolveError, NumericalBlowupError) as exc:
            walls.append(time.perf_counter() - t0)
            if isinstance(exc, LinearSolveError) and exc.report is not None:
                reports.append(exc.report)
            failed, failure = k, exc
            break
        walls.append(time.perf_counter() - t0)
        reports.append(report)
        z_prev = report.z_final
        u = np.array(report.z_final[:prob.dims.m], dtype=float, copy=True)
        nxt = check_state(plant.dynamics(x, u, k), plant.dims.n,
                          f"plant dynamics at step {k}")
        if not np.all(np.isfinite(nxt)):
            raise NumericalBlowupError(k, "plant dynamics")
        controls.append(u)
        states.append(nxt)
        x = nxt

    return MpcTrace(
        applied_states=np.asarray(states),
        applied_controls=(np.asarray(controls) if controls
                          else np.empty((0, plant.dims.m))),
        per_step_reports=reports,
        per_step_wall_time=np.asarray(walls),
        failed_step=failed,
        failure=failure,
    )
