"""Minimization of the rollout cost over the flat control vector.

The main method updates z by a direction obtained from a regularized
second-order system: one Cholesky factorization of (R + H) per outer
iteration, reused across an inner recursion whose depth grows with the
outer iteration count.  Each inner level feeds the previous direction back
through the factorization, so the direction approaches the exact Newton
step geometrically; with the depth schedule the overall iteration converges
superlinearly.  There is no line search: if (R + H) fails to factor, the
regularizer is escalated and the iteration retried a bounded number of
times.

A plain gradient-descent baseline with identical instrumentation is
provided for iteration-count comparisons.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional

import numpy as np
import scipy.linalg

from .adjoint import forward_adjoint
from .curvature import hessian_with
from .problem import NumericalBlowupError, ProblemDef, eval_cost

log = logging.getLogger(__name__)

# Bounded retries when (R + H) fails to factor within one outer iteration.
MAX_ESCALATIONS = 3


class Termination(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    LINEAR_SOLVE_FAILURE = "LinearSolveFailure"
    DIVERGED = "Diverged"


class LinearSolveError(RuntimeError):
    """(R + H) could not be factored; carries a partial report when raised
    from the outer loop after all escalations failed."""

    def __init__(self, message: str, report: Optional["SolveReport"] = None):
        self.report = report
        super().__init__(message)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning for the second-order iteration.

    Attributes:
        r_reg: regularizer, a positive scalar; R is r_reg times the
            identity.
        grad_tol: stop when the max-abs gradient entry drops below this.
        max_outer: outer iteration budget.
        inner_depth_cap: bound on the inner recursion depth; None means the
            depth simply equals the outer iteration index.  Deep inner loops
            add nothing past roundoff, so the default cap is cheap and safe.
        fallback_scale: factor applied to the regularizer on a failed
            factorization, > 1.
    """

    r_reg: float = 0.1
    grad_tol: float = 1e-6
    max_outer: int = 50
    inner_depth_cap: Optional[int] = 20
    fallback_scale: float = 10.0

    def __post_init__(self):
        if not np.isscalar(self.r_reg):
            raise ValueError(
                f"r_reg must be a scalar, got shape {np.shape(self.r_reg)}")
        if not self.r_reg > 0:
            raise ValueError(f"r_reg must be > 0, got {self.r_reg}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.inner_depth_cap is not None and self.inner_depth_cap < 0:
            raise ValueError("inner_depth_cap must be >= 0 or None")
        if not self.fallback_scale > 1:
            raise ValueError(f"fallback_scale must be > 1, got {self.fallback_scale}")


@dataclass
class SolveReport:
    """Iteration record.

    grad_norm_history and cost_history hold one entry per outer evaluation,
    the final (terminating) evaluation included; on Converged the last
    gradient norm is below grad_tol.  inner_iters_total counts linear solves
    against the factorizations (depth + 1 per accepted outer step).
    """

    z_final: np.ndarray
    outer_iters: int
    inner_iters_total: int
    grad_norm_history: np.ndarray
    cost_history: np.ndarray
    termination: Termination
    wall_time: float


def step_direction(h: np.ndarray, g: np.ndarray, cfg: SolverConfig,
                   depth: int) -> np.ndarray:
    """Inner update direction from one factorization of (R + H).

    Depth 0 solves (R + H) d = g; each further level solves
    (R + H) d = g + R d_prev against the same Cholesky factors.  For
    positive-definite H the sequence converges geometrically to the Newton
    direction.

    Raises:
        LinearSolveError: (R + H) is not positive definite.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    r = float(cfg.r_reg)
    a = np.array(h, dtype=float)
    a[np.diag_indices_from(a)] += r
    try:
        factors = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise LinearSolveError(f"(R + H) is not positive definite: {exc}") from exc
    d = scipy.linalg.cho_solve(factors, g, check_finite=False)
    for _ in range(depth):
        d = scipy.linalg.cho_solve(factors, g + r * d, check_finite=False)
    return d


def _report(z, outer, inner, gnorms, costs, termination, t0) -> SolveReport:
    return SolveReport(
        z_final=z,
        outer_iters=outer,
        inner_iters_total=inner,
        grad_norm_history=np.asarray(gnorms),
        cost_history=np.asarray(costs),
        termination=termination,
        wall_time=time.perf_counter() - t0,
    )


# Relative slack when comparing a trial cost against the current one;
# guards against spurious escalations from last-ulp noise near an optimum.
_COST_SLACK = 1e-12


def _escalated(cfg: SolverConfig) -> SolverConfig:
    return replace(cfg, r_reg=cfg.r_reg * cfg.fallback_scale)


def minimize(p: ProblemDef, x0, z0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Minimize the rollout cost from z0 with the second-order iteration.

    Gradient and Hessian are recomputed each outer iteration; the update is
    z <- z - d with d from step_direction at depth min(iteration index,
    inner_depth_cap).  Terminates as Converged when the max-abs gradient
    entry drops below cfg.grad_tol (checked before any step, so a
    stationary start returns unchanged with zero outer iterations) or as
    MaxIters when the budget is exhausted.

    An iteration is retried with the regularizer multiplied by
    cfg.fallback_scale, up to MAX_ESCALATIONS times, whenever the step is
    untrustworthy: (R + H) fails to factor, or the trial cost blows up or
    increases.  The latter two only occur when the curvature is indefinite
    beyond what R absorbs, since on a positive-semidefinite model every
    direction the recursion produces is a strict descent step.  If the
    system still fails to factor after the escalations, LinearSolveError is
    raised carrying the partial report; a merely non-decreasing trial is
    accepted at the highest regularization, which bounds the step and keeps
    the iteration alive.
    """
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float, copy=True)
    gnorms: List[float] = []
    costs: List[float] = []
    inner_total = 0
    i = 0
    while True:
        roll, adj = forward_adjoint(p, x0, z)
        gnorm = float(np.abs(adj.gradient).max(initial=0.0))
        gnorms.append(gnorm)
        costs.append(roll.total_cost)
        if gnorm < cfg.grad_tol:
            return _report(z, i, inner_total, gnorms, costs,
                           Termination.CONVERGED, t0)
        if i == cfg.max_outer:
            return _report(z, i, inner_total, gnorms, costs,
                           Termination.MAX_ITERS, t0)
        h = hessian_with(p, roll, adj, z)
        depth = i if cfg.inner_depth_cap is None else min(i, cfg.inner_depth_cap)
        trial_cfg = cfg
        z_next = None
        for attempt in range(MAX_ESCALATIONS + 1):
            last = attempt == MAX_ESCALATIONS
            try:
                d = step_direction(h, adj.gradient, trial_cfg, depth)
            except LinearSolveError as exc:
                if last:
                    partial = _report(z, i, inner_total, gnorms, costs,
                                      Termination.LINEAR_SOLVE_FAILURE, t0)
                    raise LinearSolveError(
                        f"regularized system failed to factor after "
                        f"{MAX_ESCALATIONS} escalations at outer iteration {i}",
                        report=partial,
                    ) from exc
                trial_cfg = _escalated(trial_cfg)
                log.info("factorization failed, escalating regularizer "
                         "(attempt %d) at outer iteration %d", attempt + 1, i)
                continue
            inner_total += depth + 1
            candidate = z - d
            try:
                trial_cost = eval_cost(p, x0, candidate)
            except NumericalBlowupError:
                trial_cost = float("inf")
            if trial_cost <= costs[-1] + _COST_SLACK * (1.0 + abs(costs[-1])):
                z_next = candidate
                break
            if last:
                if np.isfinite(trial_cost):
                    log.info("accepting non-decreasing step at maximum "
                             "regularization, outer iteration %d", i)
                    z_next = candidate
                    break
                partial = _report(z, i, inner_total, gnorms, costs,
                                  Termination.LINEAR_SOLVE_FAILURE, t0)
                raise LinearSolveError(
                    f"trial steps blew up through {MAX_ESCALATIONS} "
                    f"regularizer escalations at outer iteration {i}",
                    report=partial,
                )
            trial_cfg = _escalated(trial_cfg)
            log.info("trial cost %.6g above %.6g, escalating regularizer "
                     "(attempt %d) at outer iteration %d",
                     trial_cost, costs[-1], attempt + 1, i)
        z = z_next
        i += 1


def minimize_gd(p: ProblemDef, x0, z0: np.ndarray, lr: float,
                grad_tol: float = 1e-6, max_iters: int = 10000) -> SolveReport:
    """Plain gradient descent baseline, z <- z - lr * gradient.

    Same instrumentation as minimize.  If the cost climbs past ten times its
    initial magnitude the run stops with the Diverged termination instead of
    crashing.
    """
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float, copy=True)
    gnorms: List[float] = []
    costs: List[float] = []
    i = 0
    while True:
        roll, adj = forward_adjoint(p, x0, z)
        gnorm = float(np.abs(adj.gradient).max(initial=0.0))
        gnorms.append(gnorm)
        costs.append(roll.total_cost)
        if gnorm < grad_tol:
            return _report(z, i, 0, gnorms, costs, Termination.CONVERGED, t0)
        if costs[-1] > 10.0 * abs(costs[0]) + 1e-12:
            return _report(z, i, 0, gnorms, costs, Termination.DIVERGED, t0)
        if i == max_iters:
            return _report(z, i, 0, gnorms, costs, Termination.MAX_ITERS, t0)
        z = z - lr * adj.gradient
        i += 1
