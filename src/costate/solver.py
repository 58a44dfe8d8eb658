"""Minimization of the rollout cost over the flat control vector.

The main method updates z by a direction obtained from a regularized
second-order system (R + H) d = g, R = r_reg * I: one factorization per
outer iteration, reused across an inner recursion whose depth grows with
the outer iteration count.  Each inner level feeds the previous direction
back through the factorization, so the direction approaches the exact
Newton step geometrically; with the depth schedule the overall iteration
converges superlinearly.  There is no line search: if (R + H) fails to
factor, the regularizer is escalated and the iteration retried a bounded
number of times.

(R + H) d = g is the optimality condition of a linear-quadratic subproblem
along the rollout, so the factorization is a backward Riccati recursion
over the stage Hamiltonian Hessians of curvature.stage_curvature and the
dynamics Jacobians of the costate sweep: O(N (n+m)^3) time and O(N (n+m)^2)
memory.  The dense Hessian is never formed.

A plain gradient-descent baseline with identical instrumentation is
provided for iteration-count comparisons.
"""

from __future__ import annotations

import logging
import numbers
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dposv

from .adjoint import AdjointSolution, forward_adjoint
# Not called here; perfbench/tracing.py wraps costate.solver.hessian_with.
from .curvature import hessian_with  # noqa: F401
from .curvature import stage_curvature, symmetric_part
from .problem import NumericalBlowupError, ProblemDef, eval_cost

log = logging.getLogger(__name__)

# Bounded retries of an untrustworthy step within one outer iteration,
# each multiplying the regularizer by FALLBACK_SCALE.
MAX_ESCALATIONS = 3
FALLBACK_SCALE = 10.0


class Termination(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    LINEAR_SOLVE_FAILURE = "LinearSolveFailure"
    DIVERGED = "Diverged"


class LinearSolveError(RuntimeError):
    """(R + H) could not be factored, or trial steps blew up.

    Attributes:
        report: the partial report when raised from the outer loop after
            all escalations failed, else None.
        stage: the stage whose Riccati pivot failed to factor; None when
            the trial steps blew up.
    """

    def __init__(self, message: str, report: Optional["SolveReport"] = None,
                 stage: Optional[int] = None):
        self.report = report
        self.stage = stage
        super().__init__(message)


def _check_count(name: str, value, low: int) -> None:
    if not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning for the second-order iteration.

    Attributes:
        r_reg: regularizer, a positive scalar; R is r_reg times the
            identity.
        grad_tol: stop when the max-abs gradient entry drops below this.
        max_outer: outer iteration budget, an integer >= 1.
        inner_depth_cap: bound on the inner recursion depth, an integer
            >= 0; None means the depth simply equals the outer iteration
            index.  Deep inner loops add nothing past roundoff, so the
            default cap is cheap and safe.
    """

    r_reg: float = 0.1
    grad_tol: float = 1e-6
    max_outer: int = 50
    inner_depth_cap: Optional[int] = 20

    def __post_init__(self):
        if not np.isscalar(self.r_reg):
            raise ValueError(
                f"r_reg must be a scalar, got shape {np.shape(self.r_reg)}")
        if not self.r_reg > 0:
            raise ValueError(f"r_reg must be > 0, got {self.r_reg}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")
        _check_count("max_outer", self.max_outer, 1)
        if self.inner_depth_cap is not None:
            _check_count("inner_depth_cap", self.inner_depth_cap, 0)


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


class _StagewiseFactor:
    """Backward Riccati factorization of (R + H), solved by stage passes.

    (R + H) d = b is the optimality condition of the LQ subproblem

        minimize  sum_k 1/2 [dx_k; du_k]' Q_k [dx_k; du_k] - b_k' du_k
        subject   dx_{k+1} = f_x dx_k + f_u du_k,   dx_0 = 0,

    with Q_k the stage Hessian plus r_reg on its uu diagonal, and f_x, f_u
    the sweep's Jacobians, zero at stage N.  Going backward from P = 0,
    each stage adds the propagated cost-to-go curvature P to Q_k and
    Cholesky-factors its control pivot Q_uu; one solve against
    [Q_ux | I] yields the feedback gain K_k = -Q_uu^{-1} Q_ux and Q_uu^{-1}
    at once, and P_k = Q_xx + Q_xu K_k.  The pivots are positive definite
    exactly when R + H is.

    A solve is one backward pass, for the feedforward kff_k and the linear
    cost-to-go term s_k, and one forward pass, for du_k and dx_{k+1}.  Each
    stage of a pass is one np.dot of a fixed stage matrix with a slice of a
    row buffer; only b enters per solve, copied into the buffer at once.
    """

    def __init__(self, adj: AdjointSolution, c: np.ndarray, r: float):
        fx, fu = adj.fx, adj.fu
        horizon, n, m = fu.shape[0] - 1, fu.shape[1], fu.shape[2]
        q = symmetric_part(c)
        q[:, n:, n:] += r * np.eye(m)
        fxu = np.concatenate((fx, fu), axis=2)
        # sol[k] = Q_uu^{-1} [Q_ux | I] = [-K_k | Q_uu^{-1}].
        sol = np.empty((horizon + 1, m, n + m))
        rhs = np.empty((m, n + m))
        rhs[:, n:] = np.eye(m)
        p = np.zeros((n, n))
        for k in range(horizon, -1, -1):
            qk = q[k]
            qk += np.dot(fxu[k].T, np.dot(p, fxu[k]))
            rhs[:, :n] = qk[n:, :n]
            _, x, info = dposv(qk[n:, n:], rhs, lower=1)
            if info:
                raise LinearSolveError(
                    f"(R + H) is not positive definite: the pivot of stage "
                    f"{k} failed to factor", stage=k)
            sol[k] = x
            p = qk[:n, :n] - np.dot(qk[:n, n:], x[:, :n])
        neg_gain, quu_inv = sol[:, :, :n], sol[:, :, n:]
        closed = fx - fu @ neg_gain  # A_k = f_x + f_u K_k
        # back[k] maps [s_{k+1}; b_k] to [kff_k; s_k]:
        #   kff_k = Q_uu^{-1} (b_k - f_u' s_{k+1})
        #   s_k = A_k' s_{k+1} - K_k' b_k
        back = np.empty((horizon + 1, m + n, n + m))
        back[:, :m, :n] = -quu_inv @ fu.transpose(0, 2, 1)
        back[:, :m, n:] = quu_inv
        back[:, m:, :n] = closed.transpose(0, 2, 1)
        back[:, m:, n:] = neg_gain.transpose(0, 2, 1)
        # fwd[k] maps [dx_k; kff_k] to [du_k; dx_{k+1}]:
        #   du_k = K_k dx_k + kff_k
        #   dx_{k+1} = A_k dx_k + f_u kff_k
        fwd = np.empty((horizon + 1, m + n, n + m))
        fwd[:, :m, :n] = -neg_gain
        fwd[:, :m, n:] = np.eye(m)
        fwd[:, m:, :n] = closed
        fwd[:, m:, n:] = fu
        # Backward rows are [kff_k, s_k, b_{k-1}]: stage k reads
        # [s_{k+1}; b_k] from row k+1 and writes [kff_k; s_k] to row k.
        # Forward rows are [du_{k-1}, dx_k, kff_k]: stage k reads
        # [dx_k; kff_k] from row k and writes [du_k; dx_{k+1}] to row k+1.
        # s_{N+1} = 0 and dx_0 = 0 are never written.
        self.s_rows = np.zeros((horizon + 2, 2 * m + n))
        self.x_rows = np.zeros((horizon + 2, 2 * m + n))
        self.back_steps = [(back[k], self.s_rows[k + 1, m:],
                            self.s_rows[k, :m + n])
                           for k in range(horizon, -1, -1)]
        self.fwd_steps = [(fwd[k], self.x_rows[k, m:],
                           self.x_rows[k + 1, :m + n])
                          for k in range(horizon + 1)]
        self.m = m

    def solve(self, b: np.ndarray) -> np.ndarray:
        m, s_rows, x_rows = self.m, self.s_rows, self.x_rows
        s_rows[1:, -m:] = b.reshape(-1, m)
        for mat, src, dst in self.back_steps:
            np.dot(mat, src, out=dst)
        x_rows[:-1, -m:] = s_rows[:-1, :m]
        for mat, src, dst in self.fwd_steps:
            np.dot(mat, src, out=dst)
        return x_rows[1:, :m].reshape(-1)


def step_direction(adj: AdjointSolution, c: np.ndarray, g: np.ndarray,
                   cfg: SolverConfig, depth: int) -> np.ndarray:
    """Inner update direction from one stagewise factorization of (R + H).

    H is the Hessian of the rollout cost at the snapshot that produced adj
    (its dynamics Jacobians) and c (its stage Hamiltonian Hessians, from
    curvature.stage_curvature); R = cfg.r_reg * I.  Depth 0 solves
    (R + H) d = g; each further level solves (R + H) d = g + R d_prev
    against the same factors.  For positive-definite H the sequence
    converges geometrically to the Newton direction.

    c is checked against the symmetry tolerance and its symmetric part is
    factored by a backward Riccati recursion, one Cholesky-factored control
    pivot per stage; each solve is one backward and one forward pass over
    the stages.  No m(N+1)-square matrix is formed.

    Raises:
        ValueError: depth < 0.
        AsymmetricHessianError: c violates the symmetry tolerance.
        LinearSolveError: (R + H) is not positive definite; its stage is
            the stage whose pivot failed.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    r = float(cfg.r_reg)
    factor = _StagewiseFactor(adj, c, r)
    d = factor.solve(g)
    for _ in range(depth):
        d = factor.solve(g + r * d)
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
    return replace(cfg, r_reg=cfg.r_reg * FALLBACK_SCALE)


def minimize(p: ProblemDef, x0, z0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Minimize the rollout cost from z0 with the second-order iteration.

    The gradient and the stage curvature are recomputed each outer
    iteration; the update is z <- z - d with d from step_direction at
    depth min(iteration index, inner_depth_cap).  Terminates as Converged
    when the max-abs gradient entry drops below cfg.grad_tol (checked
    before any step, so a stationary start returns unchanged with zero
    outer iterations) or as MaxIters when the budget is exhausted.

    An iteration is retried with the regularizer multiplied by
    FALLBACK_SCALE, up to MAX_ESCALATIONS times, whenever the step is
    untrustworthy: (R + H) fails to factor, or the trial cost blows up or
    increases.  The latter two only occur when the curvature is indefinite
    beyond what R absorbs, since on a positive-semidefinite model every
    direction the recursion produces is a strict descent step.  If the
    system still fails to factor after the escalations, LinearSolveError is
    raised carrying the partial report and the stage whose pivot failed; a
    merely non-decreasing trial is accepted at the highest regularization,
    which bounds the step and keeps the iteration alive.
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
        c = stage_curvature(p, roll, adj, z)
        depth = i if cfg.inner_depth_cap is None else min(i, cfg.inner_depth_cap)
        trial_cfg = cfg
        z_next = None
        for attempt in range(MAX_ESCALATIONS + 1):
            last = attempt == MAX_ESCALATIONS
            try:
                d = step_direction(adj, c, adj.gradient, trial_cfg, depth)
            except LinearSolveError as exc:
                if last:
                    partial = _report(z, i, inner_total, gnorms, costs,
                                      Termination.LINEAR_SOLVE_FAILURE, t0)
                    raise LinearSolveError(
                        f"regularized system failed to factor after "
                        f"{MAX_ESCALATIONS} escalations at outer iteration "
                        f"{i} (stage {exc.stage})",
                        report=partial, stage=exc.stage,
                    ) from exc
                trial_cfg = _escalated(trial_cfg)
                log.info("factorization failed at stage %d, escalating "
                         "regularizer (attempt %d) at outer iteration %d",
                         exc.stage, attempt + 1, i)
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

    Same instrumentation as minimize; max_iters is an integer >= 0.  If the
    cost climbs past ten times its initial magnitude the run stops with the
    Diverged termination instead of crashing.
    """
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    _check_count("max_iters", max_iters, 0)
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
