"""Minimization of the rollout cost over the flat control vector.

The main method updates z by a direction obtained from a regularized
second-order system (R + H) d = g, R = r_reg * I: one factorization per
outer iteration, reused across an inner recursion whose depth grows with
the outer iteration count.  Each inner level feeds the previous direction
back through the factorization, so the direction approaches the exact
Newton step geometrically; with the depth schedule the overall iteration
converges superlinearly.  There is no line search: a step that cannot be
trusted ((R + H) fails to factor, or the trial cost blows up or increases)
is retried with a tenfold larger regularizer, a bounded number of times.

(R + H) d = g is the optimality condition of a linear-quadratic subproblem
along the rollout, so the factorization is a backward Riccati recursion
over the stage Hamiltonian Hessians of curvature.stage_curvature and the
dynamics Jacobians of the costate sweep: O(N (n+m)^3) time and O(N (n+m)^2)
memory.  The dense Hessian is never formed.

Each iterate is rolled out once.  The rollout that prices a trial point is
kept when the point is accepted and becomes the next iteration's snapshot,
on which only the backward costate sweep runs.  The factorization's
buffers are a workspace bound once per solve and refilled in place by
every outer iteration and escalation retry.

A plain gradient-descent baseline with identical instrumentation is
provided for iteration-count comparisons.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dposv

from .adjoint import AdjointSolution, adjoint_along, forward_adjoint
from .curvature import stage_curvature, symmetric_part
from .problem import (NumericalBlowupError, ProblemDef, check_count,
                      roll_forward)
# Neither is called here; perfbench/tracing.py wraps both as
# costate.solver.hessian_with and costate.solver.eval_cost.
from .curvature import hessian_with  # noqa: F401
from .problem import eval_cost  # noqa: F401

log = logging.getLogger(__name__)

# Bounded retries of an untrustworthy step within one outer iteration,
# each multiplying the regularizer by FALLBACK_SCALE.
MAX_ESCALATIONS = 3
FALLBACK_SCALE = 10.0


def _check_positive(value, what: str) -> None:
    """Reject a value that is not a finite number > 0 with a ValueError."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")


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


@dataclass(frozen=True)
class SolverConfig:
    """Tuning for the second-order iteration.

    Attributes:
        r_reg: regularizer, a finite scalar > 0; R is r_reg times the
            identity.
        grad_tol: stop when the max-abs gradient entry drops below this
            finite positive value.
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
        _check_positive(self.r_reg, "r_reg")
        _check_positive(self.grad_tol, "grad_tol")
        check_count(self.max_outer, 1, "max_outer")
        if self.inner_depth_cap is not None:
            check_count(self.inner_depth_cap, 0, "inner_depth_cap")


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
    stage of a pass is one product of a fixed stage matrix with a slice of a
    row buffer; only b enters per solve, copied into the buffer at once.

    The object is a workspace sized by (N, n, m): its arrays, the
    symmetrized stack q included, and the per-stage lists that bind them are
    allocated once and refilled in place by each factor() call.  minimize
    builds one per solve, so every outer iteration and escalation retry
    reuses it; a failed factorization leaves nothing the next one reads.
    Stage k of the factor loop, with F_k = [f_x | f_u], is

        P F_k -> pf;  F_k' pf -> fpf;  Q_k += fpf;  [Q_ux | I] -> rhs;
        dposv(Q_uu, rhs) -> x -> sol[k];  Q_xu x[:, :n] -> schur;
        Q_xx - schur -> P.

    Each product is an ndarray.dot bound once, writing into a preallocated
    output: np.dot's BLAS call without its Python-level dispatch and new
    temporary, which cost more than the arithmetic at these sizes.
    """

    def __init__(self, horizon: int, n: int, m: int):
        self.n, self.m = n, m
        self.eye = np.eye(m)
        self.q = np.empty((horizon + 1, n + m, n + m))
        self.fxu = np.empty((horizon + 1, n, n + m))
        # sol[k] = Q_uu^{-1} [Q_ux | I] = [-K_k | Q_uu^{-1}].
        self.sol = np.empty((horizon + 1, m, n + m))
        self.rhs = np.empty((m, n + m))
        self.rhs[:, n:] = self.eye
        self.p = np.empty((n, n))
        self.pf = np.empty((n, n + m))
        self.fpf = np.empty((n + m, n + m))
        self.schur = np.empty((n, n))
        self.stages = [(k, self.q[k], self.fxu[k], self.fxu[k].T.dot)
                       for k in range(horizon, -1, -1)]
        # back[k] maps [s_{k+1}; b_k] to [kff_k; s_k]:
        #   kff_k = Q_uu^{-1} (b_k - f_u' s_{k+1})
        #   s_k = A_k' s_{k+1} - K_k' b_k
        # fwd[k] maps [dx_k; kff_k] to [du_k; dx_{k+1}]:
        #   du_k = K_k dx_k + kff_k
        #   dx_{k+1} = A_k dx_k + f_u kff_k
        self.back = np.empty((horizon + 1, m + n, n + m))
        self.fwd = np.empty((horizon + 1, m + n, n + m))
        self.fwd[:, :m, n:] = self.eye
        # Backward rows are [kff_k, s_k, b_{k-1}]: stage k reads
        # [s_{k+1}; b_k] from row k+1 and writes [kff_k; s_k] to row k.
        # Forward rows are [du_{k-1}, dx_k, kff_k]: stage k reads
        # [dx_k; kff_k] from row k and writes [du_k; dx_{k+1}] to row k+1.
        # s_{N+1} = 0 and dx_0 = 0 are never written.
        self.s_rows = np.zeros((horizon + 2, 2 * m + n))
        self.x_rows = np.zeros((horizon + 2, 2 * m + n))
        self.back_steps = [(self.back[k].dot, self.s_rows[k + 1, m:],
                            self.s_rows[k, :m + n])
                           for k in range(horizon, -1, -1)]
        self.fwd_steps = [(self.fwd[k].dot, self.x_rows[k, m:],
                           self.x_rows[k + 1, :m + n])
                          for k in range(horizon + 1)]

    def factor(self, adj: AdjointSolution, c: np.ndarray, r: float) -> None:
        """Factor R + H at the snapshot (adj, c) with R = r * I.

        Raises AsymmetricHessianError from the symmetry check of c, and
        LinearSolveError naming the stage whose pivot failed.
        """
        n, m, fxu, sol, rhs = self.n, self.m, self.fxu, self.sol, self.rhs
        p, pf, fpf, schur = self.p, self.pf, self.fpf, self.schur
        fx, fu = adj.fx, adj.fu
        # The recursion accumulates into q, so every factorization starts
        # from a fresh symmetric part.
        q = symmetric_part(c, out=self.q)
        q[:, n:, n:] += r * self.eye
        fxu[:, :, :n] = fx
        fxu[:, :, n:] = fu
        p.fill(0.0)
        for k, qk, fk, fk_t_dot in self.stages:
            p.dot(fk, pf)
            fk_t_dot(pf, fpf)
            qk += fpf
            rhs[:, :n] = qk[n:, :n]
            _, x, info = dposv(qk[n:, n:], rhs, lower=1)
            if info:
                raise LinearSolveError(
                    f"(R + H) is not positive definite: the pivot of stage "
                    f"{k} failed to factor", stage=k)
            sol[k] = x
            qk[:n, n:].dot(x[:, :n], schur)
            np.subtract(qk[:n, :n], schur, out=p)
        neg_gain, quu_inv = sol[:, :, :n], sol[:, :, n:]
        closed = fx - fu @ neg_gain  # A_k = f_x + f_u K_k
        back, fwd = self.back, self.fwd
        back[:, :m, :n] = -quu_inv @ fu.transpose(0, 2, 1)
        back[:, :m, n:] = quu_inv
        back[:, m:, :n] = closed.transpose(0, 2, 1)
        back[:, m:, n:] = neg_gain.transpose(0, 2, 1)
        fwd[:, :m, :n] = -neg_gain
        fwd[:, m:, :n] = closed
        fwd[:, m:, n:] = fu

    def solve(self, b: np.ndarray) -> np.ndarray:
        m, s_rows, x_rows = self.m, self.s_rows, self.x_rows
        s_rows[1:, -m:] = b.reshape(-1, m)
        for dot, src, dst in self.back_steps:
            dot(src, dst)
        x_rows[:-1, -m:] = s_rows[:-1, :m]
        for dot, src, dst in self.fwd_steps:
            dot(src, dst)
        return x_rows[1:, :m].reshape(-1)


def step_direction(adj: AdjointSolution, c: np.ndarray, g: np.ndarray,
                   r: float, depth: int,
                   _factor: Optional[_StagewiseFactor] = None) -> np.ndarray:
    """Inner update direction from one stagewise factorization of (R + H).

    H is the Hessian of the rollout cost at the snapshot that produced adj
    (its dynamics Jacobians) and c (its stage Hamiltonian Hessians, from
    curvature.stage_curvature); R = r * I.  Depth 0 solves (R + H) d = g;
    each further level solves (R + H) d = g + R d_prev against the same
    factors.  For positive-definite H the sequence converges geometrically
    to the Newton direction.

    c is checked against the symmetry tolerance and its symmetric part is
    factored by a backward Riccati recursion, one Cholesky-factored control
    pivot per stage; each solve is one backward and one forward pass over
    the stages.  No m(N+1)-square matrix is formed.

    _factor (internal) is the workspace to factor in, sized for the
    snapshot; minimize passes the one it holds for the whole solve.
    Without it a workspace is built for this call.

    Raises:
        ValueError: r is not finite and > 0, or depth not an integer >= 0.
        AsymmetricHessianError: c violates the symmetry tolerance.
        LinearSolveError: (R + H) is not positive definite; its stage is
            the stage whose pivot failed.
    """
    _check_positive(r, "r")
    check_count(depth, 0, "depth")
    r = float(r)
    factor = _factor if _factor is not None else _StagewiseFactor(
        adj.fu.shape[0] - 1, *adj.fu.shape[1:])
    factor.factor(adj, c, r)
    d = factor.solve(g)
    for _ in range(depth):
        d = factor.solve(g + r * d)
    return d


def _report(z, outer, inner, gnorms, costs, termination, t0) -> SolveReport:
    return SolveReport(
        z_final=z, outer_iters=outer, inner_iters_total=inner,
        grad_norm_history=np.asarray(gnorms), cost_history=np.asarray(costs),
        termination=termination, wall_time=time.perf_counter() - t0)


# Relative slack when comparing a trial cost against the current one;
# guards against spurious escalations from last-ulp noise near an optimum.
_COST_SLACK = 1e-12


def minimize(p: ProblemDef, x0, z0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Minimize the rollout cost from z0 with the second-order iteration.

    z0 is rolled out once; after that the rollout of each accepted trial
    point is kept, so an outer iteration runs only the costate sweep on it
    (adjoint_along), the stage curvature, and the factorization in the
    workspace this call holds.  The update is z <- z - d with d from
    step_direction at depth min(iteration index, inner_depth_cap), and the
    trial point z - d is priced by its own rollout.  Terminates as Converged
    when the max-abs gradient entry drops below cfg.grad_tol (checked
    before any step, so a stationary start returns unchanged with zero
    outer iterations) or as MaxIters when the budget is exhausted.

    Each outer iteration makes up to MAX_ESCALATIONS + 1 attempts from
    r = cfg.r_reg, each after the first with r multiplied by
    FALLBACK_SCALE.  An attempt is accepted if its trial cost does not
    increase; otherwise its cause is logged ((R + H) failed to factor at
    stage k, or the trial cost blew up or increased).  Blow-ups and
    increases only occur when the curvature is indefinite beyond what R
    absorbs, since on a positive-semidefinite model every direction the
    recursion produces is a strict descent step.  After the last attempt a
    finite trial is accepted at the highest regularization, which bounds
    the step and keeps the iteration alive; otherwise LinearSolveError
    carries the partial report and the failing stage (None for a blow-up).
    """
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float, copy=True)
    dims = p.dims
    factor = _StagewiseFactor(dims.N, dims.n, dims.m)
    gnorms: List[float] = []
    costs: List[float] = []
    inner_total = 0
    i = 0
    roll = roll_forward(p, x0, z)
    while True:
        adj = adjoint_along(p, roll, z)
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
        r = cfg.r_reg
        for attempt in range(MAX_ESCALATIONS + 1):
            if attempt:
                r *= FALLBACK_SCALE
                log.info("%s, escalating regularizer (attempt %d) at outer "
                         "iteration %d", cause, attempt, i)
            try:
                d = step_direction(adj, c, adj.gradient, r, depth,
                                   _factor=factor)
            except LinearSolveError as exc:
                failed = exc
                cause = f"factorization failed at stage {exc.stage}"
                continue
            failed = None
            inner_total += depth + 1
            candidate = z - d
            try:
                trial = roll_forward(p, x0, candidate)
                trial_cost = trial.total_cost
            except NumericalBlowupError:
                trial, trial_cost = None, float("inf")
            if trial_cost <= costs[-1] + _COST_SLACK * (1.0 + abs(costs[-1])):
                break
            cause = f"trial cost {trial_cost:.6g} above {costs[-1]:.6g}"
        else:  # no attempt was accepted
            if failed is not None or not np.isfinite(trial_cost):
                raise LinearSolveError(
                    f"no acceptable step through {MAX_ESCALATIONS} "
                    f"regularizer escalations at outer iteration {i}: "
                    f"{cause}",
                    report=_report(z, i, inner_total, gnorms, costs,
                                   Termination.LINEAR_SOLVE_FAILURE, t0),
                    stage=None if failed is None else failed.stage,
                ) from failed
            log.info("accepting non-decreasing step at maximum "
                     "regularization, outer iteration %d", i)
        z, roll = candidate, trial
        i += 1


def minimize_gd(p: ProblemDef, x0, z0: np.ndarray, lr: float,
                grad_tol: float = 1e-6, max_iters: int = 10000) -> SolveReport:
    """Plain gradient descent baseline, z <- z - lr * gradient.

    Same instrumentation as minimize; lr and grad_tol are finite and > 0 and
    max_iters is an integer >= 0.  If the cost climbs past ten times its
    initial magnitude the run stops with the Diverged termination instead of
    crashing.
    """
    _check_positive(lr, "lr")
    _check_positive(grad_tol, "grad_tol")
    check_count(max_iters, 0, "max_iters")
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
