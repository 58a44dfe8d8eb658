"""Exact gradient of the rollout cost from one forward and one backward pass.

The backward pass propagates costates from a zero terminal value; stacking
the control partials of the per-stage Hamiltonians then gives the full
gradient at a cost of roughly two rollouts, independent of how many decision
variables there are.  The costate recursion is linear, a unit
block-bidiagonal system in the stacked costates, so it runs as one
problem.BlockBidiagonal solve with no Python loop over the stages.  The
Newton step's two solve passes (solver.StagewiseFactor) are the same
system over blocks of stages, with the closed-loop block Jacobians in
place of f_x.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .problem import (BlockBidiagonal, NumericalBlowupError, ProblemDef,
                      Rollout, as_stack, roll_forward, squares_finite)


class AdjointSolution(NamedTuple):
    """Costates and gradient of the rollout cost.

    Attributes:
        costates: (N+1, n) array; row k holds the costate attached to stage
            k+1, so row N is the terminal costate and is exactly zero.
        gradient: flat (m*(N+1),) gradient of the total cost with respect to
            the decision vector.
        fx, fu: the (N+1, n, n) and (N+1, n, m) stacks of dynamics
            Jacobians f_x and f_u along the rollout.  Stages 0..N-1 are the
            ones the sweep evaluated; stage N has no dynamics and is exactly
            zero, so every stage has the same form.  hessian_product and the
            stagewise Newton solve read them as they are.
    """

    costates: np.ndarray
    gradient: np.ndarray
    fx: np.ndarray
    fu: np.ndarray


def adjoint_along(p: ProblemDef, roll: Rollout,
                  _sweep: Optional[BlockBidiagonal] = None) -> AdjointSolution:
    """Backward costate sweep along a rollout, at its states and controls.

    Propagates lam[k-1] = c_x[k] + f_x[k]' lam[k] from lam[N] = 0, then
    assembles the gradient as one stacked contraction over all N+1 stages,
    g[k] = c_u[k] + f_u[k]' lam[k].  One stacked call of each
    first-derivative oracle covers the sweep.  This is the one place that
    knows stage N has no dynamics: the Jacobians are never requested there
    and are returned as zero, so consumers of fx and fu see a uniform
    N+1-stage model.  The costate recursion is one BlockBidiagonal solve
    over the negated f_x[k], a BLAS banded back-substitution, so its sums
    run in BLAS's order and agree with a stage-by-stage loop to roundoff.

    _sweep (internal) is the BlockBidiagonal(N, n) to solve in, owned by
    the caller that lends it: minimize's workspace band, or the one band of
    a minimize_gd solve.  Without it one is built for this call.  No array
    of the result is a view of it, so the next call may reuse it.

    Raises NumericalBlowupError(k, "first-order stage data") when an entry
    of c_x, c_u, f_x or f_u that the gradient reads is not finite, k being
    the first stage with a non-finite entry, and as_stack's
    DimensionMismatchError for an oracle output of another shape.
    """
    dims = p.dims
    n, m, horizon = dims.n, dims.m, dims.N
    xs, u = roll.states, roll.controls
    ks = np.arange(horizon + 1)
    cx, cu = p.d_stage_cost(xs, u, ks)
    cx = as_stack(cx, (horizon + 1, n), "d_stage_cost c_x")
    cu = as_stack(cu, (horizon + 1, m), "d_stage_cost c_u")
    fx = np.zeros((horizon + 1, n, n))
    fu = np.zeros((horizon + 1, n, m))
    # lam[0..N-1] solves A' lam = [c_x[1]; ..; c_x[N]] with A unit lower
    # block-bidiagonal, -f_x[k] at block (k, k-1) for k = 1..N-1 (f_x[N]
    # meets lam[N] = 0): one back-substitution in place over lam, whose
    # zero row N it never reads.  The blocks are negated straight from the
    # oracle's stack; lam has the gradient product's (N+1, 1, n) shape.
    sweep = BlockBidiagonal(horizon, n) if _sweep is None else _sweep
    if horizon:
        jx, ju = p.d_dynamics(xs[:horizon], u[:horizon], ks[:horizon])
        fx[:horizon] = jx = as_stack(jx, (horizon, n, n), "d_dynamics f_x")
        fu[:horizon] = as_stack(ju, (horizon, n, m), "d_dynamics f_u")
        np.negative(jx[1:], out=sweep.blocks)
    lam = np.zeros((horizon + 1, 1, n))
    lam[:horizon, 0] = cx[1:]
    sweep.solve(lam.reshape(-1), trans=1)
    g = lam @ fu
    g += cu.reshape(horizon + 1, 1, m)
    g = g.reshape(-1)
    # Every input the gradient reads (all but c_x[0] and f_x[0]) carries a
    # non-finite value into it, so the inputs are scanned only when its
    # squared norm is not finite; a gradient that overflows from finite
    # inputs is returned as it is.
    if not squares_finite(g):
        finite = (np.isfinite(cx).all(axis=1) & np.isfinite(cu).all(axis=1)
                  & np.isfinite(fx).all(axis=(1, 2))
                  & np.isfinite(fu).all(axis=(1, 2)))
        if not finite.all():
            raise NumericalBlowupError(int(finite.argmin()),
                                       "first-order stage data")
    return AdjointSolution(lam[:, 0], g, fx, fu)


def forward_adjoint(p: ProblemDef, x0, z: np.ndarray, _sweep=None
                    ) -> Tuple[Rollout, AdjointSolution]:
    """Rollout plus adjoint solution in one fused pass.

    roll_forward then adjoint_along: the snapshot that stage_curvature and
    hessian_with read, for callers at a fresh point (minimize_gd, hessian()
    and the check suites).  minimize reuses the rollout of an accepted
    trial and runs adjoint_along alone.  _sweep (internal) is the band
    adjoint_along solves in, owned by the caller: minimize_gd lends the one
    it builds per solve.  Without it adjoint_along builds one.
    """
    roll = roll_forward(p, x0, z)
    return roll, adjoint_along(p, roll, _sweep=_sweep)


def gradient(p: ProblemDef, x0, z: np.ndarray) -> AdjointSolution:
    """Exact gradient of the rollout cost with respect to z.

    Runs the forward rollout, the backward costate pass, and assembles the
    per-stage control partials of the Hamiltonian.  The entry for stage N is
    exactly the control gradient of the last stage cost, because the
    terminal costate removes the dynamics term.
    """
    return forward_adjoint(p, x0, z)[1]
