"""Exact gradient of the rollout cost from one forward and one backward pass.

The backward pass propagates costates from a zero terminal value; stacking
the control partials of the per-stage Hamiltonians then gives the full
gradient at a cost of roughly two rollouts, independent of how many decision
variables there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .problem import (ProblemDef, Rollout, check_state, one_row, roll_forward,
                      stage_controls)


@dataclass(frozen=True)
class AdjointSolution:
    """Costates and gradient of the rollout cost.

    Attributes:
        costates: (N+1, n) array; row k holds the costate attached to stage
            k+1, so row N is the terminal costate and is exactly zero.
        gradient: flat (m*(N+1),) gradient of the total cost with respect to
            the decision vector.
        fx, fu: the (N, n, n) and (N, n, m) stacks of dynamics Jacobians
            f_x and f_u the sweep evaluated along the rollout, stages
            0..N-1; hessian_product and the stagewise Newton solve read
            them instead of evaluating them again.
    """

    costates: np.ndarray
    gradient: np.ndarray
    fx: np.ndarray
    fu: np.ndarray


def hamiltonian(p: ProblemDef, x, u, lam_next, k: int) -> float:
    """Stage Hamiltonian: stage cost plus costate-weighted next state.

    Evaluates cost(x, u, k) + lam_next . dynamics(x, u, k).  The sweeps never
    call this at stage N (the zero terminal costate removes the dynamics
    term there), but direct evaluation at any stage is allowed.
    """
    dims = p.dims
    x = check_state(x, dims.n, "x")
    u = check_state(u, dims.m, "u")
    lam_next = check_state(lam_next, dims.n, "costate")
    fx = np.atleast_1d(np.asarray(p.dynamics(x, u, k), dtype=float))
    return one_row(p.stage_cost)(x, u, k) + float(lam_next @ fx)


def adjoint_along(p: ProblemDef, roll: Rollout, z: np.ndarray) -> AdjointSolution:
    """Backward costate sweep along a rollout produced from (p, z).

    Propagates lam[k-1] = c_x[k] + f_x[k]' lam[k] from lam[N] = 0, then
    assembles the gradient as one stacked contraction,
    g[k] = c_u[k] + f_u[k]' lam[k].  One stacked call of each
    first-derivative oracle covers the sweep; the dynamics Jacobians are
    never requested at stage N.  Only the costate recursion runs stage by
    stage.
    """
    dims = p.dims
    n, m, horizon = dims.n, dims.m, dims.N
    u = stage_controls(z, dims)
    xs = roll.states
    cx, cu = p.d_stage_cost(xs, u, np.arange(horizon + 1))
    cx = np.asarray(cx, dtype=float).reshape(horizon + 1, n)
    g = np.array(cu, dtype=float).reshape(horizon + 1, m)
    lam = np.zeros((horizon + 1, n))
    if horizon:
        fx, fu = p.d_dynamics(xs[:horizon], u[:horizon], np.arange(horizon))
        fx = np.asarray(fx, dtype=float).reshape(horizon, n, n)
        fu = np.asarray(fu, dtype=float).reshape(horizon, n, m)
        lam[horizon - 1] = cx[horizon]
        for k in range(horizon - 1, 0, -1):
            lam[k - 1] = cx[k] + fx[k].T @ lam[k]
        g[:horizon] += (fu.transpose(0, 2, 1) @ lam[:horizon, :, None])[..., 0]
    else:
        fx, fu = np.empty((0, n, n)), np.empty((0, n, m))
    return AdjointSolution(costates=lam, gradient=g.reshape(-1), fx=fx, fu=fu)


def forward_adjoint(p: ProblemDef, x0, z: np.ndarray) -> Tuple[Rollout, AdjointSolution]:
    """Rollout plus adjoint solution in one fused pass.

    This is the workhorse used by the solvers and the second-order sweeps,
    which consume both the rollout and the costates; returning both avoids
    recomputation.  It is roll_forward followed by adjoint_along.
    """
    roll = roll_forward(p, x0, z)
    return roll, adjoint_along(p, roll, z)


def gradient(p: ProblemDef, x0, z: np.ndarray) -> AdjointSolution:
    """Exact gradient of the rollout cost with respect to z.

    Runs the forward rollout, the backward costate pass, and assembles the
    per-stage control partials of the Hamiltonian.  The entry for stage N is
    exactly the control gradient of the last stage cost, because the
    terminal costate removes the dynamics term.
    """
    return forward_adjoint(p, x0, z)[1]
