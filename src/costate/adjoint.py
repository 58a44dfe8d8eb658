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

from .problem import ProblemDef, Rollout, check_state, roll_forward, stage_controls


@dataclass(frozen=True)
class AdjointSolution:
    """Costates and gradient of the rollout cost.

    Attributes:
        costates: (N+1, n) array; row k holds the costate attached to stage
            k+1, so row N is the terminal costate and is exactly zero.
        gradient: flat (m*(N+1),) gradient of the total cost with respect to
            the decision vector.
    """

    costates: np.ndarray
    gradient: np.ndarray


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
    return float(p.stage_cost(x, u, k)) + float(lam_next @ fx)


def _backward(p: ProblemDef, roll: Rollout, z: np.ndarray) -> AdjointSolution:
    # Backward costate pass shared by forward_adjoint and backward_costates.
    # At the last stage only the cost gradient enters, so dynamics Jacobians
    # are never requested at stage N.
    dims = p.dims
    u = stage_controls(z, dims)
    lam = np.zeros((dims.N + 1, dims.n))
    grad = np.empty(dims.z_len)
    nxt = lam[dims.N]
    for k in range(dims.N, -1, -1):
        cx, cu = p.d_stage_cost(roll.states[k], u[k], k)
        gk = np.asarray(cu, dtype=float)
        lk = np.asarray(cx, dtype=float)
        if k < dims.N:
            fx, fu = p.d_dynamics(roll.states[k], u[k], k)
            gk = gk + np.asarray(fu, dtype=float).T @ nxt
            lk = lk + np.asarray(fx, dtype=float).T @ nxt
        grad[k * dims.m:(k + 1) * dims.m] = gk
        if k > 0:
            lam[k - 1] = lk
            nxt = lk
    return AdjointSolution(costates=lam, gradient=grad)


def backward_costates(p: ProblemDef, roll: Rollout, z: np.ndarray) -> np.ndarray:
    """Propagate costates backward along a rollout produced from (p, z).

    Returns an (N+1, n) array whose row k is the costate attached to stage
    k+1; row N (the terminal costate) is exactly zero.
    """
    return _backward(p, roll, z).costates


def forward_adjoint(p: ProblemDef, x0, z: np.ndarray) -> Tuple[Rollout, AdjointSolution]:
    """Rollout plus adjoint solution in one fused pass.

    This is the workhorse used by the solvers and the second-order sweeps,
    which consume both the rollout and the costates; returning both avoids
    recomputation.  It runs the same backward pass as backward_costates,
    so the costates agree bit for bit.
    """
    roll = roll_forward(p, x0, z)
    return roll, _backward(p, roll, z)


def gradient(p: ProblemDef, x0, z: np.ndarray) -> AdjointSolution:
    """Exact gradient of the rollout cost with respect to z.

    Runs the forward rollout, the backward costate pass, and assembles the
    per-stage control partials of the Hamiltonian.  The entry for stage N is
    exactly the control gradient of the last stage cost, because the
    terminal costate removes the dynamics term.
    """
    return forward_adjoint(p, x0, z)[1]
