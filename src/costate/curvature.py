"""Exact second derivatives of the rollout cost: the stage curvature stack
and its Hessian-vector product."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .adjoint import AdjointSolution, forward_adjoint
from .problem import NumericalBlowupError, ProblemDef, Rollout, stage_controls


class CurvatureOracleError(ValueError):
    """Second-order computation requested on a problem without second
    derivative oracles."""


class AsymmetricHessianError(RuntimeError):
    """A Hessian, or a stack of stage Hessians, violated the symmetry
    tolerance; carries the worst entry."""

    def __init__(self, defect: float, tol: float, index):
        self.defect = defect
        self.index = index
        super().__init__(
            f"hessian asymmetry {defect:.3e} at entry {index} exceeds "
            f"tolerance {tol:.3e}"
        )


# Symmetry tolerance: defect <= SYMMETRY_TOL * (1 + max|H|).
SYMMETRY_TOL = 1e-8


def stage_curvature(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                    z: np.ndarray) -> np.ndarray:
    """Hessians of the stage Hamiltonians along one snapshot.

    The snapshot is the rollout, plus the costates and dynamics Jacobians
    of the adjoint sweep that produced the gradient.  These are the only
    new oracle calls of second-order work: one stacked call of each
    second-derivative oracle.  The solver's stagewise Newton solve and
    hessian_product both read the stack directly.

    Returns C, an (N+1, n+m, n+m) stack with C[k] = [[xx, xu], [ux, uu]]:
    the second derivatives of stage k's cost plus those of its dynamics
    contracted with the costate adj.costates[k].  The dynamics term is
    absent at stage N, where the terminal costate is zero.  ux is the
    transpose of xu; xx and uu are the oracles' blocks as returned, so an
    asymmetric oracle shows in C.

    Raises:
        CurvatureOracleError: p lacks second-derivative oracles.
        NumericalBlowupError: a stage Hessian is not finite; carries the
            first such stage.
    """
    if p.dd_stage_cost is None or p.dd_dynamics_contracted is None:
        raise CurvatureOracleError("curvature requires dd_* oracles or FD problem")
    dims = p.dims
    n, m, horizon = dims.n, dims.m, dims.N
    u = stage_controls(z, dims)
    ks = np.arange(horizon + 1)
    c = np.empty((horizon + 1, n + m, n + m))
    xx, xu, uu = c[:, :n, :n], c[:, :n, n:], c[:, n:, n:]
    shapes = ((n, n), (n, m), (m, m))
    blocks = p.dd_stage_cost(roll.states, u, ks)
    for dst, src, shape in zip((xx, xu, uu), blocks, shapes):
        dst[...] = np.asarray(src, dtype=float).reshape((horizon + 1,) + shape)
    if horizon:
        blocks = p.dd_dynamics_contracted(adj.costates[:horizon],
                                          roll.states[:horizon],
                                          u[:horizon], ks[:horizon])
        for dst, src, shape in zip((xx, xu, uu), blocks, shapes):
            dst[:horizon] += np.asarray(src, dtype=float).reshape(
                (horizon,) + shape)
    c[:, n:, :n] = xu.transpose(0, 2, 1)
    if not np.isfinite(c).all():
        bad = ~np.isfinite(c).all(axis=(1, 2))
        raise NumericalBlowupError(int(bad.argmax()),
                                   "second-order stage data")
    return c


def hessian_product(adj: AdjointSolution, c: np.ndarray,
                    v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact product H V of the rollout-cost Hessian with K directions.

    Args:
        adj: adjoint solution of the snapshot; its dynamics Jacobians f_x,
            f_u drive both recursions.
        c: stage curvature stack of the same snapshot (stage_curvature).
        v: (m*(N+1), K) block of directions; its row r belongs to the
            control coordinate with flat index r = k*m + p
            (problem.flat_index), so v_k is rows k*m..(k+1)*m.

    Returns (hv, dx).  hv is (m*(N+1), K), column j being H v[:, j], so
    with v the identity column r of hv is H e_r.  dx is (N+1, n, K): the
    state perturbation of each direction, dx[k][:, j] = d x_k / d z . v[:, j]
    with dx[0] = 0 exactly.

    This is the paper's explicit Hessian formula applied to V, as one
    forward and one backward pass (Pearlmutter's exact Hessian-vector
    product).  Forward, the sensitivity recursion from zero,

        dx[k+1] = f_x[k] dx[k] + f_u[k] v_k;

    backward, a second-order costate mu from mu_N = 0, read off into the
    product stage by stage,

        hv_k     = C_ux[k] dx[k] + f_u[k]' mu_k + C_uu[k] v_k,
        mu_{k-1} = C_xx[k] dx[k] + f_x[k]' mu_k + C_xu[k] v_k.

    Both passes treat every stage alike: adj has Jacobians for all N+1
    stages, and mu_N = 0 removes the dynamics terms at stage N.  No oracle is
    called.  Time is O(N (n+m)^2 K) and only dx is stored stage by stage;
    mu is a single (n, K) block.  C is used as given, so an asymmetric
    oracle shows as an asymmetric H (see symmetric_part).
    """
    fx, fu = adj.fx, adj.fu
    horizon, n, m = fu.shape[0] - 1, fu.shape[1], fu.shape[2]
    v = np.asarray(v, dtype=float)
    width = v.shape[1]
    vs = v.reshape(horizon + 1, m, width)
    dx = np.zeros((horizon + 1, n, width))
    for k in range(horizon):
        dx[k + 1] = fx[k] @ dx[k] + fu[k] @ vs[k]
    hv = np.empty((horizon + 1, m, width))
    mu = np.zeros((n, width))
    for k in range(horizon, -1, -1):
        ck = c[k]
        hv[k] = ck[n:, :n] @ dx[k] + fu[k].T @ mu + ck[n:, n:] @ vs[k]
        mu = ck[:n, :n] @ dx[k] + fx[k].T @ mu + ck[:n, n:] @ vs[k]
    return hv.reshape(-1, width), dx


def symmetric_part(a: np.ndarray, out: Optional[np.ndarray] = None
                   ) -> np.ndarray:
    """(a + a^T)/2 over the last two axes, once a passes the symmetry check.

    a is a Hessian or a stack of stage Hessians.  Its defect max|a - a^T|
    must not exceed SYMMETRY_TOL * (1 + max|a|).

    out, if given, is a float64 array of a's shape not overlapping a, e.g.
    the solver workspace's stack; it takes |a - a^T| for the check (and keeps
    it on an error), then (a + a^T) * 0.5, the bits of 0.5 * (a + a^T).

    Raises:
        AsymmetricHessianError: the defect exceeds the tolerance; carries
            the index of the worst entry.
    """
    at = np.swapaxes(a, -1, -2)
    defect_mat = np.abs(np.subtract(a, at, out=out), out=out)
    defect = float(defect_mat.max())
    tol = SYMMETRY_TOL * (1.0 + float(np.abs(a).max(initial=0.0)))
    if defect > tol:
        idx = np.unravel_index(int(defect_mat.argmax()), defect_mat.shape)
        raise AsymmetricHessianError(defect, tol, tuple(int(v) for v in idx))
    return np.multiply(np.add(a, at, out=out), 0.5, out=out)


def hessian_with(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                 z: np.ndarray) -> np.ndarray:
    """Full Hessian from an existing rollout/adjoint snapshot.

    The product of hessian_product with the identity, checked against the
    symmetry tolerance (defect <= 1e-8 * (1 + max|H|)) and returned as the
    symmetrized matrix (H + H^T)/2, which suppresses roundoff drift in
    downstream linear solves.
    """
    c = stage_curvature(p, roll, adj, z)
    return symmetric_part(hessian_product(adj, c, np.eye(p.dims.z_len))[0])


def hessian(p: ProblemDef, x0, z: np.ndarray) -> np.ndarray:
    """Exact Hessian of the rollout cost with respect to z.

    Runs one rollout and one costate sweep, evaluates the stage curvature
    on that shared snapshot, and takes hessian_product with the identity:
    column r of the matrix is H e_r, for the control coordinate with flat
    index r.  The result is checked for symmetry and symmetrized, as in
    hessian_with.

    Raises:
        CurvatureOracleError: p lacks second-derivative oracles.
        NumericalBlowupError: a stage Hamiltonian Hessian is not finite;
            carries the stage.
        AsymmetricHessianError: assembly asymmetry beyond tolerance, with
            the worst entry in the message.
    """
    roll, adj = forward_adjoint(p, x0, z)
    return hessian_with(p, roll, adj, z)
