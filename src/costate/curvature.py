"""Exact Hessian of the rollout cost from one all-rows second-order pass.

stage_curvature evaluates the second derivatives of every stage
Hamiltonian along one snapshot -- the rollout, and the costates and
dynamics Jacobians of the adjoint sweep that produced the gradient -- as
one (N+1, n+m, n+m) stack.  These are the only new oracle calls: one
stacked call of each second-derivative oracle per pass.  The stagewise
Newton solve of the solver reads that stack directly.

Each row of the Hessian belongs to one control coordinate (stage i,
component p).  A forward recursion propagates the state sensitivity to that
coordinate from zero; a backward recursion collects the second-order terms
from a zero terminal value; the row entries are then read off stage by
stage.  second_order_pass runs the recursions of all rows at once, as
matrix recursions whose column r belongs to coordinate r, over the stage
curvature stack and the sweep's Jacobians.

hessian() and hessian_with() return the pass's matrix checked against its
own transpose and symmetrized; the pass itself also exposes the
sensitivity sequences of every row, for inspection and testing.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class SecondOrderPass:
    """The second-order recursions of every Hessian row at one snapshot.

    Column r of each array belongs to the control coordinate with flat
    index r = k*m + p (problem.flat_index), so one row's sequences are a
    column slice, e.g. betas[..., r].

    Attributes:
        betas: (N+1, n, m*(N+1)); betas[k][:, r] is the sensitivity of state
            x_k to coordinate r, with betas[0] = 0 exactly.
        alphas: (N+1, n, m*(N+1)); alphas[k][:, r] is row r's backward
            second-order vector attached to stage k+1, with alphas[N] = 0
            exactly.
        raw_hessian: (m*(N+1), m*(N+1)) Hessian as assembled, row r
            belonging to coordinate r: neither checked against the symmetry
            tolerance nor symmetrized.
    """

    betas: np.ndarray
    alphas: np.ndarray
    raw_hessian: np.ndarray


def stage_curvature(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                    z: np.ndarray) -> np.ndarray:
    """Hessians of the stage Hamiltonians along one snapshot.

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


def second_order_pass(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                      z: np.ndarray) -> SecondOrderPass:
    """All rows of the Hessian of the rollout cost, with their sensitivities.

    Args:
        p: problem with second-derivative oracles.
        roll: rollout produced from (p, z).
        adj: adjoint solution produced from the same rollout; its costates
            contract the dynamics second derivatives and its Jacobians drive
            both recursions.
        z: the decision vector the snapshot was taken at.

    The forward recursion is betas[k+1] = f_x betas[k], plus f_u injected
    into the columns of stage k; the backward recursion mixes the combined
    second-order stage matrices with the sensitivities; the entries at
    stage k add the stage's own control-control block only in the rows of
    stage k.  The dynamics oracles are never called at stage N, where the
    zero terminal costate removes them.

    Raises:
        CurvatureOracleError: p lacks second-derivative oracles.
        NumericalBlowupError: a stage Hamiltonian Hessian is not finite;
            carries the stage.
    """
    dims = p.dims
    n, m, width = dims.n, dims.m, dims.z_len
    fx, fu = adj.fx, adj.fu
    c = stage_curvature(p, roll, adj, z)
    # Contiguous blocks: BLAS then sums the products in the same order as
    # over the oracles' own arrays, so the matrix does not depend on the
    # stack's layout.
    cxx, cxu, cuu = (np.ascontiguousarray(c[:, :n, :n]),
                     np.ascontiguousarray(c[:, :n, n:]),
                     np.ascontiguousarray(c[:, n:, n:]))

    betas = np.zeros((dims.N + 1, n, width))
    for k in range(dims.N):
        np.matmul(fx[k], betas[k], out=betas[k + 1])
        betas[k + 1, :, k * m:(k + 1) * m] += fu[k]
    alphas = np.zeros((dims.N + 1, n, width))
    for k in range(dims.N, 0, -1):
        a = alphas[k - 1]
        np.matmul(cxx[k], betas[k], out=a)
        if k < dims.N:
            a += fx[k].T @ alphas[k]
        a[:, k * m:(k + 1) * m] += cxu[k]
    hess = np.empty((width, width))
    for k in range(dims.N + 1):
        block = betas[k].T @ cxu[k]
        if k < dims.N:
            block = block + alphas[k].T @ fu[k]
        block[k * m:(k + 1) * m, :] += cuu[k]
        hess[:, k * m:(k + 1) * m] = block
    return SecondOrderPass(betas=betas, alphas=alphas, raw_hessian=hess)


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T)/2 over the last two axes, once a passes the symmetry check.

    a is a Hessian or a stack of stage Hessians.  Its defect max|a - a^T|
    must not exceed SYMMETRY_TOL * (1 + max|a|).

    Raises:
        AsymmetricHessianError: the defect exceeds the tolerance; carries
            the index of the worst entry.
    """
    at = np.swapaxes(a, -1, -2)
    defect_mat = np.abs(a - at)
    defect = float(defect_mat.max())
    tol = SYMMETRY_TOL * (1.0 + float(np.abs(a).max(initial=0.0)))
    if defect > tol:
        idx = np.unravel_index(int(defect_mat.argmax()), defect_mat.shape)
        raise AsymmetricHessianError(defect, tol, tuple(int(v) for v in idx))
    return 0.5 * (a + at)


def hessian_with(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                 z: np.ndarray) -> np.ndarray:
    """Full Hessian from an existing rollout/adjoint snapshot.

    Checks the assembled matrix against the symmetry tolerance
    (defect <= 1e-8 * (1 + max|H|)), then returns the symmetrized matrix
    (H + H^T)/2 to suppress roundoff drift in downstream linear solves.
    The sensitivity stacks of the pass are released before that check.
    """
    return symmetric_part(second_order_pass(p, roll, adj, z).raw_hessian)


def hessian(p: ProblemDef, x0, z: np.ndarray) -> np.ndarray:
    """Exact Hessian of the rollout cost with respect to z.

    Runs one rollout and one costate sweep, then assembles all m*(N+1) rows
    from the shared snapshot.

    Raises:
        CurvatureOracleError: p lacks second-derivative oracles.
        AsymmetricHessianError: assembly asymmetry beyond tolerance, with
            the worst entry in the message.
    """
    roll, adj = forward_adjoint(p, x0, z)
    return hessian_with(p, roll, adj, z)
