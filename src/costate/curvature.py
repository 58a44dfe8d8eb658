"""Exact Hessian of the rollout cost, one row per control coordinate.

Each row of the Hessian belongs to one control coordinate (stage i,
component p).  A forward recursion propagates the state sensitivity to that
coordinate from zero; a backward recursion collects the second-order terms
from a zero terminal value; the row entries are then read off stage by
stage.  All rows share a single rollout, a single costate sweep, and a
single set of per-stage derivative evaluations, so the full matrix costs
one pass of callable evaluations plus small-matrix recursions per row.

One vectorized pass runs the recursions of all rows at once.  hessian() and
raw_hessian() return its matrix, symmetrized or as assembled; hessian_row()
slices one row out of it, including the intermediate sensitivity
sequences, for inspection and testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .adjoint import AdjointSolution, forward_adjoint
from .problem import (Dims, NumericalBlowupError, ProblemDef, Rollout,
                      flat_index, stage_controls)


class CurvatureOracleError(ValueError):
    """Second-order computation requested on a problem without second
    derivative oracles."""


class AsymmetricHessianError(RuntimeError):
    """Assembled Hessian violated the symmetry tolerance; carries the worst
    entry."""

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
class RowIndex:
    """One control coordinate: stage in 0..N, component in 0..m-1."""

    stage: int
    component: int

    def flat(self, dims: Dims) -> int:
        return self.stage * dims.m + self.component

    @classmethod
    def from_flat(cls, dims: Dims, idx: int) -> "RowIndex":
        return cls(stage=idx // dims.m, component=idx % dims.m)


@dataclass(frozen=True)
class SecondOrderPass:
    """Result of one Hessian-row sweep.

    Attributes:
        betas: (N+1, n); betas[k] is the sensitivity of state x_k to the
            row's control coordinate, with betas[0] = 0 exactly.
        alphas: (N+1, n); alphas[k] is the backward second-order vector
            attached to stage k+1, with alphas[N] = 0 exactly.
        row: flat (m*(N+1),) row of the Hessian.
    """

    betas: np.ndarray
    alphas: np.ndarray
    row: np.ndarray


@dataclass(frozen=True)
class _StageData:
    """Per-stage derivative snapshot shared by every row sweep.

    Cxx/Cxu/Cuu combine the stage-cost second derivatives with the
    costate-contracted dynamics second derivatives; at stage N the dynamics
    part is zero by the terminal costate, so no dynamics oracle is called
    there.
    """

    fx: List[np.ndarray]
    fu: List[np.ndarray]
    cxx: List[np.ndarray]
    cxu: List[np.ndarray]
    cuu: List[np.ndarray]


def _stage_data(p: ProblemDef, roll: Rollout, costates: np.ndarray,
                z: np.ndarray) -> _StageData:
    if p.dd_stage_cost is None or p.dd_dynamics_contracted is None:
        raise CurvatureOracleError("curvature requires dd_* oracles or FD problem")
    dims = p.dims
    u = stage_controls(z, dims)
    fx: List[np.ndarray] = []
    fu: List[np.ndarray] = []
    cxx: List[np.ndarray] = []
    cxu: List[np.ndarray] = []
    cuu: List[np.ndarray] = []
    for k in range(dims.N + 1):
        xx, xu, uu = p.dd_stage_cost(roll.states[k], u[k], k)
        xx = np.asarray(xx, dtype=float).reshape(dims.n, dims.n)
        xu = np.asarray(xu, dtype=float).reshape(dims.n, dims.m)
        uu = np.asarray(uu, dtype=float).reshape(dims.m, dims.m)
        if k < dims.N:
            jx, ju = p.d_dynamics(roll.states[k], u[k], k)
            fx.append(np.asarray(jx, dtype=float).reshape(dims.n, dims.n))
            fu.append(np.asarray(ju, dtype=float).reshape(dims.n, dims.m))
            wxx, wxu, wuu = p.dd_dynamics_contracted(
                costates[k], roll.states[k], u[k], k
            )
            xx = xx + np.asarray(wxx, dtype=float).reshape(dims.n, dims.n)
            xu = xu + np.asarray(wxu, dtype=float).reshape(dims.n, dims.m)
            uu = uu + np.asarray(wuu, dtype=float).reshape(dims.m, dims.m)
        if not (np.all(np.isfinite(xx)) and np.all(np.isfinite(xu))
                and np.all(np.isfinite(uu))):
            raise NumericalBlowupError(k, "second-order stage data")
        cxx.append(xx)
        cxu.append(xu)
        cuu.append(uu)
    return _StageData(fx=fx, fu=fu, cxx=cxx, cxu=cxu, cuu=cuu)


def _assemble(dims: Dims, data: _StageData):
    # All rows at once: column r of bs[k] is the state sensitivity betas[k]
    # of row r, column r of a_by_stage[k] its backward vector alphas[k].
    # Returns the raw Hessian together with both per-stage lists.
    n, m, width = dims.n, dims.m, dims.z_len
    bs = [np.zeros((n, width))]
    for k in range(dims.N):
        b = data.fx[k] @ bs[k]
        b[:, k * m:(k + 1) * m] += data.fu[k]
        bs.append(b)
    a_next = np.zeros((n, width))
    a_by_stage = [None] * (dims.N + 1)
    a_by_stage[dims.N] = a_next
    for k in range(dims.N, 0, -1):
        a = data.cxx[k] @ bs[k]
        if k < dims.N:
            a = a + data.fx[k].T @ a_next
        a[:, k * m:(k + 1) * m] += data.cxu[k]
        a_by_stage[k - 1] = a
        a_next = a
    hess = np.empty((width, width))
    for k in range(dims.N + 1):
        block = bs[k].T @ data.cxu[k]
        if k < dims.N:
            block = block + a_by_stage[k].T @ data.fu[k]
        block[k * m:(k + 1) * m, :] += data.cuu[k]
        hess[:, k * m:(k + 1) * m] = block
    return hess, bs, a_by_stage


def hessian_row(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                z: np.ndarray, row: RowIndex) -> SecondOrderPass:
    """One row of the Hessian of the rollout cost.

    Args:
        p: problem with second-derivative oracles.
        roll: rollout produced from (p, z).
        adj: adjoint solution produced from the same rollout.
        z: the decision vector the snapshot was taken at.
        row: which control coordinate the row belongs to.

    Returns:
        The forward sensitivity sequence, the backward second-order
        sequence, and the row, sliced out of the all-rows pass.

    The forward recursion is betas[k+1] = f_x betas[k], plus the f_u column
    of the row's component injected at stage i; the backward recursion mixes
    the combined second-order stage matrices with the sensitivities; the row
    entry at stage k adds the stage's own control-control block only at
    k = i.
    """
    dims = p.dims
    flat = flat_index(dims, row.stage, row.component)
    hess, bs, a_by_stage = _assemble(dims, _stage_data(p, roll, adj.costates, z))
    return SecondOrderPass(betas=np.array([b[:, flat] for b in bs]),
                           alphas=np.array([a[:, flat] for a in a_by_stage]),
                           row=hess[flat].copy())


def raw_hessian(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                z: np.ndarray) -> np.ndarray:
    """Hessian from an existing rollout/adjoint snapshot, as assembled:
    neither checked against the symmetry tolerance nor symmetrized."""
    return _assemble(p.dims, _stage_data(p, roll, adj.costates, z))[0]


def _check_and_symmetrize(hess: np.ndarray) -> np.ndarray:
    defect_mat = np.abs(hess - hess.T)
    defect = float(defect_mat.max())
    tol = SYMMETRY_TOL * (1.0 + float(np.abs(hess).max(initial=0.0)))
    if defect > tol:
        idx = np.unravel_index(int(defect_mat.argmax()), defect_mat.shape)
        raise AsymmetricHessianError(defect, tol, tuple(int(v) for v in idx))
    return 0.5 * (hess + hess.T)


def hessian_with(p: ProblemDef, roll: Rollout, adj: AdjointSolution,
                 z: np.ndarray) -> np.ndarray:
    """Full Hessian from an existing rollout/adjoint snapshot.

    Checks the assembled matrix against the symmetry tolerance
    (defect <= 1e-8 * (1 + max|H|)), then returns the symmetrized matrix
    (H + H^T)/2 to suppress roundoff drift in downstream linear solves.
    """
    return _check_and_symmetrize(raw_hessian(p, roll, adj, z))


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
