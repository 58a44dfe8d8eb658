"""Independent ground-truth generators.

Finite-difference derivatives of the rollout cost, the closed-form scalar
linear-quadratic solution, and a consistency checker for analytic derivative
oracles.  Nothing here touches the second-order sweep code; the only shared
path is the rollout itself, which keeps these usable as referees for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .adjoint import gradient
from .problem import ProblemDef, central_difference, eval_cost, make_fd_problem


def fd_gradient(p: ProblemDef, x0, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the rollout cost, coordinate by
    coordinate: (J(z + h e_i) - J(z - h e_i)) / (2 h)."""
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    return central_difference(lambda v: eval_cost(p, x0, v), z, h)


def fd_hessian(p: ProblemDef, x0, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of the adjoint gradient, symmetrized.

    Differencing the exact gradient rather than double-differencing the cost
    drops one order of cancellation error, which is why downstream checks
    can afford a 1e-4 tolerance.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    cols = central_difference(lambda v: gradient(p, x0, v).gradient, z, h)
    return 0.5 * (cols + cols.T)


@dataclass(frozen=True)
class RiccatiSolution:
    """Closed-form scalar linear-quadratic solution.

    Attributes:
        gains: feedback gains K_0..K_{N-1} (length N).
        states: closed-loop states x_0..x_N.
        controls: closed-loop controls u_0..u_{N-1} (length N).
        cost: optimal cost, x_0^2 * P_0.
    """

    gains: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    cost: float


def riccati_lqr(a: float, b: float, q: float, r: float, p_term: float,
                N: int, x0: float) -> RiccatiSolution:
    """Backward value recursion and closed-loop rollout for the scalar
    problem x' = a x + b u with cost sum(q x^2 + r u^2) + p_term x_N^2.

    P_N = p_term,
    P_k = q + a^2 P_{k+1} - (a b P_{k+1})^2 / (r + b^2 P_{k+1}),
    K_k = a b P_{k+1} / (r + b^2 P_{k+1}),
    u_k = -K_k x_k.
    """
    if not r > 0:
        raise ValueError(f"r must be > 0, got {r}")
    if q < 0 or p_term < 0:
        raise ValueError("q and p_term must be >= 0")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    pk = np.empty(N + 1)
    pk[N] = p_term
    gains = np.empty(N)
    for k in range(N - 1, -1, -1):
        denom = r + b * b * pk[k + 1]
        gains[k] = a * b * pk[k + 1] / denom
        pk[k] = q + a * a * pk[k + 1] - (a * b * pk[k + 1]) ** 2 / denom
    states = np.empty(N + 1)
    controls = np.empty(N)
    states[0] = x0
    for k in range(N):
        controls[k] = -gains[k] * states[k]
        states[k + 1] = a * states[k] + b * controls[k]
    return RiccatiSolution(gains=gains, states=states, controls=controls,
                           cost=float(x0 * x0 * pk[0]))


def max_rel_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max absolute deviation scaled by max(1, max|expected|)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    return float(np.abs(actual - expected).max(initial=0.0)) / scale


def _default_sampler(rng: np.random.Generator, dims) -> tuple:
    return rng.normal(scale=0.7, size=dims.n), rng.normal(scale=0.7, size=dims.m)


def fd_consistency(p: ProblemDef, rng: np.random.Generator,
                   n_points: int = 100,
                   sampler: Optional[Callable] = None) -> Dict[str, float]:
    """Compare analytic derivative oracles against finite differences of the
    problem's own dynamics and stage cost.

    Draws (x, u, k) points and returns the worst relative error per oracle.
    Second-order comparisons are skipped when the problem does not define
    the corresponding oracles.
    """
    dims = p.dims
    ref = make_fd_problem(p.dynamics, p.stage_cost, dims)
    draw = sampler if sampler is not None else _default_sampler
    worst = {"d_dynamics": 0.0, "d_stage_cost": 0.0}
    second = p.dd_stage_cost is not None and p.dd_dynamics_contracted is not None
    if second:
        worst["dd_stage_cost"] = 0.0
        worst["dd_dynamics_contracted"] = 0.0
    for _ in range(n_points):
        x, u = draw(rng, dims)
        k = int(rng.integers(0, dims.N + 1))
        k_dyn = min(k, max(dims.N - 1, 0))
        calls = [("d_stage_cost", (x, u, k))]
        if dims.N > 0:
            calls.append(("d_dynamics", (x, u, k_dyn)))
        if second:
            calls.append(("dd_stage_cost", (x, u, k)))
            if dims.N > 0:
                w = rng.normal(size=dims.n)
                calls.append(("dd_dynamics_contracted", (w, x, u, k_dyn)))
        for name, args in calls:
            pairs = zip(getattr(p, name)(*args), getattr(ref, name)(*args))
            worst[name] = max(worst[name],
                              *(max_rel_error(a, b) for a, b in pairs))
    return worst
