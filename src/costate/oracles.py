"""Independent ground-truth generators.

Finite-difference derivatives of the rollout cost, the closed-form scalar
linear-quadratic solution, and a consistency checker for analytic derivative
oracles.  Nothing here touches the second-order sweep code; the only shared
path is the rollout itself, which keeps these usable as referees for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .adjoint import gradient
from .problem import (FD_STEP, ProblemDef, as_stack, central_difference,
                      check_count, check_positive, check_state, eval_cost,
                      make_fd_problem, one_row)
from .scenarios import LqrSpec


def fd_gradient(p: ProblemDef, x0, z: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of the rollout cost, coordinate by
    coordinate: (J(z + h e_i) - J(z - h e_i)) / (2 h), h finite and > 0."""
    check_positive(h, "h")
    return central_difference(lambda v: eval_cost(p, x0, v), z, h)


def fd_hessian(p: ProblemDef, x0, z: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of the adjoint gradient with step h (finite and
    > 0), symmetrized.

    Differencing the exact gradient rather than double-differencing the cost
    drops one order of cancellation error, which is why downstream checks
    can afford a 1e-4 tolerance.
    """
    check_positive(h, "h")
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
    problem x' = a x + b u with cost sum(q x^2 + r u^2) + p_term x_N^2;
    the arguments are checked as the LqrSpec they make.

    P_N = p_term,
    P_k = q + a^2 P_{k+1} - (a b P_{k+1})^2 / (r + b^2 P_{k+1}),
    K_k = a b P_{k+1} / (r + b^2 P_{k+1}),
    u_k = -K_k x_k.
    """
    LqrSpec(a, b, q, r, p_term, N, x0)
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
    """Max absolute deviation scaled by max(1, max|expected|).

    Where that is NaN (a NaN on either side, or an infinity in expected)
    the error is inf: every err <= tol test and every max() would drop a
    NaN, and pass what they referee.
    """
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    with np.errstate(invalid="ignore"):
        dev = float(np.abs(actual - expected).max(initial=0.0))
    err = dev / scale
    return math.inf if math.isnan(err) else err


def _default_sampler(rng: np.random.Generator, dims) -> tuple:
    return rng.normal(scale=0.7, size=dims.n), rng.normal(scale=0.7, size=dims.m)


def fd_consistency(p: ProblemDef, rng: np.random.Generator,
                   n_points: int = 100,
                   sampler: Optional[Callable] = None) -> Dict[str, float]:
    """Compare analytic derivative oracles against finite differences of the
    problem's own dynamics and stage cost, and check that the stacked
    oracles treat their rows independently.

    Draws n_points (x, u, k) points (an integer >= 1) and evaluates each
    oracle once on their stack.  Returns the worst relative error per
    derivative oracle against the differenced reference, and under
    "row_independence" the worst relative gap between any stacked oracle's
    rows, the stage cost included, and the same oracle evaluated one row at
    a time.  Second-order comparisons are skipped when the problem does not
    define the corresponding oracles.  A problem with a rollout oracle also
    gets a "rollout" entry: the worst relative gap between rollout(x0, U)
    and iterating the dynamics, over n_points starts and N-row control
    sequences drawn after the points; a faithful oracle reads 0.
    """
    check_count(n_points, 1, "n_points")
    dims = p.dims
    ref = make_fd_problem(p.dynamics, one_row(p.stage_cost), dims)
    draw = sampler if sampler is not None else _default_sampler
    worst = {"d_dynamics": 0.0, "d_stage_cost": 0.0}
    second = p.dd_stage_cost is not None and p.dd_dynamics_contracted is not None
    if second:
        worst["dd_stage_cost"] = 0.0
        worst["dd_dynamics_contracted"] = 0.0
    worst["row_independence"] = 0.0
    xs, us, ks, ws = [], [], [], []
    for _ in range(n_points):
        x, u = draw(rng, dims)
        xs.append(x)
        us.append(u)
        ks.append(int(rng.integers(0, dims.N + 1)))
        if second and dims.N > 0:
            ws.append(rng.normal(size=dims.n))
    if p.rollout is not None:
        worst["rollout"] = max(_rollout_gap(p, rng, draw)
                               for _ in range(n_points))
    x = np.asarray(xs, dtype=float).reshape(n_points, dims.n)
    u = np.asarray(us, dtype=float).reshape(n_points, dims.m)
    k = np.asarray(ks)
    k_dyn = np.minimum(k, max(dims.N - 1, 0))
    calls = [("stage_cost", (x, u, k)), ("d_stage_cost", (x, u, k))]
    if dims.N > 0:
        calls.append(("d_dynamics", (x, u, k_dyn)))
    if second:
        calls.append(("dd_stage_cost", (x, u, k)))
        if dims.N > 0:
            calls.append(("dd_dynamics_contracted",
                          (np.asarray(ws), x, u, k_dyn)))

    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    for name, args in calls:
        oracle = getattr(p, name)
        got = parts(oracle(*args))
        expected = parts(getattr(ref, name)(*args)) if name in worst else ()
        single = one_row(oracle)
        for i in range(n_points):
            alone = parts(single(*(a[i] for a in args)))
            worst["row_independence"] = max(
                worst["row_independence"],
                *(max_rel_error(g[i], r) for g, r in zip(got, alone)))
            if expected:
                worst[name] = max(worst[name], *(
                    max_rel_error(g[i], e[i]) for g, e in zip(got, expected)))
    return worst


def _rollout_gap(p: ProblemDef, rng: np.random.Generator,
                 draw: Callable) -> float:
    # max_rel_error of p.rollout from one drawn start under N drawn control
    # rows against stepping p.dynamics from the same start.
    dims = p.dims
    x0 = check_state(draw(rng, dims)[0], dims.n, "x0")
    u = np.array([check_state(draw(rng, dims)[1], dims.m, "control")
                  for _ in range(dims.N)]).reshape(dims.N, dims.m)
    stepped = [x0]
    for k in range(dims.N):
        stepped.append(check_state(p.dynamics(stepped[-1], u[k], k), dims.n,
                                   f"dynamics at stage {k}"))
    got = as_stack(p.rollout(x0, u), (dims.N + 1, dims.n), "rollout")
    return max_rel_error(got, np.array(stepped))
