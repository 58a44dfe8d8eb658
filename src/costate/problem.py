"""Problem definition and rollout for discrete-time optimal control.

A problem is the task

    minimize  sum_{k=0}^{N} cost(x_k, u_k, k)
    subject   x_{k+1} = f(x_k, u_k, k),  x_0 given,

optimized over the flat decision vector z = [u_0; u_1; ...; u_N] of length
m*(N+1).  The terminal control u_N stays in the layout even when the last
stage ignores it; such stages simply report zero cost and zero derivatives
for u, which pins the corresponding gradient entries to exactly zero.

All stage callables take the stage index k last, so tracking costs with
time-varying references and terminal-only costs need no wrapper types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """An input does not match the problem dimensions; the message names the
    offending quantity and index."""


class NumericalBlowupError(FloatingPointError):
    """The dynamics or cost produced a non-finite value during a rollout."""

    def __init__(self, stage: int, what: str):
        self.stage = stage
        super().__init__(f"numerical blow-up at stage {stage} ({what})")


@dataclass(frozen=True)
class Dims:
    """Problem dimensions.

    Attributes:
        n: state dimension, >= 1.
        m: control dimension, >= 1.
        N: index of the last stage, >= 0 (stages run k = 0..N).
    """

    n: int
    m: int
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"control dimension m must be >= 1, got {self.m}")
        if self.N < 0:
            raise ValueError(f"last stage index N must be >= 0, got {self.N}")

    @property
    def z_len(self) -> int:
        """Length of the flat decision vector, m*(N+1)."""
        return self.m * (self.N + 1)


def flat_index(dims: Dims, k: int, p: int) -> int:
    """Flat position of control component p at stage k (bijective layout)."""
    if not 0 <= k <= dims.N:
        raise DimensionMismatchError(f"stage index {k} outside 0..{dims.N}")
    if not 0 <= p < dims.m:
        raise DimensionMismatchError(
            f"control component {p} outside 0..{dims.m - 1}"
        )
    return k * dims.m + p


def stage_controls(z: np.ndarray, dims: Dims) -> np.ndarray:
    """View the decision vector as an (N+1, m) array, one row per stage."""
    z = np.asarray(z, dtype=float)
    if z.shape != (dims.z_len,):
        raise DimensionMismatchError(
            f"decision vector has shape {z.shape}, expected ({dims.z_len},) "
            f"for m={dims.m}, N={dims.N}"
        )
    return z.reshape(dims.N + 1, dims.m)


@dataclass(frozen=True)
class ProblemDef:
    """A discrete-time optimal control problem with derivative oracles.

    Required signatures (all pure functions):

        dynamics(x, u, k) -> next state, shape (n,)            stages 0..N-1
        stage_cost(x, u, k) -> float                           stages 0..N
        d_dynamics(x, u, k) -> (f_x (n,n), f_u (n,m))          stages 0..N-1
        d_stage_cost(x, u, k) -> (c_x (n,), c_u (m,))          stages 0..N
        dd_stage_cost(x, u, k) -> (c_xx (n,n), c_xu (n,m), c_uu (m,m))
        dd_dynamics_contracted(w, x, u, k)
            -> (w.f_xx (n,n), w.f_xu (n,m), w.f_uu (m,m))

    Second derivatives of the dynamics appear only contracted against a
    costate-like vector w, which is the shape the second-order sweeps need
    and avoids rank-3 tensor storage.  Dynamics callables (and their
    derivatives) are never invoked at stage N: the terminal costate is zero,
    so every term that would require them vanishes.

    ``dd_stage_cost`` and ``dd_dynamics_contracted`` may be None for
    problems that are only differentiated once; second-order computations
    then refuse to run.  Instances are immutable and safe to share across
    concurrent evaluations.
    """

    dims: Dims
    dynamics: Callable
    stage_cost: Callable
    d_dynamics: Callable
    d_stage_cost: Callable
    dd_stage_cost: Optional[Callable] = None
    dd_dynamics_contracted: Optional[Callable] = None


@dataclass(frozen=True)
class Rollout:
    """Forward simulation result.

    Attributes:
        states: (N+1, n) array, x_0..x_N.
        stage_costs: (N+1,) array of per-stage costs.
        total_cost: running sum of stage_costs in stage order.
    """

    states: np.ndarray
    stage_costs: np.ndarray
    total_cost: float


def check_state(x, n: int, what: str = "state") -> np.ndarray:
    """Coerce to a float vector of length n or raise a structured error."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected ({n},)")
    return x


def roll_forward(p: ProblemDef, x0, z: np.ndarray) -> Rollout:
    """Simulate the dynamics under the controls in z and accumulate cost.

    Args:
        p: problem definition.
        x0: initial state, shape (n,) (scalars accepted for n = 1).
        z: flat decision vector of length m*(N+1).

    Returns:
        A Rollout with states x_0..x_N, per-stage costs, and their sum.

    Raises:
        DimensionMismatchError: x0 or z has the wrong shape, naming it.
        NumericalBlowupError: dynamics or cost returned a non-finite value;
            the error carries the stage index.
    """
    dims = p.dims
    u = stage_controls(z, dims)
    x = check_state(x0, dims.n, "x0")
    states = np.empty((dims.N + 1, dims.n))
    costs = np.empty(dims.N + 1)
    states[0] = x
    total = 0.0
    for k in range(dims.N + 1):
        c = float(p.stage_cost(states[k], u[k], k))
        if not np.isfinite(c):
            raise NumericalBlowupError(k, "stage cost")
        costs[k] = c
        total += c
        if k < dims.N:
            nxt = np.atleast_1d(np.asarray(p.dynamics(states[k], u[k], k), dtype=float))
            if nxt.shape != (dims.n,):
                raise DimensionMismatchError(
                    f"dynamics returned shape {nxt.shape} at stage {k}, "
                    f"expected ({dims.n},)"
                )
            if not np.all(np.isfinite(nxt)):
                raise NumericalBlowupError(k, "dynamics")
            states[k + 1] = nxt
    return Rollout(states=states, stage_costs=costs, total_cost=total)


def eval_cost(p: ProblemDef, x0, z: np.ndarray) -> float:
    """Total rollout cost, the scalar objective the solvers minimize."""
    return roll_forward(p, x0, z).total_cost


# Central-difference step scales.  First derivatives use the fine step; the
# second-derivative differencing wraps the first-derivative estimates with
# the coarser step, which balances truncation against cancellation.
FD_STEP = 1e-6
FD_STEP_SECOND = 1e-4


def central_difference(fun: Callable, v: np.ndarray, step: float,
                       relative: bool = False) -> np.ndarray:
    """Central-difference derivative of fun at the vector v.

    Entry [..., j] is (fun(v + h_j e_j) - fun(v - h_j e_j)) / (2 h_j), with
    h_j = step, or step * max(1, |v_j|) when relative.  fun may return a
    scalar or an array; its shape leads the result's.
    """
    v = np.asarray(v, dtype=float)
    cols = []
    for j in range(v.size):
        h = step * max(1.0, abs(float(v[j]))) if relative else step
        hi, lo = v.copy(), v.copy()
        hi[j] += h
        lo[j] -= h
        cols.append((np.asarray(fun(hi), dtype=float)
                     - np.asarray(fun(lo), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def make_fd_problem(dynamics, stage_cost, dims: Dims, step: float = FD_STEP) -> ProblemDef:
    """Build a ProblemDef whose derivative oracles are finite differences.

    First derivatives are central differences with per-coordinate step
    step*max(1, |coordinate|); second derivatives are nested central
    differences of those estimates with step 1e-4*max(1, |coordinate|).
    Useful both as a derivative-free constructor and as the independent
    reference when validating analytic oracles.

    Args:
        dynamics: callable (x, u, k) -> next state.
        stage_cost: callable (x, u, k) -> float.
        dims: problem dimensions.
        step: relative step for first derivatives, > 0.
    """
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    n, m = dims.n, dims.m

    def f(x, u, k):
        return np.atleast_1d(np.asarray(dynamics(x, u, k), dtype=float))

    def d_x(fun, x, u, k, h):
        return central_difference(lambda xx: fun(xx, u, k), x, h, relative=True)

    def d_u(fun, x, u, k, h):
        return central_difference(lambda uu: fun(x, uu, k), u, h, relative=True)

    def first(fun, x, u, k):
        x = check_state(x, n)
        u = check_state(u, m, "control")
        return d_x(fun, x, u, k, step), d_u(fun, x, u, k, step)

    def second(fun, x, u, k):
        # Outer central differences of first-derivative estimates built with
        # the same coarse step; the finer first-order step would amplify its
        # own cancellation noise here.
        x = check_state(x, n)
        u = check_state(u, m, "control")
        gx = partial(d_x, fun, h=FD_STEP_SECOND)
        gu = partial(d_u, fun, h=FD_STEP_SECOND)
        hxx = d_x(gx, x, u, k, FD_STEP_SECOND)
        hxu = d_u(gx, x, u, k, FD_STEP_SECOND)
        huu = d_u(gu, x, u, k, FD_STEP_SECOND)
        return 0.5 * (hxx + hxx.T), hxu, 0.5 * (huu + huu.T)

    def dd_dynamics_contracted(w, x, u, k):
        w = check_state(w, n, "contraction vector")
        return second(lambda xx, uu, kk: float(w @ f(xx, uu, kk)), x, u, k)

    return ProblemDef(
        dims=dims,
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=partial(first, f),
        d_stage_cost=partial(first, stage_cost),
        dd_stage_cost=partial(second, stage_cost),
        dd_dynamics_contracted=dd_dynamics_contracted,
    )
