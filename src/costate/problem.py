"""Problem definition and rollout for discrete-time optimal control.

A problem is the task

    minimize  sum_{k=0}^{N} cost(x_k, u_k, k)
    subject   x_{k+1} = f(x_k, u_k, k),  x_0 given,

optimized over the flat decision vector z = [u_0; u_1; ...; u_N] of length
m*(N+1).  The terminal control u_N stays in the layout even when the last
stage ignores it; such stages simply report zero cost and zero derivatives
for u, which pins the corresponding gradient entries to exactly zero.

The dynamics are called one stage at a time, because the rollout is
sequential.  The stage cost and the derivative oracles are stacked: one
call evaluates every stage of a pass, row i of its inputs at stage ks[i].
ProblemDef.from_stagewise builds a problem from per-stage callables, and
one_row turns a stacked oracle back into a per-stage one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """An input does not match the problem dimensions; the message names the
    offending quantity and index."""


class NumericalBlowupError(FloatingPointError):
    """The dynamics or cost produced a non-finite value during a rollout.

    Attributes:
        stage: the first stage at fault.
        what: the quantity that was not finite, e.g. "stage cost" or
            "dynamics".
    """

    def __init__(self, stage: int, what: str):
        self.stage = stage
        self.what = what
        super().__init__(f"numerical blow-up at stage {stage} ({what})")


@dataclass(frozen=True)
class Dims:
    """Problem dimensions.

    Attributes:
        n: state dimension, an integer >= 1.
        m: control dimension, an integer >= 1.
        N: index of the last stage, an integer >= 0 (stages run k = 0..N).
    """

    n: int
    m: int
    N: int

    def __post_init__(self):
        check_count(self.n, 1, "n")
        check_count(self.m, 1, "m")
        check_count(self.N, 0, "N")

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

    The dynamics take one stage; the other five oracles are stacked.  A
    stacked oracle evaluates K stages in one call: X is (K, n), U is (K, m),
    ks is the (K,) integer array of stage indices, and row i of every output
    belongs to (X[i], U[i], ks[i]) alone.

        dynamics(x, u, k) -> next state (n,)                   stages 0..N-1
        stage_cost(X, U, ks) -> (K,)                           stages 0..N
        d_dynamics(X, U, ks) -> (f_x (K,n,n), f_u (K,n,m))     stages 0..N-1
        d_stage_cost(X, U, ks) -> (c_x (K,n), c_u (K,m))       stages 0..N
        dd_stage_cost(X, U, ks)
            -> (c_xx (K,n,n), c_xu (K,n,m), c_uu (K,m,m))      stages 0..N
        dd_dynamics_contracted(W, X, U, ks)                    stages 0..N-1
            -> (w.f_xx (K,n,n), w.f_xu (K,n,m), w.f_uu (K,m,m)), W (K, n)

    The library calls each stacked oracle once per pass, on every stage of
    the pass in stage order.  The dynamics stay per stage because the
    rollout is sequential: x_{k+1} exists only once x_k does, and a
    one-row stacked step costs several times a per-stage one.

    Second derivatives of the dynamics appear only contracted against a
    costate-like vector w, which is the shape the second-order sweeps need
    and avoids rank-3 tensor storage.  Dynamics callables (and their
    derivatives) are never invoked at stage N: the terminal costate is zero,
    so every term that would require them vanishes.  No callable ever
    receives a non-finite state produced by the dynamics.

    ``dd_stage_cost`` and ``dd_dynamics_contracted`` may be None for
    problems that are only differentiated once; second-order computations
    then refuse to run.  Instances are immutable and safe to share across
    concurrent evaluations.  ``from_stagewise`` builds a problem from the
    per-stage signatures.
    """

    dims: Dims
    dynamics: Callable
    stage_cost: Callable
    d_dynamics: Callable
    d_stage_cost: Callable
    dd_stage_cost: Optional[Callable] = None
    dd_dynamics_contracted: Optional[Callable] = None

    @classmethod
    def from_stagewise(cls, dims: Dims, dynamics: Callable,
                       stage_cost: Callable, d_dynamics: Callable,
                       d_stage_cost: Callable,
                       dd_stage_cost: Optional[Callable] = None,
                       dd_dynamics_contracted: Optional[Callable] = None,
                       ) -> "ProblemDef":
        """Problem from per-stage callables.

        The callables take one stage, k last, as plain ints:

            stage_cost(x, u, k) -> float
            d_dynamics(x, u, k) -> (f_x (n,n), f_u (n,m))
            d_stage_cost(x, u, k) -> (c_x (n,), c_u (m,))
            dd_stage_cost(x, u, k) -> (c_xx (n,n), c_xu (n,m), c_uu (m,m))
            dd_dynamics_contracted(w, x, u, k)
                -> (w.f_xx (n,n), w.f_xu (n,m), w.f_uu (m,m))

        Each stacked oracle calls its callable once per row, in row order,
        and stacks the results in the documented shapes; dynamics is used
        as it is.
        """
        n, m = dims.n, dims.m

        def stacked(fun, shapes):
            if fun is None:
                return None

            def oracle(*args):
                *vecs, ks = args
                outs = [fun(*row, k) for *row, k in
                        zip(*vecs, np.asarray(ks).tolist())]
                if shapes is None:
                    return np.array([float(c) for c in outs])
                return tuple(
                    np.asarray(part, dtype=float).reshape((len(outs),) + shape)
                    for part, shape in zip(zip(*outs), shapes))
            return oracle

        hess = ((n, n), (n, m), (m, m))
        return cls(
            dims=dims,
            dynamics=dynamics,
            stage_cost=stacked(stage_cost, None),
            d_dynamics=stacked(d_dynamics, ((n, n), (n, m))),
            d_stage_cost=stacked(d_stage_cost, ((n,), (m,))),
            dd_stage_cost=stacked(dd_stage_cost, hess),
            dd_dynamics_contracted=stacked(dd_dynamics_contracted, hess),
        )


def one_row(oracle: Callable) -> Callable:
    """Per-stage form of a stacked oracle.

    The returned callable takes the per-stage arguments, (x, u, k) or
    (w, x, u, k), evaluates oracle on a one-row stack of them and returns
    that row: a float for a stage cost, else a tuple of arrays.
    """
    def at_stage(*args):
        *vecs, k = args
        out = oracle(*(np.asarray(v, dtype=float).reshape(1, -1)
                       for v in vecs), np.array([k]))
        if isinstance(out, tuple):
            return tuple(part[0] for part in out)
        return float(out[0])
    return at_stage


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


def check_count(value, low: int, what: str) -> None:
    """Reject a count that is not an integer >= low with a ValueError.

    Python and numpy integers pass; no float does, 10.0 included.
    """
    if not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


def roll_forward(p: ProblemDef, x0, z: np.ndarray) -> Rollout:
    """Simulate the dynamics under the controls in z and accumulate cost.

    The states come from one dynamics call per stage; the stage costs from
    one stage_cost call over all of them.

    Args:
        p: problem definition.
        x0: initial state, shape (n,) (scalars accepted for n = 1).
        z: flat decision vector of length m*(N+1).

    Returns:
        A Rollout with states x_0..x_N, per-stage costs, and their sum.

    Raises:
        DimensionMismatchError: x0 or z has the wrong shape, naming it, or
            an oracle returned the wrong shape.
        NumericalBlowupError: dynamics or cost returned a non-finite value;
            the error carries the first stage k, in the order stage cost k,
            then dynamics k.  The stage costs are evaluated only up to the
            first non-finite state, so no callable receives one that the
            dynamics produced.
    """
    dims = p.dims
    n, horizon = dims.n, dims.N
    u = stage_controls(z, dims)
    states = np.empty((horizon + 1, n))
    states[0] = check_state(x0, n, "x0")
    blown = None
    for k in range(horizon):
        nxt = p.dynamics(states[k], u[k], k)
        # A float64 ndarray needs no conversion; skip its dispatching calls.
        if type(nxt) is not np.ndarray or nxt.dtype is not states.dtype:
            nxt = np.atleast_1d(np.asarray(nxt, dtype=float))
        if nxt.shape != (n,):
            raise DimensionMismatchError(
                f"dynamics returned shape {nxt.shape} at stage {k}, "
                f"expected ({n},)"
            )
        if not all(map(math.isfinite, nxt.tolist())):
            blown = k
            break
        states[k + 1] = nxt
    last = horizon if blown is None else blown
    costs = np.asarray(p.stage_cost(states[:last + 1], u[:last + 1],
                                    np.arange(last + 1)), dtype=float)
    if costs.shape != (last + 1,):
        raise DimensionMismatchError(
            f"stage_cost returned shape {costs.shape}, expected ({last + 1},)")
    if not np.isfinite(costs).all():
        raise NumericalBlowupError(int(np.isfinite(costs).argmin()),
                                   "stage cost")
    if blown is not None:
        raise NumericalBlowupError(blown, "dynamics")
    # A running sum in stage order, as the costs accrue; np.sum's pairwise
    # order would change the last bits of the objective.
    total = 0.0
    for c in costs.tolist():
        total += c
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

    The derivative callables are per stage and stacked by
    ProblemDef.from_stagewise.

    Args:
        dynamics: callable (x, u, k) -> next state.
        stage_cost: per-stage callable (x, u, k) -> float.
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

    return ProblemDef.from_stagewise(
        dims=dims,
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=partial(first, f),
        d_stage_cost=partial(first, stage_cost),
        dd_stage_cost=partial(second, stage_cost),
        dd_dynamics_contracted=dd_dynamics_contracted,
    )
