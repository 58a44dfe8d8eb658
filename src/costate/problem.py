"""Problem definition and rollout for discrete-time optimal control.

A problem is the task

    minimize  sum_{k=0}^{N} cost(x_k, u_k, k)
    subject   x_{k+1} = f(x_k, u_k, k),  x_0 given,

optimized over the flat decision vector z = [u_0; u_1; ...; u_N] of length
m*(N+1).  The terminal control u_N stays in the layout even when the last
stage ignores it; such stages simply report zero cost and zero derivatives
for u, which pins the corresponding gradient entries to exactly zero.

The states of a rollout come from one call of the rollout that ProblemDef
describes, by default one dynamics call per stage.  The stage cost and
the derivative oracles are stacked: one call evaluates every stage of a
pass, row i of its inputs at stage ks[i].  ProblemDef.from_stagewise
builds a problem from per-stage callables, and one_row turns a stacked
oracle back into a per-stage one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

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
            f"control component {p} outside 0..{dims.m - 1}")
    return k * dims.m + p


def stage_controls(z: np.ndarray, dims: Dims) -> np.ndarray:
    """View the decision vector as an (N+1, m) array, one row per stage;
    z is read as check_state reads a vector of length m*(N+1)."""
    return check_state(z, dims.z_len, "decision vector").reshape(
        dims.N + 1, dims.m)


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
    one-row stacked step costs several times a per-stage one.  The states
    of a rollout come from one call of

        rollout(x0, U) -> (N+1, n)                             stages 0..N-1

    the states x_0..x_N from the finite float64 (n,) x0 under the (N, m)
    control rows of stages 0..N-1.  While the states are finite they equal
    iterating dynamics bit for bit; a non-finite row k+1 means dynamics
    failed at stage k, and the rows after it are unspecified.  A problem
    that can run the whole recursion in one call supplies rollout; without
    it, roll_forward steps dynamics once per stage and stops at the first
    non-finite state.  dataclasses.replace of dynamics keeps the rollout,
    so a replacement meant to reach the rollout sets rollout=None with it.

    Second derivatives of the dynamics appear only contracted against a
    costate-like vector w, which is the shape the second-order sweeps need
    and avoids rank-3 tensor storage.  Dynamics callables (and their
    derivatives) are never invoked at stage N: the terminal costate is zero,
    so every term that would require them vanishes.  No callable ever
    receives a non-finite state, x0 included.

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
    rollout: Optional[Callable] = None

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


_FLOAT64 = np.dtype(np.float64)


def as_stack(a, shape: tuple, what: str) -> np.ndarray:
    """A stacked oracle's output as a float64 array of the given shape.

    A float64 ndarray of that shape is returned as it is, without the
    dispatching calls of a conversion; anything else becomes
    np.asarray(a, dtype=float).reshape(shape), so a list of rows or a (K,)
    c_u for m = 1 passes.  Its leading axis must be the K rows of shape and
    its size that of shape, else a DimensionMismatchError names what, e.g.
    "d_stage_cost c_x".  A transposed output is caught unless it is square:
    with n = K, only fd_consistency's row check tells it from the rows.
    """
    if type(a) is np.ndarray and a.dtype is _FLOAT64 and a.shape == shape:
        return a
    a = np.asarray(a, dtype=float)
    if a.shape[:1] != shape[:1] or a.size != math.prod(shape):
        raise DimensionMismatchError(
            f"{what} has shape {a.shape}, expected {shape}")
    return a.reshape(shape)


# The banded solves and the Riccati pivots call compiled routines, BLAS
# dtbsv and LAPACK dpotrf and dpotrs, which live in scipy.linalg's
# extension modules _fblas and _flapack.
# Importing them through the scipy.linalg package runs its __init__, which
# (by way of scipy._lib._array_api) imports numpy.f2py, numpy.testing,
# numpy.ma and more: about 0.2 s of every process's start-up on 2 vCPUs,
# against 6-7 ms for the two extension modules alone.  So they are loaded
# from the package's directory, which find_spec locates by importing only
# the top-level scipy.  Each is registered in sys.modules under its own
# name, so a later `import scipy.linalg` shares these objects, and one that
# an earlier import already loaded is reused.
_LINALG_PATH = importlib.util.find_spec(
    "scipy.linalg").submodule_search_locations


def _compiled(name: str):
    """The extension module scipy.linalg.<name>, without its package."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.machinery.PathFinder.find_spec(full, _LINALG_PATH)
        if spec is None:
            raise ImportError(f"{full} not found in {_LINALG_PATH}",
                              name=full)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return module


dtbsv = _compiled("_fblas").dtbsv
dpotrf = _compiled("_flapack").dpotrf
dpotrs = _compiled("_flapack").dpotrs


class BlockBidiagonal:
    """Unit lower block-bidiagonal matrix in the band storage that dtbsv reads.

    count diagonal blocks, each the n x n identity, and one n x n block at
    (k, k-1) below each but the first.  blocks is a writable
    (count - 1, n, n) view of those; every other entry stays zero.
    solve(x, trans) overwrites the first count * n entries of the float64
    vector x with y solving A y = x, or A' y = x if trans=1: a first-order
    linear recursion over count stages, forward or backward.

    band is C-ordered (count * n, 2n); its transpose is the LAPACK storage
    with k = 2n - 1 subdiagonals, the reach of a block's last row in its
    first column: entry (i, j) at flat element j*k + i.

    A system with no coupling block (count < 2) is the identity: its
    solves return x as it is, without a BLAS call.
    """

    __slots__ = ("band", "blocks")

    def __init__(self, count: int, n: int):
        k = 2 * n - 1
        self.band = np.zeros((count * n, k + 1))
        if count < 2:
            # The first block's offset may lie past the end of the band.
            self.blocks = np.empty((0, n, n))
            return
        self.blocks = np.ndarray(  # 8 bytes per float64 entry
            (count - 1, n, n), buffer=self.band, offset=8 * n,
            strides=(8 * n * (k + 1), 8, 8 * k))

    def solve(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        if not len(self.blocks):
            return x
        return dtbsv(self.band.shape[1] - 1, self.band.T, x, lower=1,
                     trans=trans, diag=1, overwrite_x=1)


class Rollout(NamedTuple):
    """Forward simulation result: the snapshot the sweeps read.

    Attributes:
        states: (N+1, n) array, x_0..x_N.
        controls: (N+1, m) array, u_0..u_N, the controls the states were
            rolled out under; a copy, so editing z afterwards leaves it be.
        stage_costs: (N+1,) array of per-stage costs.
        total_cost: running sum of stage_costs in stage order.
    """

    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    total_cost: float


def check_state(x, n: int, what: str = "state") -> np.ndarray:
    """x as a float64 vector of shape (n,), the one rule for a vector input.

    As in as_stack, a float64 ndarray of that shape is returned as it is,
    anything else as np.atleast_1d(np.asarray(x, dtype=float)), so a scalar
    passes for n = 1; another shape raises DimensionMismatchError."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.shape == (n,):
        return x
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise DimensionMismatchError(f"{what} has shape {x.shape}, expected ({n},)")
    return x


_MAX_COUNT = int(np.iinfo(np.intp).max)  # numpy's largest index


def check_count(value, low: int, what: str, high=_MAX_COUNT) -> None:
    """Reject a count that is not an integer in low..high with a ValueError;
    Python and numpy integers pass, no float (10.0 included) or bool does.
    high defaults to numpy's largest index, past which numpy refuses the
    allocation or computes on Python ints; high=None lifts that bound for an
    integer that indexes nothing, such as a seed."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        why = ", numpy's index range" if high == _MAX_COUNT else ""
        raise ValueError(f"{what} must be at most {high}{why}, got {value!r}")


def check_byte_range(count: int, what: str) -> None:
    """Refuse count float64 rows past numpy's byte range with the
    MemoryError that numpy raises for an allocation the machine cannot
    hold; numpy refuses such an array with a bare ValueError ("array is too
    big"), which a caller cannot tell from a bug."""
    if 8 * count > _MAX_COUNT:
        raise MemoryError(f"{what}: {count} float64 rows exceed numpy's "
                          f"byte range")


def _finite_real(value) -> bool:
    # bool is an int subclass, but True is no setting.  The bounds fail nan,
    # inf and an int beyond float range (math.isfinite would overflow).
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def check_finite(value, what: str) -> None:
    """Reject value with a ValueError naming what unless it is a finite
    real; numpy scalars and integers pass, no bool, string or integer
    beyond float range does."""
    if not _finite_real(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


def first_non_finite(stack) -> Optional[int]:
    """The first stage of a stage stack, its stages on the leading axis,
    that holds a non-finite entry, or None.

    The stages are scanned only when squares_finite(stack) is False; a
    stack whose sum overflows from finite entries has none."""
    if squares_finite(stack):
        return None
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    return None if finite.all() else int(finite.argmin())


def check_finite_stages(stack, what: str) -> None:
    """Raise NumericalBlowupError(k, what) for the first stage k of a stage
    stack that holds a non-finite entry, k = first_non_finite(stack)."""
    k = first_non_finite(stack)
    if k is not None:
        raise NumericalBlowupError(k, what)


def squares_finite(a: np.ndarray) -> bool:
    """Whether the sum of squares of a's entries is finite: False for any
    non-finite entry, and for finite ones whose sum overflows.  np.vdot
    raises no floating-point warning, so the test is quiet."""
    return math.isfinite(np.vdot(a, a))


def check_positive(value, what: str, zero_ok: bool = False) -> None:
    """check_finite's rule and value > 0, or >= 0 with zero_ok; the value
    is shown as its repr, so a string "0.05" reads as one."""
    if not (_finite_real(value) and (value >= 0 if zero_ok else value > 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{what} must be finite and {bound}, got {value!r}")


def _stepped(dynamics: Callable, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    # ProblemDef's rollout by one dynamics call per stage, each output read
    # by check_state's rule: the steps stop at the first non-finite state,
    # which no call receives, and its row and the rest are NaN.
    n = len(x0)
    states = np.empty((len(u) + 1, n))
    states[0] = x0
    isfinite, shape = math.isfinite, (n,)
    for k, (x_k, u_k) in enumerate(zip(states, u)):
        nxt = dynamics(x_k, u_k, k)
        # check_state's fast path inline: its call would outcost the step.
        if not (type(nxt) is np.ndarray and nxt.dtype is _FLOAT64
                and nxt.shape == shape):
            nxt = check_state(nxt, n, f"dynamics at stage {k}")
        if not all(map(isfinite, nxt.tolist())):
            states[k + 1:] = np.nan
            break
        states[k + 1] = nxt
    return states


def roll_forward(p: ProblemDef, x0, z: np.ndarray) -> Rollout:
    """Simulate the dynamics under the controls in z and accumulate cost.

    The states come from one call of the rollout that ProblemDef describes,
    under its contract; the stage costs from one stage_cost call over all
    of them.  x0, z and the stage costs are read by check_state's rule, the
    states by as_stack's.

    Args:
        p: problem definition.
        x0: initial state, shape (n,) (scalars accepted for n = 1).
        z: flat decision vector of length m*(N+1).

    Returns:
        A Rollout of states x_0..x_N, controls, stage costs and their sum.

    Raises:
        DimensionMismatchError: check_state's error naming "x0", "decision
            vector", "dynamics at stage k" or "stage_cost", or as_stack's
            naming "rollout".
        NumericalBlowupError: (0, "x0") for a non-finite x0, before any
            callable runs; else the first stage k whose cost or dynamics is
            not finite, stage cost k before dynamics k, where a non-finite
            state x_{k+1} is dynamics k.  No stage past the first
            non-finite state is priced.
    """
    dims = p.dims
    n, horizon = dims.n, dims.N
    u = stage_controls(z, dims).copy()
    x0 = check_state(x0, n, "x0")
    isfinite = math.isfinite
    if not all(map(isfinite, x0.tolist())):
        raise NumericalBlowupError(0, "x0")
    states = as_stack((p.rollout or partial(_stepped, p.dynamics))(
        x0, u[:horizon]), (horizon + 1, n), "rollout")
    k = first_non_finite(states)  # a non-finite state x_k is dynamics k - 1
    blown = None if k is None else max(k - 1, 0)
    last = horizon if blown is None else blown
    costs = check_state(p.stage_cost(states[:last + 1], u[:last + 1],
                                     np.arange(last + 1)), last + 1,
                        "stage_cost")
    # A running sum in stage order, as the costs accrue; np.sum's pairwise
    # order would change the last bits of the objective.  A non-finite
    # stage cost makes the sum non-finite, so only then are the costs
    # scanned; finite costs whose sum overflows give an infinite total.
    total = 0.0
    for c in costs.tolist():
        total += c
    if not isfinite(total):
        check_finite_stages(costs, "stage cost")
    if blown is not None:
        raise NumericalBlowupError(blown, "dynamics")
    return Rollout(states, u, costs, total)


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
        step: relative step for first derivatives, finite and > 0.
    """
    check_positive(step, "step")
    n, m = dims.n, dims.m

    def f(x, u, k):
        return check_state(dynamics(x, u, k), n, "dynamics output")

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
