"""Bundled problem builders.

Two families: a scalar linear-quadratic regulator with exact analytic
derivatives, and planar unicycle trajectory tracking (forward-Euler
kinematics, quadratic tracking cost against a circle or a waypoint table).
A seeded random smooth problem generator for validation harnesses lives
here too.  Every builder returns its stage cost and derivative oracles
in the stacked form of ProblemDef, vectorized over the rows; the dynamics
take one stage, and the unicycle and the random problem also supply the
stacked rollout, of which their dynamics are the one-stage case.

The circle parameters are this library's documented defaults: center at the
origin, radius 1 m, angular rate 0.3 rad/s.  They are plain config values
and can be overridden freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .problem import (Dims, ProblemDef, check_count, check_finite,
                      check_positive, check_state)


def wrap_angle(a):
    """Map angles to (-pi, pi], elementwise; a scalar gives a float."""
    return np.pi - np.mod(np.pi - a, 2.0 * np.pi)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a @ x for every row x of a (K, c) stack.  A batched product does each
    # row's arithmetic exactly as the one-row product does, so the stacked
    # oracles below give the same bits whatever the stack around a row.
    return (a @ x[:, :, None])[..., 0]


def _dot(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    # v @ x for every row x of a (K, c) stack; batched as in _matvec.
    return (x[:, None, :] @ v[:, None])[:, 0, 0]


def _half_quad(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # 0.5 * x @ a @ x for every row x of a (K, c) stack; batched as in
    # _matvec.
    return (((0.5 * x)[:, None, :] @ a) @ x[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class LqrSpec:
    """Scalar linear-quadratic problem: x' = a x + b u from x0, running cost
    q x^2 + r u^2, terminal cost p_term x_N^2; a, b and x0 are finite, r
    finite and > 0, q and p_term finite and >= 0, N an integer >= 0."""

    a: float = 1.8
    b: float = 0.9
    q: float = 1.0
    r: float = 3.0
    p_term: float = 3.0
    N: int = 15
    x0: float = 1.0

    def __post_init__(self):
        check_finite(self.a, "a")
        check_finite(self.b, "b")
        check_positive(self.q, "q", zero_ok=True)
        check_positive(self.r, "r")
        check_positive(self.p_term, "p_term", zero_ok=True)
        check_count(self.N, 0, "N")
        check_finite(self.x0, "x0")


def build_lqr(spec: LqrSpec) -> ProblemDef:
    """Scalar LQR problem with exact analytic derivatives.

    The terminal stage charges only p_term x^2; the padded terminal control
    u_N carries zero cost and zero derivatives, so its gradient entry is
    exactly zero.
    """
    a, b, q, r, pt, n_last = spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N

    def dynamics(x, u, k):
        return np.array([a * x[0] + b * u[0]])

    def stage_cost(x, u, ks):
        return np.where(ks < n_last, q * x[:, 0] ** 2 + r * u[:, 0] ** 2,
                        pt * x[:, 0] ** 2)

    def d_dynamics(x, u, ks):
        return np.full((len(ks), 1, 1), a), np.full((len(ks), 1, 1), b)

    def d_stage_cost(x, u, ks):
        run = (ks < n_last)[:, None]
        return (np.where(run, 2.0 * q, 2.0 * pt) * x,
                np.where(run, 2.0 * r * u, 0.0))

    def dd_stage_cost(x, u, ks):
        run = (ks < n_last)[:, None, None]
        return (np.where(run, 2.0 * q, 2.0 * pt), np.zeros((len(ks), 1, 1)),
                np.where(run, 2.0 * r, 0.0))

    def dd_dynamics_contracted(w, x, u, ks):
        zero = np.zeros((len(ks), 1, 1))
        return zero, zero, zero

    return ProblemDef(
        dims=Dims(n=1, m=1, N=n_last),
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=d_dynamics,
        d_stage_cost=d_stage_cost,
        dd_stage_cost=dd_stage_cost,
        dd_dynamics_contracted=dd_dynamics_contracted,
    )


@dataclass(frozen=True)
class CircleReference:
    """Circular reference trajectory traversed at constant angular rate;
    the center entries and angular_rate are finite, radius finite and > 0."""

    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    angular_rate: float = 0.3

    def __post_init__(self):
        for i, c in enumerate(self.center):
            check_finite(c, f"center[{i}]")
        check_positive(self.radius, "radius")
        check_finite(self.angular_rate, "angular_rate")


@dataclass(frozen=True)
class WaypointTable:
    """Explicit per-step reference states (L, 3) and controls (L, 2)."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        c = np.asarray(self.controls, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"waypoint states must be (L, 3), got {s.shape}")
        if c.shape != (s.shape[0], 2):
            raise ValueError(
                f"waypoint controls must be ({s.shape[0]}, 2), got {c.shape}")
        for name, arr in (("states", s), ("controls", c)):
            if not np.isfinite(arr).all():
                raise ValueError(f"waypoint {name} must be finite")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "controls", c)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class UnicycleSpec:
    """Planar unicycle tracking scenario.

    State is [x (m), y (m), heading (rad)], controls are [speed (m/s),
    turn rate (rad/s)].  delta is the Euler step (finite and > 0), N the
    total number of plant steps, N_p the prediction horizon (both integers
    >= 1), X0 the finite start.  Q_weights/R_weights are the diagonal
    tracking weights: each Q weight finite and >= 0, each R weight finite
    and > 0; an error names the entry, e.g. X0[2].  The solver settings are
    not part of the scenario; the default SolverConfig() is what the
    benchmark runs use.
    """

    delta: float = 0.05
    N: int = 410
    N_p: int = 10
    X0: Tuple[float, float, float] = (1.0, 0.5, 1.0)
    Q_weights: Tuple[float, float, float] = (150.0, 150.0, 3.0)
    R_weights: Tuple[float, float] = (0.5, 0.5)
    reference: Union[CircleReference, WaypointTable] = field(
        default_factory=CircleReference
    )

    def __post_init__(self):
        check_positive(self.delta, "delta")
        check_count(self.N, 1, "N")
        check_count(self.N_p, 1, "N_p")
        for i, x in enumerate(self.X0):
            check_finite(x, f"X0[{i}]")
        for i, w in enumerate(self.Q_weights):
            check_positive(w, f"Q_weights[{i}]", zero_ok=True)
        for i, w in enumerate(self.R_weights):
            check_positive(w, f"R_weights[{i}]")


def circle_reference(circle: CircleReference, delta: float,
                     step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reference state and control at a given absolute step.

    At time t = step * delta the reference pose is the circle point with the
    heading tangent to it (quarter turn ahead of the radius angle, wrapped
    to (-pi, pi]); the reference controls are the constant speed
    radius * angular_rate and the angular rate itself.  This is reference_at
    of the circle scenario with that delta, so delta and step take its
    checks: delta finite and > 0, step an integer >= 0.
    """
    return reference_at(UnicycleSpec(delta=delta, reference=circle), step)


def _euler_states(state: list, controls: list, delta: float) -> list:
    # The one implementation of the unicycle kinematics: the K + 1 states
    # x_0..x_K, flat as [x, y, heading, x, ...], stepped by forward Euler
    # from state under the K [speed, turn rate] rows of controls.  Python
    # floats, as numpy scalar arithmetic would cost twice as much.
    # math.cos raises ValueError on an infinite heading; the states from
    # there on are NaN.
    px, py, heading = state
    flat = [px, py, heading]
    for speed, turn in controls:
        step = delta * speed
        try:
            px += step * math.cos(heading)
            py += step * math.sin(heading)
        except ValueError:
            flat += [math.nan] * (3 * len(controls) + 3 - len(flat))
            break
        heading += delta * turn
        flat += px, py, heading
    return flat


def unicycle_step(x: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """One forward-Euler step of the unicycle kinematics.

    Computed in Python floats, by the kinematics that the tracking
    problem's rollout iterates.  An ndarray is read through tolist() as it
    is, which gives the bits of its float64 values for any real dtype;
    anything else goes through check_state.  An infinite heading gives a
    NaN state.
    """
    x = x if type(x) is np.ndarray else check_state(x, 3, "x")
    u = u if type(u) is np.ndarray else check_state(u, 2, "u")
    try:
        return np.array(_euler_states(x.tolist(), [u.tolist()], delta)[3:])
    except (TypeError, ValueError):  # a wrong-shape ndarray: name it
        check_state(x, 3, "x")
        check_state(u, 2, "u")
        raise


def _reference_rows(spec: UnicycleSpec, first: int,
                    count: int) -> Tuple[np.ndarray, np.ndarray]:
    # Reference states and controls at steps first .. first + count - 1
    # (first >= 0), the one evaluation of a reference: a copied slice of the
    # waypoint table, which must reach the last step, so a problem keeps its
    # reference if the table's arrays change, or the circle over the steps.
    ref = spec.reference
    if isinstance(ref, WaypointTable):
        if first + count > len(ref):
            raise ValueError(f"waypoint table has {len(ref)} entries, no "
                             f"reference at step {first + count - 1}")
        return (ref.states[first:first + count].copy(),
                ref.controls[first:first + count].copy())
    cx, cy = ref.center
    w = ref.angular_rate
    phase = w * (np.arange(first, first + count) * spec.delta)
    xr = np.empty((count, 3))
    xr[:, 0] = cx + ref.radius * np.cos(phase)
    xr[:, 1] = cy + ref.radius * np.sin(phase)
    xr[:, 2] = wrap_angle(phase + 0.5 * np.pi)
    return xr, np.full((count, 2), (ref.radius * w, w), dtype=float)


def reference_at(spec: UnicycleSpec, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reference state and control of the scenario at an absolute step (an
    integer >= 0), from its waypoint table or its circle."""
    check_count(step, 0, "step")
    xr, ur = _reference_rows(spec, step, 1)
    return xr[0], ur[0]


def tracking_errors(spec: UnicycleSpec, states):
    """Reference states (K, 3), position errors and wrapped heading errors
    (both (K,)) of the (K, 3) states, row k taken at absolute step k.

    The reference rows come from one stacked evaluation and equal
    reference_at's bit for bit; the errors, hypot(x - x_r, y - y_r) and
    |wrap_angle(theta - theta_r)|, equal the per-step formula's.  A
    waypoint table with fewer than K rows raises reference_at's ValueError.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 3:
        raise ValueError(f"states must be (K, 3), got {states.shape}")
    ref, _ = _reference_rows(spec, 0, len(states))
    err = states - ref
    return ref, np.hypot(err[:, 0], err[:, 1]), np.abs(wrap_angle(err[:, 2]))


@lru_cache(maxsize=16)
def _tracking_tables(delta: float, q_bytes: bytes, r_bytes: bytes,
                     horizon: int) -> tuple:
    # The constant tables of build_unicycle_tracking's oracles.  The weights
    # come as the bytes of their float64 arrays, so -0.0 and 0.0 are
    # different keys.  The per-stage tables are indexed by ks, and take
    # copies them, so a caller may change what an oracle returns; the
    # oracles write only the entries that depend on the heading.  The R rows
    # are zero on the padded terminal control.
    qw, rw = np.frombuffer(q_bytes), np.frombuffer(r_bytes)
    r_cols = np.zeros((horizon + 1, 2, 1))
    r_cols[:horizon, :, 0] = rw
    r2_rows = 2.0 * r_cols[:, :, 0]
    fx_rows = np.repeat(np.eye(3)[None], horizon + 1, axis=0)
    fu_rows = np.zeros((horizon + 1, 3, 2))
    fu_rows[:, 2, 1] = delta
    q2 = 2.0 * qw
    tables = (qw[:, None], q2, r_cols, r2_rows, fx_rows, fu_rows,
              np.repeat(np.diag(q2)[None], horizon + 1, axis=0),
              r2_rows[:, :, None] * np.eye(2),
              np.zeros((horizon + 1, 3, 3)), np.zeros((horizon + 1, 3, 2)),
              np.zeros((horizon + 1, 2, 2)))
    for table in tables:
        table.flags.writeable = False
    return tables


def build_unicycle_tracking(spec: UnicycleSpec, anchor_step: int,
                            current_state, _shared: bool = True
                            ) -> ProblemDef:
    """Horizon tracking problem anchored at an absolute plant step.

    Stage k of the horizon tracks the reference at absolute step
    anchor_step + k.  Stages 0..N_p-1 charge the full quadratic tracking
    cost on state and control errors (heading error wrapped to (-pi, pi]);
    the terminal stage charges the state error only, so a finite padded
    terminal control has exactly zero cost and derivatives.  Its R weights
    are zero rather than masked out: a non-finite terminal control gives a
    non-finite cost, which the rollout reports as a blow-up.

    anchor_step is an integer >= 0.  A waypoint-table reference must cover
    the whole horizon (anchor_step + N_p within the table); the analytic
    circle extends to any step.  current_state is validated against the
    state dimension and otherwise unused here; the rollout start is
    supplied at solve time.  The stacked oracles look their reference rows
    and constant blocks up by ks, so ks must be stages 0..N_p; the constant
    blocks are built once per (delta, Q_weights, R_weights, N_p) and shared
    read-only by the problems so specified.  _shared=False (internal)
    builds them for this problem alone, so that they go when it goes.  The
    rollout oracle steps unicycle_step's kinematics over u.tolist() in
    Python floats and makes one array of the states at the end, so a
    rollout is one call, not N_p.
    """
    check_count(anchor_step, 0, "anchor_step")
    check_state(current_state, 3, "current_state")

    delta = spec.delta
    horizon = spec.N_p
    ref_x, ref_u = _reference_rows(spec, anchor_step, horizon + 1)
    (q_col, q2, r_cols, r2_rows, fx_rows, fu_rows, hess_x, hess_u, zero_xx,
     zero_xu, zero_uu) = (_tracking_tables if _shared
                          else _tracking_tables.__wrapped__)(
        float(delta), np.asarray(spec.Q_weights, dtype=float).tobytes(),
        np.asarray(spec.R_weights, dtype=float).tobytes(), horizon)

    def _state_error(x, ks):
        # wrap_angle's three operations in place on the heading column, so
        # its bits without its temporaries or a call.
        e = ref_x.take(ks, axis=0)
        np.subtract(x, e, out=e)
        heading = e[:, 2]
        np.subtract(np.pi, heading, out=heading)
        np.mod(heading, 2.0 * np.pi, out=heading)
        np.subtract(np.pi, heading, out=heading)
        return e

    def dynamics(x, u, k):
        return unicycle_step(x, u, delta)

    def rollout(x0, u):
        return np.array(_euler_states(x0.tolist(), u.tolist(),
                                      delta)).reshape(-1, 3)

    def stage_cost(x, u, ks):
        # q . ex^2 + r . eu^2, each batched as in _dot.
        ex = _state_error(x, ks)
        eu = u - ref_u.take(ks, axis=0)
        ex *= ex
        eu *= eu
        cost = ex[:, None, :] @ q_col
        cost += eu[:, None, :] @ r_cols.take(ks, axis=0)
        return cost[:, 0, 0]

    def d_dynamics(x, u, ks):
        s, c = np.sin(x[:, 2]), np.cos(x[:, 2])
        step = delta * u[:, 0]
        fx = fx_rows.take(ks, axis=0)
        np.multiply(-step, s, out=fx[:, 0, 2])
        np.multiply(step, c, out=fx[:, 1, 2])
        fu = fu_rows.take(ks, axis=0)
        np.multiply(delta, c, out=fu[:, 0, 0])
        np.multiply(delta, s, out=fu[:, 1, 0])
        return fx, fu

    def d_stage_cost(x, u, ks):
        cx = _state_error(x, ks)
        cx *= q2
        cu = r2_rows.take(ks, axis=0)
        cu *= u - ref_u.take(ks, axis=0)
        return cx, cu

    def dd_stage_cost(x, u, ks):
        return (hess_x.take(ks, axis=0), zero_xu.take(ks, axis=0),
                hess_u.take(ks, axis=0))

    def dd_dynamics_contracted(w, x, u, ks):
        # Nonzero second partials of the kinematics: d2x/dheading2,
        # d2x/dspeed dheading, and the same pair for y.
        s, c = np.sin(x[:, 2]), np.cos(x[:, 2])
        wxx = zero_xx.take(ks, axis=0)
        np.multiply(-delta * u[:, 0], w[:, 0] * c + w[:, 1] * s,
                    out=wxx[:, 2, 2])
        wxu = zero_xu.take(ks, axis=0)
        np.multiply(delta, w[:, 1] * c - w[:, 0] * s, out=wxu[:, 2, 0])
        return wxx, wxu, zero_uu.take(ks, axis=0)

    return ProblemDef(
        dims=Dims(n=3, m=2, N=horizon),
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=d_dynamics,
        d_stage_cost=d_stage_cost,
        dd_stage_cost=dd_stage_cost,
        dd_dynamics_contracted=dd_dynamics_contracted,
        rollout=rollout,
    )


def tracking_sampler(spec: UnicycleSpec, anchor_step: int = 0):
    """Sampler for derivative checks on tracking problems.

    Draws states and controls near the reference at the anchor step, with
    normal offsets of scale 0.4, where the quadratic tracking cost stays
    moderate (keeping finite-difference cancellation noise small) and the
    wrapped heading residual stays far from the seam.
    """
    xr, ur = reference_at(spec, anchor_step)

    def sample(rng: np.random.Generator, dims: Dims):
        return (xr + rng.normal(scale=0.4, size=3),
                ur + rng.normal(scale=0.4, size=2))

    return sample


def build_unicycle_plant(spec: UnicycleSpec) -> ProblemDef:
    """Full-length tracking problem over all N plant steps, anchored at 0.

    The receding-horizon driver only uses its dynamics, but having the full
    cost around makes open-loop comparisons cheap.  Its constant tables,
    N + 1 stages long, are its own rather than cached, so that they are
    freed with it.
    """
    return build_unicycle_tracking(replace(spec, N_p=spec.N), 0, spec.X0,
                                   _shared=False)


def random_smooth_problem(seed_or_rng, n: int, m: int, N: int) -> Tuple[ProblemDef, np.ndarray, np.ndarray]:
    """Seeded random smooth problem for validation harnesses.

    Dynamics are a linear map plus a small sinusoidal coupling; the stage
    cost is a positive quadratic plus a cosine ripple.  Both have
    nonvanishing third derivatives, which is what makes them useful for
    exercising the derivative sweeps.  Returns (problem, x0, z).  The map's
    A is drawn N(0, 1) * 0.6 / sqrt(n) entry by entry and is not made
    stable: at n = 1 about one draw in ten has |A| > 1, and its rollout
    can grow by orders of magnitude over the horizon.

    The rollout oracle is the one implementation of the dynamics: it steps
    the rows [x_k, u_k, 1] of one preallocated buffer with one product of
    M = [[A, B, 0], [D, E, phase]] per stage, and dynamics is its one-row
    call, so the two agree bit for bit.  A state that overflows or turns
    NaN carries on quietly into the rows after it, and a stage cost that
    overflows is returned as it is; neither raises a RuntimeWarning.
    """
    rng = np.random.default_rng(seed_or_rng)  # a Generator passes as it is
    dims = Dims(n=n, m=m, N=N)

    amat = rng.normal(size=(n, n)) * (0.6 / np.sqrt(n))
    bmat = rng.normal(size=(n, m)) * (0.6 / np.sqrt(m))
    samp = rng.uniform(0.05, 0.2, size=n)
    dvec = rng.normal(size=(n, n)) * 0.5
    evec = rng.normal(size=(n, m)) * 0.5
    phase = rng.uniform(-np.pi, np.pi, size=n)

    gq = rng.normal(size=(n, n))
    qmat = gq.T @ gq / n + 0.3 * np.eye(n)
    gr = rng.normal(size=(m, m))
    rmat = gr.T @ gr / m + 0.3 * np.eye(m)
    qlin = rng.normal(size=n) * 0.3
    rlin = rng.normal(size=m) * 0.3
    kappa = rng.uniform(0.05, 0.2)
    wx = rng.normal(size=n) * 0.5
    wu = rng.normal(size=m) * 0.5

    # M = [[A, B, 0], [D, E, phase]]: one product with a row [x, u, 1]
    # gives a stage's linear part and its sine argument together.
    mat = np.block([[amat, bmat, np.zeros((n, 1))],
                    [dvec, evec, phase[:, None]]])

    def _smooth_states(x0, u):
        # The K + 1 states x_0..x_K from x0 under the K control rows of u,
        # each step (A x + B u) + samp * sin((D x + E u) + phase), stepped
        # in the rows [x_k, u_k, 1] of one buffer.  dynamics is the one-row
        # call, so it gives a rollout's rows bit for bit.
        buf = np.empty((len(u) + 1, n + m + 1))
        buf[0, :n] = x0
        buf[:-1, n:-1] = u
        buf[:, -1] = 1.0
        y = np.empty(2 * n)
        lin, s = y[:n], y[n:]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(len(u)):
                mat.dot(buf[k], out=y)
                np.sin(s, out=s)
                s *= samp
                np.add(lin, s, out=buf[k + 1, :n])
        return buf[:, :n].copy()

    def dynamics(x, u, k):
        return _smooth_states(x, np.asarray(u, dtype=float)[None])[1]

    def _args(x, u):
        return _matvec(dvec, x) + _matvec(evec, u) + phase

    def d_dynamics(x, u, ks):
        sc = (samp * np.cos(_args(x, u)))[:, :, None]
        return amat + sc * dvec, bmat + sc * evec

    def _sym(a):
        return 0.5 * (a + a.transpose(0, 2, 1))

    def dd_dynamics_contracted(w, x, u, ks):
        coef = (w * (-samp * np.sin(_args(x, u))))[:, :, None]
        dw = (dvec * coef).transpose(0, 2, 1)
        ew = (evec * coef).transpose(0, 2, 1)
        return _sym(dw @ dvec), dw @ evec, _sym(ew @ evec)

    def _ripple(x, u):
        return _dot(wx, x) + _dot(wu, u)

    def stage_cost(x, u, ks):
        # Quiet as the rollout is: a cost that overflows is non-finite, and
        # roll_forward names its stage.
        with np.errstate(over="ignore", invalid="ignore"):
            return (_half_quad(qmat, x) + _half_quad(rmat, u)
                    + _dot(qlin, x) + _dot(rlin, u)
                    + kappa * np.cos(_ripple(x, u)))

    def d_stage_cost(x, u, ks):
        s = (kappa * np.sin(_ripple(x, u)))[:, None]
        return (_matvec(qmat, x) + qlin - s * wx,
                _matvec(rmat, u) + rlin - s * wu)

    def dd_stage_cost(x, u, ks):
        c = (kappa * np.cos(_ripple(x, u)))[:, None, None]
        return (qmat - c * np.outer(wx, wx), -c * np.outer(wx, wu),
                rmat - c * np.outer(wu, wu))

    prob = ProblemDef(
        dims=dims,
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=d_dynamics,
        d_stage_cost=d_stage_cost,
        dd_stage_cost=dd_stage_cost,
        dd_dynamics_contracted=dd_dynamics_contracted,
        rollout=_smooth_states,
    )
    x0 = rng.normal(size=n)
    z = rng.normal(scale=0.5, size=dims.z_len)
    return prob, x0, z
