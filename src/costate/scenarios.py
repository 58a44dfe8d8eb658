"""Bundled problem builders.

Two families: a scalar linear-quadratic regulator with exact analytic
derivatives, and planar unicycle trajectory tracking (forward-Euler
kinematics, quadratic tracking cost against a circle or a waypoint table).
A seeded random smooth problem generator for validation harnesses lives
here too.

The circle parameters are this library's documented defaults: center at the
origin, radius 1 m, angular rate 0.3 rad/s.  They are plain config values
and can be overridden freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple, Union

import numpy as np

from .problem import Dims, ProblemDef, check_state


def wrap_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - a, 2.0 * np.pi))


@dataclass(frozen=True)
class LqrSpec:
    """Scalar linear-quadratic problem: x' = a x + b u, running cost
    q x^2 + r u^2, terminal cost p_term x_N^2."""

    a: float = 1.8
    b: float = 0.9
    q: float = 1.0
    r: float = 3.0
    p_term: float = 3.0
    N: int = 15
    x0: float = 1.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if self.p_term < 0:
            raise ValueError(f"p_term must be >= 0, got {self.p_term}")
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")


def build_lqr(spec: LqrSpec) -> ProblemDef:
    """Scalar LQR problem with exact analytic derivatives.

    The terminal stage charges only p_term x^2; the padded terminal control
    u_N carries zero cost and zero derivatives, so its gradient entry is
    exactly zero.
    """
    a, b, q, r, pt, n_last = spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N
    fx = np.array([[a]])
    fu = np.array([[b]])
    zero11 = np.zeros((1, 1))

    def dynamics(x, u, k):
        return np.array([a * x[0] + b * u[0]])

    def stage_cost(x, u, k):
        if k < n_last:
            return q * x[0] ** 2 + r * u[0] ** 2
        return pt * x[0] ** 2

    def d_dynamics(x, u, k):
        return fx, fu

    def d_stage_cost(x, u, k):
        if k < n_last:
            return np.array([2.0 * q * x[0]]), np.array([2.0 * r * u[0]])
        return np.array([2.0 * pt * x[0]]), np.zeros(1)

    def dd_stage_cost(x, u, k):
        if k < n_last:
            return np.array([[2.0 * q]]), zero11, np.array([[2.0 * r]])
        return np.array([[2.0 * pt]]), zero11, zero11

    def dd_dynamics_contracted(w, x, u, k):
        return zero11, zero11, zero11

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
    """Circular reference trajectory traversed at constant angular rate."""

    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    angular_rate: float = 0.3

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")


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
                f"waypoint controls must be ({s.shape[0]}, 2), got {c.shape}"
            )
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
    turn rate (rad/s)].  delta is the Euler step, N the total number of
    plant steps, N_p the prediction horizon.  Q_weights/R_weights are the
    diagonal tracking weights.  The solver settings are not part of the
    scenario; the default SolverConfig() is what the benchmark runs use.
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
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.N_p < 1:
            raise ValueError(f"N_p must be >= 1, got {self.N_p}")
        if any(w < 0 for w in self.Q_weights):
            raise ValueError("Q_weights must be non-negative")
        if any(w <= 0 for w in self.R_weights):
            raise ValueError("R_weights must be strictly positive")


def circle_reference(circle: CircleReference, delta: float,
                     step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reference state and control at a given absolute step.

    At time t = step * delta the reference pose is the circle point with the
    heading tangent to it (quarter turn ahead of the radius angle, wrapped
    to (-pi, pi]); the reference controls are the constant speed
    radius * angular_rate and the angular rate itself.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    cx, cy = circle.center
    w = circle.angular_rate
    t = step * delta
    phase = w * t
    xr = np.array([
        cx + circle.radius * np.cos(phase),
        cy + circle.radius * np.sin(phase),
        wrap_angle(phase + 0.5 * np.pi),
    ])
    ur = np.array([circle.radius * w, w])
    return xr, ur


def euler_rolled_reference(circle: CircleReference, delta: float,
                           n_steps: int) -> WaypointTable:
    """Waypoint table obtained by rolling the Euler kinematics from the
    circle's starting pose under the constant reference controls.

    Unlike the analytic circle, this table satisfies the discrete dynamics
    exactly, so a plant started on it with the reference controls stays on
    it to machine precision.
    """
    x0, u0 = circle_reference(circle, delta, 0)
    states = np.empty((n_steps + 1, 3))
    controls = np.tile(u0, (n_steps + 1, 1))
    states[0] = x0
    for k in range(n_steps):
        states[k + 1] = unicycle_step(states[k], controls[k], delta)
    return WaypointTable(states=states, controls=controls)


def unicycle_step(x: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """One forward-Euler step of the unicycle kinematics."""
    return np.array([
        x[0] + delta * u[0] * np.cos(x[2]),
        x[1] + delta * u[0] * np.sin(x[2]),
        x[2] + delta * u[1],
    ])


def reference_at(spec: UnicycleSpec, step: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reference state and control of the scenario at an absolute step,
    from its waypoint table or its circle."""
    ref = spec.reference
    if isinstance(ref, WaypointTable):
        if step >= len(ref):
            raise ValueError(
                f"waypoint table has {len(ref)} entries, no reference at step {step}"
            )
        return ref.states[step], ref.controls[step]
    return circle_reference(ref, spec.delta, step)


def build_unicycle_tracking(spec: UnicycleSpec, anchor_step: int,
                            current_state) -> ProblemDef:
    """Horizon tracking problem anchored at an absolute plant step.

    Stage k of the horizon tracks the reference at absolute step
    anchor_step + k.  Stages 0..N_p-1 charge the full quadratic tracking
    cost on state and control errors (heading error wrapped to (-pi, pi]);
    the terminal stage charges the state error only, so the padded terminal
    control has exactly zero cost and derivatives.

    A waypoint-table reference must cover the whole horizon
    (anchor_step + N_p within the table); the analytic circle extends to any
    step.  current_state is validated against the state dimension and
    otherwise unused here; the rollout start is supplied at solve time.
    """
    if anchor_step < 0:
        raise ValueError(f"anchor_step must be >= 0, got {anchor_step}")
    if isinstance(spec.reference, WaypointTable):
        if anchor_step + spec.N_p >= len(spec.reference):
            raise ValueError(
                f"anchor_step {anchor_step} + horizon {spec.N_p} exceeds the "
                f"waypoint table ({len(spec.reference)} entries)"
            )
    check_state(current_state, 3, "current_state")

    delta = spec.delta
    qw = np.asarray(spec.Q_weights, dtype=float)
    rw = np.asarray(spec.R_weights, dtype=float)
    horizon = spec.N_p
    refs = [reference_at(spec, anchor_step + k) for k in range(horizon + 1)]

    def _state_error(x, k):
        xr = refs[k][0]
        return np.array([x[0] - xr[0], x[1] - xr[1], wrap_angle(x[2] - xr[2])])

    def dynamics(x, u, k):
        return unicycle_step(x, u, delta)

    def stage_cost(x, u, k):
        ex = _state_error(x, k)
        cost = float(qw @ (ex * ex))
        if k < horizon:
            eu = u - refs[k][1]
            cost += float(rw @ (eu * eu))
        return cost

    def d_dynamics(x, u, k):
        s, c = np.sin(x[2]), np.cos(x[2])
        fx = np.array([
            [1.0, 0.0, -delta * u[0] * s],
            [0.0, 1.0, delta * u[0] * c],
            [0.0, 0.0, 1.0],
        ])
        fu = np.array([
            [delta * c, 0.0],
            [delta * s, 0.0],
            [0.0, delta],
        ])
        return fx, fu

    def d_stage_cost(x, u, k):
        cx = 2.0 * qw * _state_error(x, k)
        if k < horizon:
            cu = 2.0 * rw * (u - refs[k][1])
        else:
            cu = np.zeros(2)
        return cx, cu

    def dd_stage_cost(x, u, k):
        cuu = np.diag(2.0 * rw) if k < horizon else np.zeros((2, 2))
        return np.diag(2.0 * qw), np.zeros((3, 2)), cuu

    def dd_dynamics_contracted(w, x, u, k):
        # Nonzero second partials of the kinematics: d2x/dheading2,
        # d2x/dspeed dheading, and the same pair for y.
        s, c = np.sin(x[2]), np.cos(x[2])
        wxx = np.zeros((3, 3))
        wxx[2, 2] = -delta * u[0] * (w[0] * c + w[1] * s)
        wxu = np.zeros((3, 2))
        wxu[2, 0] = delta * (w[1] * c - w[0] * s)
        return wxx, wxu, np.zeros((2, 2))

    return ProblemDef(
        dims=Dims(n=3, m=2, N=horizon),
        dynamics=dynamics,
        stage_cost=stage_cost,
        d_dynamics=d_dynamics,
        d_stage_cost=d_stage_cost,
        dd_stage_cost=dd_stage_cost,
        dd_dynamics_contracted=dd_dynamics_contracted,
    )


def tracking_sampler(spec: UnicycleSpec, anchor_step: int = 0,
                     scale: float = 0.4):
    """Sampler for derivative checks on tracking problems.

    Draws states and controls near the reference at the anchor step, where
    the quadratic tracking cost stays moderate (keeping finite-difference
    cancellation noise small) and the wrapped heading residual stays far
    from the seam.
    """
    xr, ur = reference_at(spec, anchor_step)

    def sample(rng: np.random.Generator, dims: Dims):
        return (xr + rng.normal(scale=scale, size=3),
                ur + rng.normal(scale=scale, size=2))

    return sample


def build_unicycle_plant(spec: UnicycleSpec) -> ProblemDef:
    """Full-length tracking problem over all N plant steps, anchored at 0.

    The receding-horizon driver only uses its dynamics, but having the full
    cost around makes open-loop comparisons cheap.
    """
    return build_unicycle_tracking(replace(spec, N_p=spec.N), 0, spec.X0)


def random_smooth_problem(seed_or_rng, n: int, m: int, N: int) -> Tuple[ProblemDef, np.ndarray, np.ndarray]:
    """Seeded random smooth problem for validation harnesses.

    Dynamics are a stable linear map plus a small sinusoidal coupling; the
    stage cost is a positive quadratic plus a cosine ripple.  Both have
    nonvanishing third derivatives, which is what makes them useful for
    exercising the derivative sweeps.  Returns (problem, x0, z).
    """
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator) else seed_or_rng
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

    def _args(x, u):
        return dvec @ x + evec @ u + phase

    def dynamics(x, u, k):
        return amat @ x + bmat @ u + samp * np.sin(_args(x, u))

    def d_dynamics(x, u, k):
        sc = samp * np.cos(_args(x, u))
        return amat + sc[:, None] * dvec, bmat + sc[:, None] * evec

    def dd_dynamics_contracted(w, x, u, k):
        coef = w * (-samp * np.sin(_args(x, u)))
        wxx = (dvec * coef[:, None]).T @ dvec
        wxu = (dvec * coef[:, None]).T @ evec
        wuu = (evec * coef[:, None]).T @ evec
        return 0.5 * (wxx + wxx.T), wxu, 0.5 * (wuu + wuu.T)

    def _ripple(x, u):
        return wx @ x + wu @ u

    def stage_cost(x, u, k):
        return float(
            0.5 * x @ qmat @ x + 0.5 * u @ rmat @ u + qlin @ x + rlin @ u
            + kappa * np.cos(_ripple(x, u))
        )

    def d_stage_cost(x, u, k):
        s = kappa * np.sin(_ripple(x, u))
        return qmat @ x + qlin - s * wx, rmat @ u + rlin - s * wu

    def dd_stage_cost(x, u, k):
        c = kappa * np.cos(_ripple(x, u))
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
    )
    x0 = rng.normal(size=n)
    z = rng.normal(scale=0.5, size=dims.z_len)
    return prob, x0, z
