import numpy as np
import pytest

from costate import (Dims, LqrSpec, ProblemDef, UnicycleSpec, WaypointTable,
                     build_lqr, build_unicycle_tracking, reference_at)


@pytest.fixture
def lqr1() -> ProblemDef:
    """Two-stage scalar LQR (a=1.8, b=0.9, q=1, r=3, p_term=3, N=1)."""
    return build_lqr(LqrSpec(N=1))


@pytest.fixture
def lqr15() -> ProblemDef:
    """The 16-stage scalar LQR benchmark scenario."""
    return build_lqr(LqrSpec())


def zero_cost_problem(n=2, m=1, N=4) -> ProblemDef:
    """Linear dynamics with identically zero cost, analytic oracles."""
    a = np.eye(n) * 0.9
    b = np.ones((n, m)) * 0.3

    return ProblemDef.from_stagewise(
        dims=Dims(n=n, m=m, N=N),
        dynamics=lambda x, u, k: a @ x + b @ u,
        stage_cost=lambda x, u, k: 0.0,
        d_dynamics=lambda x, u, k: (a, b),
        d_stage_cost=lambda x, u, k: (np.zeros(n), np.zeros(m)),
        dd_stage_cost=lambda x, u, k: (np.zeros((n, n)), np.zeros((n, m)),
                                       np.zeros((m, m))),
        dd_dynamics_contracted=lambda w, x, u, k: (np.zeros((n, n)),
                                                   np.zeros((n, m)),
                                                   np.zeros((m, m))),
    )


def rolled_table(circle, delta, n_steps) -> WaypointTable:
    """Waypoint table on the discrete unicycle kinematics: the tracking
    problem's rollout from the circle's start under the constant reference
    controls, over n_steps >= 1 steps of length delta."""
    spec = UnicycleSpec(delta=delta, N_p=n_steps, reference=circle)
    x0, u0 = reference_at(spec, 0)
    controls = np.tile(u0, (n_steps + 1, 1))
    states = build_unicycle_tracking(spec, 0, x0).rollout(x0,
                                                          controls[:n_steps])
    return WaypointTable(states=states, controls=controls)
