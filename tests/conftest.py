import numpy as np
import pytest

from costate import Dims, LqrSpec, ProblemDef, build_lqr


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
