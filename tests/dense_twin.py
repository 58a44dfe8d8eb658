"""minimize's iteration written again on dense matrices, as a referee.

The twin reads only the documented schedule of costate.solver.minimize and
the public dense oracles: forward_adjoint for the cost and the gradient,
hessian() for H, np.linalg.cholesky for the definiteness of R + H and
np.linalg.solve for each inner level.  Its constants are written out here
rather than imported, so that a changed constant in the library disagrees
with it.  No StagewiseFactor, band or block order is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from costate import (NumericalBlowupError, forward_adjoint, hessian,
                     roll_forward)

REG_GROW = 10.0
REG_SHRINK = 3.0
REG_MAX = 1e8
COST_SLACK = 1e-12


@dataclass
class Attempt:
    """One try at a step: its outer iteration, r, depth and outcome.

    outcome is "accept", "factor" (R + H not positive definite), "finite"
    (a direction entry not finite) or "cost" (the trial cost blew up or
    rose past its bound).  margin is how far the decision sat from flipping,
    relative: |lambda_min(R + H)| / (1 + max|R + H|) for a failed
    definiteness test, and the smaller of that and |trial - bound| /
    (1 + |cost|) for a priced trial.
    """

    outer: int
    r: float
    depth: int
    outcome: str
    margin: float


@dataclass
class Run:
    z_final: np.ndarray
    termination: str
    costs: list = field(default_factory=list)
    gnorms: list = field(default_factory=list)
    attempts: list = field(default_factory=list)


def minimize_dense(p, x0, z0, cfg) -> Run:
    """The twin of minimize(p, x0, z0, cfg); a LinearSolveError of minimize
    is the termination "LinearSolveFailure" here."""
    z = np.array(z0, dtype=float, copy=True)
    run = Run(z, "")
    r, i = cfg.r_reg, 0
    eye = np.eye(z.size)
    while True:
        roll, adj = forward_adjoint(p, x0, z)
        g, cost = adj.gradient, roll.total_cost
        gnorm = float(np.abs(g).max(initial=0.0))
        run.costs.append(cost)
        run.gnorms.append(gnorm)
        run.z_final = z
        if gnorm < cfg.grad_tol:
            run.termination = "Converged"
            return run
        if i == cfg.max_outer:
            run.termination = "MaxIters"
            return run
        h = hessian(p, x0, z)
        depth = min(i, cfg.inner_depth_cap)
        bound = cost + COST_SLACK * (1.0 + abs(cost))
        while True:
            a = h + r * eye
            margin = abs(np.linalg.eigvalsh(a)[0]) / (1.0 + np.abs(a).max())
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                outcome = "factor"
            else:
                d = np.linalg.solve(a, g)
                for _ in range(depth):
                    d = np.linalg.solve(a, g + r * d)
                if not np.isfinite(d).all():
                    outcome = "finite"
                else:
                    try:
                        trial = roll_forward(p, x0, z - d).total_cost
                    except NumericalBlowupError:
                        trial = float("inf")
                    margin = min(margin,
                                 abs(trial - bound) / (1.0 + abs(cost)))
                    outcome = "accept" if trial <= bound else "cost"
            run.attempts.append(Attempt(i, r, depth, outcome, margin))
            if outcome == "accept":
                break
            if r * REG_GROW > REG_MAX:
                run.termination = "LinearSolveFailure"
                return run
            r *= REG_GROW
        z = z - d
        r = max(cfg.r_reg, r / REG_SHRINK)
        i += 1
