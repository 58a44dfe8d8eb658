"""Discrete-time nonlinear optimal control.

Exact gradients of the rollout cost from a forward/backward costate sweep,
exact Hessians from second-order sweeps over the same snapshot, a
regularized second-order iteration with a deepening inner recursion, and a
receding-horizon driver, plus bundled scenarios and independent oracles for
validating all of it.
"""

from .adjoint import AdjointSolution, backward_costates, forward_adjoint, gradient, hamiltonian
from .curvature import (AsymmetricHessianError, CurvatureOracleError, RowIndex,
                        SecondOrderPass, hessian, hessian_row, raw_hessian)
from .mpc import MpcConfig, MpcTrace, WarmStart, run_mpc
from .oracles import (RiccatiSolution, fd_consistency, fd_gradient, fd_hessian,
                      max_rel_error, riccati_lqr)
from .problem import (DimensionMismatchError, Dims, NumericalBlowupError,
                      ProblemDef, Rollout, eval_cost, flat_index,
                      make_fd_problem, roll_forward, stage_controls)
from .scenarios import (CircleReference, LqrSpec, UnicycleSpec, WaypointTable,
                        build_lqr, build_unicycle_plant,
                        build_unicycle_tracking, circle_reference,
                        euler_rolled_reference, random_smooth_problem,
                        reference_at, unicycle_step, wrap_angle)
from .solver import (LinearSolveError, SolveReport, SolverConfig, Termination,
                     minimize, minimize_gd, step_direction)

__all__ = [
    "AdjointSolution", "AsymmetricHessianError", "CircleReference",
    "CurvatureOracleError", "DimensionMismatchError", "Dims",
    "LinearSolveError", "LqrSpec", "MpcConfig", "MpcTrace",
    "NumericalBlowupError", "ProblemDef", "RiccatiSolution", "Rollout",
    "RowIndex", "SecondOrderPass", "SolveReport", "SolverConfig",
    "Termination", "UnicycleSpec", "WarmStart", "WaypointTable",
    "backward_costates", "build_lqr", "build_unicycle_plant",
    "build_unicycle_tracking", "circle_reference", "eval_cost",
    "euler_rolled_reference", "fd_consistency", "fd_gradient", "fd_hessian",
    "flat_index", "forward_adjoint", "gradient", "hamiltonian", "hessian",
    "hessian_row", "make_fd_problem", "max_rel_error", "minimize",
    "minimize_gd", "random_smooth_problem", "raw_hessian", "reference_at",
    "riccati_lqr", "roll_forward", "run_mpc", "stage_controls",
    "step_direction", "unicycle_step", "wrap_angle",
]

__version__ = "0.1.0"
