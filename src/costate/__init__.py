"""Discrete-time nonlinear optimal control.

Exact gradients of the rollout cost from a forward/backward costate sweep,
exact Hessian-vector products from second-order sweeps over the same
snapshot, a regularized second-order iteration with a deepening inner
recursion, and a receding-horizon driver, plus bundled scenarios and
independent oracles for validating all of it.
"""

from .adjoint import AdjointSolution, adjoint_along, forward_adjoint, gradient
from .curvature import (AsymmetricHessianError, CurvatureOracleError, hessian,
                        hessian_product, stage_curvature)
from .mpc import MpcConfig, MpcTrace, WarmStart, run_mpc
from .oracles import (RiccatiSolution, fd_consistency, fd_gradient, fd_hessian,
                      max_rel_error, riccati_lqr)
from .problem import (DimensionMismatchError, Dims, NumericalBlowupError,
                      ProblemDef, Rollout, eval_cost, flat_index,
                      make_fd_problem, one_row, roll_forward,
                      stage_controls)
from .scenarios import (CircleReference, LqrSpec, UnicycleSpec, WaypointTable,
                        build_lqr, build_unicycle_plant,
                        build_unicycle_tracking, circle_reference,
                        random_smooth_problem, reference_at, tracking_errors,
                        unicycle_step, wrap_angle)
from .solver import (LinearSolveError, SolveReport, SolverConfig, Termination,
                     minimize, minimize_gd, step_direction)

__all__ = [
    "AdjointSolution", "AsymmetricHessianError", "CircleReference",
    "CurvatureOracleError", "DimensionMismatchError", "Dims",
    "LinearSolveError", "LqrSpec", "MpcConfig", "MpcTrace",
    "NumericalBlowupError", "ProblemDef", "RiccatiSolution", "Rollout",
    "SolveReport", "SolverConfig", "Termination",
    "UnicycleSpec", "WarmStart", "WaypointTable",
    "adjoint_along", "build_lqr", "build_unicycle_plant",
    "build_unicycle_tracking", "circle_reference", "eval_cost",
    "fd_consistency", "fd_gradient", "fd_hessian", "flat_index",
    "forward_adjoint", "gradient", "hessian", "hessian_product",
    "make_fd_problem", "max_rel_error", "minimize", "minimize_gd", "one_row",
    "random_smooth_problem", "reference_at", "riccati_lqr", "roll_forward",
    "run_mpc", "stage_controls", "stage_curvature",
    "step_direction", "tracking_errors",
    "unicycle_step", "wrap_angle",
]

__version__ = "0.1.0"
