"""Minimization of the rollout cost over the flat control vector.

The main method updates z by a direction obtained from a regularized
second-order system (R + H) d = g, R = r_reg * I: one factorization per
outer iteration, reused across an inner recursion whose depth grows with
the outer iteration count.  Each inner level feeds the previous direction
back through the factorization, so the direction approaches the exact
Newton step geometrically; with the depth schedule the overall iteration
converges superlinearly.  There is no line search: a step that cannot be
trusted ((R + H) fails to factor, or the trial cost blows up or increases)
is retried with a larger regularizer, which minimize carries across outer
iterations as a Levenberg-Marquardt damping.

(R + H) d = g is the optimality condition of a linear-quadratic subproblem
along the rollout, so StagewiseFactor factors it by a backward Riccati
recursion over blocks of stages, from the stage Hamiltonian Hessians of
curvature.stage_curvature and the dynamics Jacobians of the costate sweep.
A horizon of up to 2 B_MAX stages is one block, and a solve against it is
one product with its pivot's inverse.  A longer one is cut into blocks of
up to B_MAX stages and solved against with two banded passes:
O(N (n+mB)^3 / B) time and O(N (n+m)(n+mB)) memory.  No matrix is larger
than (n + 2 m B_MAX)^2.

Each iterate is rolled out once.  The rollout that prices a trial point is
kept when the point is accepted and becomes the next iteration's snapshot,
on which only the backward costate sweep runs.  The factorization's
buffers are a workspace bound once per solve, or once per closed loop by
run_mpc, and refilled in place by every outer iteration and escalation
retry.

A plain gradient-descent baseline with identical instrumentation is
provided for iteration-count comparisons.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from .adjoint import AdjointSolution, adjoint_along, forward_adjoint
from .curvature import check_curvature, stage_curvature, symmetric_part
from .problem import (BlockBidiagonal, NumericalBlowupError, ProblemDef,
                      check_count, check_finite_stages, check_positive,
                      check_state, dposv, roll_forward, squares_finite)
# Neither is called here; perfbench/tracing.py wraps both as
# costate.solver.hessian_with and costate.solver.eval_cost.
from .curvature import hessian_with  # noqa: F401
from .problem import eval_cost  # noqa: F401

log = logging.getLogger(__name__)

# minimize's regularizer schedule, described in its docstring.
REG_GROW = 10.0
REG_SHRINK = 3.0
REG_MAX = 1e8

# Most stages per block of StagewiseFactor's partially condensed Riccati
# recursion on a horizon of over 2 B_MAX stages; a shorter one is one block.
# Larger blocks take fewer pivot iterations but more flops per block,
# (n + m B)^3 against B (n + m)^3, and each factor makes B batched
# sensitivity products, one per position in a block; tools/block_sweep.py
# times the trade-off, and CHANGES.md records the sweeps behind this value.
B_MAX = 8


class Termination(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    LINEAR_SOLVE_FAILURE = "LinearSolveFailure"
    DIVERGED = "Diverged"


class LinearSolveError(RuntimeError):
    """(R + H) could not be factored, or no trial step was acceptable.

    Attributes:
        report: the partial report when raised by minimize, else None.
        stage: the stage whose Riccati pivot failed to factor; None when
            the last trial step blew up or raised the cost.
    """

    def __init__(self, message: str, report: Optional["SolveReport"] = None,
                 stage: Optional[int] = None):
        self.report = report
        self.stage = stage
        super().__init__(message)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning for the second-order iteration.

    Attributes:
        r_reg: regularizer, a finite scalar > 0; R is r_reg times the
            identity.
        grad_tol: stop when the max-abs gradient entry drops below this
            finite positive value.
        max_outer: outer iteration budget, an integer >= 1.
        inner_depth_cap: bound on the inner recursion depth, an integer
            >= 0: outer iteration i < max_outer recurses to min(i, cap),
            so any cap >= max_outer is the uncapped schedule depth = i.
            Deep inner loops add nothing past roundoff, so the default cap
            is cheap and safe.
    """

    r_reg: float = 0.1
    grad_tol: float = 1e-6
    max_outer: int = 50
    inner_depth_cap: int = 20

    def __post_init__(self):
        check_positive(self.r_reg, "r_reg")
        check_positive(self.grad_tol, "grad_tol")
        check_count(self.max_outer, 1, "max_outer")
        check_count(self.inner_depth_cap, 0, "inner_depth_cap")


@dataclass
class SolveReport:
    """Iteration record.

    grad_norm_history and cost_history hold one entry per outer evaluation,
    the final (terminating) evaluation included; on Converged the last
    gradient norm is below grad_tol.  inner_iters_total counts linear solves
    against the factorizations: depth + 1 per successful factorization, a
    trial rejected for its cost included; a failed one adds none.
    """

    z_final: np.ndarray
    outer_iters: int
    inner_iters_total: int
    grad_norm_history: np.ndarray
    cost_history: np.ndarray
    termination: Termination
    wall_time: float


class StagewiseFactor:
    """Backward Riccati factorization of (R + H) over blocks of stages.

    (R + H) d = b is the optimality condition of the LQ subproblem

        minimize  sum_k 1/2 [dx_k; du_k]' Q_k [dx_k; du_k] - b_k' du_k
        subject   dx_{k+1} = f_x dx_k + f_u du_k,   dx_0 = 0,

    with Q_k the stage Hessian plus r_reg on its uu diagonal, and f_x, f_u
    the sweep's Jacobians, zero at stage N.  Partial condensing (Axehill,
    Syst. Control Lett. 76, 2015) folds the stages into nb blocks of B.  A
    horizon of N + 1 <= 2 B_MAX stages is one block, nb = 1 and B = N + 1;
    a longer one has nb = ceil((N+1) / B_MAX) >= 3 and B = ceil((N+1) / nb),
    the horizon padded after stage N with stages of zero Jacobians and zero
    curvature.  Block j, stages jB .. e_j = jB + B - 1, has the state
    dx_{jB} and the mB controls du_{e_j}, .., du_{jB}, last stage first.  At
    position i of the block, S_i = [T_i; E_i] maps those to
    [dx_{jB+i}; du_{jB+i}]: T_i = [Phi_i | Gamma_i] holds the state
    sensitivities and E_i the constant rows that select du_{jB+i}.  From
    T_0 = [I | 0], T_{i+1} = F_i S_i with F_i = [f_x | f_u] of stage jB + i,
    one batched product per position over all blocks.  Two more batched
    products form the block Hessians Qb_j = sum_i S_i' Q_i S_i, and R adds
    r_reg on their uu diagonal.  Block j is then a stage of the same LQ
    form, with state dimension n, control dimension mB and Jacobians
    F_j = T_B = [Phi_B | Gamma_B].

    Going backward over the blocks from P = 0, each adds the propagated
    cost-to-go curvature P to Qb_j and Cholesky-factors its control pivot;
    one solve against [Qb_ux | I] yields the feedback gain
    K_j = -Qb_uu^{-1} Qb_ux and Qb_uu^{-1} at once, and
    P_j = Qb_xx + Qb_xu K_j.  As a block's controls run last stage first,
    its Cholesky eliminates them in the stage-wise recursion's backward
    order, so its leading minors are the stage pivots: it succeeds exactly
    when they, and so R + H, are positive definite, and the first minor that
    fails, info, names stage e_j - (info - 1) // m.  A padded stage's pivot
    is r_reg * I.

    A solve is a costate sweep plus a linearized rollout on the closed-loop
    block Jacobians A_j = Phi_B + Gamma_B K_j, with b_j and du_j block j's
    entries in its control order.  Backward from s_nb = 0, the linear
    cost-to-go term is s_j = A_j' s_{j+1} - K_j' b_j and the feedforward
    kff_j = Qb_uu^{-1} (b_j - Gamma_B' s_{j+1}); forward from dx_0 = 0,
    dx_{j+1} = A_j dx_j + Gamma_B kff_j and du_j = kff_j + K_j dx_j.  Both
    recursions are one unit lower block-bidiagonal system, -A_1 .. -A_{nb-2}
    below its diagonal (problem.BlockBidiagonal, the costate sweep's
    geometry over the blocks), solved transposed for s_1..s_{nb-1} and as it
    is for dx_1..dx_{nb-1} (A_0 meets only dx_0 = 0 and s_0, which nothing
    reads, and A_{nb-1} = 0, the last block ending in stage N or a padded
    stage).  From three blocks, the fewest a longer horizon has, that
    system has couplings.  One block meets only s_1 = 0 and dx_0 = 0, so
    its solve is the one product du = kff_0 = Qb_uu^{-1} b.  solve takes b
    and returns du in block order; in_blocks and in_stages move a vector
    into that order and out of it with one index array, so
    step_direction's inner levels move each once.  Batched products apply
    the forcing terms, so a solve has no Python loop; its sums run in
    BLAS's order and agree with a stage-by-stage pass to roundoff.  A
    padded stage's entries of du are exactly zero.

    The object is a workspace sized by (N, n, m): its arrays, chiefly the
    s and qs stacks of (N+B)(n+m)(n+mB) floats each (2.9 MB in all at
    N = 800, n = 4, m = 2), and the per-block views and bound methods over
    them are made once and refilled in place by each factor() call; s
    keeps its E_i and T_0 rows from __init__.  Its largest matrix is a
    block Hessian Qb_j, at most (n + 2 m B_MAX)^2, on one block of 2 B_MAX
    stages.  minimize holds one for the whole solve and run_mpc one for the
    whole closed loop, so every outer iteration, escalation retry and plant
    step reuses it; a failed factorization leaves nothing the next one
    reads.  It also holds the costate sweep's BlockBidiagonal(N, n), sweep,
    which minimize lends adjoint_along.  Block j of the factor loop is

        P F_j -> pf;  F_j' pf -> fpf;  Qb_j += fpf;  Qb_ux -> rhs;
        dposv(Qb_uu, [Qb_ux | I]) -> x -> sol[j];  Qb_xu x[:, :n] -> schur;
        Qb_xx - schur -> P.

    The first block of the loop, nb - 1, meets P = 0 and skips the three P
    products; the last, block 0, skips the Schur update, as nothing reads
    its P; one block skips both.  Each product is an ndarray.dot bound
    once, writing into a preallocated output: np.dot's BLAS call without
    its Python-level dispatch and new temporary, which cost more than the
    arithmetic at these sizes.  One block's sensitivity products are 2-D
    ndarray.dot calls too, and it skips the last, F_0, which nothing reads.
    sol[j] = [-K_j | Qb_uu^{-1}]; after the loop one batched product and
    one subtraction write -A_j = Gamma_B (-K_j) - Phi_B into the system,
    when it has couplings.  One sum of squares over the sol stack sets
    finite, false when a pivot inverse overflowed, as a subnormal r's does;
    step_direction then runs its solves, whose direction minimize rejects,
    under np.errstate.
    """

    def __init__(self, horizon: int, n: int, m: int):
        stages = horizon + 1
        # Up to 2 B_MAX stages are one block, whose solve is one product.
        count = 1 if stages <= 2 * B_MAX else -(-stages // B_MAX)
        size = -(-stages // count)
        mb, cols = m * size, n + m * size
        self.stages, self.m = stages, m
        self.sweep = BlockBidiagonal(horizon, n)
        # Stage data over the padded horizon; the padded stages stay zero.
        self.q = np.zeros((count * size, n + m, n + m))
        fxu = np.zeros((count * size, n, n + m))
        self.f_x, self.f_u = fxu[:, :, :n], fxu[:, :, n:]
        # Position i's rows of the selector stack are S_i = [T_i; E_i]: the
        # state sensitivities, [I | 0] at position 0, over the constant rows
        # that select the stage's controls.
        s = np.zeros((count, size, n + m, cols))
        s[:, 0, :n, :n] = np.eye(n)
        for i in range(size):
            s[:, i, n:, n + (size - 1 - i) * m:n + (size - i) * m] = np.eye(m)
        self.s = s.reshape(-1, n + m, cols)
        self.s_block_t = s.reshape(count, -1, cols).transpose(0, 2, 1)
        self.qs = np.empty((count * size, n + m, cols))
        self.qs_block = self.qs.reshape(count, -1, cols)
        self.qb = np.empty((count, cols, cols))
        # The diagonals of the blocks' control pivots, Qb_uu.
        self.qb_uu_diag = self.qb.reshape(count, -1)[:, n * (cols + 1)::
                                                     cols + 1]
        fb = np.empty((count, n, cols))
        self.fb, self.phi, self.gam = fb, fb[:, :, :n], fb[:, :, n:]
        self.gam_t = self.gam.transpose(0, 2, 1)
        # T_{i+1} = F_i S_i, batched over the blocks, into the next
        # position's top rows; the last position's product is F_j.  One
        # block's products are 2-D ndarray.dot calls, as in the pivot loop,
        # and its F_0 is not formed: only P products and A_j read F_j.
        self.one_block = count == 1
        self.sens_mul = np.ndarray.dot if self.one_block else np.matmul
        j = 0 if self.one_block else slice(None)
        fxu_blocks = fxu.reshape(count, size, n, n + m)
        self.sens_steps = [(fxu_blocks[j, i], s[j, i], s[j, i + 1, :n])
                           for i in range(size - 1)]
        if not self.one_block:
            self.sens_steps.append((fxu_blocks[:, -1], s[:, -1], fb))
        sol = np.empty((count, mb, cols))
        self.sol, self.finite = sol, True
        self.neg_gain, self.quu_inv = sol[:, :, :n], sol[:, :, n:]
        self.neg_gain_t = self.neg_gain.transpose(0, 2, 1)
        self.rhs = np.empty((mb, cols))
        self.rhs_ux = self.rhs[:, :n]
        self.rhs[:, n:] = np.eye(mb)
        self.p = np.empty((n, n))
        self.pf = np.empty((n, cols))
        self.fpf = np.empty((cols, cols))
        self.schur = np.empty((n, n))
        self.blocks = []
        for j in range(count - 1, -1, -1):
            qj = self.qb[j]
            self.blocks.append((j * size + size - 1, qj, qj[n:, :n],
                                qj[n:, n:], qj[:n, :n], qj[:n, n:].dot,
                                sol[j], sol[j, :, :n], fb[j], fb[j].T.dot))
        # Entry k*m + c of a stage-ordered vector sits at order[k*m + c] of
        # the block-ordered one.
        k, c = np.divmod(np.arange(self.stages * m), m)
        self.order = k // size * mb + (size - 1 - k % size) * m + c
        self.system = BlockBidiagonal(count - 1, n)
        # Rows 0..nb hold s_j and dx_j.  The forcing products also write s_0
        # and dx_nb = Gamma_B kff_{nb-1}, which nothing reads; nothing writes
        # s_nb = 0 or dx_0 = 0 (the band solves stop at row nb - 1), nor the
        # padded stages' entries of b, which stay zero.
        s_vec = np.zeros((count + 1, n, 1))
        dx = np.zeros((count + 1, n, 1))
        self.s_now, self.s_next = s_vec[:-1], s_vec[1:]
        self.dx_now, self.dx_next = dx[:-1], dx[1:]
        self.s_flat, self.dx_flat = s_vec[1:].reshape(-1), dx[1:].reshape(-1)
        self.b = np.zeros((count, mb, 1))
        self.kff_rhs = np.empty((count, mb, 1))
        self.kff = np.empty((count, mb, 1))

    def factor(self, adj: AdjointSolution, c: np.ndarray, r: float) -> None:
        """Factor R + H at the snapshot (adj, c) with R = r * I.

        Raises NumericalBlowupError(k, "second-order stage data") for the
        first stage k of c with a non-finite entry, AsymmetricHessianError
        from the symmetry check of c, and LinearSolveError naming the stage
        whose pivot failed.
        """
        p, pf, fpf, schur = self.p, self.pf, self.fpf, self.schur
        rhs, rhs_ux, m = self.rhs, self.rhs_ux, self.m
        check_finite_stages(c, "second-order stage data")
        symmetric_part(c, out=self.q[:self.stages])
        self.f_x[:self.stages] = adj.fx
        self.f_u[:self.stages] = adj.fu
        mul = self.sens_mul
        for f_i, s_i, out in self.sens_steps:
            mul(f_i, s_i, out)
        np.matmul(self.q, self.s, out=self.qs)
        np.matmul(self.s_block_t, self.qs_block, out=self.qb)
        self.qb_uu_diag += r
        block0 = len(self.blocks) - 1
        for i, (last, qj, q_ux, q_uu, q_xx, q_xu_dot, sol_j, neg_gain_j, fj,
                fj_t_dot) in enumerate(self.blocks):
            if i:  # block nb - 1 meets P = 0
                p.dot(fj, pf)
                fj_t_dot(pf, fpf)
                qj += fpf
            rhs_ux[...] = q_ux
            _, x, info = dposv(q_uu, rhs, lower=1)
            if info:
                k = last - (info - 1) // m
                raise LinearSolveError(
                    f"(R + H) is not positive definite: the pivot of stage "
                    f"{k} failed to factor", stage=k)
            sol_j[...] = x
            if i < block0:  # nothing reads block 0's P
                q_xu_dot(neg_gain_j, schur)
                np.subtract(q_xx, schur, out=p)
        # A pivot as small as a subnormal r inverts to inf.  A sum that
        # overflows from finite gains only quiets their solves.
        self.finite = squares_finite(self.sol)
        neg_a = self.system.blocks
        if len(neg_a):
            np.matmul(self.gam[1:-1], self.neg_gain[1:-1], out=neg_a)
            np.subtract(neg_a, self.phi[1:-1], out=neg_a)

    def in_blocks(self, g: np.ndarray) -> np.ndarray:
        """The stage-ordered vector g as the (nb, mB, 1) block-ordered stack
        that solve takes, its padded stages' entries zero; the stack is a
        workspace buffer that the next in_blocks call overwrites."""
        self.b.reshape(-1)[self.order] = g
        return self.b

    def in_stages(self, du: np.ndarray) -> np.ndarray:
        """The block-ordered stack du as a stage-ordered vector, a copy."""
        return du.reshape(-1)[self.order]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """du solving (R + H) du = b against the last successful factor(),
        both (nb, mB, 1) stacks in block order; du is a new array."""
        if self.one_block:  # s_nb = 0 and dx_0 = 0: du = Qb_uu^{-1} b
            return np.matmul(self.quu_inv, b)
        rhs, kff = self.kff_rhs, self.kff
        np.matmul(self.neg_gain_t, b, out=self.s_now)
        self.system.solve(self.s_flat, 1)
        np.matmul(self.gam_t, self.s_next, out=rhs)
        np.subtract(b, rhs, out=rhs)
        np.matmul(self.quu_inv, rhs, out=kff)
        np.matmul(self.gam, kff, out=self.dx_next)
        self.system.solve(self.dx_flat)
        du = np.matmul(self.neg_gain, self.dx_now)
        return np.subtract(kff, du, out=du)


def step_direction(adj: AdjointSolution, c: np.ndarray, g: np.ndarray,
                   r: float, depth: int,
                   _factor: Optional[StagewiseFactor] = None) -> np.ndarray:
    """Inner update direction from one stagewise factorization of (R + H).

    H is the Hessian of the rollout cost at the snapshot that produced adj
    (its dynamics Jacobians) and c (its stage Hamiltonian Hessians, from
    curvature.stage_curvature); R = r * I.  Depth 0 solves (R + H) d = g;
    each further level solves (R + H) d = g + R d_prev against the same
    factors.  For positive-definite H the sequence converges geometrically
    to the Newton direction.

    c is checked against the symmetry tolerance and its symmetric part is
    factored by a backward Riccati recursion over blocks of stages
    (StagewiseFactor: one block up to 2 B_MAX stages, else blocks of up to
    B_MAX), one Cholesky-factored control pivot per block.  On one block
    each solve is one product with the pivot's inverse, else one backward
    and one forward pass over the blocks.  No matrix larger than
    (n + 2 m B_MAX)^2 is formed.  The levels run in the
    factor's block order: g is moved into it once and d out of it once,
    which gives the bits of the levels in stage order.

    _factor (internal) is the workspace to factor in, sized for the
    snapshot; minimize passes the one it holds for the whole solve.
    Without it a workspace is built for this call.

    Raises:
        DimensionMismatchError: g is not a vector of length m*(N+1), or c
            not an (N+1, n+m, n+m) stack.
        ValueError: r is not finite and > 0, or depth not an integer >= 0.
        NumericalBlowupError: c holds a non-finite entry; carries the
            first such stage and "second-order stage data", as
            stage_curvature does.
        AsymmetricHessianError: c violates the symmetry tolerance.
        LinearSolveError: (R + H) is not positive definite; its stage is
            the stage whose pivot failed.
    """
    check_positive(r, "r")
    check_count(depth, 0, "depth")
    stages, n, m = adj.fu.shape
    g = check_state(g, stages * m, "g")
    check_curvature(adj, c)
    r = float(r)
    factor = _factor or StagewiseFactor(stages - 1, n, m)
    factor.factor(adj, c, r)
    # (g + r d)[order] is g[order] + r d[order] entry by entry, and a padded
    # stage's entries of d are exactly zero, as the entries of g there.
    gb = factor.in_blocks(g)
    # A pivot inverse that is not finite spoils the direction, which
    # minimize rejects; the solves that meet its inf * 0 run quietly.
    with (nullcontext() if factor.finite
          else np.errstate(over="ignore", invalid="ignore")):
        d = factor.solve(gb)
        for _ in range(depth):
            d = factor.solve(gb + r * d)
    return factor.in_stages(d)


def _report(z, outer, inner, gnorms, costs, termination, t0) -> SolveReport:
    return SolveReport(
        z_final=z, outer_iters=outer, inner_iters_total=inner,
        grad_norm_history=np.asarray(gnorms), cost_history=np.asarray(costs),
        termination=termination, wall_time=time.perf_counter() - t0)


# Relative slack when comparing a trial cost against the current one;
# guards against spurious escalations from last-ulp noise near an optimum.
_COST_SLACK = 1e-12


def minimize(p: ProblemDef, x0, z0: np.ndarray, cfg: SolverConfig,
             _factor: Optional[StagewiseFactor] = None) -> SolveReport:
    """Minimize the rollout cost from z0 with the second-order iteration.

    z0 is rolled out once; after that the rollout of each accepted trial
    point, controls included, is kept as the snapshot on which an outer
    iteration runs only the costate sweep (adjoint_along), the stage
    curvature, and the factorization in the workspace this call holds.  The
    update is z <- z - d with d from step_direction at depth min(iteration
    index, inner_depth_cap), and the trial point z - d is priced by its own
    rollout.  Terminates as Converged when the max-abs gradient entry drops
    below cfg.grad_tol (checked before any step, so a stationary start
    returns unchanged with zero outer iterations) or as MaxIters when the
    budget is exhausted.

    The regularizer starts at r = cfg.r_reg and is carried across outer
    iterations.  A step is accepted only if its direction is finite and its
    trial cost does not rise beyond _COST_SLACK; otherwise its cause is
    logged ((R + H) failed to factor at stage k, the direction is not
    finite at stage k, or the trial cost blew up or increased) and the step
    is retried with r multiplied by REG_GROW.  Blow-ups and increases only
    occur when the curvature is indefinite beyond what R absorbs, since on
    a positive-semidefinite model every direction the recursion produces is
    a strict descent step.  An accepted step sets r to max(cfg.r_reg,
    r / REG_SHRINK).  When the next escalation would pass REG_MAX,
    LinearSolveError carries the partial report and the failing stage.

    _factor (internal) is the factorization workspace, sized for p's
    (N, n, m); run_mpc passes the one it holds for the whole closed loop.
    Without it a workspace is built for this call.
    """
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float, copy=True)
    m = p.dims.m
    factor = _factor or StagewiseFactor(p.dims.N, p.dims.n, m)
    gnorms: List[float] = []
    costs: List[float] = []
    inner_total = 0
    i = 0
    r = cfg.r_reg
    roll = roll_forward(p, x0, z)
    while True:
        adj = adjoint_along(p, roll, _sweep=factor.sweep)
        gnorm = float(np.maximum.reduce(np.abs(adj.gradient), initial=0.0))
        gnorms.append(gnorm)
        costs.append(roll.total_cost)
        if gnorm < cfg.grad_tol:
            return _report(z, i, inner_total, gnorms, costs,
                           Termination.CONVERGED, t0)
        if i == cfg.max_outer:
            return _report(z, i, inner_total, gnorms, costs,
                           Termination.MAX_ITERS, t0)
        c = stage_curvature(p, roll, adj)
        depth = min(i, cfg.inner_depth_cap)
        bound = costs[-1] + _COST_SLACK * (1.0 + abs(costs[-1]))
        while True:
            failed = None
            try:
                d = step_direction(adj, c, adj.gradient, r, depth,
                                   _factor=factor)
            except LinearSolveError as exc:
                failed = exc
                cause = f"factorization failed at stage {exc.stage}"
            else:
                inner_total += depth + 1
                try:
                    # A pivot as small as a subnormal r inverts to inf, and
                    # the trial cost need not read the entry it spoils (the
                    # LQR's u_N), so the direction is checked itself.
                    check_finite_stages(d.reshape(-1, m), "direction")
                except NumericalBlowupError as exc:
                    cause = f"direction not finite at stage {exc.stage}"
                else:
                    candidate = z - d
                    try:
                        trial = roll_forward(p, x0, candidate)
                        trial_cost = trial.total_cost
                    except NumericalBlowupError:
                        trial_cost = float("inf")
                    if trial_cost <= bound:
                        break
                    cause = (f"trial cost {trial_cost:.6g} above "
                             f"{costs[-1]:.6g}")
            if r * REG_GROW > REG_MAX:
                raise LinearSolveError(
                    f"no acceptable step at outer iteration {i} with the "
                    f"regularizer at {r:.6g}: {cause}",
                    report=_report(z, i, inner_total, gnorms, costs,
                                   Termination.LINEAR_SOLVE_FAILURE, t0),
                    stage=None if failed is None else failed.stage,
                ) from failed
            r *= REG_GROW
            log.info("%s, regularizer raised to %.6g at outer iteration %d",
                     cause, r, i)
        z, roll = candidate, trial
        r = max(cfg.r_reg, r / REG_SHRINK)
        i += 1


def minimize_gd(p: ProblemDef, x0, z0: np.ndarray, lr: float,
                grad_tol: float = 1e-6, max_iters: int = 10000) -> SolveReport:
    """Plain gradient descent baseline, z <- z - lr * gradient.

    Same instrumentation as minimize; lr and grad_tol are finite and > 0 and
    max_iters is an integer >= 0.  If the cost climbs past ten times its
    initial magnitude the run stops with the Diverged termination instead of
    crashing.  The solve builds one costate band, BlockBidiagonal(N, n),
    and lends it to every iteration's forward_adjoint.
    """
    check_positive(lr, "lr")
    check_positive(grad_tol, "grad_tol")
    check_count(max_iters, 0, "max_iters")
    t0 = time.perf_counter()
    z = np.array(z0, dtype=float, copy=True)
    sweep = BlockBidiagonal(p.dims.N, p.dims.n)
    gnorms: List[float] = []
    costs: List[float] = []
    i = 0
    while True:
        roll, adj = forward_adjoint(p, x0, z, _sweep=sweep)
        gnorm = float(np.maximum.reduce(np.abs(adj.gradient), initial=0.0))
        gnorms.append(gnorm)
        costs.append(roll.total_cost)
        if gnorm < grad_tol:
            return _report(z, i, 0, gnorms, costs, Termination.CONVERGED, t0)
        if costs[-1] > 10.0 * abs(costs[0]) + 1e-12:
            return _report(z, i, 0, gnorms, costs, Termination.DIVERGED, t0)
        if i == max_iters:
            return _report(z, i, 0, gnorms, costs, Termination.MAX_ITERS, t0)
        z -= lr * adj.gradient
        i += 1
