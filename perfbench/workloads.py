"""The benchmark workloads, built from the public costate API.

Each workload is built once (that is the set-up the benchmark times), then
runs identical passes.  A pass is the unit of work every end-to-end number
is taken over: the whole 410-step closed loop, the gradient-descent prefix,
or the long-horizon solve.  ``check`` referees a pass's outputs;
every message it returns is one failed correctness check.

Why these three: ``mpc_circle`` is many tiny solves where per-stage Python
overhead dominates; ``gd_circle`` runs only the first-order path (rollout
plus costate sweep), so curvature or linear-solve changes must leave it
unchanged; ``long_horizon`` is one large dense system per iteration, where
the O((mN)^2) assembly and O((mN)^3) factorization dominate.

``run_pass(tr, clock)`` lets ``clock`` sample the machine's speed during
the pass (see speed.py).  The times it reports include those samples; the
runner takes them out, knowing when each ran.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import costate
from costate import (LqrSpec, MpcConfig, NumericalBlowupError, SolverConfig,
                     Termination, UnicycleSpec, build_lqr,
                     build_unicycle_plant, build_unicycle_tracking,
                     circle_reference, eval_cost, random_smooth_problem,
                     riccati_lqr, wrap_angle)
from costate.solver import LinearSolveError

# Gradient-descent baseline settings of configs/agv_circle.json.
GD_LR = 0.05
GD_MAX_ITERS = 5000
# The first 20 closed-loop steps hold the 240-420-iteration transient of
# the baseline; the full 410-step baseline run takes about 45 s.
GD_PREFIX_STEPS = 20

# The long-horizon problem: random_smooth_problem(2, n=4, m=2, N=800)
# converges from zero in 4 outer iterations, the common count of its family
# (3 to 5, sometimes 9).  It is fixed so that every pass, whatever the seed,
# does the same work.
LONG_PROBLEM_SEED = 2
LONG_N = 800

# Criterion-6 bounds: steady state is every step after the transient.
MAX_POS_ERR_M = 0.02
MAX_HEADING_ERR_RAD = 0.05
TRANSIENT_S = 3.0
MAX_ITERS_PER_STEP = 30


@dataclass
class PassResult:
    wall_s: float            # wall seconds of the pass
    solve_s: list            # wall seconds of each solve
    outer_iters: int = 0
    inner_solves: int = 0
    attempted: int = 0       # solves planned
    failed: int = 0          # planned solves that did not end Converged
    unconverged_steps: int = 0
    terminations: Counter = field(default_factory=Counter)
    fingerprint: bytes = b""  # bytes of the outputs; equal on every pass
    outputs: object = None    # what check() referees
    t0: float = 0.0           # perf_counter at the start of the pass
    t1: float = 0.0           # and at its end
    solve_spans: list = field(default_factory=list)  # (start, end) around each solve
    # Set by the runner from the pass's kernel samples (speed.py); these
    # times leave the samples out.
    net_wall_s: float = 0.0   # wall_s
    ref_wall_s: float = 0.0   # net_wall_s rescaled to the reference speed
    ref_solve_s: list = field(default_factory=list)  # solve_s, rescaled
    slowness: float = 1.0     # median kernel time over the reference


def _tally(res: PassResult, reports, planned: int, raised: str = ""):
    """Count the reports; every planned solve without a Converged report
    counts as failed.  ``raised`` names an exception that ended the pass and
    took its reports with it; otherwise solves without a report were never
    attempted."""
    for rep in reports:
        res.terminations[rep.termination.value] += 1
        res.outer_iters += rep.outer_iters
        res.inner_solves += rep.inner_iters_total
    converged = sum(rep.termination is Termination.CONVERGED for rep in reports)
    res.attempted = planned
    res.failed = planned - converged
    if raised:
        res.terminations[raised] += 1
    elif planned > len(reports):
        res.terminations["NotAttempted"] += planned - len(reports)


class _ClosedLoop:
    """The unicycle circle-tracking loop of the paper, run by run_mpc."""

    def __init__(self, steps: int):
        self.spec = UnicycleSpec(N=steps)
        self.plant = build_unicycle_plant(self.spec)
        self.x0 = np.asarray(self.spec.X0, dtype=float)
        self.cfg = MpcConfig(horizon=self.spec.N_p, total_steps=steps,
                             solver=SolverConfig())

    def _solver(self, tr, clock):
        """The per-step solver override for run_mpc, or None for minimize."""
        return None

    def run_pass(self, tr, clock) -> PassResult:
        spec = self.spec
        build = tr.span("scenarios.build_unicycle_tracking",
                        build_unicycle_tracking)

        entered, returned = [], []

        def factory(state, step):
            entered.append(time.perf_counter())
            clock.tick()
            prob = tr.problem(build(spec, step, state))
            returned.append(time.perf_counter())
            return prob

        solve = self._solver(tr, clock)
        kwargs = {} if solve is None else {"_solve": solve}
        t0 = time.perf_counter()
        try:
            trace = tr.span("mpc.run_mpc", costate.run_mpc)(
                tr.problem(self.plant), factory, self.x0, self.cfg, **kwargs)
        except NumericalBlowupError as exc:
            # The reports went with the exception; the time until it counts
            # as one solve.
            t1 = time.perf_counter()
            res = PassResult(t1 - t0, [t1 - t0], t0=t0, t1=t1,
                             solve_spans=[(t0, t1)])
            _tally(res, [], self.cfg.total_steps, f"NumericalBlowup@{exc.stage}")
            return res
        t1 = time.perf_counter()
        # Solve k runs after factory call k returns and before call k + 1.
        res = PassResult(t1 - t0, list(trace.per_step_wall_time), t0=t0, t1=t1,
                         solve_spans=list(zip(returned, entered[1:] + [t1])))
        reports = trace.per_step_reports
        _tally(res, reports, self.cfg.total_steps)
        res.unconverged_steps = sum(
            rep.termination is not Termination.CONVERGED for rep in reports)
        res.fingerprint = trace.applied_states.tobytes()
        res.outputs = trace
        return res

    def _common_checks(self, trace) -> list:
        errors = []
        if trace.failed_step is not None:
            errors.append(f"solve failed at step {trace.failed_step}")
        done = trace.applied_controls.shape[0]
        if done != self.cfg.total_steps:
            errors.append(f"{done} of {self.cfg.total_steps} steps applied")
        bad = [k for k, rep in enumerate(trace.per_step_reports)
               if rep.termination is not Termination.CONVERGED]
        if bad:
            errors.append(f"{len(bad)} steps not Converged, first at step {bad[0]}")
        return errors


class MpcCircle(_ClosedLoop):
    """mpc_circle: the full 410-step closed loop with the second-order solver."""

    def __init__(self, seed: int, tiny: bool = False):
        # The paper's scenario is fixed; the seed draws nothing here.
        super().__init__(80 if tiny else UnicycleSpec().N)

    def check(self, trace) -> list:
        errors = self._common_checks(trace)
        iters = [rep.outer_iters for rep in trace.per_step_reports]
        if iters and max(iters) > MAX_ITERS_PER_STEP:
            errors.append(f"{max(iters)} iterations in one step "
                          f"(limit {MAX_ITERS_PER_STEP})")
        spec = self.spec
        pos, head = 0.0, 0.0
        for k in range(trace.applied_controls.shape[0]):
            if k * spec.delta <= TRANSIENT_S:
                continue
            xr, _ = circle_reference(spec.reference, spec.delta, k)
            st = trace.applied_states[k]
            pos = max(pos, float(np.hypot(st[0] - xr[0], st[1] - xr[1])))
            head = max(head, abs(wrap_angle(st[2] - xr[2])))
        if not pos <= MAX_POS_ERR_M:
            errors.append(f"steady-state position error {pos:.4g} m "
                          f"> {MAX_POS_ERR_M}")
        if not head <= MAX_HEADING_ERR_RAD:
            errors.append(f"steady-state heading error {head:.4g} rad "
                          f"> {MAX_HEADING_ERR_RAD}")
        return errors


class GdCircle(_ClosedLoop):
    """gd_circle: a prefix of the same closed loop, each step solved by the
    gradient-descent baseline."""

    # Applied controls of the baseline and of the second-order solver agree
    # to this tolerance: both stop at a max-abs gradient below 1e-6.
    CONTROL_TOL = 1e-4

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(3 if tiny else GD_PREFIX_STEPS)
        self._reference = None

    @staticmethod
    def _gd(prob, x, z0, scfg):
        return costate.minimize_gd(prob, x, z0, lr=GD_LR,
                                   grad_tol=scfg.grad_tol,
                                   max_iters=GD_MAX_ITERS)

    def _solver(self, tr, clock):
        gd = tr.span("solver.minimize", self._gd)

        # A solve takes over 100 ms: the kernel samples come from a timer
        # signal inside it.
        def solve(*args):
            with clock.interrupting():
                return gd(*args)
        return solve

    def check(self, trace) -> list:
        errors = self._common_checks(trace)
        if self._reference is None:
            # Independent referee: the same prefix solved by the
            # second-order method, computed once.
            self._reference = costate.run_mpc(
                self.plant,
                lambda s, k: build_unicycle_tracking(self.spec, k, s),
                self.x0, self.cfg).applied_controls
        ctrl = trace.applied_controls
        if ctrl.shape == self._reference.shape:
            gap = float(np.abs(ctrl - self._reference).max(initial=0.0))
            if not gap <= self.CONTROL_TOL:
                errors.append(f"baseline controls differ from the "
                              f"second-order solver's by {gap:.3g}")
        return errors


class LongHorizon:
    """long_horizon: open-loop minimize on one N = 800 problem from zero."""

    # Directional central differences of the cost along unit directions at
    # the optimum.  At grad_tol a random unit direction sees a slope near
    # 1e-6; roundoff at this step is below 1e-9 for costs up to 1e3, and a
    # 1e-3 error in one control already shows as a slope above 1e-5.
    FD_STEP = 1e-4
    FD_TOL = 1e-5
    FD_DIRECTIONS = 3

    def __init__(self, seed: int, tiny: bool = False):
        self.prob, self.x0, _ = random_smooth_problem(
            LONG_PROBLEM_SEED, 4, 2, 40 if tiny else LONG_N)
        self.cfg = SolverConfig()
        # The seed draws the directions of the stationarity check.
        dirs = np.random.default_rng(seed).normal(
            size=(self.FD_DIRECTIONS, self.prob.dims.z_len))
        self.directions = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    def run_pass(self, tr, clock) -> PassResult:
        z0 = np.zeros(self.prob.dims.z_len)
        raised = ""
        # One solve of about a second: the kernel samples come from a
        # timer signal inside it.
        with clock.interrupting():
            t0 = time.perf_counter()
            try:
                rep = tr.span("solver.minimize", costate.minimize)(
                    tr.problem(self.prob), self.x0, z0, self.cfg)
            except LinearSolveError as exc:
                rep = exc.report
            except NumericalBlowupError as exc:
                rep, raised = None, f"NumericalBlowup@{exc.stage}"
            t1 = time.perf_counter()
        res = PassResult(t1 - t0, [t1 - t0], t0=t0, t1=t1, solve_spans=[(t0, t1)])
        _tally(res, [] if rep is None else [rep], 1, raised)
        if rep is not None:
            res.fingerprint = rep.z_final.tobytes()
        res.outputs = rep
        return res

    def check(self, rep) -> list:
        errors = []
        if rep.termination is not Termination.CONVERGED:
            errors.append(f"solve ended {rep.termination.value}")
        if not rep.cost_history[-1] <= rep.cost_history[0]:
            errors.append("final cost above initial cost")
        z, h = rep.z_final, self.FD_STEP
        for v in self.directions:
            slope = (eval_cost(self.prob, self.x0, z + h * v)
                     - eval_cost(self.prob, self.x0, z - h * v)) / (2.0 * h)
            if not abs(slope) <= self.FD_TOL:
                errors.append(f"directional derivative {slope:.3g} at "
                              "z_final: not stationary")
                break
        return errors


WORKLOADS = {"mpc_circle": MpcCircle, "gd_circle": GdCircle,
             "long_horizon": LongHorizon}


def preflight() -> list:
    """Scalar LQR solve against the closed-form Riccati solution."""
    spec = LqrSpec()
    prob = build_lqr(spec)
    rep = costate.minimize(prob, spec.x0, np.zeros(prob.dims.z_len),
                           SolverConfig())
    ric = riccati_lqr(spec.a, spec.b, spec.q, spec.r, spec.p_term, spec.N,
                      spec.x0)
    gap = float(np.abs(rep.z_final[:spec.N] - ric.controls).max())
    if rep.termination is not Termination.CONVERGED or not gap <= 1e-4:
        return [f"LQR pre-flight: {rep.termination.value}, control gap "
                f"{gap:.3g} against riccati_lqr (tol 1e-4)"]
    return []
