"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the entry points of each layer as their callers see
them: module attributes such as ``costate.solver.hessian_with`` and
``costate.mpc.minimize`` are swapped for recording wrappers while a traced
pass runs, and the benchmark's own calls into ``run_mpc``, the scenario
builders and the solvers go through the same wrappers.  Nothing inside the
library changes.  The six ProblemDef callables are counted, not spanned: a
span per stage callback would cost more than the callback itself.

A span is (name, start, end, parent, run id); the run id is the index of
the benchmark pass it belongs to.  Self time is span time minus the time of
its direct children.  The program is single-threaded and synchronous, so a
span's children never overlap and no layer ever waits on another.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import costate.mpc
import costate.solver

# (module, attribute, span name): library entry points as their callers see
# them.  Both solvers reach forward_adjoint through costate.solver; run_mpc
# reaches the second-order solver through costate.mpc.
PATCHED = (
    (costate.solver, "forward_adjoint", "adjoint.forward_adjoint"),
    (costate.solver, "hessian_with", "curvature.hessian_with"),
    (costate.solver, "step_direction", "solver.step_direction"),
    (costate.solver, "eval_cost", "problem.eval_cost"),
    (costate.mpc, "minimize", "solver.minimize"),
)

CALLBACKS = ("dynamics", "stage_cost", "d_dynamics", "d_stage_cost",
             "dd_stage_cost", "dd_dynamics_contracted")


class Untraced:
    """The untraced pass: every hook hands back what it was given."""

    def span(self, name, fn):
        return fn

    def problem(self, prob):
        return prob

    def installed(self):
        return nullcontext(self)


class _EscalationCounter(logging.Handler):
    """Counts regularizer escalations from the costate.solver log records."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("factorization failed"):
            self.counts["factor_fail"] += 1
        elif msg.startswith("trial cost"):
            self.counts["cost_increase"] += 1


class Tracer:
    """Records spans and callback counts across the traced passes of a run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, run id)
        self.callbacks = Counter()
        self.escalations = Counter()
        self.hessian_bytes = 0
        self.passes = 0
        self._stack = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.passes)

        return traced

    def problem(self, prob):
        """Copy of prob whose six callables count their calls."""
        counts = self.callbacks

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        return dataclasses.replace(prob, **{
            name: counted(name, getattr(prob, name)) for name in CALLBACKS})

    def _hessian_with(self, fn):
        def measured(p, roll, adj, z):
            # Computed, not measured: the assembled z_len^2 matrix plus the
            # two (N+1) x n x z_len sensitivity stacks of the assembly.
            d = p.dims
            size = d.z_len * d.z_len + 2 * (d.N + 1) * d.n * d.z_len
            self.hessian_bytes = max(self.hessian_bytes, 8 * size)
            return fn(p, roll, adj, z)
        return measured

    @contextmanager
    def installed(self):
        """Swap the library entry points for traced ones for one pass."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHED]
        for mod, attr, name in PATCHED:
            fn = getattr(mod, attr)
            if attr == "hessian_with":
                fn = self._hessian_with(fn)
            setattr(mod, attr, self.span(name, fn))
        logger = logging.getLogger("costate.solver")
        handler = _EscalationCounter(self.escalations)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            yield self
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self.passes += 1

    def layer_table(self):
        """Per span name: calls, total ms and self ms per traced pass."""
        child_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[idx]) * 1e3
        n = max(self.passes, 1)
        return {name: {"calls": row["calls"] // n,
                       "total_ms": row["total_ms"] / n,
                       "self_ms": row["self_ms"] / n}
                for name, row in sorted(table.items())}

    def write(self, path):
        """Write every recorded span, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9),
                                     parent, run_id]) + "\n")
