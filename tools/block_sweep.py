"""Time StagewiseFactor's factor + two solves over block sizes, for B_MAX.

    OPENBLAS_NUM_THREADS=1 python3 tools/block_sweep.py [--rounds 15]

Run from the repository root; the library is imported from ./src.  Each
case is one snapshot, the first outer iteration of minimize from a zero
start: the costate sweep, the stage curvature and the smallest regularizer
of minimize's schedule (0.1, times 10 per failed factorization) at which
(R + H) factors.  The cases are the circle-tracking unicycle at
N_p = 10, 15, 50 and 200 and random_smooth_problem(2, 4, 2, 800).  For each
block-size cap, costate.solver.B_MAX is patched while one workspace is
built, so the library has no option for it.  The cap also sets the one-block
rule: a horizon of N + 1 <= 2 B_MAX stages is one block, whose solve is one
product, and a longer one has ceil((N+1) / B_MAX) blocks.  So at N_p = 10
the caps from 6 up, and at N_p = 15 those from 8 up, time one block.  A
sample is the mean time of one factor plus two solves, the closed loop's
mix (2,478 solves to 1,235 factors in an mpc_circle pass), over enough
repeats to last about 2 ms; the caps take their samples in turn, in a
rotating order, for the given number of rounds.  The table shows each
cell's median and interquartile range in microseconds, and the script
fails if a cap's direction differs from B_MAX = 1's, the stage-wise
recursion, by more than 1e-10 relative.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import costate.solver  # noqa: E402
from costate import (  # noqa: E402
    LinearSolveError, UnicycleSpec, adjoint_along, build_unicycle_tracking,
    random_smooth_problem, roll_forward, stage_curvature)

B_MAXES = (1, 2, 4, 8, 12, 16)
SAMPLE_S = 2e-3


def snapshot(prob, x0, z):
    """(adj, c, r) at minimize's first outer iteration from z."""
    roll = roll_forward(prob, x0, z)
    adj = adjoint_along(prob, roll)
    c = stage_curvature(prob, roll, adj)
    dims = prob.dims
    r = 0.1
    while True:
        try:
            costate.solver.StagewiseFactor(dims.N, dims.n, dims.m).factor(
                adj, c, r)
            return adj, c, r
        except LinearSolveError:
            r *= costate.solver.REG_GROW


def cases():
    """name -> (problem, x0, z) for the sweep's horizons."""
    out = {}
    for n_p in (10, 15, 50, 200):
        spec = dataclasses.replace(UnicycleSpec(), N_p=n_p)
        x0 = np.array(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        out[f"unicycle N_p={n_p}"] = prob, x0, np.zeros(prob.dims.z_len)
    out["random(2,4,2,800)"] = random_smooth_problem(2, 4, 2, 800)
    return out


def workspace(dims, b_max):
    saved = costate.solver.B_MAX
    costate.solver.B_MAX = b_max
    try:
        return costate.solver.StagewiseFactor(dims.N, dims.n, dims.m)
    finally:
        costate.solver.B_MAX = saved


def sweep(problems, b_maxes=B_MAXES, rounds=15):
    """{name: {b_max: (median us, IQR us)}} of factor + two solves,
    interleaved."""
    table = {}
    for name, (prob, x0, z) in problems.items():
        adj, c, r = snapshot(prob, x0, z)
        g = adj.gradient
        spaces = {b: workspace(prob.dims, b) for b in b_maxes}

        def once(w):
            w.factor(adj, c, r)
            gb = w.in_blocks(g)
            w.solve(gb)
            return w.in_stages(w.solve(gb))

        directions = {b: once(w) for b, w in spaces.items()}
        ref = directions[b_maxes[0]]
        for b, d in directions.items():
            gap = np.abs(d - ref).max() / np.abs(ref).max()
            if not gap <= 1e-10:
                raise AssertionError(f"{name}: B_MAX={b} direction differs "
                                     f"by {gap:.3g} relative")

        start = time.perf_counter()
        once(spaces[b_maxes[0]])
        repeats = max(1, int(SAMPLE_S / (time.perf_counter() - start)))
        samples = {b: [] for b in b_maxes}
        for t in range(rounds):
            turn = t % len(b_maxes)
            for b in b_maxes[turn:] + b_maxes[:turn]:
                w = spaces[b]
                start = time.perf_counter()
                for _ in range(repeats):
                    once(w)
                samples[b].append(
                    (time.perf_counter() - start) / repeats * 1e6)
        table[name] = {}
        for b, s in samples.items():
            q = statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
            table[name][b] = (statistics.median(s), q[2] - q[0])
    return table


def render(table, b_maxes=B_MAXES):
    lines = ["| case | " + " | ".join(f"B_MAX={b}" for b in b_maxes) + " |",
             "|---|" + "---|" * len(b_maxes)]
    for name, row in table.items():
        lines.append(f"| {name} | " + " | ".join(
            f"{row[b][0]:.0f} ({row[b][1]:.0f})" for b in b_maxes) + " |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    print("factor + two solves, median (IQR) us")
    print(render(sweep(cases(), rounds=args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
