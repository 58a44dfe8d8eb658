"""Time StagewiseFactor's factor + two solves over block partitions.

    OPENBLAS_NUM_THREADS=1 python3 tools/block_sweep.py [--rounds 15]

Run from the repository root; the library is imported from ./src.  Each
case is one snapshot, the first outer iteration of minimize from a zero
start: the costate sweep, the stage curvature and the smallest regularizer
of minimize's schedule (0.1, times 10 per failed factorization) at which
(R + H) factors.  The cases are the circle-tracking unicycle at
N_p = 10, 15, 20, 30, 50 and 200 and random_smooth_problem(2, 4, 2, 800).
Each column is one workspace, its partition passed as an argument: the
default rule's, which B_MAX sets, and for each block-size cap B the block
count ceil((N+1) / B).  So a short horizon's one-, two- and three-block
partitions are separate columns, and the cap of 32 is one block up to
N_p = 31.  A sample is the mean time of one factor plus two solves, the
closed loop's mix (2,478 solves to 1,235 factors in an mpc_circle pass),
over enough repeats to last about 2 ms; the columns take their samples
in turn, in a rotating order, for the given number of rounds.  The table shows each cell's median and interquartile range in
microseconds and its block count nb, and the script fails if a column's
direction differs from the stage-wise partition's (N + 1 blocks) by more
than 1e-10 relative.
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

from costate import (  # noqa: E402
    LinearSolveError, UnicycleSpec, adjoint_along, build_unicycle_tracking,
    random_smooth_problem, roll_forward, stage_curvature)
from costate.solver import REG_GROW, StagewiseFactor  # noqa: E402

CAPS = (1, 2, 4, 6, 8, 12, 16, 32)
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
            StagewiseFactor(dims.N, dims.n, dims.m).factor(adj, c, r)
            return adj, c, r
        except LinearSolveError:
            r *= REG_GROW


def cases():
    """name -> (problem, x0, z) for the sweep's horizons."""
    out = {}
    for n_p in (10, 15, 20, 30, 50, 200):
        spec = dataclasses.replace(UnicycleSpec(), N_p=n_p)
        x0 = np.array(spec.X0)
        prob = build_unicycle_tracking(spec, 0, x0)
        out[f"unicycle N_p={n_p}"] = prob, x0, np.zeros(prob.dims.z_len)
    out["random(2,4,2,800)"] = random_smooth_problem(2, 4, 2, 800)
    return out


def sweep(problems, caps=CAPS, rounds=15):
    """{name: {column: (median us, IQR us, (nb, B))}} of factor + two
    solves, interleaved; column is "default" or a cap."""
    table = {}
    cols = ("default", *caps)
    for name, (prob, x0, z) in problems.items():
        adj, c, r = snapshot(prob, x0, z)
        g = adj.gradient
        n_last, n, m = prob.dims.N, prob.dims.n, prob.dims.m
        counts = {"default": None, **{b: -(-(n_last + 1) // b) for b in caps}}
        spaces = {col: StagewiseFactor(n_last, n, m, count)
                  for col, count in counts.items()}

        def once(w):
            w.factor(adj, c, r)
            gb = w.in_blocks(g)
            w.solve(gb)
            return w.in_stages(w.solve(gb))

        ref = once(StagewiseFactor(n_last, n, m, n_last + 1))
        for col, w in spaces.items():
            gap = np.abs(once(w) - ref).max() / np.abs(ref).max()
            if not gap <= 1e-10:
                raise AssertionError(f"{name}: column {col} (nb, B) = "
                                     f"{w.partition} differs from the "
                                     f"stage-wise direction by {gap:.3g}")

        start = time.perf_counter()
        once(spaces["default"])
        repeats = max(1, int(SAMPLE_S / (time.perf_counter() - start)))
        samples = {col: [] for col in cols}
        for t in range(rounds):
            turn = t % len(cols)
            for col in cols[turn:] + cols[:turn]:
                w = spaces[col]
                start = time.perf_counter()
                for _ in range(repeats):
                    once(w)
                samples[col].append(
                    (time.perf_counter() - start) / repeats * 1e6)
        table[name] = {}
        for col, s in samples.items():
            q = statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
            table[name][col] = (statistics.median(s), q[2] - q[0],
                                spaces[col].partition)
    return table


def render(table, caps=CAPS):
    cols = ("default", *caps)
    heads = ["default"] + [f"cap {b}" for b in caps]
    lines = ["| case | " + " | ".join(heads) + " |",
             "|---|" + "---|" * len(cols)]
    for name, row in table.items():
        lines.append(f"| {name} | " + " | ".join(
            f"{row[col][0]:.0f} ({row[col][1]:.0f}) nb={row[col][2][0]}"
            for col in cols) + " |")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args(argv)
    print("factor + two solves, median (IQR) us, and the block count nb")
    print(render(sweep(cases(), rounds=args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
