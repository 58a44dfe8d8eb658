"""Run one costate benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mpc_circle --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src, never
from an installed copy.  The run builds the workload (set-up), checks a
scalar LQR solve against the closed-form Riccati solution, warms up on a
tiny pass, then repeats identical passes of the workload until the next
pass would overrun --seconds.  Every pass's outputs are checked.  Times are
rescaled to a reference machine speed sampled inside each pass (speed.py).

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, with the tracing overhead measured against the untraced
ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
check passed, 1 when one failed, 2 when the library cannot be imported.

The full report (provenance, all metrics, the per-layer table) is also
written to perfbench/results/, and the spans of a traced run to
perfbench/results/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# One BLAS thread: the program is single-threaded, and on a small shared
# machine a second BLAS thread mostly measures contention with neighbours.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_RUNS = 7
# Kernel samples a set-up interpreter takes after the set-up, and that each
# untraced pass takes before it starts, so that no pass goes without.
SETUP_SAMPLES = 15
PRE_SAMPLES = 3
# No baseline run uses it; later claims are re-checked on it.
HELD_OUT_SEED = 9001


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mpc_circle", "gd_circle", "long_horizon"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    ap.add_argument("--setup-once", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--memory-once", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_library():
    """Import the workloads against ./src; None when the library is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import costate
    except ImportError:
        return None
    if Path(costate.__file__).resolve().parent.parent != SRC:
        return None
    import workloads
    return workloads


def _setup_seconds(args) -> float:
    """Median time of import plus workload construction, each in a fresh
    interpreter, rescaled by the kernel samples the interpreter takes right
    after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-once",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    env = {**os.environ, **BLAS_ENV}
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        setup_s, slowness = map(float, out.stdout.strip().splitlines()[-1].split())
        times.append(setup_s / slowness)
    return statistics.median(times)


def _fix_mmap_threshold() -> bool:
    """Have glibc return every block of 128 KiB or more to the system when
    it is freed.  By default the threshold adapts to the sizes freed, and
    whether a freed 20 MB Hessian stays resident then depends on the heap's
    layout, which changes from process to process: the peak RSS of the same
    long_horizon pass read 183, 203 or 224 MB."""
    import ctypes
    import ctypes.util
    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except AttributeError:
        return False
    return mallopt(-3, 128 * 1024) == 1      # M_MMAP_THRESHOLD


def _peak_rss_mb(args) -> float:
    """Peak RSS of a fresh interpreter through set-up, warm-up and one
    untimed pass, with large blocks returned to the system when freed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--memory-once",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    env = {**os.environ, **BLAS_ENV}
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=170, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _blas_info():
    """OpenBLAS builds and their live thread counts, read from the loaded
    libraries."""
    import ctypes
    import glob

    import numpy
    import scipy
    info = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            entry = {}
            for prefix in ("openblas_", "scipy_openblas_"):
                for suffix in ("", "64_"):
                    try:
                        cfg = getattr(lib, f"{prefix}get_config{suffix}")
                        threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    except AttributeError:
                        continue
                    cfg.restype = ctypes.c_char_p
                    entry = {"config": cfg().decode(), "threads": threads()}
            info[mod.__name__] = entry
    return info


def _provenance(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "costate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    env=env, capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "size": args.size,
    }


def _rescale(res, clock):
    """Take the kernel samples out of the pass's times, and rescale them to
    the reference speed."""
    res.net_wall_s = res.wall_s - clock.kernel_in(res.t0, res.t1)
    res.ref_wall_s = clock.rescaled(res.t0, res.t1)
    res.ref_solve_s = [(t - clock.kernel_in(a, b)) * clock.factor(a, b)
                       for t, (a, b) in zip(res.solve_s, res.solve_spans)]
    res.slowness = clock.slowness()


def _solve_ms(passes):
    """Each solve's rescaled time in ms: its median over the passes.
    Passes are identical, so solve i of every pass is the same work."""
    return [statistics.median(times) * 1e3
            for times in zip(*(p.ref_solve_s for p in passes))]


def _end_to_end(passes, setup_s, rss_mb):
    first = passes[0]
    wall = statistics.median(p.ref_wall_s for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "solve_ms_p50": (statistics.median(_solve_ms(passes)), "ms"),
        "iters_per_s": (first.outer_iters / wall, "1/s"),
        "outer_iters": (first.outer_iters, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(tracer, traced, untraced):
    from tracing import CALLBACKS
    table = tracer.layer_table()
    n = max(tracer.passes, 1)
    first = traced[0]

    def row(name):
        return table.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    m = {}
    for name in ("adjoint.forward_adjoint", "curvature.hessian_with",
                 "solver.step_direction", "problem.eval_cost",
                 "scenarios.build_unicycle_tracking"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.ms"] = (row(name)["total_ms"], "ms")
    for cb in CALLBACKS:
        m[f"scenarios.cb.{cb}.calls"] = (tracer.callbacks[cb] // n, "count")
    m["curvature.hessian_mb"] = (tracer.hessian_bytes / 1e6, "MB")
    m["solver.inner_solves"] = (first.inner_solves, "count")
    m["solver.escalations.factor_fail"] = (
        tracer.escalations["factor_fail"] // n, "count")
    m["solver.escalations.cost_increase"] = (
        tracer.escalations["cost_increase"] // n, "count")
    # Gradient descent takes every step it computes.
    tried = row("solver.step_direction")["calls"] or first.outer_iters
    m["solver.step_accept_ratio"] = (first.outer_iters / tried if tried else 1.0,
                                     "ratio")
    m["solver.minimize.self_ms"] = (row("solver.minimize")["self_ms"], "ms")
    m["mpc.run_mpc.self_ms"] = (row("mpc.run_mpc")["self_ms"], "ms")
    m["mpc.steps_unconverged"] = (first.unconverged_steps, "count")
    # The layer rows are means over the traced passes, so they add up to
    # the mean traced pass.  Passes alternate untraced and traced; each
    # traced pass is compared with the untraced one just before it, which
    # ran in the same state of the machine.
    m["trace.wall_s"] = (row("bench.pass")["total_ms"] / 1e3, "s")
    ratios = [t.wall_s / u.net_wall_s for u, t in zip(untraced, traced)]
    m["trace.overhead_pct"] = ((statistics.median(ratios) - 1.0) * 100.0, "%")
    # Pass time outside every layer span: the benchmark's own glue.
    m["trace.unattributed_ms"] = (row("bench.pass")["self_ms"], "ms")
    return m, table


def _run_passes(wl, args, tracer, untraced):
    """Run passes until the next would overrun --seconds.  Returns the
    (traced, PassResult) pairs.  Untraced passes sample the machine's speed;
    traced ones do not, so that their spans hold only the program."""
    from speed import Clock, NoClock
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = tracer if traced else untraced
        clock = NoClock() if traced else Clock()
        gc.collect()
        for _ in range(PRE_SAMPLES if not traced else 0):
            clock.sample()
        with tr.installed():
            res = tr.span("bench.pass", wl.run_pass)(tr, clock)
        if not traced:
            _rescale(res, clock)
        passes.append((traced, res))
        elapsed = time.perf_counter() - start
        kinds = {t for t, _ in passes}
        if len(kinds) < 1 + args.trace:
            continue
        if elapsed + res.wall_s > args.seconds:
            return passes


def main(argv=None) -> int:
    t_begin = time.perf_counter()
    args = _parse(argv)
    os.environ.update(BLAS_ENV)
    if args.memory_once and not _fix_mmap_threshold():
        print("cannot fix the malloc mmap threshold", file=sys.stderr)
        return 2
    workloads = _import_library()
    if workloads is None:
        print(f"costate not importable from {SRC}; run from the repository "
              "root of a checkout", file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    from speed import Clock, NoClock
    if args.setup_once:
        workloads.WORKLOADS[args.workload](args.seed, tiny)
        setup_s = time.perf_counter() - t_begin
        clock = Clock()
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        print(setup_s, clock.slowness())
        return 0
    if args.memory_once:
        from tracing import Untraced
        wl = workloads.WORKLOADS[args.workload](args.seed, tiny)
        workloads.WORKLOADS[args.workload](args.seed, True).run_pass(
            Untraced(), NoClock())
        wl.run_pass(Untraced(), NoClock())
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return 0

    from tracing import Tracer, Untraced
    errors = workloads.preflight()
    setup_s = _setup_seconds(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny)
    warm = workloads.WORKLOADS[args.workload](args.seed, True)
    warm.run_pass(Untraced(), NoClock())
    rss_mb = _peak_rss_mb(args)

    tracer = Tracer()
    passes = _run_passes(wl, args, tracer, Untraced())

    first = passes[0][1]
    if first.outputs is None:
        errors.append(f"pass 0 raised: {dict(first.terminations)}")
    else:
        errors += wl.check(first.outputs)
    for i, (_, p) in enumerate(passes[1:], 1):
        if p.fingerprint != first.fingerprint or p.outer_iters != first.outer_iters:
            errors.append(f"pass {i} outputs differ from pass 0")
            break
    attempted = sum(p.attempted for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    terminations = Counter()
    for _, p in passes:
        terminations.update(p.terminations)

    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    e2e = _end_to_end(untraced, setup_s, rss_mb)
    solves = _solve_ms(untraced)
    extra = {
        "solve_ms_p90": (statistics.quantiles(solves, n=10)[-1]
                         if len(solves) > 1 else solves[0]),
        "solve_samples": len(solves),
        "passes": len(untraced),
        "raw_wall_s": statistics.median(p.net_wall_s for p in untraced),
        "slowness_p50": statistics.median(p.slowness for p in untraced),
        "fail_frac": failed / attempted,
        "terminations": dict(terminations),
    }
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": _provenance(args), "checks": errors or "all passed",
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "extra": extra}
    metrics = e2e
    if args.trace:
        layer, table = _per_layer(tracer, traced, untraced)
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layer.items()}
        report["layer_table"] = table
        report["wait_time"] = ("none: the program is single-threaded and "
                               "synchronous, so no layer waits on another")
        metrics = layer
        tracer.write(RESULTS / f"spans-{args.workload}.jsonl")

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")
    _print_human(report, e2e, extra)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


def _print_human(report, e2e, extra):
    print(f"workload {report['workload']}  trace {report['trace']}")
    print("provenance " + json.dumps(report["provenance"]))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:>14.6g} {unit}")
    if extra["solve_samples"] >= 100:
        print(f"  {'solve_ms_p90':<16} {extra['solve_ms_p90']:>14.6g} ms "
              f"({extra['solve_samples']} solves)")
    else:
        print(f"  {'solve_ms_p90':<16} {'n/a':>14} (only "
              f"{extra['solve_samples']} solves per pass)")
    print(f"  {'raw_wall_s':<16} {extra['raw_wall_s']:>14.6g} s, before "
          f"rescaling by the median slowness {extra['slowness_p50']:.4g}")
    print(f"  {'fail_frac':<16} {extra['fail_frac']:>14.6g} "
          f"({json.dumps(extra['terminations'])})")
    if "layer_table" in report:
        wall_ms = report["per_layer"]["trace.wall_s"]["value"] * 1e3
        print(f"  {'layer':<36} {'calls':>8} {'total ms':>10} {'self ms':>10} "
              f"{'self %':>7}")
        for name, row in report["layer_table"].items():
            print(f"  {name:<36} {row['calls']:>8} {row['total_ms']:>10.2f} "
                  f"{row['self_ms']:>10.2f} {100 * row['self_ms'] / wall_ms:>6.1f}%")
        for name, v in report["per_layer"].items():
            print(f"  {name:<40} {v['value']:>14.6g} {v['unit']}")
        print(f"  wait time: {report['wait_time']}")
    print(f"  checks: {report['checks']}")


if __name__ == "__main__":
    sys.exit(main())
