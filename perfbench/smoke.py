"""Smoke test of the benchmark itself, at tiny sizes (a few minutes).

    python3 perfbench/smoke.py

For every workload, untraced and traced, the command must exit 0 with a
last line that carries every metric named in BENCHMARK.json with its unit
and nothing else.  A deliberately corrupted pass must fail the workload's
correctness check, and the command must refuse to run (non-zero exit, no
result line) in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(ROOT, workload, trace)
            assert out.returncode == 0, (workload, trace, out.stderr[-2000:])
            last = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0, last
            assert isinstance(last["attempted"], int) and last["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, v in last["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_corruption():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from speed import NoClock
    from tracing import Untraced

    def corrupt_states(trace):
        trace.applied_states[-2, :2] += 0.1      # 10 cm off the circle

    def corrupt_controls(trace):
        trace.applied_controls[-1, 0] += 1e-2

    def corrupt_optimum(rep):
        rep.z_final[5] += 1e-2                   # no longer stationary

    cases = (("mpc_circle", corrupt_states), ("gd_circle", corrupt_controls),
             ("long_horizon", corrupt_optimum))
    for name, corrupt in cases:
        wl = workloads.WORKLOADS[name](3, tiny=True)
        res = wl.run_pass(Untraced(), NoClock())
        assert wl.check(res.outputs) == [], name
        corrupt(res.outputs)
        errors = wl.check(res.outputs)
        assert errors, f"{name}: corrupted result passed the check"
        print(f"ok  {name} corrupted result rejected: {errors[0]}")


def check_bare_directory():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(bare, "mpc_circle", 0)
    shutil.rmtree(bare)
    assert out.returncode != 0, "ran without the library"
    assert not out.stdout.strip(), out.stdout
    print(f"ok  bare directory refused with exit {out.returncode}")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_bare_directory()
    print("smoke test passed")
