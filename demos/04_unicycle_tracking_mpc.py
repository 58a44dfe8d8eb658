"""Receding-horizon tracking of a circle with a unicycle.

The plant starts half a meter off the reference with a wrong heading.  At
each step the driver solves a ten-stage tracking problem from the current
pose and applies the first control.  After a short transient the position
error settles near two millimeters, and each solve needs only a few outer
iterations.
"""

from collections import Counter

import numpy as np

from costate import (MpcConfig, SolverConfig, UnicycleSpec,
                     build_unicycle_plant, build_unicycle_tracking,
                     circle_reference, run_mpc, wrap_angle)

spec = UnicycleSpec(N=160)  # 8 seconds of the default circle
plant = build_unicycle_plant(spec)

trace = run_mpc(
    plant,
    lambda state, step: build_unicycle_tracking(spec, step, state),
    np.asarray(spec.X0),
    MpcConfig(horizon=spec.N_p, total_steps=spec.N,
              solver=SolverConfig()),
)

pos_err = np.empty(spec.N)
head_err = np.empty(spec.N)
for k in range(spec.N):
    ref, _ = circle_reference(spec.reference, spec.delta, k)
    state = trace.applied_states[k]
    pos_err[k] = np.hypot(state[0] - ref[0], state[1] - ref[1])
    head_err[k] = abs(wrap_angle(state[2] - ref[2]))

t = np.arange(spec.N) * spec.delta
print("position error along the run:")
for mark in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0):
    k = int(mark / spec.delta)
    print(f"  t = {mark:4.1f} s: {pos_err[k] * 1000:8.2f} mm")

steady = t > 3.0
print(f"\nsteady state (t > 3 s): max {pos_err[steady].max() * 1000:.2f} mm, "
      f"heading {head_err[steady].max():.4f} rad")

iters = Counter(r.outer_iters for r in trace.per_step_reports)
print("outer iterations per step:",
      dict(sorted(iters.items())))
print(f"median solve time: "
      f"{np.median(trace.per_step_wall_time) * 1000:.2f} ms")
