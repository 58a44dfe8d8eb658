"""Receding-horizon tracking of a circle with a unicycle.

The plant starts half a meter off the reference with a wrong heading.  At
each step the driver solves a ten-stage tracking problem from the current
pose and applies the first control.  After a short transient the position
error settles near two millimeters, and each solve needs only a few outer
iterations.
"""

import numpy as np

from costate import (MpcConfig, SolverConfig, UnicycleSpec,
                     build_unicycle_plant, build_unicycle_tracking, run_mpc,
                     tracking_errors)

spec = UnicycleSpec(N=160)  # 8 seconds of the default circle
plant = build_unicycle_plant(spec)

trace = run_mpc(
    plant,
    lambda state, step: build_unicycle_tracking(spec, step, state),
    np.asarray(spec.X0),
    MpcConfig(horizon=spec.N_p, total_steps=spec.N,
              solver=SolverConfig()),
)

# Errors against the reference at each applied step, and the iteration
# account of the run.
_, pos_err, head_err = tracking_errors(spec, trace.applied_states[:-1])
summary = trace.summary()

t = np.arange(spec.N) * spec.delta
print("position error along the run:")
for mark in (0.0, 0.5, 1.0, 2.0, 4.0, 6.0):
    k = int(mark / spec.delta)
    print(f"  t = {mark:4.1f} s: {pos_err[k] * 1000:8.2f} mm")

steady = t > 3.0
print(f"\nsteady state (t > 3 s): max {pos_err[steady].max() * 1000:.2f} mm, "
      f"heading {head_err[steady].max():.4f} rad")

print("outer iterations per step:", summary["iteration_histogram"])
print(f"median solve time: "
      f"{np.median(trace.per_step_wall_time) * 1000:.2f} ms")
