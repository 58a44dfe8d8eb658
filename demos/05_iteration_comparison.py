"""Second-order iteration against plain gradient descent.

Both methods minimize the same ten-stage tracking cost from a zero start to
the same stationarity tolerance.  The second-order update pays for a small
factorization each step and gets away with a handful of iterations; descent
pays one sweep per step and needs hundreds even with a well-tuned rate.
"""

import numpy as np

from costate import (SolverConfig, UnicycleSpec, build_unicycle_tracking,
                     minimize, minimize_gd)

spec = UnicycleSpec()
x0 = np.asarray(spec.X0)
prob = build_unicycle_tracking(spec, 0, x0)
z0 = np.zeros(prob.dims.z_len)

second = minimize(prob, x0, z0, SolverConfig(grad_tol=1e-6))
descent = minimize_gd(prob, x0, z0, lr=0.05, grad_tol=1e-6, max_iters=20000)

print(f"{'method':>18} {'iterations':>10} {'final cost':>12} "
      f"{'final grad':>12}")
for name, rep in (("second-order", second), ("gradient descent", descent)):
    print(f"{name:>18} {rep.outer_iters:10d} {rep.cost_history[-1]:12.4f} "
          f"{rep.grad_norm_history[-1]:12.2e}")

print("\ngradient norm after each second-order iteration:")
for i, g in enumerate(second.grad_norm_history):
    print(f"  {i}: {g:.3e}")

print(f"\nboth end at the same controls to "
      f"{np.abs(second.z_final - descent.z_final).max():.1e}")
