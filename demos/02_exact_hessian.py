"""Exact second derivatives of the rollout cost.

One second-order pass over a shared snapshot runs, for every control
coordinate at once, a forward sensitivity recursion and a backward
second-order recursion; column r of its arrays belongs to coordinate r.
The forward sequence has a concrete meaning: it is the derivative of each
state with respect to that coordinate, which a differenced rollout can
verify directly.  The assembled matrix is checked against differences of
the exact gradient and against its own transpose.
"""

import numpy as np

from costate import (fd_hessian, flat_index, forward_adjoint, hessian,
                     max_rel_error, random_smooth_problem, roll_forward,
                     second_order_pass)

prob, x0, z = random_smooth_problem(seed_or_rng=42, n=3, m=2, N=8)
roll, adj = forward_adjoint(prob, x0, z)
sweep = second_order_pass(prob, roll, adj, z)

# One column: the sensitivity sequence for control component 1 at stage 2.
flat = flat_index(prob.dims, 2, 1)
betas = sweep.betas[..., flat]

h = 1e-6
zp, zm = z.copy(), z.copy()
zp[flat] += h
zm[flat] -= h
fd_sens = (roll_forward(prob, x0, zp).states
           - roll_forward(prob, x0, zm).states) / (2 * h)

print("states before the coordinate's stage are insensitive to it:")
print("  sensitivities at stages 0..2:", np.abs(betas[:3]).max())
print("sensitivity at the final stage:", np.round(betas[-1], 6))
print("differenced rollout says:      ", np.round(fd_sens[-1], 6))
print("max relative gap:              ",
      f"{max_rel_error(betas, fd_sens):.2e}")

full = hessian(prob, x0, z)
ref = fd_hessian(prob, x0, z)
print("\nfull matrix", full.shape, "vs differenced exact gradient:",
      f"{max_rel_error(full, ref):.2e}")
print("exactly symmetric after assembly:", bool(np.array_equal(full, full.T)))
