"""Exact second derivatives of the rollout cost.

hessian_product multiplies the Hessian with any block of directions V by
one forward sensitivity pass and one backward second-order costate pass
over a shared snapshot; column j of its outputs belongs to direction j.
The forward sequence has a concrete meaning: it is the derivative of each
state along that direction, which a differenced rollout can verify
directly.  The product with the identity is the full matrix, which is
checked against differences of the exact gradient and against its own
transpose.
"""

import numpy as np

from costate import (fd_hessian, flat_index, forward_adjoint, hessian,
                     hessian_product, max_rel_error, random_smooth_problem,
                     roll_forward, stage_curvature)

prob, x0, z = random_smooth_problem(seed_or_rng=42, n=3, m=2, N=8)
roll, adj = forward_adjoint(prob, x0, z)
c = stage_curvature(prob, roll, adj)

# One direction: the unit vector of control component 1 at stage 2.
flat = flat_index(prob.dims, 2, 1)
e = np.zeros((prob.dims.z_len, 1))
e[flat] = 1.0
hv, dx = hessian_product(adj, c, e)
betas = dx[..., 0]

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
print("one product is one column of it:",
      f"{max_rel_error(hv[:, 0], full[:, flat]):.2e}")
