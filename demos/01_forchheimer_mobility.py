#!/usr/bin/env python3
# The scalar mobility that turns quadratic-drag filtration into a
# gradient-driven flux, and the properties the solvers rely on.

import numpy as np

from fracflow import FlowParams, fbeta_iso, forchheimer_inverse_1d, monotonicity_gap

p = FlowParams(alpha_f=1.0, beta=0.5)
print(f"alpha = {p.alpha_f}, beta = {p.beta}, linear mobility 1/alpha = {1.0 / p.alpha_f}")

# At zero gradient the mobility equals 1/alpha (the Darcy value); as the
# gradient grows, inertial drag chokes the flow and the mobility decays.
grads = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1e4])
print("\n |grad p|    mobility    flux = mobility * |grad p|")
for z in grads:
    f = fbeta_iso(z, p)
    print(f" {z:9.1f}  {f:10.6f}  {f * z:12.4f}")

# The flux map is invertible: starting from a flux, the gradient that
# sustains it is -(alpha v + beta |v| v), and the round trip is exact.
v = 2.5
g = forchheimer_inverse_1d(v, p)
v_back = -fbeta_iso(abs(g), p) * g
print(f"\nflux {v} -> gradient {g:.4f} -> flux {v_back:.12f}")

# Strict monotonicity of the flux map is what makes frozen-coefficient
# iteration on this nonlinearity converge; the gap below is provably >= 0.
rng = np.random.default_rng(0)
e1, e2 = rng.uniform(-100, 100, 100000), rng.uniform(-100, 100, 100000)
gaps = monotonicity_gap(e1, e2, p)
print(f"monotonicity gap over 1e5 random pairs: min = {gaps.min():.3e} (>= 0)")
