#!/usr/bin/env python3
# Why the 1-D fracture model is trustworthy: solve the full thin-slab flow
# against its 1-D reduction and measure the difference in the norms the
# error bounds are stated in.

from fracflow import (
    FlowParams,
    divergence_study,
    isotropic_report,
    linear_inflow,
    write_reduction_csv,
)

L = 1.0
q = linear_inflow(2.0, L)  # lateral inflow, strongest at the well end

# Anisotropic drag (quadratic along the fracture, linear across): the
# difference functional is bounded by h/(2k) * int (q+)^2 + (q-)^2.  Both
# solutions blow up as the slab thins; at these apertures their difference
# shrinks with h, at lhs/rhs near 0.16.  Thinner, the reduced line's
# trapezoid load and the slab's consistent P1 load part: at this resolution
# lhs/rhs climbs from h ~ 0.005 and the bound fails by h = 2e-4.
params = FlowParams(alpha_f=1.0, beta=1.0)
reports = divergence_study(L, 1.0 / 32, params, q, q, [0.2, 0.1, 0.05], q0=2.0)
print("anisotropic bound, shrinking thickness:")
print("     h        lhs        rhs    |Wx| full  |Wx| reduced")
for r in reports:
    print(f"  {r.h:5.2f}  {r.lhs:9.5f}  {r.rhs:9.5f}  {r.norm_Wx_full:10.2f}"
          f"  {r.norm_Wx_reduced:11.2f}   bound holds: {r.bound_holds}")

# The thin limit at resolution 1/128, where the two loads stay close: rhs
# shrinks like h, and a flat lhs/rhs (0.162 to 0.178) means the
# difference shrinks at the bound's own rate down to h = 2e-4.
thin = divergence_study(L, 1.0 / 128, params, q, q,
                        [0.05, 0.01, 0.005, 0.002, 0.001, 5e-4, 2e-4], q0=2.0)
print("\nanisotropic bound to the thin limit, resolution 1/128:")
print("       h   lhs/rhs")
for r in thin:
    print(f"  {r.h:6.4f}  {r.lhs / r.rhs:8.4f}   bound holds: {r.bound_holds}")

# Isotropic drag: the bound carries an unknown stability constant, so the
# meaningful check is that the empirical ratio lhs/data stays put under
# data scaling and refinement.
print("\nisotropic stability constant under data scaling:")
mild = FlowParams(alpha_f=1.0, beta=0.1)
iso_reports = []
for s in (1.0, 2.0, 4.0):
    qs = linear_inflow(0.1 * s, L)
    rep = isotropic_report(L, 0.1, 1.0 / 32, mild, qs, qs, q0=0.1 * s)
    iso_reports.append(rep)
    print(f"  scale {s:3.0f}: empirical C = {rep.empirical_C:.5f}")

write_reduction_csv(reports + iso_reports, "reduction_bounds.csv")
print("\nwrote reduction_bounds.csv")
