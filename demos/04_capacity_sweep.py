#!/usr/bin/env python3
# Design study: diffusive capacity J(L, beta) at a fixed drawdown target,
# swept over fracture length and drag coefficient.  Longer fractures help;
# stronger drag hurts; at large drag the capacity saturates and extra
# length is wasted.

from fracflow import DomainSpec, FlowParams, run_sweep, trend_check, write_sweep_csv

spec = DomainSpec(shape="rectangle", width=100.0, height=80.0,
                  fracture_length=50.0, aperture=1.0, resolution=2.0,
                  grading=1.3)
params = FlowParams(alpha_f=0.05, beta=0.0, k_p=1.0)

lengths = [10.0, 20.0, 30.0, 40.0, 50.0]
betas = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
table = run_sweep(spec, lengths, betas, 1000.0, params)

print(f"PDD* = {table.meta['PDD_star']:.2f}, "
      f"unfractured J* = {table.meta['J_star']:.4f}\n")
header = "beta \\ L " + "".join(f"{L:>9.0f}" for L in lengths)
print(header)
for i, b in enumerate(betas):
    row = "".join(f"{v:9.4f}" for v in table.J[i])
    print(f"{b:8.0e} {row}")

diag = trend_check(table)
print(f"\ncapacity increases with length:     {diag.increasing_with_length}")
print(f"capacity decreases with drag:       {diag.decreasing_with_drag}")
print(f"saturates at strong drag:           {diag.saturated}")
print(f"late-length gain, weakest drag:     {diag.ratio_smallest_beta:+.4f}")
print(f"late-length gain, strongest drag:   {diag.ratio_largest_beta:+.4f}")

write_sweep_csv(table, "capacity_sweep.csv")
print("\nwrote capacity_sweep.csv")
