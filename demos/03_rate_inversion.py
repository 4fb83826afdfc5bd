#!/usr/bin/env python3
# Inverse problem: which production rate sustains a prescribed drawdown?
# The drawdown grows strictly with the rate, so this is a scalar root find:
# one linear step response gives the first rate, then regula falsi steps
# stay inside a bracket on the rate; each outer step costs one nonlinear
# solve.

from fracflow import (
    DomainSpec,
    FlowParams,
    baseline_pdd,
    build_reservoir_mesh,
    solve_setpoint,
    step_response,
)

spec = DomainSpec(shape="rectangle", width=100.0, height=80.0,
                  fracture_length=20.0, aperture=1.0, resolution=2.0,
                  grading=1.3)
mesh = build_reservoir_mesh(spec)

# The drawdown target comes from the same reservoir without a fracture,
# produced at a reference rate.
params = FlowParams(alpha_f=0.05, beta=1e-3, k_p=1.0)
target = baseline_pdd(mesh, params, 1000.0)
print(f"unfractured baseline: PDD* = {target:.3f}, J* = {1000.0 / target:.4f}")

X, G = step_response(mesh, params)
print(f"linear gain G = {G:.5f}  (first rate guess {target / G:.1f})")

result = solve_setpoint(mesh, params, target)
print(f"\nconverged in {result.outer_iterations} outer iterations")
print(f"Q = {result.Q:.2f}, achieved PDD = {result.PDD:.3f}, "
      f"J_p = {result.J_p:.4f}")

print("\n iter        Q        PDD")
for k, (q, pdd) in enumerate(result.history, start=1):
    print(f" {k:4d}  {q:9.2f}  {pdd:9.3f}")

# The fracture multiplies the well capacity at equal drawdown.
print(f"\ncapacity gain over the unfractured well: "
      f"{result.J_p * target / 1000.0:.3f}x")
