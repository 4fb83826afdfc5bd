#!/usr/bin/env python3
# Forward solve of the coupled reservoir/fracture model: Darcy flow in the
# rock, quadratic-drag flow along the embedded fracture line, fixed total
# production rate, pseudo-steady-state pressure profile.

import numpy as np

from fracflow import (
    DomainSpec,
    FlowParams,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    build_reservoir_mesh,
    output_C,
    solve_pss,
    write_field_vtk,
)

spec = DomainSpec(shape="rectangle", width=100.0, height=80.0,
                  fracture_length=30.0, aperture=1.0, resolution=2.0,
                  grading=1.3)
mesh = build_reservoir_mesh(spec)
print(f"mesh: {mesh.num_nodes} nodes, {mesh.num_triangles} triangles, "
      f"{len(mesh.fracture_edges)} fracture edges")

params = FlowParams(alpha_f=0.05, beta=1e-3, k_p=1.0)
Q = 1000.0
field, report = solve_pss(mesh, params, Q)
print(f"Newton converged in {report.iterations} iterations "
      f"(residual {report.final_residual:.2e})")

# The drawdown is the volume average of the profile (the well is pinned
# to zero), and the capacity is rate over drawdown.
pdd = output_C(mesh, field)
print(f"drawdown PDD = {pdd:.3f}, capacity J_p = {Q / pdd:.4f}")

# Discrete conservation: the entire production exits through the well
# node, visible as the residual of the unconstrained equation there.
r = (assemble_A(mesh, params) @ field.values
     + assemble_F_residual(mesh, params, field)
     + assemble_B_in(mesh) * Q)
print(f"well-node residual = {r[mesh.well_node]:.6f} (expected {-Q})")

# Pressure along the fracture line, well at the left tip.
frac_nodes = [mesh.fracture_edges[0, 0]] + list(mesh.fracture_edges[:, 1])
print("\n   x      pressure")
for n in frac_nodes[:: max(1, len(frac_nodes) // 8)]:
    print(f" {mesh.nodes[n, 0]:6.1f}  {field.values[n]:10.3f}")

write_field_vtk(mesh, field, "pss_pressure.vtk")
print("\nwrote pss_pressure.vtk")
