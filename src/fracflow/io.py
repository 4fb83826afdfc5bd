"""Result serialization: CSV tables and legacy VTK fields.

All writers emit deterministic bytes for identical inputs: values are
formatted to 6 significant digits, metadata lines are sorted, and line
endings are LF.
"""

from __future__ import annotations

import numpy as np

from .assembly import ScalarField
from .meshing import Mesh
from .reduction import ReductionReport
from .sweep import SweepTable

__all__ = [
    "write_csv",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_reduction_csv",
    "write_field_vtk",
    "write_mesh_vtk",
]


def _fmt(x) -> str:
    if isinstance(x, float) and (np.isnan(x) or np.isinf(x)):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
    return f"{x:.6g}"


def write_csv(table, path) -> None:
    """Serialize a SweepTable or a list of ReductionReports."""
    if isinstance(table, SweepTable):
        write_sweep_csv(table, path)
        return
    if isinstance(table, (list, tuple)) and table and isinstance(table[0], ReductionReport):
        write_reduction_csv(table, path)
        return
    raise TypeError(f"cannot serialize {type(table).__name__} as CSV")


def write_sweep_csv(t: SweepTable, path) -> None:
    """Capacity table in the layout: one header row of L values, one row
    per beta, preceded by '#' metadata lines (baseline, rates, solver
    settings, per-cell iteration counts)."""
    lines = []
    for key in sorted(t.meta):
        lines.append(f"# {key}={_fmt(t.meta[key]) if isinstance(t.meta[key], float) else t.meta[key]}")
    for i, b in enumerate(t.beta_values):
        qrow = ",".join(_fmt(q) for q in t.Q[i])
        irow = ",".join(str(int(k)) for k in t.outer_iterations[i])
        lines.append(f"# Q[beta={_fmt(b)}]={qrow}")
        lines.append(f"# outer_iterations[beta={_fmt(b)}]={irow}")
    for i, j, msg in t.failed:
        lines.append(f"# failed[{i},{j}]={msg}")
    lines.append("L," + ",".join(_fmt(L) for L in t.L_values))
    lines.append("beta,J")
    for i, b in enumerate(t.beta_values):
        lines.append(_fmt(b) + "," + ",".join(_fmt(v) for v in t.J[i]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep_csv(path):
    """Read back a sweep CSV: (L_values, beta_values, J matrix)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = rows[0].split(",")
    if header[0] != "L" or rows[1].split(",")[0] != "beta":
        raise ValueError(f"{path} is not a sweep CSV")
    Ls = [float(v) for v in header[1:]]
    betas, J = [], []
    for ln in rows[2:]:
        parts = ln.split(",")
        betas.append(float(parts[0]))
        J.append([float(v) for v in parts[1:]])
    return Ls, betas, np.array(J)


def write_reduction_csv(reports, path) -> None:
    """Model-reduction study rows, one per report."""
    lines = []
    notes = sorted({r.notes for r in reports})
    for n in notes:
        lines.append(f"# {n}")
    lines.append("flavor,h,q0,lhs,rhs,empirical_C,norm_Wx_full,norm_Wx_reduced,norm_Wy")
    for r in reports:
        lines.append(",".join([
            r.flavor, _fmt(r.h), _fmt(r.q0), _fmt(r.lhs), _fmt(r.rhs),
            _fmt(r.empirical_C), _fmt(r.norm_Wx_full),
            _fmt(r.norm_Wx_reduced), _fmt(r.norm_Wy)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _vtk_header(m: Mesh, title: str) -> list:
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {m.num_nodes} double",
    ]
    # Python floats and ints format as NumPy scalars do, only faster
    lines.extend(f"{x:.10g} {y:.10g} 0" for x, y in m.nodes.tolist())
    nt = m.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in m.triangles.tolist())
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    return lines


def write_field_vtk(m: Mesh, W, path) -> None:
    """Pressure field as a legacy VTK unstructured grid."""
    values = W.values if isinstance(W, ScalarField) else np.asarray(W, dtype=float)
    if values.shape != (m.num_nodes,):
        raise ValueError(
            f"field has {values.shape} values for a mesh with {m.num_nodes} nodes")
    lines = _vtk_header(m, "fracflow pressure field")
    lines.append(f"POINT_DATA {m.num_nodes}")
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(f"{v:.10g}" for v in values.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mesh_vtk(m: Mesh, path) -> None:
    """Bare mesh dump for inspection in standard viewers."""
    lines = _vtk_header(m, "fracflow mesh")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
