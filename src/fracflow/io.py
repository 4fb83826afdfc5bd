"""Result serialization: CSV tables and legacy VTK fields.

All writers emit deterministic bytes for identical inputs: values are
formatted to 6 significant digits, metadata lines are sorted, and line
endings are LF.
"""

from __future__ import annotations

import numpy as np

from .assembly import ScalarField
from .meshing import Mesh
from .reduction import Q_NORM_CONVENTION
from .sweep import SweepTable

__all__ = [
    "write_sweep_csv",
    "write_reduction_csv",
    "write_field_vtk",
]


def _fmt(x) -> str:
    return f"{x:.6g}"  # nan, inf and -inf too


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


def write_reduction_csv(reports, path) -> None:
    """Model-reduction study rows, one per report."""
    lines = [f"# {Q_NORM_CONVENTION}",
             "flavor,h,q0,lhs,rhs,empirical_C,norm_Wx_full,norm_Wx_reduced,norm_Wy"]
    for r in reports:
        lines.append(",".join([
            r.flavor, _fmt(r.h), _fmt(r.q0), _fmt(r.lhs), _fmt(r.rhs),
            _fmt(r.empirical_C), _fmt(r.norm_Wx_full),
            _fmt(r.norm_Wx_reduced), _fmt(r.norm_Wy)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_vtk(m: Mesh, W, path) -> None:
    """Pressure field as a legacy VTK unstructured grid."""
    values = W.values if isinstance(W, ScalarField) else np.asarray(W, dtype=float)
    n, nt = m.num_nodes, m.num_triangles
    if values.shape != (n,):
        raise ValueError(
            f"field has {values.shape} values for a mesh with {n} nodes")
    # each section formatted in one pass; Python floats and ints format
    # as NumPy scalars do, only faster
    text = ("# vtk DataFile Version 3.0\nfracflow pressure field\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n"
            + ("%.10g %.10g 0\n" * n) % tuple(m.nodes.ravel().tolist())
            + f"CELLS {nt} {4 * nt}\n"
            + ("3 %d %d %d\n" * nt) % tuple(m.triangles.ravel().tolist())
            + f"CELL_TYPES {nt}\n" + "5\n" * nt
            + f"POINT_DATA {n}\nSCALARS pressure double 1\n"
            "LOOKUP_TABLE default\n"
            + ("%.10g\n" * n) % tuple(values.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
