"""Darcy-Forchheimer flow in fractured reservoirs.

A mixed-dimensional solver for pseudo-steady-state production: linear
Darcy flow in the porous block, quadratic-drag Forchheimer flow in a
1-D-reduced fracture, coupled through the pressure trace on the fracture
line.  On top of the forward solver sit the rate inversion for a
prescribed drawdown, capacity sweeps over fracture length and drag
coefficient, and numerical checks of the model-reduction error bounds.
"""

from .assembly import (
    ScalarField,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    assemble_slab_residual,
    output_C,
    triangle_gradients,
)
from .config import RunSpec, parse_config, runspec_to_json
from .errors import (
    AssemblyError,
    ConfigError,
    ControlError,
    FracflowError,
    GeometryError,
    SolverError,
)
from .io import (
    read_sweep_csv,
    write_csv,
    write_field_vtk,
    write_mesh_vtk,
    write_reduction_csv,
    write_sweep_csv,
)
from .kernels import (
    FlowParams,
    fbeta_aniso,
    fbeta_iso,
    forchheimer_inverse_1d,
    g_aux,
    indicator_H,
    monotonicity_gap,
)
from .meshing import (
    DomainSpec,
    Mesh,
    MeshQualityReport,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
    mesh_quality_report,
)
from .reduction import (
    ReductionReport,
    anisotropic_report,
    divergence_study,
    isotropic_report,
    linear_inflow,
    lq_seminorm,
)
from .setpoint import SetpointResult, baseline_pdd, solve_setpoint, step_response
from .solvers import (
    BulkCondensation,
    SolveReport,
    condense_bulk,
    pss_energy,
    solve_pss,
    solve_slab,
)
from .sweep import SweepTable, TrendDiagnostics, run_sweep, trend_check

__version__ = "0.1.0"
