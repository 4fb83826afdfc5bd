"""Darcy-Forchheimer flow in fractured reservoirs.

A mixed-dimensional solver for pseudo-steady-state production: linear
Darcy flow in the porous block, quadratic-drag Forchheimer flow in a
1-D-reduced fracture, coupled through the pressure trace on the fracture
line.  On top of the forward solver sit the rate inversion for a
prescribed drawdown, capacity sweeps over fracture length and drag
coefficient, and numerical checks of the model-reduction error bounds.

Importing the package executes none of NumPy's submodules that no
command uses: ``numpy.f2py``, ``numpy.testing``, ``numpy.polynomial``,
``numpy.ctypeslib``, ``numpy.char``, ``numpy.rec`` and ``numpy.strings``
are registered as lazy modules, which execute on their first attribute
access, so a caller that uses one gets the real module.  This holds for
the whole host process, not only the console script; a submodule the
host imported before fracflow is left as it is.  Before Python 3.12
LazyLoader is not thread-safe: in a multithreaded host, import a
deferred submodule before fracflow if two threads may first touch it
at once.
"""

import importlib.util
import sys

import numpy

# SciPy's array-API shim (scipy._lib.array_api_compat.numpy, imported by
# scipy.sparse) clones the numpy namespace, and NumPy 2 lists its
# submodules in numpy.__all__, so without this every command executes
# all seven: about 0.1 s and 9 MB, most of it numpy.f2py.  Each is
# registered with the LazyLoader recipe from the importlib docs, in
# sys.modules and as numpy's attribute.  A name already imported, or
# one this NumPy does not have, is left alone.  numpy.ma is not deferred:
# np.unique calls np.ma.is_masked (NumPy 2.4), so meshing executes it
# anyway; SciPy's own import executes numpy.random, .fft and .typing.
def _defer(name: str) -> None:
    full = "numpy." + name
    if full in sys.modules:
        return
    spec = importlib.util.find_spec(full)
    if spec is None:
        return
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(numpy, name, module)


for _name in ("f2py", "testing", "polynomial", "ctypeslib", "char", "rec",
              "strings"):
    _defer(_name)
del _defer, _name

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
    write_field_vtk,
    write_reduction_csv,
    write_sweep_csv,
)
from .kernels import (
    FlowParams,
    fbeta_iso,
    forchheimer_inverse_1d,
    g_aux,
    indicator_H,
    monotonicity_gap,
)
from .meshing import (
    DomainSpec,
    Mesh,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
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
