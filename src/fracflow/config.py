"""Strict JSON run configuration.

Unknown keys are rejected by name, defaults are filled in, and the
numeric validation of the underlying types (FlowParams, DomainSpec)
surfaces as ConfigError with the offending field.  A RunSpec serialized
with :func:`runspec_to_json` parses back to an equal RunSpec.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, GeometryError
from .kernels import FlowParams
from .meshing import DomainSpec

__all__ = [
    "RunSpec",
    "SolverSettings",
    "SolveSettings",
    "InverseSettings",
    "SweepSettings",
    "ValidateSettings",
    "OutputSettings",
    "parse_config",
    "parse_config_data",
    "runspec_to_dict",
    "runspec_to_json",
]

COMMANDS = ("solve", "inverse", "sweep", "validate")


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-9
    max_picard: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigError("solver.tol must be > 0")
        if self.max_picard < 1:
            raise ConfigError("solver.max_picard must be >= 1")


@dataclass(frozen=True)
class SolveSettings:
    q: float = 1000.0


@dataclass(frozen=True)
class InverseSettings:
    target_pdd: float | None = None  # None: use the unfractured baseline
    q_baseline: float = 1000.0
    tol: float = 1e-6
    max_outer: int = 50

    def __post_init__(self):
        if self.target_pdd is not None and not self.target_pdd > 0:
            raise ConfigError("inverse.target_pdd must be > 0")
        if not self.tol > 0:
            raise ConfigError("inverse.tol must be > 0")
        if self.max_outer < 1:
            raise ConfigError("inverse.max_outer must be >= 1")


@dataclass(frozen=True)
class SweepSettings:
    lengths: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    q_baseline: float = 1000.0
    tol: float = 1e-6
    max_outer: int = 50

    def __post_init__(self):
        if not all(math.isfinite(L) and L > 0 for L in self.lengths):
            raise ConfigError("sweep.lengths must all be finite and > 0")
        if not all(math.isfinite(b) and b >= 0 for b in self.betas):
            raise ConfigError("sweep.betas must all be finite and >= 0")
        if not self.tol > 0:
            raise ConfigError("sweep.tol must be > 0")
        if self.max_outer < 1:
            raise ConfigError("sweep.max_outer must be >= 1")


@dataclass(frozen=True)
class ValidateSettings:
    flavor: str = "anisotropic"
    apertures: list = field(default_factory=lambda: [0.2, 0.1, 0.05])
    q0: float = 1.0
    q_over_v: float = 0.0
    resolution: float | None = None  # None: domain resolution
    scalings: list = field(default_factory=lambda: [1.0, 2.0, 4.0])

    def __post_init__(self):
        if self.flavor not in ("isotropic", "anisotropic"):
            raise ConfigError("validate.flavor must be 'isotropic' or 'anisotropic'")
        if not self.apertures:
            raise ConfigError("validate.apertures must be nonempty")
        if self.flavor == "isotropic" and not self.scalings:
            raise ConfigError("validate.scalings must be nonempty for the isotropic flavor")


@dataclass(frozen=True)
class OutputSettings:
    dir: str = "out"
    write_vtk: bool = False


@dataclass(frozen=True)
class RunSpec:
    command: str
    domain: DomainSpec
    params: FlowParams = FlowParams()
    solver: SolverSettings = SolverSettings()
    solve: SolveSettings = SolveSettings()
    inverse: InverseSettings = InverseSettings()
    sweep: SweepSettings = SweepSettings()
    validate: ValidateSettings = ValidateSettings()
    output: OutputSettings = OutputSettings()

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"command must be one of {', '.join(COMMANDS)}; got {self.command!r}")


_SECTION_FIELDS = {
    "domain": ("shape", "fracture_length", "width", "height", "radius",
               "aperture", "well", "resolution", "grading"),
    "params": ("alpha_f", "beta", "k_p", "k_f", "aniso_k"),
    "solver": ("tol", "max_picard"),
    "solve": ("q",),
    "inverse": ("target_pdd", "q_baseline", "tol", "max_outer"),
    "sweep": ("lengths", "betas", "q_baseline", "tol", "max_outer"),
    "validate": ("flavor", "apertures", "q0", "q_over_v", "resolution", "scalings"),
    "output": ("dir", "write_vtk"),
}

_SECTION_TYPES = {
    "domain": DomainSpec,
    "params": FlowParams,
    "solver": SolverSettings,
    "solve": SolveSettings,
    "inverse": InverseSettings,
    "sweep": SweepSettings,
    "validate": ValidateSettings,
    "output": OutputSettings,
}


def _build_section(name: str, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be an object")
    allowed = _SECTION_FIELDS[name]
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section '{name}'")
    kwargs = dict(data)
    if name == "domain" and "well" in kwargs:
        well = kwargs["well"]
        if not (isinstance(well, (list, tuple)) and len(well) == 2):
            raise ConfigError("domain.well must be a [x, y] pair")
        kwargs["well"] = (float(well[0]), float(well[1]))
    try:
        return _SECTION_TYPES[name](**kwargs)
    except (ValueError, GeometryError, TypeError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def parse_config_data(data: dict) -> RunSpec:
    """Validate an already-decoded configuration object."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    allowed = ("command",) + tuple(_SECTION_FIELDS)
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'")
    if "command" not in data:
        raise ConfigError("missing required key 'command'")
    if "domain" not in data:
        raise ConfigError("missing required key 'domain'")
    kwargs = {"command": data["command"]}
    for name in _SECTION_FIELDS:
        if name in data:
            kwargs[name] = _build_section(name, data[name])
    return RunSpec(**kwargs)


def parse_config(path) -> RunSpec:
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config_data(data)


def runspec_to_dict(spec: RunSpec) -> dict:
    out = {"command": spec.command}
    for name in _SECTION_TYPES:
        section = asdict(getattr(spec, name))
        if name == "domain":
            section["well"] = list(section["well"])
        out[name] = section
    return out


def runspec_to_json(spec: RunSpec) -> str:
    return json.dumps(runspec_to_dict(spec), indent=2, sort_keys=True) + "\n"
