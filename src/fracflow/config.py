"""Strict JSON run configuration.

Unknown keys are rejected by name, defaults are filled in, and the
numeric validation of the underlying types (FlowParams, DomainSpec)
surfaces as ConfigError with the offending field.  A RunSpec serialized
with :func:`runspec_to_json` parses back to an equal RunSpec.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

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


def _check_count(value, name: str) -> None:
    # bool is an int subclass, but true is no count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1")


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-9
    max_picard: int = 100

    def __post_init__(self):
        if not 0 < self.tol < 1:  # NaN and Infinity fail too
            raise ConfigError("solver.tol must be in (0, 1)")
        _check_count(self.max_picard, "solver.max_picard")


@dataclass(frozen=True)
class SolveSettings:
    q: float = 1000.0

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ConfigError("solve.q must be finite")


@dataclass(frozen=True)
class InverseSettings:
    target_pdd: float | None = None  # None: use the unfractured baseline
    q_baseline: float = 1000.0
    max_outer: int = 50

    def __post_init__(self):
        if self.target_pdd is not None and not (math.isfinite(self.target_pdd)
                                                and self.target_pdd > 0):
            raise ConfigError("inverse.target_pdd must be finite and > 0")
        if not (math.isfinite(self.q_baseline) and self.q_baseline > 0):
            raise ConfigError("inverse.q_baseline must be finite and > 0")
        _check_count(self.max_outer, "inverse.max_outer")


@dataclass(frozen=True)
class SweepSettings:
    lengths: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    q_baseline: float = 1000.0
    max_outer: int = 50

    def __post_init__(self):
        if not all(math.isfinite(L) and L > 0 for L in self.lengths):
            raise ConfigError("sweep.lengths must all be finite and > 0")
        if not all(math.isfinite(b) and b >= 0 for b in self.betas):
            raise ConfigError("sweep.betas must all be finite and >= 0")
        if not (math.isfinite(self.q_baseline) and self.q_baseline > 0):
            raise ConfigError("sweep.q_baseline must be finite and > 0")
        _check_count(self.max_outer, "sweep.max_outer")


@dataclass(frozen=True)
class ValidateSettings:
    flavor: str = "anisotropic"
    apertures: list = field(default_factory=lambda: [0.2, 0.1, 0.05])
    q0: float = 1.0
    q_over_v: float = 0.0
    scalings: list = field(default_factory=lambda: [1.0, 2.0, 4.0])

    def __post_init__(self):
        if self.flavor not in ("isotropic", "anisotropic"):
            raise ConfigError("validate.flavor must be 'isotropic' or 'anisotropic'")
        if not self.apertures:
            raise ConfigError("validate.apertures must be nonempty")
        if not all(math.isfinite(h) and h > 0 for h in self.apertures):
            raise ConfigError("validate.apertures must all be finite and > 0")
        if any(b >= a for a, b in zip(self.apertures, self.apertures[1:])):
            raise ConfigError("validate.apertures must be strictly decreasing")
        if self.flavor == "isotropic" and not self.scalings:
            raise ConfigError("validate.scalings must be nonempty for the isotropic flavor")
        if not all(math.isfinite(s) and s > 0 for s in self.scalings):
            raise ConfigError("validate.scalings must all be finite and > 0")
        if not math.isfinite(self.q0):
            raise ConfigError("validate.q0 must be finite")
        if not math.isfinite(self.q_over_v):
            raise ConfigError("validate.q_over_v must be finite")


@dataclass(frozen=True)
class OutputSettings:
    dir: str = "out"
    write_vtk: bool = False

    def __post_init__(self):
        if not isinstance(self.dir, str):
            raise ConfigError("output.dir must be a string")
        if not isinstance(self.write_vtk, bool):
            raise ConfigError("output.write_vtk must be true or false")


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
        if (self.command == "validate" and self.validate.flavor == "anisotropic"
                and not self.params.beta > 0):
            raise ConfigError("validate with the anisotropic flavor requires params.beta > 0")
        # the trend check runs on every complete table, so a sweep it
        # cannot judge is rejected before any work
        if self.command == "sweep" and (len(set(self.sweep.lengths)) < 3
                                        or len(set(self.sweep.betas)) < 2):
            raise ConfigError("the sweep's trend check needs >= 3 distinct "
                              "sweep.lengths and >= 2 distinct sweep.betas")
        # every fracture the command meshes must fit (validate meshes slabs)
        meshed = {"sweep": self.sweep.lengths, "validate": []}.get(
            self.command, [self.domain.fracture_length])
        try:
            for L in meshed:
                self.domain.check_fracture(float(L))
        except GeometryError as exc:
            raise ConfigError(f"cannot mesh the reservoir: {exc}") from exc


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
    allowed = [f.name for f in fields(_SECTION_TYPES[name])]
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section '{name}' "
                              f"({name}.{key} is not a setting)")
        # bool is an int subclass: true would pass every numeric check as 1
        items = value if isinstance(value, list) else [value]
        if (name, key) != ("output", "write_vtk") and any(
                isinstance(v, bool) for v in items):
            raise ConfigError(f"{name}.{key} must not be true or false")
    kwargs = dict(data)
    if name == "domain" and "well" in kwargs:
        well = kwargs["well"]
        if not (isinstance(well, (list, tuple)) and len(well) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                        for c in well)):
            raise ConfigError("domain.well must be a [x, y] pair of numbers")
        kwargs["well"] = (float(well[0]), float(well[1]))
    try:
        return _SECTION_TYPES[name](**kwargs)
    except (ValueError, GeometryError, TypeError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def parse_config_data(data: dict) -> RunSpec:
    """Validate an already-decoded configuration object."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be an object")
    allowed = ("command",) + tuple(_SECTION_TYPES)
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'")
    if "command" not in data:
        raise ConfigError("missing required key 'command'")
    if "domain" not in data:
        raise ConfigError("missing required key 'domain'")
    kwargs = {"command": data["command"]}
    for name in _SECTION_TYPES:
        if name in data:
            kwargs[name] = _build_section(name, data[name])
    return RunSpec(**kwargs)


def parse_config(path) -> RunSpec:
    """Load and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"parse error in {path}: nested too deeply") from exc
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
