"""Run configuration: validation, defaults, and object construction.

A run is described by a single JSON document, and two tables describe the
document once.  `_KINDS` names each section's kinds, the class a kind builds
and its parameters, whose defaults are read from that class; `_VALUES` holds
the rule each key's value meets.  Resolution rejects unknown keys and
materializes every default, so the echoed config is self-contained and
re-resolving an echoed config is the identity.
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from typing import NamedTuple

from .descent import MinimizeOptions
from .perturbations import (
    AnisotropicDMI,
    BulkDMI,
    EllipticTensor,
    InterfacialDMI,
    ScalarSurfaceField,
    TemperatureDMI,
    ZeroPerturbation,
)
from .surfaces import SurfaceError, SurfaceSpec, build_surface, thickness_budget
from .sweep import DEFAULT_EPS_LIST, SweepConfig
from .targets import EllipsoidTarget, SphereTarget


class ConfigError(ValueError):
    """Invalid run configuration (path and message)."""


_REQUIRED = object()  # marks a parameter without a default


def _params(factory, *names):
    """{name: default} for the named parameters of `factory`; _REQUIRED where it has none."""
    signature = inspect.signature(factory).parameters
    return {n: _REQUIRED if signature[n].default is inspect.Parameter.empty else signature[n].default
            for n in names}


class _Kind(NamedTuple):
    cls: type     # the class a section of this kind builds
    params: dict  # its parameters and their defaults


def _kind(cls, *names):
    return _Kind(cls, _params(cls, *names))


_GRID = ("n_u", "n_v")
_SCALAR_FIELD_PARAMS = ("saturation", "field")  # parameters that hold a scalar-field section
_SCALAR_FIELD_KINDS = {  # each kind takes only the parameters it reads
    "constant": _kind(ScalarSurfaceField, "c0"),
    "affine": _kind(ScalarSurfaceField, "c0", "c"),
    "banded": _kind(ScalarSurfaceField, "c0", "c1"),
}
# Per section, each kind's class, parameters and their defaults.
_KINDS = {
    "surface": {
        "sphere": _kind(SurfaceSpec, *_GRID, "radius", "theta_cap"),
        "torus": _kind(SurfaceSpec, *_GRID, "major_radius", "minor_radius"),
        "cylinder": _kind(SurfaceSpec, *_GRID, "radius", "height"),
        "flat_patch": _kind(SurfaceSpec, *_GRID, "lx", "ly", "periodic_u", "periodic_v",
                            "flat_eps_max"),
    },
    "target": {
        "sphere": _kind(SphereTarget, "radius"),
        "ellipsoid": _kind(EllipsoidTarget, "semi_axes"),
    },
    "perturbation": {
        "zero": _kind(ZeroPerturbation),
        "bulk_dmi": _kind(BulkDMI, "kappa"),
        "interfacial_dmi": _kind(InterfacialDMI, "kappa"),
        "anisotropic_dmi": _kind(AnisotropicDMI, "coupling"),
        "temperature": _kind(TemperatureDMI, "saturation", "coupling"),
    },
    "tensor": {
        "identity": _kind(EllipticTensor),
        "scalar_field": _Kind(EllipticTensor, {"field": _REQUIRED}),
    },
}
# The sections without a kind, with their keys and defaults, and the root's own keys.
_SETTINGS = {
    "minimizer": _params(MinimizeOptions, "max_iterations", "grad_tol"),
    "sweep": _params(SweepConfig, "eps_list", "n_s", "restarts"),
}
_ROOT = {"seed": SweepConfig.seed, "output_dir": "chiralfilm-run"}


def _number(value) -> bool:
    """A JSON number that is a finite double; a boolean is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _positive(value) -> bool:
    return _number(value) and value > 0


def _integer(least: int):
    """An integer of at least `least`; a float such as 4.0 is not one."""
    return (f"an integer >= {least}",
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least)


def _array(item, length=None):
    """A list of `length` values (of at least one when None), each passing `item`."""
    return lambda v: (isinstance(v, list) and (len(v) == length if length else len(v) > 0)
                      and all(item(x) for x in v))


# The rule each key's value meets; `kind` and the scalar-field sections are
# checked by _resolve_kind.
_VALUES = {
    **dict.fromkeys(("n_u", "n_v", "n_s"), _integer(4)),
    **dict.fromkeys(("radius", "theta_cap", "major_radius", "minor_radius", "height", "lx", "ly",
                     "flat_eps_max", "grad_tol"), ("a positive finite number", _positive)),
    **dict.fromkeys(("periodic_u", "periodic_v"), ("a boolean", lambda v: isinstance(v, bool))),
    **dict.fromkeys(("kappa", "c0", "c1"), ("a finite number", _number)),
    "c": ("3 finite numbers", _array(_number, 3)),
    "semi_axes": ("3 positive finite numbers", _array(_positive, 3)),
    "coupling": ("a 3x3 matrix of finite numbers", _array(_array(_number, 3), 3)),
    "eps_list": ("a non-empty list of positive finite numbers", _array(_positive)),
    "max_iterations": _integer(0),
    "restarts": _integer(1),
    "seed": _integer(0),
    "output_dir": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
}


def _check(path: str, key: str, value):
    text, test = _VALUES[key]
    if not test(value):
        raise ConfigError(f"config invalid at {path}: must be {text}")


def _default_eps_list(surface: dict) -> list:
    """DEFAULT_EPS_LIST clipped to the surface's thickness budget."""
    eps_max = thickness_budget(SurfaceSpec(**surface)).eps_max
    clipped = [e for e in DEFAULT_EPS_LIST if e <= eps_max] or [0.5 * eps_max]
    if clipped[0] <= 0.0:
        raise ConfigError("config invalid at surface: its curvature admits no film thickness")
    return clipped


def _resolve_kind(kinds: dict, section, path: str) -> dict:
    """`section` checked, with every parameter of its kind present; defaults are copied."""
    if not isinstance(section, dict):
        raise ConfigError(f"config invalid at {path}: must be an object")
    if "kind" not in section:
        raise ConfigError(f"config invalid at {path}: 'kind' is required")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"config invalid at {path}/kind: must be one of {', '.join(kinds)}")
    params = kinds[kind].params
    for key in section:
        if key != "kind" and key not in params:
            raise ConfigError(f"config invalid at {path}/{key}: not a parameter of kind {kind!r}")
    out = {"kind": kind}
    for key, default in params.items():
        if key in _SCALAR_FIELD_PARAMS and key in section:
            value = _resolve_kind(_SCALAR_FIELD_KINDS, section[key], f"{path}/{key}")
        elif key in section:
            value = section[key]
            _check(f"{path}/{key}", key, value)
        elif default is _REQUIRED:
            raise ConfigError(f"config invalid at {path}: kind {kind!r} requires {key}")
        else:
            value = list(default) if isinstance(default, tuple) else default
        out[key] = value
    return out


def _resolve_settings(section, defaults: dict, path: str) -> dict:
    """A section without a kind, checked and completed with `defaults`."""
    if not isinstance(section, dict):
        raise ConfigError(f"config invalid at {path}: must be an object")
    for key, value in section.items():
        if key not in defaults:
            raise ConfigError(f"config invalid at {path}: unknown key {key!r}")
        _check(f"{path}/{key}", key, value)
    return {**defaults, **section}


def resolve_config(raw: dict) -> dict:
    """Check and materialize all defaults; idempotent."""
    if not isinstance(raw, dict):
        raise ConfigError("config invalid at <root>: must be an object")
    for key in raw:
        if key not in _KINDS and key not in _SETTINGS and key not in _ROOT:
            raise ConfigError(f"config invalid at <root>: unknown key {key!r}")
    raw = {"tensor": {"kind": "identity"}, **copy.deepcopy(raw)}
    missing = [section for section in _KINDS if section not in raw]
    if missing:
        raise ConfigError(f"config invalid at <root>: missing {', '.join(missing)}")
    cfg = {section: _resolve_kind(kinds, raw[section], section) for section, kinds in _KINDS.items()}
    for name, defaults in _SETTINGS.items():
        cfg[name] = _resolve_settings(raw.get(name, {}), defaults, name)
    if "eps_list" not in raw.get("sweep", {}):  # the default is clipped to the curvature budget
        cfg["sweep"]["eps_list"] = _default_eps_list(cfg["surface"])
    for key, default in _ROOT.items():
        cfg[key] = raw.get(key, default)
        _check(key, key, cfg[key])
    return cfg


def read_config(path: str) -> dict:
    """The raw, unresolved JSON document at `path`."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config invalid at <root>: {path} does not hold a JSON object")
    return raw


def _arguments(section: dict) -> dict:
    """Keyword arguments of a resolved section, with its scalar fields built."""
    return {k: ScalarSurfaceField(**{p: tuple(x) if p == "c" else x for p, x in v.items()})
            if k in _SCALAR_FIELD_PARAMS else v for k, v in section.items()}


def _construct(section: str, resolved: dict):
    """The target or perturbation a resolved section describes, built by its kind's class."""
    args = _arguments(resolved)
    return _KINDS[section][args.pop("kind")].cls(**args)


def build_objects(cfg: dict) -> SweepConfig:
    """The sweep a resolved config describes: its grid, target, perturbation,
    tensor, minimizer options and sweep settings."""
    sweep = cfg["sweep"]
    try:
        grid = build_surface(SurfaceSpec(**cfg["surface"]))
    except SurfaceError as exc:
        raise ConfigError(f"config invalid at surface: {exc}") from exc
    return SweepConfig(
        grid=grid,
        target=_construct("target", cfg["target"]),
        pert=_construct("perturbation", cfg["perturbation"]),
        tensor=EllipticTensor(**_arguments(cfg["tensor"])),
        eps_list=tuple(sweep["eps_list"]),
        n_s=sweep["n_s"],
        options=MinimizeOptions(**cfg["minimizer"]),
        restarts=sweep["restarts"],
        seed=cfg["seed"],
    )


def _preset(perturbation, **sections):
    """A preset's raw config: the 64x64 sphere band, the unit-sphere target, the
    minimizer, restarts and seed every preset shares, around `perturbation`."""
    return {
        "surface": {"kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
        "target": {"kind": "sphere", "radius": 1.0},
        "perturbation": perturbation,
        **sections,
        "minimizer": {"max_iterations": 6000, "grad_tol": 1e-7},
        "sweep": {"restarts": 3},
        "seed": 1234,
    }


_SATURATION = {"kind": "affine", "c0": 1.5, "c": [0.0, 0.0, 0.3]}

# The paper's four antisymmetric-exchange variants, each writing into runs/<name>.
PRESETS = {name: {**raw, "output_dir": f"runs/{name}"} for name, raw in {
    "bulk": _preset({"kind": "bulk_dmi", "kappa": 1.0}),
    "interfacial": _preset({"kind": "interfacial_dmi", "kappa": 1.0}),
    "anisotropic": _preset({
        "kind": "anisotropic_dmi",
        "coupling": [[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]],
    }),
    "temperature": _preset(
        {"kind": "temperature", "saturation": _SATURATION,
         "coupling": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        tensor={"kind": "scalar_field", "field": _SATURATION},
    ),
}.items()}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return resolve_config(copy.deepcopy(PRESETS[name]))
