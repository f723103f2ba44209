"""Run configuration: schema validation, defaults, and object construction.

A run is described by a single JSON document.  Validation rejects unknown
keys; resolution materializes every default so the echoed config is
self-contained and re-resolving an echoed config is the identity.  Each
default is read from the library class the parameter is passed to.
"""

from __future__ import annotations

import copy
import inspect
import json

import jsonschema

from .descent import MinimizeOptions
from .perturbations import (
    AnisotropicDMI,
    BulkDMI,
    EllipticTensor,
    InterfacialDMI,
    ScalarSurfaceField,
    TemperatureDMI,
    make_perturbation,
)
from .surfaces import SurfaceSpec, build_surface
from .sweep import DEFAULT_EPS_LIST, SweepConfig
from .targets import EllipsoidTarget, SphereTarget, make_target


class ConfigError(ValueError):
    """Invalid run configuration (schema path and message)."""


_REQUIRED = object()  # marks a parameter without a default


def _params(factory, *names):
    """{name: default} for the named parameters of `factory`; _REQUIRED where it has none."""
    signature = inspect.signature(factory).parameters
    return {n: _REQUIRED if signature[n].default is inspect.Parameter.empty else signature[n].default
            for n in names}


_GRID = ("n_u", "n_v")
_SCALAR_FIELD_PARAMS = ("saturation", "field")  # parameters that hold a scalar-field section
_SCALAR_FIELD_KINDS = {
    kind: _params(ScalarSurfaceField, "c0", "c", "c1") for kind in ("constant", "affine", "banded")
}
# Per section, each kind's parameters and their defaults.
_KINDS = {
    "surface": {
        "sphere": _params(SurfaceSpec, *_GRID, "radius", "theta_cap"),
        "torus": _params(SurfaceSpec, *_GRID, "major_radius", "minor_radius"),
        "cylinder": _params(SurfaceSpec, *_GRID, "radius", "height"),
        "flat_patch": _params(SurfaceSpec, *_GRID, "lx", "ly", "periodic_u", "periodic_v",
                              "flat_eps_max"),
    },
    "target": {
        "sphere": _params(SphereTarget, "radius"),
        "ellipsoid": _params(EllipsoidTarget, "semi_axes"),
    },
    "perturbation": {
        "zero": {},
        "bulk_dmi": _params(BulkDMI, "kappa"),
        "interfacial_dmi": _params(InterfacialDMI, "kappa"),
        "anisotropic_dmi": _params(AnisotropicDMI, "coupling"),
        "temperature": _params(TemperatureDMI, "saturation", "coupling"),
    },
    "tensor": {"identity": {}, "scalar_field": {"field": _REQUIRED}},
}

_SCALAR_FIELD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_SCALAR_FIELD_KINDS)},
        "c0": {"type": "number"},
        "c": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
        "c1": {"type": "number"},
    },
}

_MATRIX_SCHEMA = {
    "type": "array",
    "minItems": 3,
    "maxItems": 3,
    "items": {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3},
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["surface", "target", "perturbation"],
    "properties": {
        "surface": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(_KINDS["surface"])},
                "n_u": {"type": "integer", "minimum": 4},
                "n_v": {"type": "integer", "minimum": 4},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "theta_cap": {"type": "number", "exclusiveMinimum": 0},
                "major_radius": {"type": "number", "exclusiveMinimum": 0},
                "minor_radius": {"type": "number", "exclusiveMinimum": 0},
                "height": {"type": "number", "exclusiveMinimum": 0},
                "lx": {"type": "number", "exclusiveMinimum": 0},
                "ly": {"type": "number", "exclusiveMinimum": 0},
                "periodic_u": {"type": "boolean"},
                "periodic_v": {"type": "boolean"},
                "flat_eps_max": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "target": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(_KINDS["target"])},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "semi_axes": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "perturbation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(_KINDS["perturbation"])},
                "kappa": {"type": "number"},
                "coupling": _MATRIX_SCHEMA,
                "saturation": _SCALAR_FIELD_SCHEMA,
            },
        },
        "tensor": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(_KINDS["tensor"])},
                "field": _SCALAR_FIELD_SCHEMA,
            },
        },
        "minimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iterations": {"type": "integer", "minimum": 0},
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eps_list": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "n_s": {"type": "integer", "minimum": 4},
                "restarts": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
    },
}

_MINIMIZER = _params(MinimizeOptions, *SCHEMA["properties"]["minimizer"]["properties"])
_SWEEP = _params(SweepConfig, "n_s", "restarts")


def _surface_kappa_max(surface: dict) -> float:
    kind = surface["kind"]
    if kind == "sphere":
        return 1.0 / surface["radius"]
    if kind == "torus":
        a, b = surface["major_radius"], surface["minor_radius"]
        return max(1.0 / b, 1.0 / (a - b)) if a > b else float("inf")
    if kind == "cylinder":
        return 1.0 / surface["radius"]
    return 0.0


def _default_eps_list(surface: dict) -> list:
    kappa = _surface_kappa_max(surface)
    if kappa > 0.0:
        eps_max = 1.0 / (2.0 * kappa)
    else:
        eps_max = surface["flat_eps_max"]
    clipped = [e for e in DEFAULT_EPS_LIST if e <= eps_max] or [0.5 * eps_max]
    if clipped[0] <= 0.0:
        raise ConfigError("config invalid at surface: its curvature admits no film thickness")
    return clipped


# Built once: jsonschema.validate would check SCHEMA against its meta-schema on
# every call, 99% of the cost of resolving a config.
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def validate_config(raw: dict):
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {error.message}")


def _resolve_kind(kinds: dict, section: dict, path: str) -> dict:
    """`section` with every parameter of its kind present; defaults are copied."""
    kind = section["kind"]
    params = kinds[kind]
    for key in section:
        if key != "kind" and key not in params:
            raise ConfigError(f"config invalid at {path}/{key}: not a parameter of kind {kind!r}")
    out = {"kind": kind}
    for key, default in params.items():
        if key in section:
            value = section[key]
        elif default is _REQUIRED:
            raise ConfigError(f"config invalid at {path}: kind {kind!r} requires {key}")
        else:
            value = list(default) if isinstance(default, tuple) else default
        if key in _SCALAR_FIELD_PARAMS:
            value = _resolve_kind(_SCALAR_FIELD_KINDS, value, f"{path}/{key}")
        out[key] = value
    return out


def resolve_config(raw: dict) -> dict:
    """Validate and materialize all defaults; idempotent."""
    validate_config(raw)
    raw = copy.deepcopy(raw)
    raw.setdefault("tensor", {"kind": "identity"})
    cfg = {section: _resolve_kind(kinds, raw[section], section) for section, kinds in _KINDS.items()}
    cfg["minimizer"] = {**_MINIMIZER, **raw.get("minimizer", {})}
    cfg["sweep"] = {**_SWEEP, **raw.get("sweep", {})}
    if "eps_list" not in cfg["sweep"]:  # the default is clipped to the curvature budget
        cfg["sweep"]["eps_list"] = _default_eps_list(cfg["surface"])
    cfg["seed"] = raw.get("seed", SweepConfig.seed)
    cfg["output_dir"] = raw.get("output_dir", "chiralfilm-run")
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


def load_config(path: str) -> dict:
    return resolve_config(read_config(path))


def _arguments(section: dict) -> dict:
    """Keyword arguments of a resolved section, with its scalar fields built."""
    return {k: ScalarSurfaceField(**dict(v, c=tuple(v["c"]))) if k in _SCALAR_FIELD_PARAMS else v
            for k, v in section.items()}


def build_objects(cfg: dict) -> SweepConfig:
    """The sweep a resolved config describes: its grid, target, perturbation,
    tensor, minimizer options and sweep settings."""
    sweep = cfg["sweep"]
    return SweepConfig(
        grid=build_surface(SurfaceSpec(**cfg["surface"])),
        target=make_target(**cfg["target"]),
        pert=make_perturbation(**_arguments(cfg["perturbation"])),
        tensor=EllipticTensor(**_arguments(cfg["tensor"])),
        eps_list=tuple(sweep["eps_list"]),
        n_s=sweep["n_s"],
        options=MinimizeOptions(**cfg["minimizer"]),
        restarts=sweep["restarts"],
        seed=cfg["seed"],
    )


_PRESET_MINIMIZER = {"max_iterations": 6000, "grad_tol": 1e-7}
_PRESET_SWEEP = {"restarts": 3}

PRESETS = {
    "bulk": {
        "surface": {"kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
        "target": {"kind": "sphere", "radius": 1.0},
        "perturbation": {"kind": "bulk_dmi", "kappa": 1.0},
        "minimizer": _PRESET_MINIMIZER,
        "sweep": _PRESET_SWEEP,
        "seed": 1234,
        "output_dir": "runs/bulk",
    },
    "interfacial": {
        "surface": {"kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
        "target": {"kind": "sphere", "radius": 1.0},
        "perturbation": {"kind": "interfacial_dmi", "kappa": 1.0},
        "minimizer": _PRESET_MINIMIZER,
        "sweep": _PRESET_SWEEP,
        "seed": 1234,
        "output_dir": "runs/interfacial",
    },
    "anisotropic": {
        "surface": {"kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
        "target": {"kind": "sphere", "radius": 1.0},
        "perturbation": {
            "kind": "anisotropic_dmi",
            "coupling": [[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]],
        },
        "minimizer": _PRESET_MINIMIZER,
        "sweep": _PRESET_SWEEP,
        "seed": 1234,
        "output_dir": "runs/anisotropic",
    },
    "temperature": {
        "surface": {"kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
        "target": {"kind": "sphere", "radius": 1.0},
        "perturbation": {
            "kind": "temperature",
            "saturation": {"kind": "affine", "c0": 1.5, "c": [0.0, 0.0, 0.3]},
            "coupling": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
        "tensor": {
            "kind": "scalar_field",
            "field": {"kind": "affine", "c0": 1.5, "c": [0.0, 0.0, 0.3]},
        },
        "minimizer": _PRESET_MINIMIZER,
        "sweep": _PRESET_SWEEP,
        "seed": 1234,
        "output_dir": "runs/temperature",
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return resolve_config(copy.deepcopy(PRESETS[name]))
