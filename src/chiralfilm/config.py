"""Run configuration: schema validation, defaults, and object construction.

A run is described by a single JSON document.  Validation rejects unknown
keys; resolution materializes every default so the echoed config is
self-contained and re-resolving an echoed config is the identity.
"""

from __future__ import annotations

import copy
import json

import jsonschema

from .descent import MinimizeOptions
from .perturbations import (
    EllipticTensor,
    ScalarSurfaceField,
    make_perturbation,
)
from .surfaces import SurfaceSpec, build_surface
from .targets import make_target


class ConfigError(ValueError):
    """Invalid run configuration (schema path and message)."""


_SCALAR_FIELD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["constant", "affine", "banded"]},
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
                "kind": {"enum": ["sphere", "torus", "cylinder", "flat_patch"]},
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
                "kind": {"enum": ["sphere", "ellipsoid"]},
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
                "kind": {
                    "enum": ["zero", "bulk_dmi", "interfacial_dmi", "anisotropic_dmi", "temperature"]
                },
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
                "kind": {"enum": ["identity", "scalar_field"]},
                "field": _SCALAR_FIELD_SCHEMA,
            },
        },
        "minimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iterations": {"type": "integer", "minimum": 0},
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
                "step_rule": {"enum": ["bb", "fixed"]},
                "initial_step": {"type": "number", "exclusiveMinimum": 0},
                "armijo_c": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.5},
                "shrink": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "max_halvings": {"type": "integer", "minimum": 1},
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
                "warm_start": {"enum": ["limit-first", "independent"]},
                "restarts": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
    },
}

_SURFACE_DEFAULTS = {
    "sphere": {"n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15},
    "torus": {"n_u": 64, "n_v": 64, "major_radius": 2.0, "minor_radius": 0.5},
    "cylinder": {"n_u": 64, "n_v": 64, "radius": 1.0, "height": 2.0},
    "flat_patch": {
        "n_u": 64,
        "n_v": 64,
        "lx": 1.0,
        "ly": 1.0,
        "periodic_u": False,
        "periodic_v": False,
        "flat_eps_max": 1.0,
    },
}

_MINIMIZER_DEFAULTS = {
    "max_iterations": 5000,
    "grad_tol": 1e-6,
    "step_rule": "bb",
    "initial_step": 1.0,
    "armijo_c": 1e-4,
    "shrink": 0.5,
    "max_halvings": 30,
}

_SWEEP_DEFAULTS = {
    "eps_list": [0.2, 0.1, 0.05, 0.025],
    "n_s": 8,
    "warm_start": "limit-first",
    "restarts": 1,
}


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
        eps_max = surface.get("flat_eps_max", 1.0)
    clipped = [e for e in _SWEEP_DEFAULTS["eps_list"] if e <= eps_max]
    return clipped or [0.5 * eps_max]

_SCALAR_FIELD_DEFAULTS = {"c0": 1.0, "c": [0.0, 0.0, 0.0], "c1": 0.0}


def validate_config(raw: dict):
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc


def _resolved_scalar_field(section: dict) -> dict:
    out = dict(_SCALAR_FIELD_DEFAULTS)
    out.update(section)
    out["kind"] = section["kind"]
    return {k: out[k] for k in ("kind", "c0", "c", "c1")}


def resolve_config(raw: dict) -> dict:
    """Validate and materialize all defaults; idempotent."""
    validate_config(raw)
    raw = copy.deepcopy(raw)
    cfg = {}

    surf = raw["surface"]
    kind = surf["kind"]
    merged = dict(_SURFACE_DEFAULTS[kind])
    for key, val in surf.items():
        if key != "kind" and key not in merged:
            raise ConfigError(f"config invalid at surface/{key}: not a parameter of kind {kind!r}")
        merged[key] = val
    merged["kind"] = kind
    cfg["surface"] = {k: merged[k] for k in sorted(merged)}

    tgt = raw["target"]
    if tgt["kind"] == "sphere":
        cfg["target"] = {"kind": "sphere", "radius": tgt.get("radius", 1.0)}
        if "semi_axes" in tgt:
            raise ConfigError("config invalid at target/semi_axes: not a sphere parameter")
    else:
        if "semi_axes" not in tgt:
            raise ConfigError("config invalid at target: ellipsoid requires semi_axes")
        if "radius" in tgt:
            raise ConfigError("config invalid at target/radius: not an ellipsoid parameter")
        cfg["target"] = {"kind": "ellipsoid", "semi_axes": tgt["semi_axes"]}

    pert = raw["perturbation"]
    pk = pert["kind"]
    resolved = {"kind": pk}
    if pk in ("bulk_dmi", "interfacial_dmi"):
        resolved["kappa"] = pert.get("kappa", 1.0)
        extra = set(pert) - {"kind", "kappa"}
    elif pk == "anisotropic_dmi":
        if "coupling" not in pert:
            raise ConfigError("config invalid at perturbation: anisotropic_dmi requires coupling")
        resolved["coupling"] = pert["coupling"]
        extra = set(pert) - {"kind", "coupling"}
    elif pk == "temperature":
        if "saturation" not in pert or "coupling" not in pert:
            raise ConfigError(
                "config invalid at perturbation: temperature requires saturation and coupling"
            )
        resolved["saturation"] = _resolved_scalar_field(pert["saturation"])
        resolved["coupling"] = pert["coupling"]
        extra = set(pert) - {"kind", "saturation", "coupling"}
    else:
        extra = set(pert) - {"kind"}
    if extra:
        raise ConfigError(
            f"config invalid at perturbation/{sorted(extra)[0]}: not a parameter of kind {pk!r}"
        )
    cfg["perturbation"] = resolved

    tensor = raw.get("tensor", {"kind": "identity"})
    if tensor["kind"] == "identity":
        if "field" in tensor:
            raise ConfigError("config invalid at tensor/field: identity tensor takes no field")
        cfg["tensor"] = {"kind": "identity"}
    else:
        if "field" not in tensor:
            raise ConfigError("config invalid at tensor: scalar_field requires field")
        cfg["tensor"] = {"kind": "scalar_field", "field": _resolved_scalar_field(tensor["field"])}

    mini = dict(_MINIMIZER_DEFAULTS)
    mini.update(raw.get("minimizer", {}))
    cfg["minimizer"] = {k: mini[k] for k in sorted(mini)}

    swp = dict(_SWEEP_DEFAULTS)
    swp["eps_list"] = _default_eps_list(cfg["surface"])  # default is budget-clipped
    swp.update(raw.get("sweep", {}))
    cfg["sweep"] = {k: swp[k] for k in sorted(swp)}

    cfg["seed"] = raw.get("seed", 0)
    cfg["output_dir"] = raw.get("output_dir", "chiralfilm-run")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(raw)


def scalar_field_from(cfg: dict) -> ScalarSurfaceField:
    return ScalarSurfaceField(kind=cfg["kind"], c0=cfg["c0"], c=tuple(cfg["c"]), c1=cfg["c1"])


def build_objects(cfg: dict):
    """Instantiate (grid, target, perturbation, tensor, options) from a
    resolved config."""
    s = cfg["surface"]
    spec_kwargs = {k: v for k, v in s.items() if k != "kind"}
    grid = build_surface(SurfaceSpec(kind=s["kind"], **spec_kwargs))

    t = cfg["target"]
    target = make_target(t["kind"], **{k: v for k, v in t.items() if k != "kind"})

    p = dict(cfg["perturbation"])
    kind = p.pop("kind")
    if kind == "temperature":
        p["saturation"] = scalar_field_from(p["saturation"])
    pert = make_perturbation(kind, **p)

    tens = cfg["tensor"]
    if tens["kind"] == "identity":
        tensor = EllipticTensor("identity")
    else:
        tensor = EllipticTensor("scalar_field", scalar_field_from(tens["field"]))

    options = MinimizeOptions(**cfg["minimizer"])
    return grid, target, pert, tensor, options


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
