import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.config import SCHEMA, ConfigError, resolve_config
from chiralfilm.reporting import dumps_canonical
from chiralfilm.surfaces import SurfaceSpec

positive = st.floats(0.05, 20.0)
number = st.floats(-5.0, 5.0)
vector = st.lists(number, min_size=3, max_size=3)
matrix = st.lists(vector, min_size=3, max_size=3)


def section(kind, required, optional):
    """A section of the given kind: every required parameter, any subset of the optional ones."""
    return st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)


scalar_field = st.one_of(*(section(kind, {}, {"c0": number, "c": vector, "c1": number})
                           for kind in ("constant", "affine", "banded")))
grid = {"n_u": st.integers(4, 256), "n_v": st.integers(4, 256)}

# Every kind of every section: (required, optional) parameter strategies.
KINDS = {
    "surface": {
        "sphere": ({}, {**grid, "radius": positive, "theta_cap": positive}),
        "torus": ({}, {**grid, "major_radius": positive, "minor_radius": positive}),
        "cylinder": ({}, {**grid, "radius": positive, "height": positive}),
        "flat_patch": ({}, {**grid, "lx": positive, "ly": positive, "periodic_u": st.booleans(),
                            "periodic_v": st.booleans(), "flat_eps_max": positive}),
    },
    "target": {
        "sphere": ({}, {"radius": positive}),
        "ellipsoid": ({"semi_axes": st.lists(positive, min_size=3, max_size=3)}, {}),
    },
    "perturbation": {
        "zero": ({}, {}),
        "bulk_dmi": ({}, {"kappa": number}),
        "interfacial_dmi": ({}, {"kappa": number}),
        "anisotropic_dmi": ({"coupling": matrix}, {}),
        "temperature": ({"saturation": scalar_field, "coupling": matrix}, {}),
    },
    "tensor": {
        "identity": ({}, {}),
        "scalar_field": ({"field": scalar_field}, {}),
    },
}


def any_kind(name):
    return st.one_of(*(section(kind, *params) for kind, params in KINDS[name].items()))


minimizer = st.fixed_dictionaries({}, optional={
    "max_iterations": st.integers(0, 10000),
    "grad_tol": st.floats(1e-12, 1.0),
})
sweep = st.fixed_dictionaries({}, optional={
    "eps_list": st.lists(positive, min_size=1, max_size=5),
    "n_s": st.integers(4, 32),
    "restarts": st.integers(1, 5),
})
configs = st.fixed_dictionaries(
    {name: any_kind(name) for name in ("surface", "target", "perturbation")},
    optional={
        "tensor": any_kind("tensor"),
        "minimizer": minimizer,
        "sweep": sweep,
        "seed": st.integers(0, 2**31),
        "output_dir": st.text(min_size=1, max_size=12),
    },
)


def assert_invalid_at(raw, path):
    with pytest.raises(ConfigError, match="^config invalid at " + re.escape(path)):
        resolve_config(raw)


def _without_thickness(raw):
    """A torus whose tube meets its axis, with the thickness list left to the default."""
    surface = raw["surface"]
    major = surface.get("major_radius", SurfaceSpec.major_radius)
    minor = surface.get("minor_radius", SurfaceSpec.minor_radius)
    return surface["kind"] == "torus" and major <= minor and "eps_list" not in raw.get("sweep", {})


@given(raw=configs, data=st.data())
def test_resolve_config_properties(raw, data):
    if _without_thickness(raw):
        assert_invalid_at(raw, "surface")
        return
    before = copy.deepcopy(raw)
    cfg = resolve_config(raw)
    assert raw == before
    assert resolve_config(cfg) == cfg
    text = dumps_canonical(cfg)
    assert dumps_canonical(resolve_config(json.loads(text))) == text

    name = data.draw(st.sampled_from([s for s in KINDS if s in raw]))
    required, optional = KINDS[name][raw[name]["kind"]]
    for key in required:
        bad = copy.deepcopy(raw)
        del bad[name][key]
        assert_invalid_at(bad, name)
    foreign = {key: strategy for req, opt in KINDS[name].values()
               for key, strategy in {**req, **opt}.items()
               if key not in required and key not in optional}
    if foreign:
        key = data.draw(st.sampled_from(sorted(foreign)))
        bad = copy.deepcopy(raw)
        bad[name][key] = data.draw(foreign[key])
        assert_invalid_at(bad, f"{name}/{key}")
    bad = copy.deepcopy(raw)
    bad[name]["mystery"] = 1
    assert_invalid_at(bad, name)


def test_resolved_defaults_are_copies():
    raw = {
        "surface": {"kind": "sphere"},
        "target": {"kind": "sphere"},
        "perturbation": {"kind": "temperature", "saturation": {"kind": "affine"},
                         "coupling": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "tensor": {"kind": "scalar_field", "field": {"kind": "affine"}},
    }
    first = resolve_config(raw)
    first["tensor"]["field"]["c"][2] = 7.0
    first["perturbation"]["saturation"]["c"][0] = 3.0
    first["sweep"]["eps_list"].append(0.01)
    again = resolve_config(raw)
    assert again["tensor"]["field"]["c"] == [0.0, 0.0, 0.0]
    assert again["perturbation"]["saturation"]["c"] == [0.0, 0.0, 0.0]
    assert again["sweep"]["eps_list"] == [0.2, 0.1, 0.05, 0.025]


def _schema_names(schema):
    """Every key of the schema's sections, nested ones included, and every `kind` value."""
    for key, sub in schema.get("properties", {}).items():
        yield key
        if key == "kind":
            yield from sub["enum"]
        yield from _schema_names(sub)


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = sorted({name for name in _schema_names(SCHEMA) if f"`{name}`" not in readme})
    assert missing == []
