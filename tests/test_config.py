import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm import config
from chiralfilm.cli import main
from chiralfilm.config import ConfigError, build_objects, resolve_config
from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    InterfacialDMI,
    PerturbationError,
    TemperatureDMI,
    ZeroPerturbation,
)
from chiralfilm.reporting import dumps_canonical
from chiralfilm.surfaces import SurfaceSpec
from chiralfilm.targets import EllipsoidTarget, SphereTarget, TargetError

positive = st.floats(0.05, 20.0)
number = st.floats(-5.0, 5.0)
vector = st.lists(number, min_size=3, max_size=3)
matrix = st.lists(vector, min_size=3, max_size=3)


def section(kind, required, optional):
    """A section of the given kind: every required parameter, any subset of the optional ones."""
    return st.fixed_dictionaries({"kind": st.just(kind), **required}, optional=optional)


# Each scalar-field kind's own parameters; a parameter of another kind is rejected.
SCALAR_FIELDS = {"constant": {"c0": number}, "affine": {"c0": number, "c": vector},
                 "banded": {"c0": number, "c1": number}}
scalar_field = st.one_of(*(section(kind, {}, params) for kind, params in SCALAR_FIELDS.items()))
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


FOREIGN_SCALAR_PARAMETERS = [(kind, key) for kind, params in SCALAR_FIELDS.items()
                             for key in ("c0", "c", "c1") if key not in params]


@pytest.mark.parametrize("kind, key", FOREIGN_SCALAR_PARAMETERS)
@pytest.mark.parametrize("place", ["perturbation/saturation", "tensor/field"])
def test_a_scalar_field_rejects_the_parameters_of_other_kinds(kind, key, place):
    # the field reads only its own kind's parameters, so another kind's would be ignored
    section, name = place.split("/")
    raw = {"surface": {"kind": "sphere", "n_u": 8, "n_v": 8}, "target": {"kind": "sphere"},
           "perturbation": {"kind": "temperature", "saturation": {"kind": "constant"},
                            "coupling": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    raw.setdefault(section, {"kind": "scalar_field"})[name] = {"kind": kind}
    assert set(resolve_config(raw)[section][name]) == {"kind", *SCALAR_FIELDS[kind]}
    raw[section][name][key] = [5.0, 0.0, 0.0] if key == "c" else 3.0
    assert_invalid_at(raw, f"{place}/{key}")


def _config_names():
    """Every section, key and `kind` value the config tables describe."""
    yield from ("kind", *config._KINDS, *config._SETTINGS, *config._ROOT, *config._VALUES)
    for kinds in (*config._KINDS.values(), config._SCALAR_FIELD_KINDS):
        for kind, entry in kinds.items():
            yield kind
            yield from entry.params
    for defaults in config._SETTINGS.values():
        yield from defaults


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = sorted({name for name in _config_names() if f"`{name}`" not in readme})
    assert missing == []


TINY = {"surface": {"kind": "sphere", "n_u": 8, "n_v": 8}, "target": {"kind": "sphere"},
        "perturbation": {"kind": "bulk_dmi"}}
EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("change, path", [
    ({"surface": {"kind": "sphere", "n_u": 3}}, "surface/n_u"),
    ({"surface": {"kind": "sphere", "n_u": 4.5}}, "surface/n_u"),
    ({"surface": {"kind": "sphere", "n_u": True}}, "surface/n_u"),
    ({"surface": {"kind": "sphere", "radius": 0}}, "surface/radius"),
    ({"target": {"kind": "sphere", "radius": "1"}}, "target/radius"),
    ({"surface": {"kind": "flat_patch", "periodic_u": 1}}, "surface/periodic_u"),
    ({"target": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0]}}, "target/semi_axes"),
    ({"perturbation": {"kind": "anisotropic_dmi", "coupling": EYE[:2]}}, "perturbation/coupling"),
    ({"perturbation": {"kind": "bulk_dmi", "kappa": "x"}}, "perturbation/kappa"),
    ({"tensor": {"kind": "scalar_field", "field": {"kind": "affine", "c": [0.0, 0.3]}}},
     "tensor/field/c"),
    ({"sweep": {"eps_list": []}}, "sweep/eps_list"),
    ({"sweep": {"eps_list": [-0.1]}}, "sweep/eps_list"),
    ({"sweep": {"n_s": 3}}, "sweep/n_s"),
    ({"sweep": {"restarts": 0}}, "sweep/restarts"),
    ({"minimizer": {"max_iterations": -1}}, "minimizer/max_iterations"),
    ({"minimizer": {"grad_tol": 0}}, "minimizer/grad_tol"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"output_dir": ""}, "output_dir"),
    ({"target": {"kind": []}}, "target/kind"),
    ({"perturbation": {"kind": "nope"}}, "perturbation/kind"),
    ({"tensor": []}, "tensor"),
], ids=str)
def test_rejected_values(change, path):
    with pytest.raises(ConfigError, match="^config invalid at " + re.escape(path) + "[:/]"):
        resolve_config({**copy.deepcopy(TINY), **change})


def test_integral_float_is_rejected(tmp_path, capsys):
    # a float such as 8.0 in an integer key stops the run at its path, before
    # the library meets it where only an int will do
    for section, key in [("surface", "n_u"), ("surface", "n_v"), ("sweep", "n_s"),
                         ("sweep", "restarts"), ("minimizer", "max_iterations"), (None, "seed")]:
        raw = {**copy.deepcopy(TINY), "minimizer": {"max_iterations": 5},
               "sweep": {"n_s": 4, "restarts": 1}, "seed": 3, "output_dir": str(tmp_path / key)}
        owner = raw[section] if section else raw
        owner[key] = float(owner[key])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(path), "--quiet"]) == 1, key
        err = capsys.readouterr().err
        assert f"config invalid at {section + '/' if section else ''}{key}:" in err, err
        assert "Traceback" not in err


NON_FINITE = [("surface", "radius"), ("minimizer", "grad_tol"), ("perturbation", "kappa")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("section, key", NON_FINITE, ids=str)
def test_non_finite_numbers_rejected(section, key, value, tmp_path, capsys):
    raw = copy.deepcopy(TINY)
    raw.setdefault(section, {})[key] = value
    raw["output_dir"] = str(tmp_path / "out")
    assert_invalid_at(raw, f"{section}/{key}:")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))  # NaN and Infinity literals, which json.load accepts
    assert main(["minimize", "--config", str(path), "--quiet"]) == 1
    assert f"config invalid at {section}/{key}:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _built(section, value):
    return getattr(build_objects(resolve_config({**TINY, section: value})),
                   "pert" if section == "perturbation" else section)


def test_target_kinds_build_their_class():
    assert type(_built("target", {"kind": "sphere", "radius": 2.0})) is SphereTarget
    assert type(_built("target", {"kind": "ellipsoid", "semi_axes": [2.0, 1.0, 1.0]})) is EllipsoidTarget
    assert_invalid_at({**TINY, "target": {"kind": "cube"}}, "target/kind:")
    with pytest.raises(TargetError):
        SphereTarget(0.0)
    with pytest.raises(TargetError):
        EllipsoidTarget([1.0, -1.0, 1.0])


def test_perturbation_kinds_build_their_class():
    assert type(_built("perturbation", {"kind": "zero"})) is ZeroPerturbation
    assert _built("perturbation", {"kind": "bulk_dmi", "kappa": 2.0}).kappa == 2.0
    assert type(_built("perturbation", {"kind": "bulk_dmi"})) is BulkDMI
    assert type(_built("perturbation", {"kind": "interfacial_dmi", "kappa": 1.0})) is InterfacialDMI
    assert type(_built("perturbation", {"kind": "anisotropic_dmi", "coupling": EYE})) is AnisotropicDMI
    temp = _built("perturbation", {"kind": "temperature", "coupling": EYE,
                                   "saturation": {"kind": "constant", "c0": 1.0}})
    assert type(temp) is TemperatureDMI and temp.saturation.c0 == 1.0
    assert_invalid_at({**TINY, "perturbation": {"kind": "wavy"}}, "perturbation/kind:")
    with pytest.raises(PerturbationError):
        AnisotropicDMI(np.eye(4))
