import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chiralfilm import __version__
from chiralfilm import sweep as sweep_module
from chiralfilm.cli import _COMMANDS, _build_parser, main
from chiralfilm.config import (
    ConfigError,
    build_objects,
    preset_config,
    read_config,
    resolve_config,
)
from chiralfilm.descent import random_field
from chiralfilm.energies import DirectorField, EnergyError, LimitEnergy, ThinFilmEnergy
from chiralfilm.reporting import (
    dumps_canonical,
    read_field_csv,
    write_field_csv,
    write_json,
)
from chiralfilm.surfaces import SurfaceSpec, build_surface
from oracles import field_csv_by_rows

TINY = {
    "surface": {"kind": "sphere", "n_u": 12, "n_v": 12, "radius": 1.0, "theta_cap": 0.15},
    "target": {"kind": "sphere", "radius": 1.0},
    "perturbation": {"kind": "bulk_dmi", "kappa": 1.0},
    "minimizer": {"max_iterations": 60, "grad_tol": 1e-6},
    "sweep": {"eps_list": [0.2, 0.1], "n_s": 4},
    "seed": 11,
}


def write_tiny_config(tmp_path, output_dir, extra=None):
    cfg = json.loads(json.dumps(TINY))
    cfg["output_dir"] = str(output_dir)
    for key, value in (extra or {}).items():
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_preset_emission(tmp_path):
    out = tmp_path / "bulk.json"
    assert main(["preset", "bulk", "--out", str(out), "--quiet"]) == 0
    cfg = json.loads(out.read_text())
    assert cfg["surface"] == {
        "kind": "sphere", "n_u": 64, "n_v": 64, "radius": 1.0, "theta_cap": 0.15,
    }
    assert cfg["perturbation"] == {"kind": "bulk_dmi", "kappa": 1.0}
    assert cfg["target"] == {"kind": "sphere", "radius": 1.0}
    assert cfg["sweep"]["eps_list"] == [0.2, 0.1, 0.05, 0.025]
    # the emitted file is a valid config and resolution is idempotent
    assert resolve_config(cfg) == cfg


def test_all_presets_resolve():
    for name in ("bulk", "interfacial", "anisotropic", "temperature"):
        cfg = preset_config(name)
        build_objects(cfg)


def test_config_rejects_unknown_keys():
    bad = json.loads(json.dumps(TINY))
    bad["mystery"] = 1
    with pytest.raises(ConfigError):
        resolve_config(bad)
    bad = json.loads(json.dumps(TINY))
    bad["surface"]["extra"] = 2.0
    with pytest.raises(ConfigError):
        resolve_config(bad)
    # settings that are constants of the minimizer or no longer exist
    for section, key, value in (("minimizer", "step_rule", "bb"), ("minimizer", "initial_step", 1.0),
                                ("minimizer", "armijo_c", 1e-4), ("minimizer", "shrink", 0.5),
                                ("minimizer", "max_halvings", 30),
                                ("sweep", "warm_start", "limit-first")):
        bad = json.loads(json.dumps(TINY))
        bad[section][key] = value
        with pytest.raises(ConfigError, match=f"^config invalid at {section}: "):
            resolve_config(bad)


def test_config_kind_parameter_mismatch():
    bad = json.loads(json.dumps(TINY))
    bad["surface"]["minor_radius"] = 0.5  # not a sphere parameter
    with pytest.raises(ConfigError):
        resolve_config(bad)
    bad = json.loads(json.dumps(TINY))
    bad["perturbation"] = {"kind": "anisotropic_dmi"}  # missing coupling
    with pytest.raises(ConfigError):
        resolve_config(bad)
    bad = json.loads(json.dumps(TINY))
    bad["target"] = {"kind": "ellipsoid"}  # missing semi_axes
    with pytest.raises(ConfigError):
        resolve_config(bad)


def test_default_eps_list_clipped_to_budget():
    cfg = resolve_config({
        "surface": {"kind": "torus", "major_radius": 2.0, "minor_radius": 0.21},
        "target": {"kind": "sphere"},
        "perturbation": {"kind": "zero"},
    })
    # kappa_max = 1/0.21 -> eps_max ~ 0.105: the 0.2 entry is dropped
    assert cfg["sweep"]["eps_list"] == [0.1, 0.05, 0.025]
    grid = build_objects(cfg).grid
    for eps in cfg["sweep"]["eps_list"]:
        grid.require_eps(eps)
    # an explicit list is kept verbatim (validated later by the sweep)
    cfg = resolve_config({
        "surface": {"kind": "torus", "major_radius": 2.0, "minor_radius": 0.21},
        "target": {"kind": "sphere"},
        "perturbation": {"kind": "zero"},
        "sweep": {"eps_list": [0.09, 0.03]},
    })
    assert cfg["sweep"]["eps_list"] == [0.09, 0.03]
    # a torus whose tube reaches its axis admits no thickness to default to
    degenerate = {
        "surface": {"kind": "torus", "major_radius": 1.0, "minor_radius": 1.0},
        "target": {"kind": "sphere"},
        "perturbation": {"kind": "zero"},
    }
    with pytest.raises(ConfigError, match="^config invalid at surface"):
        resolve_config(degenerate)


def test_config_echo_idempotent(tmp_path):
    cfg = resolve_config(json.loads(json.dumps(TINY)))
    first = tmp_path / "echo1.json"
    write_json(cfg, str(first))
    again = resolve_config(json.loads(first.read_text()))
    second = tmp_path / "echo2.json"
    write_json(again, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_describe_surface(tmp_path):
    out_dir = tmp_path / "describe"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["describe-surface", "--config", path, "--quiet"]) == 0
    frames = (out_dir / "frames.csv").read_text().splitlines()
    assert frames[0].startswith("u,v,x,y,z,t1x")
    assert len(frames) == 1 + 12 * 12
    budget = json.loads((out_dir / "budget.json").read_text())
    assert budget["eps_max"] == pytest.approx(0.5)
    assert json.loads((out_dir / "version.json").read_text())["artifact_version"] == __version__


def _per_cell_field_csv(grid, field):
    """Reference writer: one format(x, ".17g") call per cell."""
    def fmt(x):
        return format(float(x), ".17g")

    lines = []
    if field.layout == "surface":
        lines.append("u,v,ux,uy,uz\n")
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                cells = [grid.u[i], grid.v[j], *field.values[i, j]]
                lines.append(",".join(fmt(c) for c in cells) + "\n")
    else:
        lines.append("u,v,s,ux,uy,uz\n")
        s = np.linspace(-1.0, 1.0, field.n_s)
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                for k in range(field.n_s):
                    cells = [grid.u[i], grid.v[j], s[k], *field.values[i, j, k]]
                    lines.append(",".join(fmt(c) for c in cells) + "\n")
    return "".join(lines)


def test_field_csv_roundtrip(tmp_path):
    # the u-row writer matches the row-by-row and per-cell references byte for
    # byte, and reading back returns every double bit for bit, signed zero and
    # subnormals included
    cfg = resolve_config(json.loads(json.dumps(TINY)))
    grid = build_objects(cfg).grid
    rng = np.random.default_rng(7)
    special = np.array([-0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                        1e308, -1e308, 1.0, -1.0])
    for layout, shape in (("surface", grid.shape + (3,)), ("thin", grid.shape + (5, 3))):
        values = rng.standard_normal(shape)
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, size=4 * special.size, replace=False)] = np.repeat(special, 4)
        field = DirectorField(values)
        path = tmp_path / f"{layout}.csv"
        write_field_csv(grid, field, str(path))
        reference = field_csv_by_rows(grid, field)
        assert reference == _per_cell_field_csv(grid, field)
        assert path.read_bytes() == reference.encode()
        back = read_field_csv(grid, str(path))
        assert back.layout == layout
        assert back.values.tobytes() == values.tobytes()


FLAT_4X5 = build_surface(SurfaceSpec("flat_patch", 4, 5))
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(hnp.arrays(np.float64, FLAT_4X5.shape + (3,), elements=FINITE),
                 hnp.arrays(np.float64, FLAT_4X5.shape + (4, 3), elements=FINITE)))
def test_field_csv_matches_the_row_by_row_reference(tmp_path, values):
    field = DirectorField(values)
    path = tmp_path / "field.csv"
    write_field_csv(FLAT_4X5, field, str(path))
    assert path.read_bytes() == field_csv_by_rows(FLAT_4X5, field).encode()
    assert read_field_csv(FLAT_4X5, str(path)).values.tobytes() == values.tobytes()


def _shift(column):
    """An edit that moves one row's coordinate in `column` off the grid."""
    def edit(header, cells):
        cells[7][column] = repr(float(cells[7][column]) + 1e-6)
        return header, cells
    return edit


FIELD_FILE_REJECTIONS = {
    "a-missing-row": (lambda header, cells: (header, cells[:-1]), "rows, the grid expects"),
    "one-row": (lambda header, cells: (header, cells[:1]), "rows, the grid expects"),
    "u-off-the-grid": (_shift(0), "coordinates do not match the configured grid"),
    "v-off-the-grid": (_shift(1), "coordinates do not match the configured grid"),
    "s-off-the-grid": (_shift(2), "coordinates do not match the configured grid"),
    "unknown-header": (lambda header, cells: ("x,y" + header[3:], cells),
                       "unrecognized field header"),
}


@pytest.mark.parametrize("layout, case", [
    (layout, case) for layout in ("surface", "thin") for case in FIELD_FILE_REJECTIONS
    if layout == "thin" or case != "s-off-the-grid"  # a surface field has no s column
])
def test_field_csv_rejects_a_file_that_does_not_fit_the_grid(tmp_path, layout, case):
    edit, message = FIELD_FILE_REJECTIONS[case]
    shape = FLAT_4X5.shape + ((4, 3) if layout == "thin" else (3,))
    path = tmp_path / "field.csv"
    write_field_csv(FLAT_4X5, DirectorField(np.ones(shape)), str(path))
    header, *rows = path.read_text().splitlines()
    header, cells = edit(header, [row.split(",") for row in rows])
    path.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    with pytest.raises(EnergyError, match=re.escape(message)):
        read_field_csv(FLAT_4X5, str(path))


def test_field_csv_rejects_a_field_of_another_grid(tmp_path):
    # zipping the grid's coordinates with the field's rows used to write a short file
    path = tmp_path / "field.csv"
    for shape in ((4, 4, 3), (5, 4, 4, 3), (5, 5, 3)):
        with pytest.raises(EnergyError, match=re.escape(f"{shape}") + ".*" + re.escape("(4, 5)")):
            write_field_csv(FLAT_4X5, DirectorField(np.zeros(shape)), str(path))
        assert not path.exists()


def test_eval_energy_matches_library(tmp_path, capsys):
    out_dir = tmp_path / "eval"
    path = write_tiny_config(tmp_path, out_dir)
    cfg = resolve_config(read_config(path))
    run = build_objects(cfg)
    grid, target, pert = run.grid, run.target, run.pert

    field = random_field(grid, target, "surface", seed=5)
    field_path = tmp_path / "field.csv"
    write_field_csv(grid, field, str(field_path))
    assert main(["eval-energy", "--config", path, "--form", "limit",
                 "--field", str(field_path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = LimitEnergy(grid, target, pert).breakdown(field.values)[0]
    assert got["tangential"] == expected.tangential
    assert got["normal_or_anisotropy"] == expected.normal_or_anisotropy
    assert got["total"] == expected.total

    thin = random_field(grid, target, "thin", n_s=4, seed=6)
    thin_path = tmp_path / "thin.csv"
    write_field_csv(grid, thin, str(thin_path))
    assert main(["eval-energy", "--config", path, "--form", "thin", "--eps", "0.1",
                 "--field", str(thin_path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = ThinFilmEnergy(grid, pert, 0.1, thin.n_s).breakdown(thin.values)[0]
    assert got["total"] == expected.total


def test_eval_energy_thin_requires_eps(tmp_path, capsys):
    out_dir = tmp_path / "evalbad"
    path = write_tiny_config(tmp_path, out_dir)
    cfg = resolve_config(read_config(path))
    run = build_objects(cfg)
    grid, target = run.grid, run.target
    thin = random_field(grid, target, "thin", n_s=4, seed=6)
    thin_path = tmp_path / "thin.csv"
    write_field_csv(grid, thin, str(thin_path))
    assert main(["eval-energy", "--config", path, "--form", "thin",
                 "--field", str(thin_path), "--quiet"]) == 1


@pytest.mark.parametrize("form", ["limit"])
def test_eval_energy_rejects_eps_without_thin_form(tmp_path, capsys, form):
    out_dir = tmp_path / "evaleps"
    path = write_tiny_config(tmp_path, out_dir)
    run = build_objects(resolve_config(read_config(path)))
    field_path = tmp_path / "field.csv"
    write_field_csv(run.grid, random_field(run.grid, run.target, "surface", seed=5),
                    str(field_path))
    assert main(["eval-energy", "--config", path, "--form", form, "--eps", "0.1",
                 "--field", str(field_path), "--json"]) == 1
    assert "--eps applies only to the thin form" in capsys.readouterr().err
    assert not out_dir.exists()


def test_eval_energy_limit_uses_configured_tensor(tmp_path, capsys):
    # one limit form: on a scalar-tensor config, eval-energy --form limit reports
    # the energy minimize --form limit reached
    cfg = preset_config("temperature")
    cfg["surface"].update(n_u=16, n_v=16)
    cfg["minimizer"]["max_iterations"] = 200
    cfg["output_dir"] = str(tmp_path / "temp")
    path = tmp_path / "temperature.json"
    path.write_text(json.dumps(cfg))
    assert main(["minimize", "--config", str(path), "--form", "limit", "--quiet"]) == 0
    summary = json.loads((tmp_path / "temp" / "minimize.json").read_text())
    field_path = str(tmp_path / "temp" / "minimizer.csv")
    assert main(["eval-energy", "--config", str(path), "--form", "limit",
                 "--field", field_path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == summary["energy"]


def test_minimize_rejects_eps_without_thin_form(tmp_path, capsys):
    out_dir = tmp_path / "minieps"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["minimize", "--config", path, "--form", "limit", "--eps", "7.5",
                 "--quiet"]) == 1
    assert "--eps applies only to the thin form" in capsys.readouterr().err
    assert not out_dir.exists()


def test_minimize_command_and_rerun_determinism(tmp_path):
    out_dir = tmp_path / "mini"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["minimize", "--config", path, "--quiet"]) == 0
    first = (out_dir / "minimizer.csv").read_bytes()
    summary = json.loads((out_dir / "minimize.json").read_text())
    assert summary["artifact_version"] == __version__
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy,grad_norm"
    assert len(trace) == 2 + summary["iterations"]

    assert main(["minimize", "--config", path, "--quiet"]) == 0
    assert (out_dir / "minimizer.csv").read_bytes() == first


def test_sweep_command_artifacts_and_determinism(tmp_path):
    out_dir = tmp_path / "sweep"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["sweep", "--config", path, "--quiet"]) == 0
    report_bytes = (out_dir / "report.json").read_bytes()
    report = json.loads(report_bytes)
    assert report["artifact_version"] == __version__
    assert len(report["report"]["per_eps"]) == 2
    csv_lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2
    assert csv_lines[0].endswith(",h1_dist,iterations,termination")
    for row, entry in zip(csv_lines[1:], report["report"]["per_eps"]):
        assert row.split(",")[-2:] == [str(entry["iterations"]), entry["termination"]]
    # the 60-iteration cap stops the limit run, and the flag says so
    assert report["report"]["limit"]["termination"] == "max_iterations"
    assert report["report"]["flags"]["all_converged"] is False
    assert (out_dir / "fields" / "limit.csv").exists()
    assert (out_dir / "fields" / "eps_0.2.csv").exists()
    assert (out_dir / "config.echo.json").exists()
    echoed = json.loads((out_dir / "config.echo.json").read_text())
    assert echoed == resolve_config(read_config(path))

    assert main(["sweep", "--config", path, "--quiet"]) == 0
    assert (out_dir / "report.json").read_bytes() == report_bytes

    # the flag stays out of `pass`: with a 60-iteration cap and these thicknesses
    # the limit run stops on the cap, and the trends still pass
    capped = tmp_path / "capped"
    path = write_tiny_config(tmp_path, capped, {"minimizer": {"max_iterations": 60}})
    assert main(["sweep", "--config", path, "--eps-list", "0.2,0.05", "--quiet"]) == 0
    flags = json.loads((capped / "report.json").read_text())["report"]["flags"]
    assert flags["pass"] is True and flags["all_converged"] is False


def written_files(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}


def pin_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_sweep_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # the same output directory for every run, since the echoed config names it;
    # three thicknesses and the limit make 4 write items, dealt unevenly over 3 CPUs
    out_dir = tmp_path / "sweep"
    path = write_tiny_config(tmp_path, out_dir)
    argv = ["sweep", "--config", path, "--eps-list", "0.2,0.1,0.05", "--quiet"]
    pin_cpus(monkeypatch, 1)
    assert main(argv) == 0
    serial = written_files(out_dir)
    assert len(serial) == 4 + 2 * 4
    for cpus in (2, 3):
        shutil.rmtree(out_dir)
        pin_cpus(monkeypatch, cpus)
        assert main(argv) == 0
        assert written_files(out_dir) == serial, cpus


@pytest.mark.parametrize("eps", ["0.2", "0.1"], ids=["child-share", "parent-share"])
def test_sweep_exits_1_when_a_field_cannot_be_written(tmp_path, monkeypatch, capsys, eps):
    # over 2 CPUs the writes [limit, eps 0.2, eps 0.1] put eps 0.2 in the child's share
    pin_cpus(monkeypatch, 2)
    assert main(["sweep", "--config", write_tiny_config(tmp_path, tmp_path / "clean"),
                 "--quiet"]) == 0
    out_dir = tmp_path / "out"
    blocked = out_dir / "fields" / f"eps_{eps}.csv"
    blocked.mkdir(parents=True)
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["sweep", "--config", path, "--quiet"]) == 1
    assert f"cannot write {blocked}" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # every other minimizer is written whole: no writer was killed mid-file
    clean = written_files(tmp_path / "clean")
    written = written_files(out_dir)
    for name in {"limit.csv", "eps_0.2.csv", "eps_0.1.csv"} - {blocked.name}:
        for kind in ("fields", "traces"):
            assert written[Path(kind) / name] == clean[Path(kind) / name], (kind, name)


def test_sweep_rejects_thicknesses_sharing_a_file_name(tmp_path, monkeypatch, capsys):
    def no_sweep(config):
        raise AssertionError("minimized despite a file-name collision")

    monkeypatch.setattr(sweep_module, "run_sweep", no_sweep)
    out_dir = tmp_path / "out"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["sweep", "--config", path, "--eps-list", "0.2,0.1000001,0.1", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "thicknesses 0.1000001 and 0.1 share the file name eps_0.1.csv" in err
    assert not out_dir.exists()


def test_sweep_exits_1_when_a_worker_film_raises(tmp_path, monkeypatch, capsys):
    init = ThinFilmEnergy.__init__

    def failing(self, grid, pert, eps, *args, **kwargs):
        if eps == 0.1:  # the second thickness runs in the worker
            raise RuntimeError("film model exploded")
        init(self, grid, pert, eps, *args, **kwargs)

    monkeypatch.setattr(ThinFilmEnergy, "__init__", failing)
    pin_cpus(monkeypatch, 2)
    path = write_tiny_config(tmp_path, tmp_path / "out")
    assert main(["sweep", "--config", path, "--quiet"]) == 1
    assert "film model exploded" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_zero_perturbation_fixture(tmp_path):
    out_dir = tmp_path / "zero"
    path = write_tiny_config(
        tmp_path, out_dir,
        extra={"perturbation": {"kind": "zero"},
               "minimizer": {"max_iterations": 2000, "grad_tol": 1e-9}},
    )
    assert main(["sweep", "--config", path, "--quiet"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    for entry in report["report"]["per_eps"]:
        assert entry["gap"] < 1e-8
    # every minimization of this fixture reaches the gradient tolerance
    assert report["report"]["flags"]["all_converged"] is True


def test_report_json_roundtrip_is_exact(tmp_path):
    out_dir = tmp_path / "rt"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["sweep", "--config", path, "--quiet"]) == 0
    raw = (out_dir / "report.json").read_text()
    parsed = json.loads(raw)
    # re-serializing the parsed document reproduces the bytes: the float
    # format round-trips doubles exactly
    assert dumps_canonical(parsed) + "\n" == raw


def test_sweep_eps_list_override(tmp_path):
    out_dir = tmp_path / "sweep2"
    path = write_tiny_config(tmp_path, out_dir)
    assert main(["sweep", "--config", path, "--eps-list", "0.2", "--quiet"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [e["eps"] for e in report["report"]["per_eps"]] == [0.2]


def test_sweep_empty_eps_list_exits_1(tmp_path, capsys):
    # an empty override fails the value rules instead of falling back to the config's list
    path = write_tiny_config(tmp_path, tmp_path / "empty")
    for override in ("", ",", "0.2,,0.1", "0.2,"):
        assert main(["sweep", "--config", path, "--eps-list", override, "--quiet"]) == 1, override
        assert "config invalid at sweep/eps_list" in capsys.readouterr().err
    assert not (tmp_path / "empty" / "report.json").exists()


def test_command_line_overrides_pass_the_schema(tmp_path, capsys, monkeypatch):
    # an override is checked like the same key in the file: nothing is written
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    path = write_tiny_config(tmp_path, out_dir)
    for argv, key in ((["minimize", "--config", path, "--output-dir", ""], "output_dir"),
                      (["sweep", "--config", path, "--seed", "-1"], "seed")):
        assert main(argv + ["--quiet"]) == 1, argv
        assert f"config invalid at {key}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_check_identities_command(tmp_path, capsys):
    out_dir = tmp_path / "ident"
    # bulk on the sphere, and the zero perturbation and bulk with kappa = 0, whose
    # residuals are exactly 0 on any target
    ellipsoid = {"kind": "ellipsoid", "semi_axes": [1.2, 1.0, 0.8]}
    zero_ellipsoid = {"perturbation": {"kind": "zero"}, "target": ellipsoid}
    zero_bulk_ellipsoid = {"perturbation": {"kind": "bulk_dmi", "kappa": 0.0}, "target": ellipsoid}
    for extra in ({}, zero_ellipsoid, zero_bulk_ellipsoid):
        path = write_tiny_config(tmp_path, out_dir, extra)
        assert main(["check-identities", "--config", path, "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["vanishing_predicted"] is True
        assert got["ok"] is True
        assert got["max_residual"] <= 1e-14 * got["scale"]


_OVERFLOWING = {"kind": "banded", "c0": 1e308, "c1": 1e308}  # inf wherever x3 != 0


@pytest.mark.parametrize("extra, name", [
    ({"perturbation": {"kind": "temperature", "saturation": _OVERFLOWING,
                       "coupling": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
     "saturation magnetization"),
    ({"tensor": {"kind": "scalar_field", "field": _OVERFLOWING}}, "elliptic tensor"),
], ids=["saturation", "tensor"])
@pytest.mark.parametrize("command", ["sweep", "check-identities"])
def test_a_field_not_finite_on_the_surface_exits_1(tmp_path, capsys, extra, name, command):
    # the field is rejected as a config error, not run into a non-finite energy or residual
    extra = {**extra, "surface": {**TINY["surface"], "n_u": 8, "n_v": 8}}
    path = write_tiny_config(tmp_path, tmp_path / "out", extra)
    assert main([command, "--config", path, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert f"{name} must stay finite and positive on the surface" in captured.err
    assert "Warning" not in captured.err and captured.out == ""


def test_check_identities_wants_more_than_roundoff_where_none_vanishes(tmp_path, capsys,
                                                                       monkeypatch):
    # J = 0 leaves only (grad_Ms . w) sigma, whose residual is roundoff; a prediction
    # that it does not vanish must fail on it, not pass on residual > 0
    monkeypatch.setattr(sweep_module, "identity_is_predicted_vanishing", lambda pert, target: False)
    saturation = {"kind": "affine", "c0": 1.5, "c": [0.0, 0.0, 0.3]}
    extra = {"perturbation": {"kind": "temperature", "saturation": saturation,
                              "coupling": [[0.0] * 3] * 3},
             "target": {"kind": "ellipsoid", "semi_axes": [1.2, 1.0, 0.8]}}
    path = write_tiny_config(tmp_path, tmp_path / "ident", extra)
    assert main(["check-identities", "--config", path, "--json"]) == 2
    got = json.loads(capsys.readouterr().out)
    assert got["ok"] is False and 0.0 < got["max_residual"] <= 1e-14 * got["scale"]


def test_preset_rejects_an_empty_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["preset", "bulk", "--out", "", "--quiet"]) == 1
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_planar_command(capsys):
    assert main(["crosscheck-planar", "--resolution", "16", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["max_relative_discrepancy"] <= 1e-10
    # no field compared is no evidence, not a pass
    assert main(["crosscheck-planar", "--resolution", "16", "--fields", "0", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1 field" in captured.err
    # a non-finite kappa is rejected before any evaluation, not passed with discrepancy 0
    for kappa in ("nan", "inf", "-inf"):
        assert main(["crosscheck-planar", "--resolution", "16", f"--kappa={kappa}", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite kappa" in captured.err


def test_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"surface": {"kind": "sphere"}}))
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    path.write_text("[]")  # not an object, so an override has nowhere to go
    assert main(["sweep", "--config", str(path), "--seed", "1", "--quiet"]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json"), "--quiet"]) == 1


@pytest.mark.parametrize("surface, sweep", [
    ({"kind": "sphere", "theta_cap": 2.0}, {}),
    ({"kind": "torus", "major_radius": 1.0, "minor_radius": 1.0}, {}),
    ({"kind": "torus", "major_radius": 1.0, "minor_radius": 1.0}, {"eps_list": [0.1]}),
])
def test_a_rejected_surface_names_its_section(tmp_path, capsys, surface, sweep):
    path = write_tiny_config(tmp_path, tmp_path / "out",
                             {"surface": dict(surface, n_u=8, n_v=8), "sweep": sweep})
    assert main(["describe-surface", "--config", path, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: config invalid at surface: ")
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_1(capsys):
    # 2 means numerical failure; a malformed command line is a usage error
    for argv in ([], ["sweep"], ["no-such-command"], ["preset", "nope"],
                 ["sweep", "--config", "c.json", "--bogus"],
                 ["eval-energy", "--config", "c.json", "--form", "general", "--field", "f.csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
    capsys.readouterr()


SMALL = dict(TINY, surface={**TINY["surface"], "n_u": 10, "n_v": 10},
             minimizer={"max_iterations": 20, "grad_tol": 1e-6})
MODES = {"default": [], "quiet": ["--quiet"], "json": ["--json"], "quiet-json": ["--quiet", "--json"]}


def _stdout_case(command, tmp_path):
    """The command line of `command` on a 10x10 config, and a function that
    returns its (summary, JSON) stdout from the files the run wrote; summary is
    None for a command that always prints JSON, JSON is None where only its
    form is known."""
    out = tmp_path / "out"
    path = write_tiny_config(tmp_path, out, SMALL)
    configured = ["--config", path]
    if command == "preset":
        target = str(tmp_path / "bulk.json")
        return ["preset", "bulk", "--out", target], lambda: (
            f"wrote {target}\n", dumps_canonical({"path": target}) + "\n")
    if command == "describe-surface":
        return ["describe-surface", *configured], lambda: (
            f"wrote frame table and budget to {out}\n", (out / "budget.json").read_text())
    if command == "eval-energy":
        run = build_objects(resolve_config(read_config(path)))
        field = random_field(run.grid, run.target, "surface", seed=5)
        field_path = tmp_path / "field.csv"
        write_field_csv(run.grid, field, str(field_path))
        energy = LimitEnergy(run.grid, run.target, run.pert).breakdown(field.values)[0]
        return ["eval-energy", *configured, "--form", "limit", "--field", str(field_path)], \
            lambda: (None, dumps_canonical(energy.as_dict()) + "\n")
    if command == "minimize":
        def expected():
            got = json.loads((out / "minimize.json").read_text())
            return (f"energy {got['energy']['total']:.9g} after {got['iterations']} iterations "
                    f"({got['termination']}); artifacts in {out}\n",
                    (out / "minimize.json").read_text())
        return ["minimize", *configured], expected
    if command == "sweep":
        def expected():
            report = json.loads((out / "report.json").read_text())["report"]
            lines = [f"sweep {'PASS' if report['flags']['pass'] else 'FAIL'}; artifacts in {out}"]
            lines += [f"  eps={e['eps']:g}: " + ("failed" if e["failed"] else f"gap={e['gap']:.6g}")
                      for e in report["per_eps"]]
            lines += [f"  {key}: {value}" for key, value in sorted(report["flags"].items())]
            return "\n".join(lines) + "\n", (out / "report.json").read_text()
        return ["sweep", *configured], expected
    if command == "check-identities":
        return ["check-identities", *configured], lambda: (
            None, (out / "identities.json").read_text())
    return ["crosscheck-planar", "--resolution", "8", "--fields", "2"], lambda: (None, None)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_stdout_is_the_summary_or_the_json_payload(tmp_path, capsys, command, mode):
    # --json, or a command without a summary, prints the canonical JSON payload;
    # otherwise the summary is printed unless --quiet is given
    argv, expected = _stdout_case(command, tmp_path)
    assert main(argv + MODES[mode]) == 0
    out = capsys.readouterr().out
    summary, payload = expected()
    if summary is None or "--json" in MODES[mode]:
        assert dumps_canonical(json.loads(out)) + "\n" == out
        assert payload is None or out == payload
    else:
        assert out == ("" if mode == "quiet" else summary)


def test_a_numerical_failure_exits_2_with_nothing_on_stdout(tmp_path, capsys):
    # a node at the target's center has no projection
    path = write_tiny_config(tmp_path, tmp_path / "out", SMALL)
    run = build_objects(resolve_config(read_config(path)))
    values = random_field(run.grid, run.target, "surface", seed=5).values
    values[3, 4] = 0.0
    field_path = tmp_path / "field.csv"
    write_field_csv(run.grid, DirectorField(values), str(field_path))
    assert main(["eval-energy", "--config", path, "--form", "limit",
                 "--field", str(field_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: point too close to the center" in captured.err


def test_output_flags_belong_to_the_subcommand(tmp_path, capsys):
    # --quiet and --json are subcommand flags; before the subcommand they were
    # once parsed and then silently reset by the subcommand's defaults
    parser = _build_parser()
    for flag, dest in (("--quiet", "quiet"), ("--json", "json_out")):
        assert getattr(parser.parse_args(["preset", "bulk", flag]), dest) is True
        with pytest.raises(SystemExit) as exc:
            main([flag, "preset", "bulk", "--out", str(tmp_path / "bulk.json")])
        assert exc.value.code == 1, flag
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "bulk.json").exists()


def test_eval_energy_rejects_a_non_finite_field(tmp_path, capsys):
    cfg = preset_config("bulk")
    cfg["surface"].update(n_u=8, n_v=8)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bulk.json"
    path.write_text(json.dumps(cfg))
    grid = build_objects(resolve_config(cfg)).grid
    values = np.tile([0.0, 0.0, 1.0], grid.shape + (1,))
    for bad in (np.nan, np.inf, -np.inf):
        values[3, 4, 1] = bad
        field_path = tmp_path / "field.csv"
        write_field_csv(grid, DirectorField(values), str(field_path))
        with pytest.raises(EnergyError, match="field.csv"):
            read_field_csv(grid, str(field_path))
        assert main(["eval-energy", "--config", str(path), "--form", "limit",
                     "--field", str(field_path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err and str(field_path) in captured.err


def _with_columns(path, count):
    """Rewrite a field CSV in place with `count` data columns under its own header."""
    header, *rows = path.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    cells = [(c + c)[:count] for c in cells]
    path.write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")


def test_field_file_with_a_wrong_column_count_exits_1(tmp_path, capsys):
    path = write_tiny_config(tmp_path, tmp_path / "out")
    run = build_objects(resolve_config(read_config(path)))
    cases = (("surface", ["--form", "limit"], 6),
             ("thin", ["--form", "thin", "--eps", "0.1"], 7),
             ("thin", ["--form", "thin", "--eps", "0.1"], 5))
    for layout, form, count in cases:
        field_path = tmp_path / f"{layout}.csv"
        write_field_csv(run.grid, random_field(run.grid, run.target, layout, n_s=8, seed=5),
                        str(field_path))
        _with_columns(field_path, count)
        names = 5 if layout == "surface" else 6
        message = f"field file {field_path} has {count} columns, its header names {names}"
        with pytest.raises(EnergyError, match=re.escape(message)):
            read_field_csv(run.grid, str(field_path))
        assert main(["eval-energy", "--config", path, *form, "--field", str(field_path),
                     "--quiet"]) == 1
        assert message in capsys.readouterr().err


def test_eval_energy_names_the_layouts_of_a_mismatched_field(tmp_path, capsys):
    path = write_tiny_config(tmp_path, tmp_path / "out")
    run = build_objects(resolve_config(read_config(path)))
    for layout, form, want in (("surface", ["--form", "thin", "--eps", "0.1"], "thin"),
                               ("thin", ["--form", "limit"], "surface")):
        field_path = tmp_path / f"{layout}.csv"
        write_field_csv(run.grid, random_field(run.grid, run.target, layout, n_s=4, seed=5),
                        str(field_path))
        assert main(["eval-energy", "--config", path, *form, "--field", str(field_path),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"field file {field_path} holds a {layout} field" in err
        assert f"expects a {want} field" in err


def test_sweep_eps_list_rejects_a_non_numeric_token(tmp_path, capsys):
    # an unparsable token meets the same value rule as a non-finite one
    path = write_tiny_config(tmp_path, tmp_path / "bad")
    for override in ("0.2,abc", "0.2,nan"):
        assert main(["sweep", "--config", path, "--eps-list", override, "--quiet"]) == 1, override
        assert ("config invalid at sweep/eps_list: must be a non-empty list of positive finite "
                "numbers") in capsys.readouterr().err
    assert not (tmp_path / "bad" / "report.json").exists()


def _actions(parser, dest):
    return [action for action in parser._actions if action.dest == dest]


def test_readme_names_every_command_and_form():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = _actions(_build_parser(), "command")
    missing = [name for name in commands.choices if f"chiralfilm {name}" not in readme]
    missing += [f"{name} --form {choice}" for name, sub in commands.choices.items()
                for form in _actions(sub, "form") for choice in form.choices
                if f"--form {choice}" not in readme]
    assert missing == []


def test_canonical_json_formatting():
    text = dumps_canonical({"b": 1.5, "a": [True, None, float("nan")], "c": "x"})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"NaN"' in text
    assert "true" in text
    # 17 significant digits round-trip doubles exactly
    value = 0.1234567890123456789
    assert float(json.loads(dumps_canonical({"v": value}))["v"]) == value
