import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from chiralfilm import __version__
from chiralfilm.cli import _build_parser, main
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
    # the streamed writer matches per-cell formatting byte for byte, and reading
    # back returns every double bit for bit, signed zero and subnormals included
    cfg = resolve_config(json.loads(json.dumps(TINY)))
    grid = build_objects(cfg).grid
    rng = np.random.default_rng(7)
    special = np.array([-0.0, 5e-324, 1e-300, 1e308, -5e-324, -1e308])
    for layout, shape in (("surface", grid.shape + (3,)), ("thin", grid.shape + (5, 3))):
        values = rng.standard_normal(shape)
        flat = values.reshape(-1)
        flat[rng.choice(flat.size, size=4 * special.size, replace=False)] = np.repeat(special, 4)
        field = DirectorField(values)
        path = tmp_path / f"{layout}.csv"
        write_field_csv(grid, field, str(path))
        assert path.read_bytes() == _per_cell_field_csv(grid, field).encode()
        back = read_field_csv(grid, str(path))
        assert back.layout == layout
        assert back.values.tobytes() == values.tobytes()


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


def test_sweep_files_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # the same output directory for both runs, since the echoed config names it
    out_dir = tmp_path / "sweep"
    path = write_tiny_config(tmp_path, out_dir)
    argv = ["sweep", "--config", path, "--eps-list", "0.2,0.1,0.05", "--quiet"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert main(argv) == 0
    in_processes = written_files(out_dir)
    assert len(in_processes) > 6
    shutil.rmtree(out_dir)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(argv) == 0
    assert written_files(out_dir) == in_processes


def test_sweep_exits_1_when_a_worker_film_raises(tmp_path, monkeypatch, capsys):
    init = ThinFilmEnergy.__init__

    def failing(self, grid, pert, eps, *args, **kwargs):
        if eps == 0.1:  # the second thickness runs in the worker
            raise RuntimeError("film model exploded")
        init(self, grid, pert, eps, *args, **kwargs)

    monkeypatch.setattr(ThinFilmEnergy, "__init__", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
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
    for override in ("", ","):
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
    # bulk on the sphere, and the zero perturbation, whose residual is exactly 0 on any target
    zero_ellipsoid = {"perturbation": {"kind": "zero"},
                      "target": {"kind": "ellipsoid", "semi_axes": [1.2, 1.0, 0.8]}}
    for extra in ({}, zero_ellipsoid):
        path = write_tiny_config(tmp_path, out_dir, extra)
        assert main(["check-identities", "--config", path, "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["vanishing_predicted"] is True
        assert got["ok"] is True
        assert got["max_residual"] <= 1e-14 * got["scale"]


def test_crosscheck_planar_command(capsys):
    assert main(["crosscheck-planar", "--resolution", "16", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["max_relative_discrepancy"] <= 1e-10
    # no field compared is no evidence, not a pass
    assert main(["crosscheck-planar", "--resolution", "16", "--fields", "0", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1 field" in captured.err


def test_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"surface": {"kind": "sphere"}}))
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path), "--quiet"]) == 1
    path.write_text("[]")  # not an object, so an override has nowhere to go
    assert main(["sweep", "--config", str(path), "--seed", "1", "--quiet"]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json"), "--quiet"]) == 1


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
