"""Checks on how the package and the benchmark scripts fit together.

The benchmark scripts under `benchmarks/` reach into the package by name, so
one test installs the tracer's patches and runs `benchmarks/kernels.py`'s rows,
one runs `benchmarks/run.py --trace 1` for a second and reads its per-layer
counts, and another runs the correctness check `benchmarks/run.py` applies to
every sweep.  A change to the package that breaks either script fails here.
One more keeps the package free of code only the tests call, one keeps the
README's configuration section naming every key and kind, and one keeps its
command-line section naming every subcommand and preset.  All of them read
`benchmarks/` and change nothing in it.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
PACKAGE = ROOT / "src" / "chiralfilm"


def test_benchmark_tools_find_what_they_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    with mock.patch.dict(os.environ):  # importing run.py pins the BLAS thread variables
        import kernels
        import spans
    import chiralfilm.sweep as sweep

    original = sweep.run_sweep
    tracer = spans.Tracer()
    try:
        spans.install_outcomes(tracer)
        spans.install_layers(tracer)
        assert sweep.run_sweep is not original
    finally:
        tracer.restore()
    assert sweep.run_sweep is original

    rows = kernels.rows_for(16)
    assert len(rows) == 8
    assert all(row["n"] == 16 and math.isfinite(row["best_ms"]) for row in rows)


def test_traced_benchmark_run_counts_every_layer_it_patches(tmp_path):
    # the traced metrics divide by these counts, so a package change that stops
    # calling a patched method breaks the run
    done = subprocess.run([sys.executable, str(BENCHMARKS / "run.py"), "--workload",
                           "temperature-ellipsoid32", "--seconds", "1", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    metrics = result["metrics"]
    for name in ("descent.trials", "energies.thin_eval_calls", "energies.thin_grad_calls",
                 "perturbations.frame_sample_s"):
        assert metrics[name]["value"] > 0, name


def test_benchmark_check_passes_a_small_sweep(monkeypatch):
    # check_sweep reads DirectorField.values and the SweepReport fields
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    with mock.patch.dict(os.environ):  # importing run.py pins the BLAS thread variables
        import run
    from chiralfilm.config import build_objects, preset_config, resolve_config
    from chiralfilm.sweep import run_sweep

    raw = preset_config("bulk")
    raw["surface"].update(n_u=8, n_v=8)
    raw["sweep"]["restarts"] = 1
    raw["minimizer"]["max_iterations"] = 30
    config = build_objects(resolve_config(raw))
    report, artifacts = run_sweep(config)
    assert len(artifacts["eps_fields"]) == len(config.eps_list)
    assert run.check_sweep(report, artifacts, config) == []


def _defined_names(tree):
    """Top-level functions and classes, and the methods of those classes; dunders are
    called by Python itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__"))


def _referenced_names(tree):
    """The names code refers to: identifiers, attributes, imported names and string
    constants (the tracer patches methods by their name).  Comments and docstrings
    do not count, since a docstring is a string constant only as a whole."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_package_defines_only_what_src_or_benchmarks_use():
    sources = (*PACKAGE.rglob("*.py"), *BENCHMARKS.rglob("*.py"))
    used = {name for p in sources for name in _referenced_names(ast.parse(p.read_text()))}
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _defined_names(ast.parse(path.read_text())) if name not in used]
    assert not unused, f"defined under src/chiralfilm but used only by tests, if at all: {unused}"


def _readme_section(title):
    readme = (ROOT / "README.md").read_text()
    start = readme.index(f"## {title}")
    return readme[start:readme.index("\n## ", start)]


def test_readme_configuration_names_every_key_and_kind():
    from chiralfilm import config

    named = set(re.findall(r"`([^`]+)`", _readme_section("Configuration")))
    kinds = {**config._KINDS, "scalar field": config._SCALAR_FIELD_KINDS}
    wanted = {*config._VALUES, *config._ROOT}
    wanted.update(name for table in kinds.values() for name in table)
    wanted.update(p for table in kinds.values() for kind in table.values() for p in kind.params)
    wanted.update(p for params in config._SETTINGS.values() for p in params)
    assert not wanted - named, f"README's Configuration section does not name {sorted(wanted - named)}"


def test_readme_command_line_names_every_subcommand_and_preset():
    from chiralfilm import cli, config

    section = _readme_section("Command line")
    missing = [f"chiralfilm {name}" for name in cli._COMMANDS
               if f"chiralfilm {name}" not in section]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)  # a ``` fence would shift the pairing
    named = set(re.findall(r"`([^`]+)`", prose))
    missing += [f"preset {name}" for name in config.PRESETS if name not in named]
    assert missing == [], f"README's Command line section does not name {missing}"
