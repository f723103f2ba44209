"""Deterministic serialization of reports, fields, and frame tables.

JSON is written with sorted keys and floats at 17 significant digits, so a
rerun with the same seed and thread count produces byte-identical files.
Fields are stored as plot-ready CSV keyed by chart coordinates.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np

from .energies import DirectorField, EnergyError, s_quadrature


class ReportError(RuntimeError):
    """I/O failure while writing or reading artifacts."""


def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return '"NaN"'
    if np.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would read back as the integer 0


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)  # escapes every control character
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return format_number(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj.keys())
        items = [
            inner + dumps_canonical(str(k)) + ": " + dumps_canonical(obj[k], indent + 1)
            for k in keys
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ReportError(f"cannot serialize object of type {type(obj).__name__}")


def write_json(obj, path: str):
    write_text(dumps_canonical(obj) + "\n", path)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv(grid, field: DirectorField, path: str):
    """Field as CSV rows keyed by chart coordinates (u-major ordering).

    Each chart coordinate is formatted once, into a template of one u-row
    whose only `%` directives are the values' "%.17g" (the same text as
    format(x, ".17g")); each u-row is then one `%` on that row's values.
    """
    if field.values.shape[:2] != grid.shape:
        raise EnergyError(f"field of shape {field.values.shape} does not fit "
                          f"the grid of shape {grid.shape}")
    if field.layout == "surface":
        header = "u,v,ux,uy,uz\n"
        tails = [_fmt(v) + "," for v in grid.v]
    else:
        header = "u,v,s,ux,uy,uz\n"
        s = [_fmt(sk) + "," for sk in s_quadrature(field.n_s)[0]]
        tails = [_fmt(v) + "," + sk for v in grid.v for sk in s]
    rows = [tail + "%.17g,%.17g,%.17g\n" for tail in tails]
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(header)
            for u, block in zip(grid.u, field.values):
                head = _fmt(u) + ","
                handle.write((head + head.join(rows)) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise ReportError(f"cannot write {path}: {exc}") from exc


def read_field_csv(grid, path: str) -> DirectorField:
    """Load a field CSV written by write_field_csv and validate its grid."""
    try:
        with open(path) as handle:
            header = handle.readline().strip().split(",")
            rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc}") from exc
    if not np.all(np.isfinite(rows)):
        raise EnergyError(f"field file {path} holds a non-finite value")
    if rows.size and rows.shape[1] != len(header):
        raise EnergyError(
            f"field file {path} has {rows.shape[1]} columns, its header names {len(header)}"
        )
    thin = header == ["u", "v", "s", "ux", "uy", "uz"]
    if not thin and header != ["u", "v", "ux", "uy", "uz"]:
        raise EnergyError(f"unrecognized field header {header}")
    nodes = grid.shape[0] * grid.shape[1]
    n_s = rows.shape[0] // nodes if thin else 1
    if n_s == 0 or rows.shape[0] != nodes * n_s:
        raise EnergyError(f"field file {path} has {rows.shape[0]} rows, the grid expects "
                          + (f"a multiple of {nodes}" if thin else f"{nodes}"))
    axes = [grid.u, grid.v, s_quadrature(n_s)[0]] if thin else [grid.u, grid.v]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    if np.max(np.abs(rows[:, :len(axes)] - coords)) > 1e-9:
        raise EnergyError(f"field file {path} coordinates do not match the configured grid")
    return DirectorField(rows[:, len(axes):].reshape(*(len(a) for a in axes), 3))


def frame_table_csv(grid) -> str:
    """Frame dump: chart coords, point, principal frame, curvatures, weight."""
    out = io.StringIO()
    out.write("u,v,x,y,z,t1x,t1y,t1z,t2x,t2y,t2z,nx,ny,nz,k1,k2,w\n")
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            cells = [grid.u[i], grid.v[j], *grid.points[i, j], *grid.tau1[i, j],
                     *grid.tau2[i, j], *grid.normal[i, j], grid.kappa1[i, j],
                     grid.kappa2[i, j], grid.area_weight[i, j]]
            out.write(",".join(_fmt(c) for c in cells) + "\n")
    return out.getvalue()


def sweep_csv(report) -> str:
    """Plot-ready summary: one row per film thickness, with how its minimization ended."""
    out = io.StringIO()
    out.write("eps,min_energy_eps,min_energy_limit,gap,recovery_gap,h1_dist,iterations,termination\n")
    e_limit = report.limit_energy["total"]
    for entry in report.entries:
        if entry.failed:
            out.write(f"{_fmt(entry.eps)},failed,{_fmt(e_limit)},,,,,\n")
            continue
        rec_gap = entry.recovery_energy - e_limit
        out.write(
            f"{_fmt(entry.eps)},{_fmt(entry.min_energy['total'])},{_fmt(e_limit)},"
            f"{_fmt(entry.gap)},{_fmt(rec_gap)},{_fmt(entry.h1_to_limit)},"
            f"{entry.iterations},{entry.termination}\n"
        )
    return out.getvalue()


def trace_csv(report) -> str:
    """Per-iteration minimizer trace (iteration, energy, grad norm)."""
    out = io.StringIO()
    out.write("iteration,energy,grad_norm\n")
    for it, (energy, gnorm) in enumerate(zip(report.energy_trace, report.grad_trace)):
        out.write(f"{it},{_fmt(energy)},{_fmt(gnorm)}\n")
    return out.getvalue()


def write_text(text: str, path: str):
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ReportError(f"cannot write {path}: {exc}") from exc
