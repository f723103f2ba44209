"""Command-line front end.

Every subcommand is a thin shell over library calls.  The five config-driven
ones share `--config` and `--output-dir`; `_load` resolves the JSON run
configuration and builds the sweep it describes.  `preset` offers the entries
of `config.PRESETS`.  Exit codes: 0 success, 1 configuration/validation or
usage error, 2 numerical failure.  Set CHIRALFILM_THREADS to pin the BLAS
thread count before any computation.  Library calls go through the module
attributes (`sweep.run_sweep`, `config.resolve_config`), never through names
bound at import, so a module attribute replaced after this module is imported
is the one that runs.

Each subcommand returns its exit code, its JSON payload and its summary text,
and `main` alone writes stdout: the canonical JSON of the payload when the
summary is None (`eval-energy`, `check-identities` and `crosscheck-planar`
always print JSON) or `--json` is given, else the summary unless `--quiet` is
given.

`sweep` runs its thicknesses' film minimizations, and then writes their
field and trace CSVs (one share per thickness, one for the limit), in up to
one process per CPU it may run on; its output files are byte-identical for
any CPU count.  Each process holds one film's working set, so set
CHIRALFILM_THREADS=1 to keep the processes from also multiplying BLAS
threads.  Two thicknesses whose `{eps:g}` file names coincide are rejected
before any minimization.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, config, descent, energies, reporting, surfaces, sweep, targets


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 1; 2 is kept for numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    common.add_argument("--json", action="store_true", dest="json_out",
                        help="machine-readable stdout only")
    configured = argparse.ArgumentParser(add_help=False)  # the config-driven subcommands
    configured.add_argument("--config", required=True)
    configured.add_argument("--output-dir", default=None)
    parser = _Parser(prog="chiralfilm", description="Chiral Dirichlet energies on curved thin films")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add_parser("preset", help="write a ready-to-run configuration")
    p.add_argument("name", choices=list(config.PRESETS))
    p.add_argument("--out", default=None, help="output path (default <name>.config.json)")

    add_parser("describe-surface", configured, help="dump the frame grid and thickness budget")

    p = add_parser("eval-energy", configured, help="evaluate one energy form on a stored field")
    p.add_argument("--form", required=True, choices=["thin", "limit"])
    p.add_argument("--field", required=True, help="field CSV path")
    p.add_argument("--eps", type=float, default=None, help="film half-thickness (thin form)")

    p = add_parser("minimize", configured, help="run a single constrained minimization")
    p.add_argument("--form", default="limit", choices=["limit", "thin"])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = add_parser("sweep", configured, help="full film-thickness convergence experiment")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps-list", default=None, help="comma-separated override, e.g. 0.2,0.1")

    p = add_parser("check-identities", configured, help="shape-anisotropy vanishing residuals")
    p.add_argument("--samples", type=int, default=1000)

    p = add_parser("crosscheck-planar", help="interfacial limit energy vs its expanded planar form")
    p.add_argument("--resolution", type=int, default=48)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--fields", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _number_or_text(token):
    """A float, or the token itself when it is not one, for the value rules to reject."""
    try:
        return float(token)
    except ValueError:
        return token


def _load(args, seed=None, eps_list=None):
    """The resolved config and the sweep it describes, with the command-line
    overrides applied to the raw document first so that they pass the same
    checks as the file."""
    raw = config.read_config(args.config)
    if args.output_dir is not None:
        raw["output_dir"] = args.output_dir
    if seed is not None:
        raw["seed"] = seed
    if eps_list is not None:
        section = raw.setdefault("sweep", {})
        if isinstance(section, dict):  # anything else fails resolve_config below
            section["eps_list"] = [_number_or_text(tok) for tok in eps_list.split(",")]
    cfg = config.resolve_config(raw)
    return cfg, config.build_objects(cfg)


def _check_eps(args):
    """`--eps` is the film half-thickness: required by the thin form, meaningless for the others."""
    if args.form == "thin" and args.eps is None:
        raise ValueError("--eps is required for the thin form")
    if args.form != "thin" and args.eps is not None:
        raise ValueError(f"--eps applies only to the thin form, not --form {args.form}")


def _energy_model(args, run, n_s):
    """The energy form `--form` names, on the sweep's grid, perturbation and tensor;
    the thin form has `n_s` layers."""
    if args.form == "thin":
        return energies.ThinFilmEnergy(run.grid, run.pert, args.eps, n_s, tensor=run.tensor)
    return energies.LimitEnergy(run.grid, run.target, run.pert, tensor=run.tensor)


def _echo_config(cfg, out_dir):
    reporting.write_json(cfg, os.path.join(out_dir, "config.echo.json"))
    reporting.write_json({"artifact_version": __version__}, os.path.join(out_dir, "version.json"))


def _cmd_preset(args):
    if args.out == "":
        raise ValueError("--out must be a non-empty path")
    path = args.out or f"{args.name}.config.json"
    reporting.write_json(config.preset_config(args.name), path)
    return 0, {"path": path}, f"wrote {path}"


def _cmd_describe_surface(args):
    cfg, run = _load(args)
    grid = run.grid
    out = cfg["output_dir"]
    reporting.write_text(reporting.frame_table_csv(grid), os.path.join(out, "frames.csv"))
    budget = {
        "kappa_max": grid.budget.kappa_max,
        "eps_max": grid.budget.eps_max,
        "metric_bound": grid.budget.metric_bound,
        "area": float(grid.area_weight.sum()),
        "nodes": [int(grid.shape[0]), int(grid.shape[1])],
    }
    reporting.write_json(budget, os.path.join(out, "budget.json"))
    _echo_config(cfg, out)
    return 0, budget, f"wrote frame table and budget to {out}"


def _cmd_eval_energy(args):
    _check_eps(args)
    cfg, run = _load(args)
    field = reporting.read_field_csv(run.grid, args.field)
    want = "thin" if args.form == "thin" else "surface"
    if field.layout != want:
        raise ValueError(f"field file {args.field} holds a {field.layout} field; "
                         f"--form {args.form} expects a {want} field")
    model = _energy_model(args, run, field.n_s if want == "thin" else None)
    bd = model.breakdown(field.values)[0]
    _echo_config(cfg, cfg["output_dir"])
    return 0, bd.as_dict(), None


def _cmd_minimize(args):
    _check_eps(args)
    cfg, run = _load(args, seed=args.seed)
    model = _energy_model(args, run, run.n_s)
    init = descent.random_field(run.grid, run.target, model.layout, n_s=run.n_s, seed=run.seed)
    field, report = descent.minimize(model, run.target, init, run.options)

    out = cfg["output_dir"]
    reporting.write_field_csv(run.grid, field, os.path.join(out, "minimizer.csv"))
    reporting.write_text(reporting.trace_csv(report), os.path.join(out, "trace.csv"))
    payload = dict(report.as_dict(), artifact_version=__version__, form=args.form)
    if args.eps is not None:
        payload["eps"] = args.eps
    reporting.write_json(payload, os.path.join(out, "minimize.json"))
    _echo_config(cfg, out)
    return 0, payload, (f"energy {report.energy.total:.9g} after {report.iterations} iterations "
                        f"({report.termination}); artifacts in {out}")


def _eps_file_name(eps):
    return f"eps_{eps:g}.csv"


def _check_eps_file_names(eps_list):
    """Two thicknesses with one `{eps:g}` name would overwrite each other's files."""
    seen = {}
    for eps in eps_list:
        name = _eps_file_name(eps)
        if name in seen:
            raise ValueError(f"thicknesses {seen[name]!r} and {eps!r} share the file name "
                             f"{name}; thicknesses must differ in their first 6 "
                             "significant digits")
        seen[name] = eps


def _cmd_sweep(args):
    cfg, run = _load(args, seed=args.seed, eps_list=args.eps_list)
    _check_eps_file_names(run.eps_list)
    report, artifacts = sweep.run_sweep(run)

    out = cfg["output_dir"]
    payload = {"artifact_version": __version__, "config": cfg, "report": report.as_dict()}
    reporting.write_json(payload, os.path.join(out, "report.json"))
    reporting.write_text(reporting.sweep_csv(report), os.path.join(out, "sweep.csv"))

    # a write error is returned, not raised: a share that raises has the other
    # writers killed mid-file, and the first error in item order does not depend
    # on how the items were dealt
    def write_minimizer(item):
        name, field, trace = item
        try:
            reporting.write_field_csv(run.grid, field, os.path.join(out, "fields", name))
            reporting.write_text(reporting.trace_csv(trace), os.path.join(out, "traces", name))
        except reporting.ReportError as exc:
            return exc
        return None

    minimizers = [("limit.csv", artifacts["limit_field"], artifacts["limit_trace"])]
    minimizers += [(_eps_file_name(eps), field, artifacts["eps_traces"][eps])
                   for eps, field in artifacts["eps_fields"].items()]
    # forked writers read the artifacts copy-on-write: nothing is pickled on the way in
    for exc in sweep._map_in_processes(write_minimizer, minimizers):
        if exc is not None:
            raise exc
    _echo_config(cfg, out)

    flags = report.flags
    lines = [f"sweep {'PASS' if flags['pass'] else 'FAIL'}; artifacts in {out}"]
    lines += [f"  eps={entry.eps:g}: " + ("failed" if entry.failed else f"gap={entry.gap:.6g}")
              for entry in report.entries]
    lines += [f"  {key}: {value}" for key, value in sorted(flags.items())]
    return (0 if flags["all_eps_succeeded"] else 2), payload, "\n".join(lines)


def _cmd_check_identities(args):
    cfg, run = _load(args)
    run.tensor.values_on(run.grid)  # the identity does not use it, but its field is checked as in sweep
    residual, scale = sweep.check_vanishing_identity(run.grid, run.target, run.pert,
                                                     samples=args.samples, seed=run.seed)
    predicted = sweep.identity_is_predicted_vanishing(run.pert, run.target)
    roundoff = 1e-14 * max(scale, 1e-300)  # either way, a residual at roundoff level vanishes
    ok = residual <= roundoff if predicted else residual > roundoff
    payload = {"max_residual": residual, "scale": scale, "vanishing_predicted": predicted,
               "ok": bool(ok)}
    reporting.write_json(payload, os.path.join(cfg["output_dir"], "identities.json"))
    _echo_config(cfg, cfg["output_dir"])
    return (0 if ok else 2), payload, None


def _cmd_crosscheck_planar(args):
    grid = surfaces.build_surface(surfaces.SurfaceSpec("flat_patch", args.resolution,
                                                       args.resolution))
    worst = sweep.planar_interfacial_crosscheck(grid, kappa=args.kappa, fields=args.fields,
                                                seed=args.seed)
    ok = worst <= 1e-10  # a NaN discrepancy fails
    return (0 if ok else 2), {"max_relative_discrepancy": worst, "ok": ok}, None


_COMMANDS = {
    "preset": _cmd_preset,
    "describe-surface": _cmd_describe_surface,
    "eval-energy": _cmd_eval_energy,
    "minimize": _cmd_minimize,
    "sweep": _cmd_sweep,
    "check-identities": _cmd_check_identities,
    "crosscheck-planar": _cmd_crosscheck_planar,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, summary = _COMMANDS[args.command](args)
        if summary is None or args.json_out:
            print(reporting.dumps_canonical(payload))
        elif not args.quiet:
            print(summary)
        return code
    except (descent.NumericalFailure, targets.TargetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
