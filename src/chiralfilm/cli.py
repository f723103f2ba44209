"""Command-line front end.

Every subcommand is a thin shell over library calls: it loads and resolves
the JSON run configuration, dispatches to the library, and serializes the
results.  Exit codes: 0 success, 1 configuration/validation or usage error,
2 numerical failure.  Set CHIRALFILM_THREADS to pin the BLAS thread count
before any computation.

`sweep` runs its thicknesses' film minimizations in up to one process per
CPU it may run on; its output files are byte-identical for any CPU count.
Each process holds one film's working set, so set CHIRALFILM_THREADS=1 to
keep the processes from also multiplying BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


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
    parser = _Parser(prog="chiralfilm", description="Chiral Dirichlet energies on curved thin films")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("preset", help="write a ready-to-run configuration")
    p.add_argument("name", choices=["bulk", "interfacial", "anisotropic", "temperature"])
    p.add_argument("--out", default=None, help="output path (default <name>.config.json)")

    p = add_parser("describe-surface", help="dump the frame grid and thickness budget")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)

    p = add_parser("eval-energy", help="evaluate one energy form on a stored field")
    p.add_argument("--config", required=True)
    p.add_argument("--form", required=True, choices=["thin", "limit"])
    p.add_argument("--field", required=True, help="field CSV path")
    p.add_argument("--eps", type=float, default=None, help="film half-thickness (thin form)")
    p.add_argument("--output-dir", default=None)

    p = add_parser("minimize", help="run a single constrained minimization")
    p.add_argument("--config", required=True)
    p.add_argument("--form", default="limit", choices=["limit", "thin"])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", default=None)

    p = add_parser("sweep", help="full film-thickness convergence experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps-list", default=None, help="comma-separated override, e.g. 0.2,0.1")
    p.add_argument("--output-dir", default=None)

    p = add_parser("check-identities", help="shape-anisotropy vanishing residuals")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--output-dir", default=None)

    p = add_parser("crosscheck-planar",
                       help="interfacial limit energy vs its expanded planar form")
    p.add_argument("--resolution", type=int, default=48)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--fields", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _say(args, message):
    if not args.quiet and not args.json_out:
        print(message)


def _emit(args, payload):
    from .reporting import dumps_canonical

    print(dumps_canonical(payload))


def _number_or_text(token):
    """A float, or the token itself when it is not one, for the value rules to reject."""
    try:
        return float(token)
    except ValueError:
        return token


def _load(args, seed=None, eps_list=None):
    """The resolved config, with the command-line overrides applied to the raw
    document first so that they pass the same checks as the file."""
    from .config import read_config, resolve_config

    raw = read_config(args.config)
    if args.output_dir is not None:
        raw["output_dir"] = args.output_dir
    if seed is not None:
        raw["seed"] = seed
    if eps_list is not None:
        sweep = raw.setdefault("sweep", {})
        if isinstance(sweep, dict):  # anything else fails resolve_config below
            sweep["eps_list"] = [_number_or_text(tok) for tok in eps_list.split(",") if tok]
    return resolve_config(raw)


def _check_eps(args):
    """`--eps` is the film half-thickness: required by the thin form, meaningless for the others."""
    if args.form == "thin" and args.eps is None:
        raise ValueError("--eps is required for the thin form")
    if args.form != "thin" and args.eps is not None:
        raise ValueError(f"--eps applies only to the thin form, not --form {args.form}")


def _echo_config(cfg, out_dir):
    from . import __version__
    from .reporting import write_json

    write_json(cfg, os.path.join(out_dir, "config.echo.json"))
    write_json({"artifact_version": __version__}, os.path.join(out_dir, "version.json"))


def _cmd_preset(args):
    from .config import preset_config
    from .reporting import write_json

    cfg = preset_config(args.name)
    path = args.out or f"{args.name}.config.json"
    write_json(cfg, path)
    _say(args, f"wrote {path}")
    if args.json_out:
        _emit(args, {"path": path})
    return 0


def _cmd_describe_surface(args):
    from .config import build_objects
    from .reporting import frame_table_csv, write_json, write_text

    cfg = _load(args)
    grid = build_objects(cfg).grid
    out = cfg["output_dir"]
    write_text(frame_table_csv(grid), os.path.join(out, "frames.csv"))
    budget = {
        "kappa_max": grid.budget.kappa_max,
        "eps_max": grid.budget.eps_max,
        "metric_bound": grid.budget.metric_bound,
        "area": float(grid.area_weight.sum()),
        "nodes": [int(grid.shape[0]), int(grid.shape[1])],
    }
    write_json(budget, os.path.join(out, "budget.json"))
    _echo_config(cfg, out)
    _say(args, f"wrote frame table and budget to {out}")
    if args.json_out:
        _emit(args, budget)
    return 0


def _cmd_eval_energy(args):
    from .config import build_objects
    from .energies import LimitEnergy, ThinFilmEnergy
    from .reporting import read_field_csv

    _check_eps(args)
    cfg = _load(args)
    run = build_objects(cfg)
    field = read_field_csv(run.grid, args.field)
    want = "thin" if args.form == "thin" else "surface"
    if field.layout != want:
        raise ValueError(f"field file {args.field} holds a {field.layout} field; "
                         f"--form {args.form} expects a {want} field")
    if args.form == "thin":
        model = ThinFilmEnergy(run.grid, run.pert, args.eps, field.n_s, tensor=run.tensor)
    else:
        model = LimitEnergy(run.grid, run.target, run.pert, tensor=run.tensor)
    bd = model.breakdown(field.values)[0]
    _echo_config(cfg, cfg["output_dir"])
    _emit(args, bd.as_dict())
    return 0


def _cmd_minimize(args):
    from . import __version__
    from .config import build_objects
    from .descent import minimize, random_field
    from .energies import LimitEnergy, ThinFilmEnergy
    from .reporting import trace_csv, write_field_csv, write_json, write_text

    _check_eps(args)
    cfg = _load(args, seed=args.seed)
    run = build_objects(cfg)
    if args.form == "thin":
        model = ThinFilmEnergy(run.grid, run.pert, args.eps, run.n_s, tensor=run.tensor)
        init = random_field(run.grid, run.target, "thin", n_s=run.n_s, seed=run.seed)
    else:
        model = LimitEnergy(run.grid, run.target, run.pert, tensor=run.tensor)
        init = random_field(run.grid, run.target, "surface", seed=run.seed)
    field, report = minimize(model, run.target, init, run.options)

    out = cfg["output_dir"]
    write_field_csv(run.grid, field, os.path.join(out, "minimizer.csv"))
    write_text(trace_csv(report), os.path.join(out, "trace.csv"))
    summary = dict(report.as_dict(), artifact_version=__version__, form=args.form)
    if args.eps is not None:
        summary["eps"] = args.eps
    write_json(summary, os.path.join(out, "minimize.json"))
    _echo_config(cfg, out)
    _say(args, f"energy {report.energy.total:.9g} after {report.iterations} iterations "
               f"({report.termination}); artifacts in {out}")
    if args.json_out:
        _emit(args, summary)
    return 0


def _cmd_sweep(args):
    from . import __version__
    from .config import build_objects
    from .reporting import sweep_csv, trace_csv, write_field_csv, write_json, write_text
    from .sweep import run_sweep

    cfg = _load(args, seed=args.seed, eps_list=args.eps_list)
    sweep_config = build_objects(cfg)
    grid = sweep_config.grid
    report, artifacts = run_sweep(sweep_config)

    out = cfg["output_dir"]
    payload = {
        "artifact_version": __version__,
        "config": cfg,
        "report": report.as_dict(),
    }
    write_json(payload, os.path.join(out, "report.json"))
    write_text(sweep_csv(report), os.path.join(out, "sweep.csv"))
    write_field_csv(grid, artifacts["limit_field"], os.path.join(out, "fields", "limit.csv"))
    write_text(trace_csv(artifacts["limit_trace"]), os.path.join(out, "traces", "limit.csv"))
    for eps, field in artifacts["eps_fields"].items():
        write_field_csv(grid, field, os.path.join(out, "fields", f"eps_{eps:g}.csv"))
    for eps, rep in artifacts["eps_traces"].items():
        write_text(trace_csv(rep), os.path.join(out, "traces", f"eps_{eps:g}.csv"))
    _echo_config(cfg, out)

    flags = report.flags
    _say(args, f"sweep {'PASS' if flags['pass'] else 'FAIL'}; artifacts in {out}")
    if not args.quiet and not args.json_out:
        for entry in report.entries:
            status = "failed" if entry.failed else f"gap={entry.gap:.6g}"
            print(f"  eps={entry.eps:g}: {status}")
        for key, value in sorted(flags.items()):
            print(f"  {key}: {value}")
    if args.json_out:
        _emit(args, payload)
    return 0 if flags["all_eps_succeeded"] else 2


def _cmd_check_identities(args):
    from .config import build_objects
    from .reporting import write_json
    from .sweep import check_vanishing_identity, identity_is_predicted_vanishing

    cfg = _load(args)
    run = build_objects(cfg)
    residual, scale = check_vanishing_identity(run.grid, run.target, run.pert,
                                               samples=args.samples, seed=run.seed)
    predicted = identity_is_predicted_vanishing(run.pert, run.target)
    ok = residual <= 1e-14 * max(scale, 1e-300) if predicted else residual > 0
    payload = {
        "max_residual": residual,
        "scale": scale,
        "vanishing_predicted": predicted,
        "ok": bool(ok),
    }
    write_json(payload, os.path.join(cfg["output_dir"], "identities.json"))
    _echo_config(cfg, cfg["output_dir"])
    _emit(args, payload)
    return 0 if ok else 2


def _cmd_crosscheck_planar(args):
    from .surfaces import SurfaceSpec, build_surface
    from .sweep import planar_interfacial_crosscheck

    grid = build_surface(SurfaceSpec("flat_patch", args.resolution, args.resolution))
    worst = planar_interfacial_crosscheck(grid, kappa=args.kappa, fields=args.fields,
                                          seed=args.seed)
    payload = {"max_relative_discrepancy": worst, "ok": bool(worst <= 1e-10)}
    _emit(args, payload)
    return 0 if worst <= 1e-10 else 2


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
    from .descent import NumericalFailure
    from .targets import TargetError

    try:
        return _COMMANDS[args.command](args)
    except (NumericalFailure, TargetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
