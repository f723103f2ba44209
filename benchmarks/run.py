#!/usr/bin/env python3
"""Sweep benchmark for chiralfilm.

    python3 benchmarks/run.py --workload bulk-band64 --seed 1234 --seconds 55 --trace 0

Run from the repository root.  One client runs `chiralfilm sweep` in a closed
loop (the next sweep starts when the previous one has written its artifacts)
for about `--seconds` seconds, with BLAS pinned to one thread.  Between
sweeps, child processes time the set-up, spread evenly over the run.  Sweep i
of a run uses the sweep seed `seed + 4 * i`, so the first sweep of the default
run uses the presets' seed 1234; restarts take consecutive seeds, so no two
sweeps of one run share a random start.

Every sweep is checked: the CLI must exit 0, every energy must be finite,
every stored field must lie on the target, film minimizers may not exceed
the recovery energy they started from, energy traces must not increase, the
vanishing identity must match its prediction, and `report.json` must be
byte-identical to the one an earlier run of the same sources and workload
configuration wrote for the same sweep seed.  A sweep that fails a check
counts in `failed`.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` (sweeps) and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the same loop runs with every layer's public
functions wrapped (see spans.py) and the metrics are the per-layer ones.
Progress, the machine block and the host probe go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CHIRALFILM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_runs"                 # relative to the repository root, the working directory

# Presets with a few keys overridden.  The iteration cap is lowered from the
# presets' 6000: at 6000 one sweep took 13-378 s depending on the random start,
# more than a run may take and too uneven for any spread bound.  At these caps
# every minimization stops on the cap, so a sweep does a fixed amount of work.
WORKLOADS = {
    "temperature-ellipsoid32": ("temperature", {
        "surface": {"n_u": 32, "n_v": 32},
        "target": {"kind": "ellipsoid", "semi_axes": [1.2, 1.0, 0.8]},
        "sweep": {"restarts": 1},
        "minimizer": {"max_iterations": 60},
    }),
    "bulk-band64": ("bulk", {
        "sweep": {"restarts": 1},
        "minimizer": {"max_iterations": 40},
    }),
}
SETUP_SAMPLES = 15

END_TO_END = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "unconverged_share": "share"}
PER_LAYER = {
    "config.resolve_s": "s", "surfaces.build_s": "s",
    "surfaces.deriv_calls": "count", "surfaces.deriv_s": "s",
    "perturbations.kmatrix_calls": "count", "perturbations.kmatrix_s": "s",
    "perturbations.frame_sample_s": "s",
    "targets.project_calls": "count", "targets.project_points": "count",
    "targets.project_s": "s", "targets.project_us_per_point": "us", "targets.normal_s": "s",
    "energies.limit_eval_calls": "count", "energies.limit_eval_s": "s",
    "energies.limit_grad_calls": "count", "energies.limit_grad_s": "s",
    "energies.thin_eval_calls": "count", "energies.thin_eval_s": "s",
    "energies.thin_grad_calls": "count", "energies.thin_grad_s": "s",
    "energies.certify_s": "s",
    "descent.iterations_limit": "count", "descent.iterations_thin": "count",
    "descent.trials": "count", "descent.accept_ratio": "ratio",
    "descent.grad_evals_per_iteration": "ratio", "descent.self_s": "s",
    "descent.unconverged": "count",
    "sweep.limit_stage_s": "s", "sweep.thin_stage_s": "s", "sweep.identity_s": "s",
    "sweep.limit_energy": "energy", "sweep.trend_flags_failed": "count",
    "reporting.write_s": "s", "reporting.bytes_written": "B",
    "code.src_lines": "count", "host.probe_ms": "ms",
    "trace.sweep_s": "s", "trace.sweeps": "count", "trace.spans": "count",
}
TREND_FLAGS = ("all_eps_succeeded", "gaps_non_increasing", "gap_ratio_ok",
               "recovery_non_increasing", "h1_non_increasing", "s_share_decreasing")


def log(message):
    print(message, file=sys.stderr, flush=True)


def workload_config(name):
    from chiralfilm.config import PRESETS

    preset, overrides = WORKLOADS[name]
    raw = copy.deepcopy(PRESETS[preset])
    for section, values in overrides.items():
        if section == "target":
            raw[section] = copy.deepcopy(values)
        else:
            raw.setdefault(section, {}).update(copy.deepcopy(values))
    raw["output_dir"] = os.path.join(WORK, name, "out")
    return raw


def src_files():
    pkg = os.path.join(SRC, "chiralfilm")
    return sorted(os.path.join(pkg, f) for f in os.listdir(pkg) if f.endswith(".py"))


def machine_block():
    import numpy as np

    lines = 0
    for path in src_files():
        with open(path) as handle:
            lines += sum(1 for _ in handle)
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": have_numba,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "code.src_lines": lines,
    }


def host_probe_ms():
    """Median of five timings of a fixed numpy loop; shows host drift next to each run."""
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((32, 32))
    arr = rng.standard_normal((32, 768))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(200):
            float(np.einsum("ij,ij->", mat @ arr, arr))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def setup_once(name):
    """Child process: package import + resolve_config + build_objects, timed."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import chiralfilm.cli  # noqa: F401
    import chiralfilm.reporting  # noqa: F401
    import chiralfilm.sweep  # noqa: F401
    from chiralfilm.config import build_objects, resolve_config

    build_objects(resolve_config(workload_config(name)))
    print(time.perf_counter() - start)


def setup_sample(name):
    """One child process timing package import + resolve_config + build_objects."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-once", name],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_digest(config_text):
    """Identifies the sources and workload configuration a report.json came from."""
    digest = hashlib.sha256(config_text.encode())
    for path in src_files():
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def check_digest(key, report_bytes):
    """Compare report.json with the copy recorded for the same sources and sweep seed."""
    path = os.path.join(WORK, "report-digests.json")
    try:
        with open(path) as handle:
            known = json.load(handle)
    except FileNotFoundError:
        known = {}
    digest = hashlib.sha256(report_bytes).hexdigest()
    if key in known:
        return [] if known[key] == digest else [f"report.json differs from an earlier run ({key})"]
    known[key] = digest
    with open(path + ".tmp", "w") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return []


def check_sweep(report, artifacts, config):
    import numpy as np

    from chiralfilm.sweep import identity_is_predicted_vanishing

    target, pert = config.target, config.pert
    problems = []
    values = list(report.limit_energy.values())
    for e in report.entries:
        if e.failed:
            problems.append(f"eps={e.eps} failed: {e.failure}")
            continue
        values += list(e.min_energy.values()) + [e.recovery_energy, e.gap, e.h1_to_limit, e.s_share]
        if e.min_energy["total"] > e.recovery_energy * (1 + 1e-12):
            problems.append(f"eps={e.eps}: minimum above its recovery start")
    values += [report.identity_residual, report.identity_scale]
    if not np.all(np.isfinite(values)):
        problems.append("non-finite energy or distance in the report")
    fields = [artifacts["limit_field"]] + list(artifacts["eps_fields"].values())
    for f in fields:
        if np.max(np.abs(target.project(f.values) - f.values)) > 1e-8:
            problems.append("stored field leaves the target")
    traces = [artifacts["limit_trace"]] + list(artifacts["eps_traces"].values())
    for t in traces:
        if any(b > a for a, b in zip(t.energy_trace, t.energy_trace[1:])):
            problems.append("energy trace increases")
    if identity_is_predicted_vanishing(pert, target):
        ok = report.identity_residual <= 1e-14 * max(report.identity_scale, 1e-300)
    else:
        ok = report.identity_residual > 0
    if not ok:
        problems.append("vanishing identity contradicts its prediction")
    return problems


def layer_metrics(recorded, summary, sweep_end, returned, out_dir):
    """Per-layer numbers of one traced sweep."""
    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    minimize_ids = {i for i, s in enumerate(recorded) if s[0] == "descent.minimize"}
    under_min = [s for s in recorded if s[3] in minimize_ids]
    trials = sum(1 for s in under_min if s[0] in ("energies.limit_eval", "energies.thin_eval"))
    grads = sum(1 for s in under_min if s[0] in ("energies.limit_grad", "energies.thin_grad"))
    notes = [s[4] for s in recorded if s[0] == "descent.minimize" and s[4]]
    it_limit = sum(n["iterations"] for n in notes if n["layout"] == "surface")
    it_thin = sum(n["iterations"] for n in notes if n["layout"] == "thin")
    points = sum(s[4] for s in recorded if s[0] == "targets.project")

    def first(name):
        return next(s for s in recorded if s[0] == name)

    run, corrector, identity = first("sweep.run_sweep"), first("energies.corrector"), first("sweep.identity")
    nbytes = sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out_dir) for f in fs)
    return {
        "config.resolve_s": total("config.resolve") / max(total("config.resolve", "calls"), 1),
        "surfaces.build_s": total("surfaces.build") / max(total("surfaces.build", "calls"), 1),
        "surfaces.deriv_calls": total("surfaces.deriv", "calls"),
        "surfaces.deriv_s": total("surfaces.deriv"),
        "perturbations.kmatrix_calls": total("perturbations.kmatrix", "calls"),
        "perturbations.kmatrix_s": total("perturbations.kmatrix"),
        "perturbations.frame_sample_s": total("perturbations.frame_sample"),
        "targets.project_calls": total("targets.project", "calls"),
        "targets.project_points": points,
        "targets.project_s": total("targets.project"),
        "targets.normal_s": total("targets.normal", "self_s"),
        "energies.limit_eval_calls": total("energies.limit_eval", "calls"),
        "energies.limit_eval_s": total("energies.limit_eval"),
        "energies.limit_grad_calls": total("energies.limit_grad", "calls"),
        "energies.limit_grad_s": total("energies.limit_grad"),
        "energies.thin_eval_calls": total("energies.thin_eval", "calls"),
        "energies.thin_eval_s": total("energies.thin_eval"),
        "energies.thin_grad_calls": total("energies.thin_grad", "calls"),
        "energies.thin_grad_s": total("energies.thin_grad"),
        "energies.certify_s": total("energies.certify") + total("energies.corrector"),
        "descent.iterations_limit": it_limit,
        "descent.iterations_thin": it_thin,
        "descent.trials": trials,
        "descent.grad_evals": grads,
        "descent.self_s": total("descent.minimize", "self_s"),
        "sweep.limit_stage_s": corrector[1] - run[1],
        "sweep.thin_stage_s": identity[1] - corrector[1],
        "sweep.identity_s": identity[2] - identity[1],
        "reporting.write_s": returned - sweep_end,
        "reporting.bytes_written": nbytes,
        "trace.spans": len(recorded),
    }


def converged_count(recorded, report):
    """Limit restarts and film entries that ended at the gradient tolerance."""
    limit_ok = sum(1 for s in recorded if s[0] == "descent.minimize" and s[4]
                   and s[4]["layout"] == "surface" and s[4]["termination"] == "gradient_tolerance")
    entries = report.entries if report is not None else []
    return limit_ok + sum(1 for e in entries if not e.failed and e.termination == "gradient_tolerance")


def run(args):
    if not os.path.isfile(os.path.join(SRC, "chiralfilm", "__init__.py")):
        log(f"error: no chiralfilm sources under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, SRC)
    import spans
    from chiralfilm import cli
    from chiralfilm.config import resolve_config

    machine = machine_block()
    log("machine " + json.dumps(machine, sort_keys=True))
    probe_ms = host_probe_ms()
    log(f"host probe {probe_ms:.3f} ms")

    run_dir = os.path.join(WORK, args.workload)
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(run_dir, exist_ok=True)
    raw = workload_config(args.workload)
    cfg = resolve_config(raw)
    config_path = os.path.join(run_dir, "config.json")
    config_text = json.dumps(raw, indent=1, sort_keys=True)
    with open(config_path, "w") as handle:
        handle.write(config_text)
    n_min = cfg["sweep"]["restarts"] + len(cfg["sweep"]["eps_list"])
    digest_prefix = f"{args.workload}/{run_digest(config_text)}"

    tracer = spans.Tracer()
    spans.install_outcomes(tracer)
    if args.trace:
        spans.install_layers(tracer)

    times, setups, per_sweep, energies, flags_failed = [], [], [], [], []
    attempted = failed = 0
    minimizations = converged = 0
    loop_start = time.perf_counter()
    try:
        while attempted == 0 or (time.perf_counter() - loop_start + statistics.median(timed)
                                 <= args.seconds):
            sweep_seed = args.seed + 4 * attempted
            shutil.rmtree(out_dir, ignore_errors=True)
            tracer.clear()
            tracer.enabled = True
            called = time.perf_counter()
            problems = []
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["sweep", "--config", config_path, "--seed", str(sweep_seed),
                                     "--output-dir", out_dir, "--quiet"])
                if code != 0:
                    problems.append(f"chiralfilm sweep exited {code}")
            except Exception as exc:  # a crashing sweep is a failed attempt, not a lost one
                problems.append(f"sweep raised {exc!r}")
            returned = time.perf_counter()
            tracer.enabled = False
            recorded = list(tracer.spans)
            runs = [s for s in recorded if s[0] == "sweep.run_sweep"]
            started = runs[0][1] if runs else called
            times.append(returned - started)
            attempted += 1
            timed = times[1:] or times       # the first sweep warms caches and allocators

            report = None
            if runs and runs[0][4] is not None:
                sweep_config, (report, artifacts) = runs[0][4]
                problems += check_sweep(report, artifacts, sweep_config)
                with open(os.path.join(out_dir, "report.json"), "rb") as handle:
                    problems += check_digest(f"{digest_prefix}/{sweep_seed}", handle.read())
                energies.append(report.limit_energy["total"])
                flags_failed.append(sum(1 for k in TREND_FLAGS if not report.flags.get(k, False)))
                if args.trace:
                    per_sweep.append(layer_metrics(recorded, spans.summarize(recorded),
                                                   runs[0][2], returned, out_dir))
            elif not problems:
                problems.append("run_sweep was not reached")
            ok = converged_count(recorded, report)
            minimizations += n_min
            converged += ok
            if problems:
                failed += 1
                log(f"sweep {attempted} (seed {sweep_seed}) FAILED: " + "; ".join(problems))
            else:
                log(f"sweep {attempted} (seed {sweep_seed}): {times[-1]:.3f} s, "
                    f"limit energy {report.limit_energy['total']:.6g}, {n_min - ok}/{n_min} unconverged")
            # setup_s is an end-to-end metric only; its samples keep pace with the run's clock
            due = SETUP_SAMPLES * (time.perf_counter() - loop_start) / args.seconds
            while not args.trace and len(setups) < min(due, SETUP_SAMPLES):
                setups.append(setup_sample(args.workload))
    finally:
        tracer.restore()
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args.workload))
    if setups:
        log(f"setup {statistics.median(setups):.4f} s (median of {len(setups)})")

    if args.trace:
        metrics = traced_metrics(per_sweep, timed, energies, flags_failed, machine, probe_ms)
        metrics["descent.unconverged"] = (minimizations - converged) / attempted
        units = PER_LAYER
        metrics = {k: metrics.get(k, 0.0) for k in units}  # only when no sweep got through
    else:
        metrics = {
            "sweep_s": statistics.median(timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unconverged_share": (minimizations - converged) / minimizations,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(per_sweep, times, energies, flags_failed, machine, probe_ms):
    out = {"code.src_lines": machine["code.src_lines"], "host.probe_ms": probe_ms,
           "trace.sweep_s": statistics.median(times), "trace.sweeps": len(times)}
    if not per_sweep:
        return out
    mean = {k: sum(d[k] for d in per_sweep) / len(per_sweep) for k in per_sweep[0]}
    out.update((k, v) for k, v in mean.items() if k in PER_LAYER)
    iterations = mean["descent.iterations_limit"] + mean["descent.iterations_thin"]
    out["descent.accept_ratio"] = iterations / mean["descent.trials"]
    out["descent.grad_evals_per_iteration"] = mean["descent.grad_evals"] / iterations
    out["targets.project_us_per_point"] = mean["targets.project_s"] / mean["targets.project_points"] * 1e6
    out["sweep.limit_energy"] = statistics.median(energies)
    out["sweep.trend_flags_failed"] = sum(flags_failed) / len(flags_failed)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-once", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_once:
        setup_once(args.setup_once)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
