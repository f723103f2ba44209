"""Span recording around chiralfilm's public functions, from outside the package.

A `Tracer` replaces functions and methods with thin wrappers that record one
span per call: name, start, end, the index of the enclosing span and an
optional note taken from the arguments and result.  Methods are patched on the
class that defines them; module functions are patched where the caller looks
them up (for example `chiralfilm.sweep.minimize`, which `run_sweep` resolves
through its own module globals).  Spans stay in memory; `summarize` turns them
into per-name counts, inclusive time and self time.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, note]
        self.enabled = True
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[4] = note(args, out)
                return out
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def patch(self, owner, attr, name, note=None):
        """Wrap `owner.attr` (a module global or a method defined on a class)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, note))
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self):
        self.spans.clear()


def summarize(spans):
    """Per span name: {'calls', 'total_s', 'self_s'}; self time excludes direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[idx]
    return out


def _minimize_note(args, out):
    report = out[1]
    return {"layout": args[0].layout, "iterations": report.iterations,
            "termination": report.termination}


def _points_note(args, out):
    return args[1].size // 3


def install_outcomes(tracer):
    """The two patches every run needs: the sweep boundary and each minimization's outcome."""
    import chiralfilm.sweep as sweep

    tracer.patch(sweep, "run_sweep", "sweep.run_sweep", note=lambda args, out: (args[0], out))
    tracer.patch(sweep, "minimize", "descent.minimize", note=_minimize_note)


def install_layers(tracer):
    """Wrap the public functions of every layer a sweep passes through."""
    import chiralfilm.config as config
    import chiralfilm.energies as energies
    import chiralfilm.perturbations as perturbations
    import chiralfilm.surfaces as surfaces
    import chiralfilm.sweep as sweep
    import chiralfilm.targets as targets

    tracer.patch(config, "resolve_config", "config.resolve")
    tracer.patch(config, "build_surface", "surfaces.build")
    tracer.patch(surfaces.SurfaceGrid, "tangential_derivative", "surfaces.deriv")
    tracer.patch(surfaces.SurfaceGrid, "tangential_derivative_adjoint", "surfaces.deriv")
    tracer.patch(energies, "apply_difference", "surfaces.deriv")
    for mod in (energies, sweep):
        tracer.patch(mod, "frame_sample", "perturbations.frame_sample")
    for cls in vars(perturbations).values():
        if isinstance(cls, type) and issubclass(cls, perturbations.Perturbation) \
                and "kmatrix" in cls.__dict__:
            tracer.patch(cls, "kmatrix", "perturbations.kmatrix")
    for cls in (targets.SphereTarget, targets.EllipsoidTarget):
        tracer.patch(cls, "project", "targets.project", note=_points_note)
        tracer.patch(cls, "normal", "targets.normal")
        tracer.patch(cls, "normal_pullback", "targets.normal")
    tracer.patch(targets.TargetManifold, "tangent_project", "targets.normal")
    tracer.patch(energies.LimitEnergy, "breakdown", "energies.limit_eval")
    tracer.patch(energies.LimitEnergy, "breakdown_and_gradient", "energies.limit_grad")
    tracer.patch(energies.ThinFilmEnergy, "breakdown", "energies.thin_eval")
    tracer.patch(energies.ThinFilmEnergy, "breakdown_and_gradient", "energies.thin_grad")
    tracer.patch(energies.ThinFilmEnergy, "seminorm_shares", "energies.certify")
    tracer.patch(sweep, "optimal_corrector", "energies.corrector")
    tracer.patch(sweep, "recovery_field", "energies.certify")
    tracer.patch(sweep, "h1_distance", "energies.certify")
    tracer.patch(sweep, "check_vanishing_identity", "sweep.identity")
