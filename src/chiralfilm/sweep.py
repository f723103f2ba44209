"""Film-thickness sweep driver checking dimension-reduction predictions.

For a configured scenario the driver minimizes the surface limit energy once
(keeping the lowest of its random restarts, and reporting how each ended),
builds recovery fields from the optimal corrector, starts each thickness's
film minimization from its recovery field, and records minimum-energy gaps,
recovery energies, H1 distances to the limit minimizer, and the s-derivative
energy share.  Pass/fail flags encode the expected trends: gaps
non-increasing with the smallest at most 20% of the largest, recovery
energies non-increasing, H1 distances non-increasing, s-shares decreasing.
The flag `all_converged` records whether the kept limit run and every
successful thickness stopped at the gradient tolerance; it is reported beside
the trends and does not enter `pass`.

Once the corrector is built the film minimizations share nothing, so they run
in up to one forked process per CPU this process may run on; every film runs
the same code on the same arrays, so the results do not depend on the count.

Also houses the pointwise identity checks: the anisotropy density vanishes
(to roundoff) for bulk/anisotropic/temperature perturbations with a sphere
target and for the interfacial and zero perturbations with any target.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .descent import MinimizeOptions, NumericalFailure, minimize, random_field
from .energies import (
    EnergyError,
    LimitEnergy,
    ThinFilmEnergy,
    h1_distance,
    optimal_corrector,
    recovery_field,
)
from .perturbations import (
    IDENTITY_TENSOR,
    AnisotropicDMI,
    InterfacialDMI,
    ZeroPerturbation,
    frame_sample,
)
from .surfaces import SurfaceGrid
from .targets import SphereTarget, TargetError


DEFAULT_EPS_LIST = (0.2, 0.1, 0.05, 0.025)


class SweepError(ValueError):
    """Invalid sweep configuration."""


@dataclass
class SweepConfig:
    grid: SurfaceGrid
    target: object
    pert: object
    tensor: object = IDENTITY_TENSOR
    eps_list: tuple = DEFAULT_EPS_LIST
    n_s: int = 8
    options: MinimizeOptions = field(default_factory=MinimizeOptions)
    restarts: int = 1
    seed: int = 0

    def validate(self):
        eps = tuple(self.eps_list)
        if len(eps) == 0:
            raise SweepError("eps list must not be empty")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise SweepError("eps list must be strictly decreasing")
        for e in eps:
            try:
                self.grid.require_eps(e)
            except Exception as exc:
                raise SweepError(str(exc)) from exc
        if self.n_s < 4:
            raise SweepError("need at least 4 s-layers")
        if self.restarts < 1:
            raise SweepError("restart count must be at least 1")


@dataclass
class EpsEntry:
    eps: float
    failed: bool = False
    failure: str = ""
    min_energy: Optional[dict] = None
    recovery_energy: Optional[float] = None
    gap: Optional[float] = None
    h1_to_limit: Optional[float] = None
    s_share: Optional[float] = None
    iterations: int = 0
    termination: str = ""
    trials: int = 0
    gradient_evaluations: int = 0
    preconditioner_solves: int = 0


@dataclass
class SweepReport:
    limit_energy: dict
    limit_iterations: int
    limit_termination: str
    limit_restarts: list      # seed and MinimizeReport.as_dict() of every restart, kept or not
    entries: list
    identity_residual: float
    identity_scale: float
    flags: dict

    def as_dict(self):
        return {
            "limit": {
                "energy": self.limit_energy,
                "iterations": self.limit_iterations,
                "termination": self.limit_termination,
                "restarts": self.limit_restarts,
            },
            "per_eps": [asdict(e) for e in self.entries],
            "identity_check": {
                "max_residual": self.identity_residual,
                "scale": self.identity_scale,
            },
            "flags": self.flags,
        }


def _trend_flags(entries):
    ok = [e for e in entries if not e.failed]
    flags = {}
    gaps = [e.gap for e in ok]
    recs = [e.recovery_energy for e in ok]
    h1s = [e.h1_to_limit for e in ok]
    shares = [e.s_share for e in ok if e.s_share is not None and np.isfinite(e.s_share)]
    flags["all_eps_succeeded"] = len(ok) == len(entries)
    flags["gaps_non_increasing"] = all(b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(gaps, gaps[1:]))
    if gaps and gaps[0] > 0:
        flags["gap_ratio_ok"] = gaps[-1] <= 0.2 * gaps[0]
    else:
        flags["gap_ratio_ok"] = bool(gaps) and gaps[-1] <= 1e-9
    flags["recovery_non_increasing"] = all(
        b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(recs, recs[1:])
    )
    flags["h1_non_increasing"] = all(b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(h1s, h1s[1:]))
    flags["s_share_decreasing"] = len(shares) == len(ok) and all(
        b < a for a, b in zip(shares, shares[1:])
    )
    flags["pass"] = all(
        flags[k]
        for k in (
            "all_eps_succeeded",
            "gaps_non_increasing",
            "gap_ratio_ok",
            "recovery_non_increasing",
            "h1_non_increasing",
        )
    )
    return flags


def run_sweep(config: SweepConfig):
    """Execute the sweep; returns (SweepReport, artifacts dict).

    Artifacts hold the limit minimizer, per-eps minimizers, and traces for
    serialization; the report is the JSON-ready summary.
    """
    config.validate()
    grid, target, pert, tensor = config.grid, config.target, config.pert, config.tensor

    limit_model = LimitEnergy(grid, target, pert, tensor=tensor)
    best = None
    restarts = []
    for r in range(config.restarts):
        init = random_field(grid, target, "surface", seed=config.seed + r)
        u0_cand, rep_cand = minimize(limit_model, target, init, config.options)
        restarts.append(dict(rep_cand.as_dict(), seed=config.seed + r))
        if best is None or rep_cand.energy.total < best[1].energy.total:
            best = (u0_cand, rep_cand)
    u0, limit_rep = best
    e_limit = limit_rep.energy.total

    d0 = optimal_corrector(limit_model, u0.values)
    entries = []
    artifacts = {"limit_field": u0, "limit_trace": limit_rep, "eps_fields": {}, "eps_traces": {}}

    def film(eps):
        """The minimization at one thickness: (entry, minimizer, trace), the last
        two None when it failed."""
        entry = EpsEntry(eps=eps)
        try:
            thin_model = ThinFilmEnergy(grid, pert, eps, config.n_s, tensor=tensor)
            rec = recovery_field(grid, target, u0.values, d0, eps, config.n_s)
            # minimize takes the flagged recovery field as it is, so its first
            # energy is the recovery energy
            u_eps, rep = minimize(thin_model, target, rec, config.options)
            entry.recovery_energy = rep.energy_trace[0]
            entry.min_energy = rep.energy.as_dict()
            entry.gap = abs(rep.energy.total - e_limit)
            entry.h1_to_limit = h1_distance(grid, u_eps, u0)
            tang, sder = thin_model.seminorm_shares(u_eps.values)
            entry.s_share = sder / (sder + tang) if (sder + tang) > 0 else float("nan")
            entry.iterations = rep.iterations
            entry.termination = rep.termination
            entry.trials = rep.trials
            entry.gradient_evaluations = rep.gradient_evaluations
            entry.preconditioner_solves = rep.preconditioner_solves
            return entry, u_eps, rep
        except (NumericalFailure, EnergyError, TargetError) as exc:
            entry.failed = True
            entry.failure = str(exc)
            return entry, None, None

    for entry, u_eps, rep in _map_in_processes(film, config.eps_list):
        entries.append(entry)
        if not entry.failed:
            artifacts["eps_fields"][entry.eps] = u_eps
            artifacts["eps_traces"][entry.eps] = rep

    residual, scale = check_vanishing_identity(grid, target, pert, seed=config.seed)
    flags = _trend_flags(entries)
    flags["all_converged"] = all(
        t == "gradient_tolerance"
        for t in [limit_rep.termination] + [e.termination for e in entries if not e.failed]
    )
    report = SweepReport(
        limit_energy=limit_rep.energy.as_dict(),
        limit_iterations=limit_rep.iterations,
        limit_termination=limit_rep.termination,
        limit_restarts=restarts,
        entries=entries,
        identity_residual=residual,
        identity_scale=scale,
        flags=flags,
    )
    return report, artifacts


def _map_in_processes(fn, items):
    """[fn(x) for x in items], the items dealt round-robin over one process per
    usable CPU (at most one per item).

    The parent computes its own share in place; each of the other shares runs in
    a forked child that sends its results (or its exception) back pickled over a
    pipe.  Without `os.fork`, or with one process, this is the plain map.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    procs = min(len(items), cpus)
    if procs <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    sys.stdout.flush()
    sys.stderr.flush()
    children = []                     # [pid or None once reaped, read end of its pipe]
    try:
        for k in range(1, procs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                for _, pipe in children:
                    pipe.close()
                _serve_share(fn, items[k::procs], write_fd)
            os.close(write_fd)
            children.append([pid, os.fdopen(read_fd, "rb")])
        results = [None] * len(items)
        results[0::procs] = [fn(x) for x in items[0::procs]]
        # a child blocks on a full pipe, so read each to EOF before waiting
        for k, child in enumerate(children, 1):
            pid, pipe = child
            payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if status != 0:
                raise RuntimeError(f"worker {pid} died without a result (exit status {status})")
            kind, value = pickle.loads(payload)
            if kind == "error":
                raise value
            results[k::procs] = value
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:  # not reaped yet, so the pid is still this child's
                import signal  # here, not at the top: the module adds about 1 ms to every start-up

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve_share(fn, share, write_fd):
    """Child side of `_map_in_processes`: send ("ok", results) or ("error", exc)
    and leave without running the parent's exit handlers."""
    code = 1
    try:
        try:
            payload = pickle.dumps(("ok", [fn(x) for x in share]))
        except BaseException as exc:
            try:
                payload = pickle.dumps(("error", exc))
                pickle.loads(payload)  # an exception whose arguments do not round-trip
            except Exception:
                payload = pickle.dumps(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def check_vanishing_identity(grid: SurfaceGrid, target, pert, samples: int = 1000, seed: int = 0):
    """Max anisotropy-density residual over random (node, sigma) draws.

    Returns (max residual of (K n_N . n_M)^2, max |K|^2 scale).  The residual
    sits at roundoff level whenever the perturbation predicts a vanishing
    shape-anisotropy term for the given target.
    """
    if samples < 1000:
        raise SweepError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    ii = rng.integers(0, grid.shape[0], size=samples)
    jj = rng.integers(0, grid.shape[1], size=samples)
    basis = frame_sample(grid, pert)[:, ii, jj]
    sigma = target.project(rng.standard_normal((samples, 3)))
    images = np.einsum("sj,msji->msi", sigma, basis)  # K(sigma) f_m
    density = np.sum(images[2] * target.normal(sigma), axis=-1) ** 2
    # |K(sigma)|^2 = sum_m |K(sigma) f_m|^2, since the frame is orthonormal
    scale = np.sum(images * images, axis=(0, -1))
    return float(np.max(density)), float(np.max(scale))


def identity_is_predicted_vanishing(pert, target) -> bool:
    """Whether the shape-anisotropy density (K n_N . n_M)^2 is predicted to vanish:
    K n_N = 0 (interfacial, zero, or a zero coupling J, since grad_Ms is tangential),
    or n_M(sigma) = sigma on a sphere target, to which K n_N = (J n_N) x sigma is normal."""
    zero_coupling = isinstance(pert, AnisotropicDMI) and not np.any(pert.coupling)
    return (zero_coupling or isinstance(pert, (InterfacialDMI, ZeroPerturbation))
            or isinstance(target, SphereTarget))


def planar_interfacial_crosscheck(grid: SurfaceGrid, kappa: float = 1.0, fields: int = 20,
                                  seed: int = 0) -> float:
    """Max relative discrepancy between the interfacial limit energy and its
    expanded planar form, assembled term by term on the same quadrature.

    The expanded form on a flat patch with a unit-sphere target is
    int |grad u|^2 + 2 kappa int (u3 div u - u . grad u3)
    + kappa^2 int (1 + u3^2).
    """
    if grid.spec.kind != "flat_patch":
        raise SweepError("planar cross-check requires a flat patch")
    if fields < 1:
        raise SweepError("planar cross-check needs at least 1 field")
    if not np.isfinite(kappa):
        raise SweepError(f"planar cross-check needs a finite kappa, got {kappa}")
    target = SphereTarget(1.0)
    pert = InterfacialDMI(kappa)
    model = LimitEnergy(grid, target, pert)
    w = grid.area_weight
    discrepancies = []
    for k in range(fields):
        f = random_field(grid, target, "surface", seed=seed + k)
        u = f.values
        direct = model.breakdown(u)[0].total

        d1 = grid.tangential_derivative(u, 0)
        d2 = grid.tangential_derivative(u, 1)
        dirichlet = np.sum(w * (np.sum(d1 * d1, axis=-1) + np.sum(d2 * d2, axis=-1)))
        div = d1[..., 0] + d2[..., 1]
        u_dot_grad3 = u[..., 0] * d1[..., 2] + u[..., 1] * d2[..., 2]
        mixed = 2.0 * kappa * np.sum(w * (u[..., 2] * div - u_dot_grad3))
        aniso = kappa * kappa * np.sum(w * (1.0 + u[..., 2] ** 2))
        expanded = dirichlet + mixed + aniso

        discrepancies.append(abs(direct - expanded) / max(abs(direct), 1.0))
    return float(np.max(discrepancies))  # a NaN discrepancy is kept, and fails any bound
