"""Manifold-constrained minimization by projected gradient descent.

Steps move along the negative tangent-projected gradient and retract every
node back onto the target by nearest-point projection.  Step sizes follow a
Barzilai-Borwein guess (first trial step 1), capped so that no node moves
farther than MAX_NODE_STEP, and refined by Armijo backtracking, so the stored
energy trace is non-increasing.  The line-search settings are the module
constants below; only the iteration cap and the gradient tolerance are options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energies import DirectorField, EnergyBreakdown, s_quadrature


class NumericalFailure(RuntimeError):
    """Energy evaluated to a non-finite value during descent."""


ARMIJO_C = 1e-4         # sufficient-decrease constant
SHRINK = 0.5            # backtracking factor
MAX_HALVINGS = 30       # backtracking steps before the line search fails
MAX_NODE_STEP = 0.5     # per-iteration cap on node displacement


@dataclass(frozen=True)
class MinimizeOptions:
    max_iterations: int = 5000
    grad_tol: float = 1e-6          # relative to max(1, current energy)

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("iteration cap must not be negative")
        if self.grad_tol <= 0:
            raise ValueError("gradient tolerance must be positive")


@dataclass
class MinimizeReport:
    iterations: int
    energy: EnergyBreakdown
    grad_norm: float
    energy_trace: list = field(default_factory=list)
    grad_trace: list = field(default_factory=list)
    termination: str = ""

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "energy": self.energy.as_dict(),
            "grad_norm": self.grad_norm,
            "termination": self.termination,
        }


def _sup_norm(g):
    return float(np.sqrt(np.max(np.sum(g * g, axis=-1))))


def minimize(model, target, initial: DirectorField, opts: MinimizeOptions = MinimizeOptions()):
    """Minimize model.breakdown over fields constrained to the target manifold.

    Returns (DirectorField, MinimizeReport); every iterate lies on the target.
    """
    if initial.layout != model.layout:
        raise ValueError(f"initial layout {initial.layout!r} does not match the energy form")
    x = target.project(initial.values)
    bd, g_raw = model.breakdown_and_gradient(x)
    if not np.isfinite(bd.total):
        raise NumericalFailure("initial energy is not finite")

    g = target.tangent_project(x, g_raw)
    gnorm = _sup_norm(g)
    trace = [bd.total]
    gtrace = [gnorm]

    prev_x = None
    prev_g = None
    alpha = 1.0
    termination = "max_iterations"
    iterations = 0

    for it in range(opts.max_iterations):
        # relative tolerance follows the current energy level: pinning it to
        # the first iterate lets high-energy random starts stop far too early
        if gnorm <= opts.grad_tol * max(1.0, bd.total):
            termination = "gradient_tolerance"
            break
        gg = float(np.sum(g * g))

        if prev_x is not None:
            dx = x - prev_x
            dg = g - prev_g
            sy = float(np.sum(dx * dg))
            if sy > 1e-300:
                if it % 2 == 0:
                    alpha = float(np.sum(dx * dx)) / sy
                else:
                    yy = float(np.sum(dg * dg))
                    if yy > 1e-300:
                        alpha = sy / yy
            alpha = min(max(alpha, 1e-12), 1e6)
        # keep steps local: nonconvex chiral energies have nearby basins
        alpha = min(alpha, MAX_NODE_STEP / max(gnorm, 1e-300))

        accepted = False
        step = alpha
        for _ in range(MAX_HALVINGS + 1):
            cand = target.project(x - step * g)
            cand_bd = model.breakdown(cand)
            if not np.isfinite(cand_bd.total):
                raise NumericalFailure(f"energy became non-finite at iteration {it}")
            if cand_bd.total <= bd.total - ARMIJO_C * step * gg:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            termination = "line_search_failure"
            break

        prev_x, prev_g = x, g
        x, bd = cand, cand_bd
        alpha = step
        _, g_raw = model.breakdown_and_gradient(x)
        g = target.tangent_project(x, g_raw)
        gnorm = _sup_norm(g)
        trace.append(bd.total)
        gtrace.append(gnorm)
        iterations = it + 1

    report = MinimizeReport(
        iterations=iterations,
        energy=bd,
        grad_norm=gnorm,
        energy_trace=trace,
        grad_trace=gtrace,
        termination=termination,
    )
    return DirectorField(values=x, layout=initial.layout), report


def random_field(grid, target, layout: str, n_s: int = None, seed: int = 0) -> DirectorField:
    """Reproducible random field: per-node projection of Gaussian samples.

    Samples landing within 1e-3 of the inadmissible set of the projection
    (the center for a sphere, the medial axis for an ellipsoid) are redrawn.
    """
    rng = np.random.default_rng(seed)
    if layout == "surface":
        shape = grid.shape + (3,)
    elif layout == "thin":
        if n_s is None:
            raise ValueError("thin random field needs n_s")
        s_quadrature(n_s)
        shape = grid.shape + (n_s, 3)
    else:
        raise ValueError(f"unknown layout {layout!r}")

    raw = rng.standard_normal(shape)
    for _ in range(100):
        bad = np.sqrt(np.sum(raw * raw, axis=-1)) < 1e-3
        if not np.any(bad):
            break
        raw[bad] = rng.standard_normal((int(np.sum(bad)), 3))
    flat = raw.reshape(-1, 3)
    out = np.empty_like(flat)
    ok = np.zeros(flat.shape[0], dtype=bool)
    for _ in range(100):
        todo = ~ok
        if not np.any(todo):
            break
        try:
            out[todo] = target.project(flat[todo])
            ok[todo] = True
        except Exception:
            for idx in np.flatnonzero(todo):
                try:
                    out[idx] = target.project(flat[idx])
                    ok[idx] = True
                except Exception:
                    flat[idx] = rng.standard_normal(3)
    if not np.all(ok):
        raise NumericalFailure("random field sampling failed to find admissible points")
    return DirectorField(values=out.reshape(shape), layout=layout)
