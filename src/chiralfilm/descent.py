"""Manifold-constrained minimization by preconditioned Riemannian L-BFGS.

Each iterate lies on the target, node by node.  Search directions come from
the L-BFGS two-loop recursion (Nocedal & Wright, *Numerical Optimization*,
2006, section 7.2) with initial Hessian inverse gamma * P^-1, projected onto
the tangent space; a step retracts every node back onto the target by
nearest-point projection.  P is the H1 preconditioner below, the Hessian model
of the Dirichlet part, so the iteration is the H1 tangent-plane scheme of
Alouges (SIAM J. Numer. Anal. 34(5), 1997) with quasi-Newton memory.  Pairs
are formed at the accepted point in its tangent space and kept as float32.
When the two-loop direction is not a descent direction, the memory is cleared
and the step follows -gamma P^-1 g.

The first trial step is 1, capped so that no node moves farther than
MAX_NODE_STEP, and refined by Armijo backtracking, so the stored energy trace
is non-increasing.  The line-search and memory settings are the module
constants below; only the iteration cap and the gradient tolerance are options.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energies import DirectorField, EnergyBreakdown, s_quadrature
from .targets import TargetError, tangent_part


class NumericalFailure(RuntimeError):
    """Energy evaluated to a non-finite value during descent."""


ARMIJO_C = 1e-4         # sufficient-decrease constant
SHRINK = 0.5            # backtracking factor
MAX_HALVINGS = 30       # backtracking steps before the line search fails
MAX_NODE_STEP = 0.5     # per-iteration cap on node displacement
MEMORY = 5              # L-BFGS pairs kept
SIGMA = 1.0             # mass shift of the H1 preconditioner


@dataclass(frozen=True)
class MinimizeOptions:
    max_iterations: int = 5000
    grad_tol: float = 1e-6          # relative to max(1, current energy)

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("iteration cap must not be negative")
        if not self.grad_tol > 0:  # NaN fails too
            raise ValueError("gradient tolerance must be positive")


@dataclass
class MinimizeReport:
    iterations: int
    energy: EnergyBreakdown
    grad_norm: float
    energy_trace: list = field(default_factory=list)
    grad_trace: list = field(default_factory=list)
    termination: str = ""
    trials: int = 0                  # energy-only evaluations (line-search trials)
    gradient_evaluations: int = 0
    preconditioner_solves: int = 0

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "energy": self.energy.as_dict(),
            "grad_norm": self.grad_norm,
            "termination": self.termination,
            "trials": self.trials,
            "gradient_evaluations": self.gradient_evaluations,
            "preconditioner_solves": self.preconditioner_solves,
        }


def _varying_axis(grid):
    """The chart axis a along which the area weight and stretches may vary.

    Every shipped chart has constant coefficients along the other axis b.
    When both axes qualify, a non-periodic axis is taken as a, so the banded
    solve needs no cyclic correction.
    """
    coeffs = (grid.area_weight, grid.stretch_u, grid.stretch_v)
    constant_along = [all(np.all(c == c.take([0], axis=ax)) for c in coeffs) for ax in (0, 1)]
    if constant_along[0] and constant_along[1]:
        return 1 if grid.periodic_u and not grid.periodic_v else 0
    if constant_along[1]:
        return 0
    if constant_along[0]:
        return 1
    raise ValueError("the H1 preconditioner needs coefficients constant along one chart axis")


class H1Preconditioner:
    """P = c (sum_i D_i^T W D_i + SIGMA W), with D_i the chart stencils divided
    by the stretches and W the area weights, applied to each field component.

    The limit form takes c = 2, its Hessian scale.  The thin form takes c = 1,
    W = area weight x trapezoid weight in s, and adds (1/eps^2) D_s^T W D_s;
    metric factors and the tensor stay out of the model.  With a the varying
    chart axis and b the constant one, P = K_a x I + M_a x K_b + SIGMA W_a x I
    (times the s-mass, plus the s-term, for the thin form).  The solve
    diagonalizes K_b and the s-operator (Lynch, Rice & Thomas, Numer. Math. 6,
    1964) and runs one pentadiagonal LDL^T solve along a per mode, batched over
    the modes.  A periodic axis a couples its last two nodes to the first two;
    they are eliminated through their 2x2 Schur complement (the cyclic
    correction).  Storage is O(n_u n_v n_s).
    """

    def __init__(self, grid, eps=None, n_s=None):
        self.axis = a = _varying_axis(grid)
        diffs, stretches = (grid.diff_u, grid.diff_v), (grid.stretch_u, grid.stretch_v)
        periodic = (grid.periodic_u, grid.periodic_v)[a]
        # coefficients along a, read at the first node of b
        w = np.moveaxis(grid.area_weight, a, 0)[:, 0]
        stretch_a = np.moveaxis(stretches[a], a, 0)[:, 0]
        stretch_b = np.moveaxis(stretches[1 - a], a, 0)[:, 0]
        k_a = diffs[a].T @ ((w / stretch_a**2)[:, None] * diffs[a])
        lam_b, self.q_b = np.linalg.eigh(diffs[1 - a].T @ diffs[1 - a])
        if eps is None:
            self.scale, self.s_map = 2.0, None
            tau = np.array([SIGMA])
        else:
            _, ws, diff_s = s_quadrature(n_s)
            root = 1.0 / np.sqrt(ws)
            k_s = diff_s.T @ (ws[:, None] * diff_s)
            mu, vec = np.linalg.eigh(root[:, None] * k_s * root[None, :])
            # z = W_s^-1/2 vec has z^T W_s z = I; acting on the (s, component) pairs of a row
            self.scale, self.s_map = 1.0, np.kron(root[:, None] * vec, np.eye(3))
            tau = SIGMA + mu / (eps * eps)
        # mode (k, m): K_a + lam_k M_a + tau_m W_a, one column per mode
        diag = (np.diag(k_a)[:, None, None] + (w / stretch_b**2)[:, None, None] * lam_b[None, :, None]
                + w[:, None, None] * tau[None, None, :]).reshape(len(w), -1)
        n = len(w) - 2 if periodic else len(w)
        self.core = n
        self._factor(diag[:n], np.diagonal(k_a, -1)[:n - 1], np.diagonal(k_a, -2)[:n - 2])
        self.border = None
        if periodic:
            a12 = k_a[:n, n:]
            z = self._band_solve(np.repeat(a12[:, None, :], diag.shape[1], axis=1))
            off = k_a[n:, n:] * (1.0 - np.eye(2))
            schur = (off + diag[n:].T[:, :, None] * np.eye(2)
                     - np.einsum("ip,imq->mpq", a12, z))
            self.border = (a12, z, np.linalg.inv(schur))

    def _factor(self, diag, sub1, sub2):
        """LDL^T of the pentadiagonal core: unit subdiagonals l1, l2 and pivots d.

        l1 and l2 are stored broadcast over the three field components, since
        the substitution loops run faster on contiguous operands.
        """
        n, modes = diag.shape
        d = np.empty((n, modes))
        l1 = np.zeros((n, modes))
        l2 = np.zeros((n, modes))
        for i in range(n):
            di = diag[i].copy()
            if i >= 2:
                l2[i] = sub2[i - 2] / d[i - 2]
                di -= l2[i] ** 2 * d[i - 2]
            if i >= 1:
                coupling = sub1[i - 1] - l2[i] * d[i - 2] * l1[i - 1] if i >= 2 else sub1[i - 1]
                l1[i] = coupling / d[i - 1]
                di -= l1[i] ** 2 * d[i - 1]
            d[i] = di
        self.inv_d = 1.0 / d[..., None]
        self.l1, self.l2 = (np.repeat(l[..., None], 3, axis=2) for l in (l1, l2))

    def _band_solve(self, r):
        """Solve the core systems for r of shape (core, modes, k <= 3), in place."""
        k = r.shape[2]
        l1, l2 = self.l1[..., :k], self.l2[..., :k]
        tmp = np.empty_like(r[0])
        for i in range(1, self.core):
            r[i] -= np.multiply(l1[i], r[i - 1], out=tmp)
            if i >= 2:
                r[i] -= np.multiply(l2[i], r[i - 2], out=tmp)
        r *= self.inv_d
        for i in range(self.core - 2, -1, -1):
            r[i] -= np.multiply(l1[i + 1], r[i + 1], out=tmp)
            if i + 2 < self.core:
                r[i] -= np.multiply(l2[i + 2], r[i + 2], out=tmp)
        return r

    def solve(self, r):
        """P^-1 r for a field r of the preconditioner's layout."""
        x = np.moveaxis(r, self.axis, 0)
        shape = x.shape
        n_a, n_b = shape[:2]
        y = np.matmul(self.q_b.T, x.reshape(n_a, n_b, -1))
        if self.s_map is not None:
            y = y.reshape(n_a * n_b, -1) @ self.s_map
        y = y.reshape(n_a, -1, 3)
        n = self.core
        self._band_solve(y[:n])
        if self.border is not None:
            a12, z, schur_inv = self.border
            rhs = y[n:] - np.einsum("ip,imc->pmc", a12, y[:n])
            y[n:] = np.einsum("mpq,qmc->pmc", schur_inv, rhs)
            y[:n] -= np.einsum("imp,pmc->imc", z, y[n:])
        if self.s_map is not None:
            y = y.reshape(n_a * n_b, -1) @ self.s_map.T
        x = np.matmul(self.q_b, y.reshape(n_a, n_b, -1)).reshape(shape)
        x /= self.scale
        return np.moveaxis(x, 0, self.axis)


def _preconditioner(model):
    if model.layout == "thin":
        return H1Preconditioner(model.grid, eps=model.eps, n_s=model.n_s)
    return H1Preconditioner(model.grid)


def _sup_norm(g):
    return float(np.sqrt(np.max(np.einsum("...k,...k->...", g, g))))


def _two_loop(g, pairs, gamma, solve):
    """H g for the L-BFGS inverse-Hessian model with H_0 = gamma P^-1.

    The coefficients are float64, so each update of a float32 pair is
    computed in float64.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    r = gamma * solve(q)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * np.vdot(y, r)) * s
    return r


def minimize(model, target, initial: DirectorField, opts: MinimizeOptions = MinimizeOptions()):
    """Minimize model.breakdown over fields constrained to the target manifold.

    A start not flagged `on_target` is projected first; a start whose shape
    does not fit the model raises EnergyError.  Returns (DirectorField,
    MinimizeReport); every iterate lies on the target.
    """
    x = initial.values if initial.on_target else target.project(initial.values)
    bd, g_raw = model.breakdown_and_gradient(x)
    if not np.isfinite(bd.total):
        raise NumericalFailure("initial energy is not finite")

    # arrays are deleted as soon as they are dead, which keeps the peak memory
    # of the energy passes close to that of the stored pairs
    normal = target.normal(x)
    g = tangent_part(normal, g_raw)
    del g_raw
    gnorm = _sup_norm(g)
    report = MinimizeReport(iterations=0, energy=bd, grad_norm=gnorm, energy_trace=[bd.total],
                            grad_trace=[gnorm], termination="max_iterations",
                            gradient_evaluations=1)
    precond = None
    pairs = deque(maxlen=MEMORY)
    gamma = 1.0

    def solve(v):
        report.preconditioner_solves += 1
        return precond.solve(v)

    for it in range(opts.max_iterations):
        # relative tolerance follows the current energy level: pinning it to
        # the first iterate lets high-energy random starts stop far too early
        if gnorm <= opts.grad_tol * max(1.0, bd.total):
            report.termination = "gradient_tolerance"
            break
        if precond is None:
            precond = _preconditioner(model)
        d = -tangent_part(normal, _two_loop(g, pairs, gamma, solve))
        slope = float(np.vdot(g, d))
        if not slope < 0.0:
            pairs.clear()
            d = -tangent_part(normal, gamma * solve(g))
            slope = float(np.vdot(g, d))
        del normal
        # keep steps local: nonconvex chiral energies have nearby basins
        step = min(1.0, MAX_NODE_STEP / max(_sup_norm(d), 1e-300))

        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand = target.project(x + step * d)
            cand_bd = model.breakdown(cand)
            report.trials += 1
            if not np.isfinite(cand_bd.total):
                raise NumericalFailure(f"energy became non-finite at iteration {it}")
            if cand_bd.total <= bd.total + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            report.termination = "line_search_failure"
            break
        del d

        # the new pair lives in the tangent space at the accepted point
        g_raw = model.breakdown_and_gradient(cand)[1]
        report.gradient_evaluations += 1
        normal = target.normal(cand)
        y = tangent_part(normal, g)
        g = tangent_part(normal, g_raw)
        del g_raw
        np.subtract(g, y, out=y)
        s = tangent_part(normal, cand - x)
        x, bd = cand, cand_bd
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            gamma = sy / float(np.vdot(y, solve(y)))
            pairs.append((s.astype(np.float32), y.astype(np.float32), np.float64(1.0 / sy)))
        del s, y
        gnorm = _sup_norm(g)
        report.energy_trace.append(bd.total)
        report.grad_trace.append(gnorm)
        report.iterations = it + 1

    report.energy, report.grad_norm = bd, gnorm
    return DirectorField(x, on_target=True), report


def random_field(grid, target, layout: str, n_s: int = None, seed: int = 0) -> DirectorField:
    """Reproducible random field: per-node projection of Gaussian samples.

    layout is "surface" or "thin" (which needs n_s).  While the projection
    raises TargetError (a sample next to the center of a sphere or, for an
    ellipsoid, near its medial axis), the whole draw is redrawn; any other
    error propagates.
    """
    if layout == "surface":
        shape = grid.shape + (3,)
    elif layout == "thin":
        if n_s is None:
            raise ValueError("thin random field needs n_s")
        s_quadrature(n_s)
        shape = grid.shape + (n_s, 3)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        try:
            return DirectorField(target.project(rng.standard_normal(shape)), on_target=True)
        except TargetError:
            pass
    raise NumericalFailure("random field sampling failed to find admissible points")
