"""Manifold-constrained minimization by preconditioned Riemannian L-BFGS.

Each iterate lies on the target, node by node.  Search directions come from
the L-BFGS two-loop recursion (Nocedal & Wright, *Numerical Optimization*,
2006, section 7.2) with initial Hessian inverse gamma * P^-1, projected onto
the tangent space; a step retracts every node back onto the target by
nearest-point projection.  P is the H1 preconditioner below, the Hessian model
of the Dirichlet part, solved by full fast diagonalization (matrix products
and one division), so the iteration is the H1 tangent-plane scheme of
Alouges (SIAM J. Numer. Anal. 34(5), 1997) with quasi-Newton memory.  Pairs
are formed at the accepted point in its tangent space.  They are stacked as
the float64 rows of a ring, next to their cross products s_i . y_j, so the
two-loop recursion runs as a scalar recurrence around four matrix-vector
products over the stacked pairs (vector-free L-BFGS: Chen, Wang, Zhou & Ma,
"Large-scale L-BFGS using MapReduce", NeurIPS 2014).  When the two-loop
direction is not a descent direction, the memory is cleared and the step
follows -gamma P^-1 g.

The first trial step is 1, capped so that no node moves farther than
MAX_NODE_STEP, and refined by Armijo backtracking, so the stored energy trace
is non-increasing.  The line-search and memory settings are the module
constants below; only the iteration cap and the gradient tolerance are options.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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
        """Every field but the two traces, with the energy as its own dict."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if not f.name.endswith("_trace")}
        return dict(out, energy=self.energy.as_dict())


def _varying_axis(grid):
    """The chart axis a along which the area weight and stretches may vary.

    Every shipped chart has constant coefficients along the other axis b;
    when both axes qualify, a is the first.
    """
    coeffs = (grid.area_weight, grid.stretch_u, grid.stretch_v)
    for a in (0, 1):
        if all(np.all(c == c.take([0], axis=1 - a)) for c in coeffs):
            return a
    raise ValueError("the H1 preconditioner needs coefficients constant along one chart axis")


class H1Preconditioner:
    """P = c (sum_i D_i^T W D_i + SIGMA W), with D_i the chart stencils divided
    by the stretches and W the area weights, applied to each field component.

    The limit form takes c = 2, its Hessian scale.  The thin form takes c = 1,
    W = area weight x trapezoid weight in s, and adds (1/eps^2) D_s^T W D_s;
    metric factors and the tensor stay out of the model.  With a the varying
    chart axis and b the constant one, P = K_a x I + M_a x K_b + SIGMA W_a x I
    (times the s-mass, plus the s-term, for the thin form), M_a diagonal.
    The solve is a full fast diagonalization (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964): K_b has eigenvectors q_b and eigenvalues lam_k, the
    s-operator W_s-orthonormal eigenvectors z and eigenvalues mu_m, and per
    s-mode m the pencil (K_a + tau_m W_a, M_a), tau_m = SIGMA + mu_m / eps^2,
    has M_a-orthonormal eigenvectors V_m and eigenvalues nu_{m,i}.  Then
    P^-1 = (z x V_m x q_b) diag(1 / (c (nu_{m,i} + lam_k))) (z x V_m x q_b)^T,
    so a solve is matrix products and one division, periodic axes included.
    Storage is O(n_s n_a^2 + n_b^2 + n_s n_a n_b).
    """

    def __init__(self, grid, eps=None, n_s=None):
        self.axis = a = _varying_axis(grid)
        diffs, stretches = (grid.diff_u, grid.diff_v), (grid.stretch_u, grid.stretch_v)
        # coefficients along a, read at the first node of b
        w = np.moveaxis(grid.area_weight, a, 0)[:, 0]
        stretch_a = np.moveaxis(stretches[a], a, 0)[:, 0]
        stretch_b = np.moveaxis(stretches[1 - a], a, 0)[:, 0]
        k_a = diffs[a].T @ ((w / stretch_a**2)[:, None] * diffs[a])
        lam_b, self.q_b = np.linalg.eigh(diffs[1 - a].T @ diffs[1 - a])
        if eps is None:
            scale, z, tau = 2.0, np.ones((1, 1)), np.array([SIGMA])
        else:
            _, ws, diff_s = s_quadrature(n_s)
            root = 1.0 / np.sqrt(ws)
            k_s = diff_s.T @ (ws[:, None] * diff_s)
            mu, vec = np.linalg.eigh(root[:, None] * k_s * root[None, :])
            # z = W_s^-1/2 vec has z^T W_s z = I and z^T K_s z = diag(mu)
            scale, z, tau = 1.0, root[:, None] * vec, SIGMA + mu / (eps * eps)
        # z acting on the (s, component) pairs of a node; the limit form has one mode
        self.s_map = np.kron(z, np.eye(3))
        root_m = stretch_b / np.sqrt(w)   # M_a^-1/2
        pencil = root_m[:, None] * (k_a + tau[:, None, None] * np.diag(w)) * root_m[None, :]
        nu, q_a = np.linalg.eigh(pencil)
        # v[m, 0] = V_m; inv[m, 0, i, k] = 1 / (c (nu_mi + lam_k)), broadcast over components
        self.v = (root_m[:, None] * q_a)[:, None]
        self.inv = 1.0 / (scale * (nu[:, None, :, None] + lam_b))
        # the solve's two work arrays, (modes, 3, n_a, n_b) each
        self.work = np.empty((2, len(tau), 3, len(w), len(lam_b)))

    def solve(self, r):
        """P^-1 r for a field r of the preconditioner's layout."""
        x = np.moveaxis(r, self.axis, 0)
        n_a, n_b = x.shape[:2]
        y, t = self.work
        # the s-map and its transpose also move the nodes between the last and
        # the first axes: (n_a n_b, [n_s] 3) <-> (modes, 3, n_a, n_b)
        np.matmul(self.s_map.T, x.reshape(n_a * n_b, -1).T, out=y.reshape(-1, n_a * n_b))
        np.matmul(y, self.q_b, out=t)
        np.matmul(np.swapaxes(self.v, -1, -2), t, out=y)
        y *= self.inv
        np.matmul(self.v, y, out=t)
        np.matmul(t, self.q_b.T, out=y)
        x = (y.reshape(-1, n_a * n_b).T @ self.s_map.T).reshape(x.shape)
        return np.moveaxis(x, 0, self.axis)


def _preconditioner(model):
    if model.layout == "thin":
        return H1Preconditioner(model.grid, eps=model.eps, n_s=model.n_s)
    return H1Preconditioner(model.grid)


def _sup_norm(g):
    return float(np.sqrt(np.max(np.einsum("...k,...k->...", g, g))))


class PairMemory:
    """The last MEMORY pairs (s_i, y_i) of fields with `size` entries.

    The pairs are the rows of two float64 (MEMORY, size) arrays, used as a
    ring; a[i, j] = s_i . y_j for filled rows i, j with pair i no newer than
    pair j, the only cross products the two-loop recursion reads.
    """

    def __init__(self, size):
        self.s = np.empty((MEMORY, size))
        self.y = np.empty((MEMORY, size))
        self.a = np.empty((MEMORY, MEMORY))
        self.count = 0      # filled rows, always the first `count`
        self.next = 0       # row the next pair overwrites

    def clear(self):
        self.count = self.next = 0

    def append(self, s, y):
        """Store a pair (the oldest goes once MEMORY are kept); needs s . y > 0."""
        k = self.next
        self.s[k], self.y[k] = s.ravel(), y.ravel()
        self.count = n = min(self.count + 1, MEMORY)
        self.next = (k + 1) % MEMORY
        # column k of a, over the filled rows only
        self.a[:n, k] = self.s[:n] @ self.y[k]

    def apply(self, g, gamma, solve):
        """H g for the L-BFGS inverse-Hessian model with H_0 = gamma P^-1.

        With q_i the two-loop's vector when pair i is reached, s_i . q_i and
        y_i . r_i follow from S g, Y r_0 and a, so the loops touch the fields
        only in S g, q = g - Y^T alpha, Y r_0 and r = r_0 + S^T (alpha - beta).
        """
        n = self.count
        s, y, a = self.s[:n], self.y[:n], self.a[:n, :n]
        order = (self.next - n + np.arange(n)) % MEMORY   # oldest first
        rho = 1.0 / np.diagonal(a)
        alpha, beta = np.zeros(n), np.zeros(n)
        sg = s @ g.ravel()
        for p in range(n - 1, -1, -1):
            i, newer = order[p], order[p + 1:]
            alpha[i] = rho[i] * (sg[i] - a[i, newer] @ alpha[newer])
        # in place: a fresh array for each of these field-sized results costs
        # more than the product itself
        q = alpha @ y
        r = solve(np.subtract(g.ravel(), q, out=q).reshape(g.shape))
        r *= gamma
        yr = y @ r.ravel()
        for p in range(n):
            i, older = order[p], order[:p]
            beta[i] = rho[i] * (yr[i] + (alpha[older] - beta[older]) @ a[older, i])
        r += ((alpha - beta) @ s).reshape(g.shape)
        return r


def minimize(model, target, initial: DirectorField, opts: MinimizeOptions = MinimizeOptions()):
    """Minimize the model's energy over fields constrained to the target manifold.

    A start not flagged `on_target` is projected first; a start whose shape
    does not fit the model raises EnergyError.  Returns (DirectorField,
    MinimizeReport); every iterate lies on the target.
    """
    x = initial.values if initial.on_target else target.project(initial.values)
    bd, g_raw = model.breakdown_and_gradient(x)
    if not np.isfinite(bd.total):
        raise NumericalFailure("initial energy is not finite")

    # arrays are deleted as soon as they are dead, a trial's forward state
    # included, which keeps the peak memory of the energy passes close to that
    # of the stored pairs
    normal = target.normal(x)
    g = tangent_part(normal, g_raw)
    del g_raw
    gnorm = _sup_norm(g)
    report = MinimizeReport(iterations=0, energy=bd, grad_norm=gnorm, energy_trace=[bd.total],
                            grad_trace=[gnorm], termination="max_iterations",
                            gradient_evaluations=1)
    precond = None
    pairs = PairMemory(g.size)
    gamma = 1.0

    def solve(v):
        report.preconditioner_solves += 1
        return precond.solve(v)

    for it in range(opts.max_iterations + 1):
        # relative tolerance follows the current energy level: pinning it to
        # the first iterate lets high-energy random starts stop far too early;
        # the last allowed iterate is checked too
        if gnorm <= opts.grad_tol * max(1.0, bd.total):
            report.termination = "gradient_tolerance"
            break
        if it == opts.max_iterations:
            break
        if precond is None:
            precond = _preconditioner(model)
        d = -tangent_part(normal, pairs.apply(g, gamma, solve))
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
            cand_bd, state = model.breakdown(cand)
            report.trials += 1
            if not np.isfinite(cand_bd.total):
                raise NumericalFailure(f"energy became non-finite at iteration {it}")
            if cand_bd.total <= bd.total + ARMIJO_C * step * slope:
                accepted = True
                break
            del state
            step *= SHRINK
        if not accepted:
            report.termination = "line_search_failure"
            break
        del d

        # the new pair lives in the tangent space at the accepted point; the
        # gradient runs only the adjoint of the accepted trial's forward pass
        g_raw = model.breakdown_and_gradient(cand, state)[1]
        del state
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
            pairs.append(s, y)
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
