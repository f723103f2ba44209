"""Discrete film energies on the reference cylinder N x (-1, 1).

Two functionals are assembled on a fixed surface grid:

* the thin-film pull-back energy
      (1/2) int sum_i |a h_i d_{tau_i} u + K(u) tau_i|^2 sqrt(g)
    + (1/2) int |a (1/eps) d_s u + K(u) n_N|^2 sqrt(g)
  with metric factors sqrt(g) = (1 + eps s k1)(1 + eps s k2) and
  h_i = 1/(1 + eps s k_i);

* its limit on the surface,
      sum_i int |a d_{tau_i} u + K(u) tau_i|^2
    + int ((a^-1 K(u) n_N . n_M(u)) / (a^-1 n_M(u) . n_M(u)))^2,
  whose second term is the curvature-induced shape anisotropy.  The tensor a
  is scalar and n_M(u) a unit normal, so a cancels from that quotient, which
  is (K(u) n_N . n_M(u))^2 for every tensor; a enters only as the
  coefficient of the derivatives, all ones for the identity tensor.

Quadrature: midpoint weights on the surface chart, trapezoid in s.
Gradients are exact adjoints of the same difference stencils, so they match
finite differences of the discrete energy to roundoff-limited accuracy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .perturbations import frame_sample, IDENTITY_TENSOR
from .surfaces import SurfaceGrid, apply_difference, difference_matrix


class EnergyError(ValueError):
    """Layout/grid mismatch or out-of-range evaluation request."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Tangential part plus the normal (thin) or anisotropy (limit) part."""

    tangential: float
    normal_or_anisotropy: float
    total: float

    @classmethod
    def of(cls, tangential: float, second: float) -> "EnergyBreakdown":
        return cls(tangential=float(tangential), normal_or_anisotropy=float(second),
                   total=float(tangential) + float(second))

    def as_dict(self):
        return asdict(self)


def s_quadrature(n_s: int):
    """Uniform s-layers on [-1, 1] with trapezoid weights and a stencil matrix."""
    if n_s < 4:
        raise EnergyError(f"need at least 4 s-layers, got {n_s}")
    s = np.linspace(-1.0, 1.0, n_s)
    ds = 2.0 / (n_s - 1)
    weights = np.full(n_s, ds)
    weights[0] = weights[-1] = 0.5 * ds
    return s, weights, difference_matrix(n_s, ds, periodic=False)


@dataclass
class DirectorField:
    """Grid of direction vectors: (n_u, n_v, 3) on N, or (n_u, n_v, n_s, 3)
    on N x s-layers; the layout is read from the rank.

    `on_target` records that the values are already projected onto the
    target, so `minimize` starts from them as they are.
    """

    values: np.ndarray
    on_target: bool = False

    def __post_init__(self):
        shape = self.values.shape
        if len(shape) not in (3, 4) or shape[-1] != 3:
            raise EnergyError(f"field needs shape (n_u, n_v, 3) or (n_u, n_v, n_s, 3), got {shape}")
        if len(shape) == 4 and shape[2] < 4:
            raise EnergyError("thin field needs at least 4 s-layers")

    @property
    def layout(self):
        return "thin" if self.values.ndim == 4 else "surface"

    @property
    def n_s(self):
        if self.layout != "thin":
            raise EnergyError("surface fields carry no s-layers")
        return self.values.shape[2]


class KFrame:
    """K(u) applied to the frame F = (tau_1, tau_2, n_N), bound to (grid, pert).

    Fields have shape (n_u, n_v, 3) or (n_u, n_v, n_s, 3); images and
    couplings carry a leading frame-row axis, shape (3,) + field shape.  K is
    linear in sigma, so K(u) f_m = sum_j u_j K(e_j) f_m: the basis K(e_j) f_m
    is built once as (3, n_u, n_v, 3, 3), indexed (m, ..., j, i), so applying
    K is one matmul.  Its coupling is one matmul with the transposed basis,
    indexed (m, ..., i, j) and kept as a second contiguous array, since a
    batched matmul against a strided view takes numpy's slow path.
    """

    def __init__(self, grid: SurfaceGrid, pert):
        self.shape = grid.shape
        self.basis = frame_sample(grid, pert)
        self.basis_t = np.ascontiguousarray(np.swapaxes(self.basis, -1, -2))

    def images(self, values):
        """K(u) F as a fresh array whose [m] block is K(u) f_m."""
        rows = values.reshape(self.shape + (-1, 3)) @ self.basis
        return rows.reshape((3,) + values.shape)

    def couplings(self, y):
        """Block m holds the u-gradient of y[m] . K(u) f_m; y is shaped like images(u)."""
        rows = y.reshape((3,) + self.shape + (-1, 3)) @ self.basis_t
        return rows.reshape(y.shape)


def _thin_derivatives(grid, diff_s, values):
    """(d_{tau_1} u, d_{tau_2} u, d_s u) of a field on N x s-layers."""
    return [
        grid.tangential_derivative(values, 0),
        grid.tangential_derivative(values, 1),
        apply_difference(diff_s, values, 2),
    ]


def _thin_h1_parts(grid, s_weights, diff_s, values):
    """(L^2, tangential, s) squared H^1 parts of a field on N x I under the
    plain product measure (no metric factors)."""
    d1, d2, dsv = _thin_derivatives(grid, diff_s, values)
    w = grid.area_weight[..., None] * s_weights[None, None, :]
    mass = float(np.sum(w * np.sum(values * values, axis=-1)))
    tang = float(np.sum(w * (np.sum(d1 * d1, axis=-1) + np.sum(d2 * d2, axis=-1))))
    sder = float(np.sum(w * np.sum(dsv * dsv, axis=-1)))
    return mass, tang, sder


class LimitEnergy:
    """Surface limit functional bound to (grid, target, perturbation, tensor)."""

    layout = "surface"

    def __init__(self, grid: SurfaceGrid, target, pert, tensor=IDENTITY_TENSOR):
        self.grid = grid
        self.target = target
        self.weight = grid.area_weight
        self.a = tensor.values_on(grid)[..., None]
        self.kframe = KFrame(grid, pert)

    def _check(self, values):
        if values.shape != self.grid.shape + (3,):
            raise EnergyError(f"field shape {values.shape} does not match surface grid {self.grid.shape}")

    def _evaluate(self, values):
        """Breakdown plus the forward pass the gradient reuses.

        Returns (breakdown, r, n_m, rho): r[m] is the tangential residual
        a d_{tau_m} u + K(u) tau_m for m = 0, 1 and K(u) n_N for m = 2;
        rho = K(u) n_N . n_M(u) is the anisotropy factor.
        """
        self._check(values)
        grid = self.grid
        r = self.kframe.images(values)
        for m in (0, 1):
            r[m] += self.a * grid.tangential_derivative(values, m)
        n_m = self.target.normal(values)
        rho = np.sum(r[2] * n_m, axis=-1)
        w = self.weight
        tangential = (np.einsum("uvk,uvk,uv->", r[0], r[0], w)
                      + np.einsum("uvk,uvk,uv->", r[1], r[1], w))
        bd = EnergyBreakdown.of(tangential, np.einsum("uv,uv,uv->", rho, rho, w))
        return bd, r, n_m, rho

    def breakdown(self, values):
        """(EnergyBreakdown, state); the state is the forward pass, which
        `breakdown_and_gradient` on the same values takes in place of its own."""
        state = self._evaluate(values)
        return state[0], state

    def breakdown_and_gradient(self, values, state=None):
        """Breakdown and gradient; `state` is `breakdown(values)[1]` on these
        values, and without it the forward pass runs here."""
        bd, r, n_m, rho = state or self._evaluate(values)
        grid, w = self.grid, self.weight
        kn = r[2]
        y = 2.0 * w[..., None] * r
        y[2] = n_m
        coupled = self.kframe.couplings(y)
        y[:2] *= self.a
        grad = grid.tangential_derivative_adjoint(y[0], 0)
        grad += grid.tangential_derivative_adjoint(y[1], 1)
        grad += coupled[0]
        grad += coupled[1]
        # d(rho^2) through K (coupled[2] = n_M . dK n_N) and through n_M
        coeff = 2.0 * w * rho
        grad += coeff[..., None] * coupled[2]
        grad += coeff[..., None] * self.target.normal_pullback(values, kn)
        return bd, grad


class ThinFilmEnergy:
    """Pull-back functional on N x (-1, 1) bound to (grid, perturbation, eps)."""

    layout = "thin"

    def __init__(self, grid: SurfaceGrid, pert, eps: float, n_s: int, tensor=IDENTITY_TENSOR):
        grid.require_eps(eps)
        self.grid = grid
        self.eps = float(eps)
        self.s, self.s_weights, self.diff_s = s_quadrature(n_s)
        self.n_s = n_s
        es = eps * self.s[None, None, :]
        f1 = 1.0 + es * grid.kappa1[..., None]
        f2 = 1.0 + es * grid.kappa2[..., None]
        self.weight = grid.area_weight[..., None] * self.s_weights[None, None, :] * (f1 * f2)
        # row coefficients: multipliers a h_1 and a h_2, and the divisor eps / a of the s-row
        a = tensor.values_on(grid)[:, :, None]
        self._row_scale = ((a / f1)[..., None], (a / f2)[..., None], (self.eps / a)[..., None])
        self.kframe = KFrame(grid, pert)

    def _check(self, values):
        want = self.grid.shape + (self.n_s, 3)
        if values.shape != want:
            raise EnergyError(f"field shape {values.shape} does not match thin layout {want}")

    def _scale(self, rows):
        """Multiply the three residual rows in place by a h_1, a h_2 and a / eps."""
        c1, c2, c3 = self._row_scale
        rows[0] *= c1
        rows[1] *= c2
        rows[2] /= c3

    def _evaluate(self, values):
        """Breakdown plus the residuals r[m] = a h_m D_m u + K(u) f_m for
        D = (d_{tau_1}, d_{tau_2}, d_s), f = (tau_1, tau_2, n_N), h_s = 1/eps."""
        self._check(values)
        derivs = _thin_derivatives(self.grid, self.diff_s, values)
        self._scale(derivs)
        r = self.kframe.images(values)
        for m, d in enumerate(derivs):
            r[m] += d
        sums = [np.einsum("uvsk,uvsk,uvs->", row, row, self.weight) for row in r]
        return EnergyBreakdown.of(0.5 * (sums[0] + sums[1]), 0.5 * sums[2]), r

    def breakdown(self, values):
        """(EnergyBreakdown, state); the state is the forward pass, which
        `breakdown_and_gradient` on the same values takes in place of its own."""
        state = self._evaluate(values)
        return state[0], state

    def seminorm_shares(self, values):
        """(tangential, s) squared H^1 seminorms of the raw field on N x I."""
        self._check(values)
        return _thin_h1_parts(self.grid, self.s_weights, self.diff_s, values)[1:]

    def breakdown_and_gradient(self, values, state=None):
        """Breakdown and gradient; `state` is `breakdown(values)[1]` on these
        values, and without it the forward pass runs here.  The adjoint scales
        the state's residuals in place, so a state serves one gradient."""
        bd, r = state or self._evaluate(values)
        grid = self.grid
        r *= self.weight[..., None]
        grad = self.kframe.couplings(r).sum(axis=0)
        self._scale(r)
        grad += grid.tangential_derivative_adjoint(r[0], 0)
        grad += grid.tangential_derivative_adjoint(r[1], 1)
        grad += apply_difference(self.diff_s.T, r[2], 2)
        return bd, grad


def optimal_corrector(model: LimitEnergy, values: np.ndarray) -> np.ndarray:
    """Tangent vector minimizing the normal-term density per node of the limit
    model's grid.

    With the identity tensor this is (n_M(u) (x) n_M(u) - I) K(u) n_N; a
    scalar tensor a rescales it by 1/a.
    """
    kn = model.kframe.images(values)[2]
    n_m = model.target.normal(values)
    d0 = np.sum(kn * n_m, axis=-1, keepdims=True) * n_m - kn
    return d0 / model.a


def recovery_field(grid, target, u0: np.ndarray, d0: np.ndarray, eps: float, n_s: int) -> DirectorField:
    """Thin field pi_M(u0 + eps * s * d0); exact copy of u0 where eps*s*d0 = 0.

    u0 must lie on the target; the result is flagged `on_target`.
    """
    grid.require_eps(eps)
    d0_max = float(np.max(np.sqrt(np.sum(d0 * d0, axis=-1)))) if d0.size else 0.0
    if eps * d0_max >= target.admissible_radius:
        raise EnergyError(
            f"eps={eps} too large for the target neighborhood: "
            f"eps*max|d0|={eps * d0_max:.3g} >= {target.admissible_radius:.3g}"
        )
    s, _, _ = s_quadrature(n_s)
    values = np.empty(grid.shape + (n_s, 3))
    for k, sk in enumerate(s):
        if sk == 0.0 or d0_max == 0.0:
            values[:, :, k, :] = u0
        else:
            values[:, :, k, :] = target.project(u0 + (eps * sk) * d0)
    return DirectorField(values, on_target=True)


def h1_distance(grid, thin_field: DirectorField, surface_field: DirectorField) -> float:
    """H^1(N x I) distance between a thin field and a surface field extended
    constantly in s (plain product measure, no metric factors)."""
    if thin_field.layout != "thin" or surface_field.layout != "surface":
        raise EnergyError("h1_distance expects (thin, surface) fields")
    if thin_field.values.shape[:2] != grid.shape or surface_field.values.shape[:2] != grid.shape:
        raise EnergyError("field grids do not match")
    diff = thin_field.values - surface_field.values[:, :, None, :]
    _, s_weights, diff_s = s_quadrature(thin_field.n_s)
    return float(np.sqrt(sum(_thin_h1_parts(grid, s_weights, diff_s, diff))))
