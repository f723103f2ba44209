"""Parametric base surfaces carrying orthonormal principal frames.

The surface catalogue is restricted to charts whose coordinate lines are
orthogonal and aligned with the principal directions at every node (lat-long
sphere band, torus, finite cylinder, flat patch).  This keeps the shape
operator diagonal in chart coordinates, so principal curvatures come from
closed forms instead of per-node eigendecompositions.  Frames are
right-handed: tau1 x tau2 = normal, with the outward normal and the sign
convention d(normal)/d(tau_i) = kappa_i * tau_i (the unit sphere has
kappa_i = +1).

Nodes sit at chart cell centers (midpoint rule); area weights are
cell area times the chart stretch factors, so their sum approximates the
surface area to second order.  The thickness budget eps_max = 1/(2 sup|kappa|)
takes each chart's closed-form sup|kappa| over the whole surface, so it holds
between the nodes too: a thick torus peaks on its inner equator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# With eps * kappa_max <= 1/2 each offset factor (1 + eps*s*kappa_i) lies in
# [1/2, 3/2], so the volume factor ranges over [1/4, 9/4] and the tangential
# coefficients over [2/3, 2]; the smallest symmetric bound containing both is 4.
METRIC_BOUND = 4.0
DEFAULT_FLAT_EPS_MAX = 1.0


class SurfaceError(ValueError):
    """Invalid surface parameters or an out-of-budget request."""


@dataclass(frozen=True)
class SurfaceSpec:
    """Declarative description of a base surface chart and its grid."""

    kind: str
    n_u: int = 64
    n_v: int = 64
    radius: float = 1.0          # sphere, cylinder
    theta_cap: float = 0.15      # sphere: excluded polar cap (radians)
    major_radius: float = 2.0    # torus
    minor_radius: float = 0.5    # torus
    height: float = 2.0          # cylinder
    lx: float = 1.0              # flat patch
    ly: float = 1.0
    periodic_u: bool = False     # flat patch only; other kinds fix their own
    periodic_v: bool = False
    flat_eps_max: float = DEFAULT_FLAT_EPS_MAX


@dataclass(frozen=True)
class ThicknessBudget:
    """Admissible film half-thicknesses for a surface grid."""

    kappa_max: float
    eps_max: float
    metric_bound: float = METRIC_BOUND


def difference_matrix(n: int, spacing: float, periodic: bool) -> np.ndarray:
    """Dense 1D first-derivative matrix: central interior, one-sided
    second-order rows at non-periodic edges."""
    if n < 4:
        raise SurfaceError(f"need at least 4 nodes per direction, got {n}")
    d = np.zeros((n, n))
    c = 1.0 / (2.0 * spacing)
    for j in range(1, n - 1):
        d[j, j - 1] = -c
        d[j, j + 1] = c
    if periodic:
        d[0, n - 1] = -c
        d[0, 1] = c
        d[n - 1, n - 2] = -c
        d[n - 1, 0] = c
    else:
        d[0, 0], d[0, 1], d[0, 2] = -3.0 * c, 4.0 * c, -1.0 * c
        d[n - 1, n - 3], d[n - 1, n - 2], d[n - 1, n - 1] = c, -4.0 * c, 3.0 * c
    return d


def apply_difference(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1D derivative matrix along one axis of an ndarray."""
    n = values.shape[axis]
    lead = values.shape[:axis]
    trail = 1
    for extent in values.shape[axis + 1:]:
        trail *= extent
    temp = values.reshape(lead + (n, trail))
    return np.matmul(matrix, temp).reshape(values.shape)


def _chart_sphere(spec, cu, cv):
    # cu = colatitude, cv = longitude; frame (tau_theta, tau_phi, outward n).
    r = spec.radius
    st, ct = np.sin(cu), np.cos(cu)
    sp, cp = np.sin(cv), np.cos(cv)
    point = r * np.stack([st * cp, st * sp, ct], axis=-1)
    tau1 = np.stack([ct * cp, ct * sp, -st], axis=-1)
    tau2 = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    normal = point / r
    kappa1 = np.full(np.shape(cu), 1.0 / r)
    kappa2 = np.full(np.shape(cu), 1.0 / r)
    stretch_u = np.full(np.shape(cu), r)
    stretch_v = r * st
    return point, tau1, tau2, normal, kappa1, kappa2, stretch_u, stretch_v


def _chart_torus(spec, cu, cv):
    # cu = angle around the symmetry axis, cv = angle around the tube.
    a, b = spec.major_radius, spec.minor_radius
    su, cu_ = np.sin(cu), np.cos(cu)
    sv, cv_ = np.sin(cv), np.cos(cv)
    w = a + b * cv_
    point = np.stack([w * cu_, w * su, b * sv], axis=-1)
    tau1 = np.stack([-su, cu_, np.zeros_like(su)], axis=-1)
    tau2 = np.stack([-sv * cu_, -sv * su, cv_], axis=-1)
    normal = np.stack([cv_ * cu_, cv_ * su, sv], axis=-1)
    kappa1 = cv_ / w
    kappa2 = np.full(np.shape(cu), 1.0 / b)
    return point, tau1, tau2, normal, kappa1, kappa2, w, np.full(np.shape(cu), b)


def _chart_cylinder(spec, cu, cv):
    # cu = azimuth, cv = height coordinate.
    r = spec.radius
    su, cu_ = np.sin(cu), np.cos(cu)
    zeros = np.zeros_like(su)
    point = np.stack([r * cu_, r * su, cv], axis=-1)
    tau1 = np.stack([-su, cu_, zeros], axis=-1)
    tau2 = np.stack([zeros, zeros, np.ones_like(su)], axis=-1)
    normal = np.stack([cu_, su, zeros], axis=-1)
    kappa1 = np.full(np.shape(cu), 1.0 / r)
    kappa2 = np.zeros(np.shape(cu))
    return point, tau1, tau2, normal, kappa1, kappa2, np.full(np.shape(cu), r), np.ones(np.shape(cu))


def _chart_flat(spec, cu, cv):
    zeros = np.zeros_like(cu)
    ones = np.ones_like(cu)
    point = np.stack([cu, cv, zeros], axis=-1)
    tau1 = np.stack([ones, zeros, zeros], axis=-1)
    tau2 = np.stack([zeros, ones, zeros], axis=-1)
    normal = np.stack([zeros, zeros, ones], axis=-1)
    return point, tau1, tau2, normal, zeros, np.zeros_like(cu), ones, np.ones(np.shape(cu))


_CHARTS = {
    "sphere": _chart_sphere,
    "torus": _chart_torus,
    "cylinder": _chart_cylinder,
    "flat_patch": _chart_flat,
}


def _chart_bounds(spec):
    """(u_range, v_range, periodic_u, periodic_v, sup|kappa|) for the chart; the
    curvature bound is the closed form over the whole surface, not over its nodes."""
    full = (0.0, 2.0 * np.pi)
    if spec.kind == "sphere":
        return (spec.theta_cap, np.pi - spec.theta_cap), full, False, True, 1.0 / spec.radius
    if spec.kind == "torus":
        a, b = spec.major_radius, spec.minor_radius  # 1/(a - b) on the inner equator
        return full, full, True, True, max(1.0 / b, 1.0 / (a - b)) if a > b else float("inf")
    if spec.kind == "cylinder":
        return full, (-0.5 * spec.height, 0.5 * spec.height), True, False, 1.0 / spec.radius
    return (0.0, spec.lx), (0.0, spec.ly), spec.periodic_u, spec.periodic_v, 0.0


def thickness_budget(spec: SurfaceSpec) -> ThicknessBudget:
    """eps_max = 1/(2 sup|kappa|) over the surface, or `flat_eps_max` when it is flat.
    The spec is not validated: a torus whose tube reaches its axis gets eps_max 0."""
    kappa_max = _chart_bounds(spec)[4]
    eps_max = 1.0 / (2.0 * kappa_max) if kappa_max > 0.0 else spec.flat_eps_max
    return ThicknessBudget(kappa_max=kappa_max, eps_max=eps_max)


def _validate(spec: SurfaceSpec):
    if spec.kind not in _CHARTS:
        raise SurfaceError(f"unknown surface kind {spec.kind!r}; expected one of {tuple(_CHARTS)}")
    if spec.n_u < 4 or spec.n_v < 4:
        raise SurfaceError(f"resolution too small: need n_u, n_v >= 4, got {spec.n_u}x{spec.n_v}")
    if spec.kind == "sphere":
        if spec.radius <= 0:
            raise SurfaceError("sphere radius must be positive")
        if not 0.0 < spec.theta_cap < 0.5 * np.pi:
            raise SurfaceError("theta_cap must lie in (0, pi/2)")
    elif spec.kind == "torus":
        if spec.minor_radius <= 0 or spec.major_radius <= 0:
            raise SurfaceError("torus radii must be positive")
        if spec.minor_radius >= spec.major_radius:
            raise SurfaceError("degenerate torus: minor radius must be smaller than major radius")
    elif spec.kind == "cylinder":
        if spec.radius <= 0 or spec.height <= 0:
            raise SurfaceError("cylinder radius and height must be positive")
    elif spec.kind == "flat_patch":
        if spec.lx <= 0 or spec.ly <= 0:
            raise SurfaceError("flat patch side lengths must be positive")


@dataclass
class SurfaceGrid:
    """Discretized surface: frame arrays, quadrature weights, stencils."""

    spec: SurfaceSpec
    u: np.ndarray
    v: np.ndarray
    du: float
    dv: float
    periodic_u: bool
    periodic_v: bool
    points: np.ndarray        # (n_u, n_v, 3)
    tau1: np.ndarray
    tau2: np.ndarray
    normal: np.ndarray
    kappa1: np.ndarray        # (n_u, n_v)
    kappa2: np.ndarray
    stretch_u: np.ndarray     # |d x / d u|
    stretch_v: np.ndarray
    area_weight: np.ndarray
    budget: ThicknessBudget
    diff_u: np.ndarray = field(repr=False, default=None)
    diff_v: np.ndarray = field(repr=False, default=None)

    @property
    def shape(self):
        return self.points.shape[:2]

    def require_eps(self, eps: float):
        if not 0.0 < eps <= self.budget.eps_max:
            raise SurfaceError(
                f"film half-thickness eps={eps} outside budget (0, {self.budget.eps_max}]"
            )

    def _stencil(self, values: np.ndarray, direction: int):
        """(stencil matrix, chart axis, stretch shaped to divide `values`) of a direction."""
        if values.shape[:2] != self.shape:
            raise SurfaceError(f"field shape {values.shape[:2]} does not match grid {self.shape}")
        if direction not in (0, 1):
            raise SurfaceError("direction must be 0 or 1")
        stretch = (self.stretch_u, self.stretch_v)[direction]
        stretch = stretch.reshape(stretch.shape + (1,) * (values.ndim - 2))
        return (self.diff_u, self.diff_v)[direction], direction, stretch

    def tangential_derivative(self, values: np.ndarray, direction: int) -> np.ndarray:
        """Derivative along the unit principal direction tau_{direction+1}.

        `values` has chart shape (n_u, n_v, ...); second-order stencils with
        periodic wrap where the chart is periodic.
        """
        mat, axis, stretch = self._stencil(values, direction)
        raw = apply_difference(mat, values, axis)
        raw /= stretch
        return raw

    def tangential_derivative_adjoint(self, cotangent: np.ndarray, direction: int) -> np.ndarray:
        """Adjoint of tangential_derivative (exact transpose of the stencil)."""
        mat, axis, stretch = self._stencil(cotangent, direction)
        return apply_difference(mat.T, cotangent / stretch, axis)


def build_surface(spec: SurfaceSpec) -> SurfaceGrid:
    """Build the frame grid and thickness budget for a surface spec."""
    _validate(spec)
    (u0, u1), (v0, v1), per_u, per_v, _ = _chart_bounds(spec)
    du = (u1 - u0) / spec.n_u
    dv = (v1 - v0) / spec.n_v
    u = u0 + (np.arange(spec.n_u) + 0.5) * du
    v = v0 + (np.arange(spec.n_v) + 0.5) * dv
    cu, cv = np.meshgrid(u, v, indexing="ij")
    point, tau1, tau2, normal, kappa1, kappa2, stretch_u, stretch_v = _CHARTS[spec.kind](spec, cu, cv)

    return SurfaceGrid(
        spec=spec,
        u=u,
        v=v,
        du=du,
        dv=dv,
        periodic_u=per_u,
        periodic_v=per_v,
        points=point,
        tau1=tau1,
        tau2=tau2,
        normal=normal,
        kappa1=kappa1,
        kappa2=kappa2,
        stretch_u=stretch_u,
        stretch_v=stretch_v,
        area_weight=du * dv * stretch_u * stretch_v,
        budget=thickness_budget(spec),
        diff_u=difference_matrix(spec.n_u, du, per_u),
        diff_v=difference_matrix(spec.n_v, dv, per_v),
    )
