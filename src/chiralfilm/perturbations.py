"""Perturbation matrix fields K(xi, sigma) and the elliptic tensor A(xi).

Presets cover the standard antisymmetric-exchange variants.  `AnisotropicDMI`
holds the one (J w) x sigma term, K(sigma) w = (J w) x sigma, and its coupling
check; isotropic bulk exchange (K(sigma) w = kappa * w x sigma) is its coupling
kappa * I, and nonuniform saturation magnetization adds (grad_Ms . w) sigma to
it, paired with the scalar tensor A = Ms * I.  Interfacial exchange in the
direction of the surface normal is K(xi, sigma) w = kappa * [(n.sigma) w - (w.sigma) n].

Every preset is linear in sigma, so K(xi, sigma) = sum_j sigma_j K(xi, e_j),
which the energies build once per grid.  Evaluators are stateless and
vectorized: they receive a FrameSample whose arrays broadcast against sigma
of shape (..., 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .surfaces import SurfaceGrid


class PerturbationError(ValueError):
    """Invalid perturbation parameters."""


@dataclass(frozen=True)
class ScalarSurfaceField:
    """Small expression catalogue for scalar fields on the base surface.

    kinds: "constant" (c0), "affine" (c0 + c . x), "banded" (c0 + c1 * x3^2).
    """

    kind: str
    c0: float = 1.0
    c: tuple = (0.0, 0.0, 0.0)
    c1: float = 0.0

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(points.shape[:-1], float(self.c0))
        if self.kind == "affine":
            return self.c0 + points @ np.asarray(self.c, dtype=float)
        if self.kind == "banded":
            return self.c0 + self.c1 * points[..., 2] ** 2
        raise PerturbationError(f"unknown scalar field kind {self.kind!r}")


@dataclass
class FrameSample:
    """Node-aligned surface data fed to perturbation evaluators."""

    tau1: np.ndarray
    tau2: np.ndarray
    normal: np.ndarray
    grad_ms: Optional[np.ndarray] = None


def surface_scalar_gradient(grid: SurfaceGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient of a nodal scalar field, as a 3-vector per node."""
    d1 = grid.tangential_derivative(values[..., None], 0)[..., 0]
    d2 = grid.tangential_derivative(values[..., None], 1)[..., 0]
    return d1[..., None] * grid.tau1 + d2[..., None] * grid.tau2


def frame_sample(grid: SurfaceGrid, pert, index=None) -> FrameSample:
    """Gather frame arrays aligned with a field of shape (n_u, n_v, 3).

    index selects scattered nodes as (ii, jj) arrays.
    """
    grad = pert.ms_gradient(grid) if pert.needs_ms_gradient else None

    def pick(arr):
        return arr[index] if index is not None else arr

    return FrameSample(
        tau1=pick(grid.tau1),
        tau2=pick(grid.tau2),
        normal=pick(grid.normal),
        grad_ms=pick(grad) if grad is not None else None,
    )


def right_cross_matrix(sigma: np.ndarray) -> np.ndarray:
    """Matrix R(sigma) with R(sigma) w = w x sigma."""
    s1, s2, s3 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
    zero = np.zeros_like(s1)
    return np.stack(
        [
            np.stack([zero, s3, -s2], axis=-1),
            np.stack([-s3, zero, s1], axis=-1),
            np.stack([s2, -s1, zero], axis=-1),
        ],
        axis=-2,
    )


class Perturbation:
    """Base evaluator for the matrix field K(xi, sigma), linear in sigma."""

    needs_ms_gradient = False

    def kmatrix(self, ctx: FrameSample, sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroPerturbation(Perturbation):
    def kmatrix(self, ctx, sigma):
        return np.zeros(sigma.shape + (3,))


class AnisotropicDMI(Perturbation):
    def __init__(self, coupling):
        mat = np.asarray(coupling, dtype=float)
        if mat.shape != (3, 3) or not np.all(np.isfinite(mat)):
            raise PerturbationError("coupling must be a finite 3x3 matrix")
        self.coupling = mat

    def kmatrix(self, ctx, sigma):
        return right_cross_matrix(sigma) @ self.coupling


class BulkDMI(AnisotropicDMI):
    def __init__(self, kappa: float = 1.0):
        self.kappa = float(kappa)
        super().__init__(self.kappa * np.eye(3))


class InterfacialDMI(Perturbation):
    def __init__(self, kappa: float = 1.0):
        self.kappa = float(kappa)

    def kmatrix(self, ctx, sigma):
        n = np.broadcast_to(ctx.normal, sigma.shape)
        c = np.sum(n * sigma, axis=-1)
        eye = np.eye(3).reshape((1,) * c.ndim + (3, 3))
        return self.kappa * (c[..., None, None] * eye - n[..., :, None] * sigma[..., None, :])


class TemperatureDMI(AnisotropicDMI):
    """Nonuniform saturation magnetization on top of anisotropic exchange."""

    needs_ms_gradient = True

    def __init__(self, saturation: ScalarSurfaceField, coupling):
        super().__init__(coupling)
        self.saturation = saturation

    def ms_values(self, grid: SurfaceGrid) -> np.ndarray:
        values = self.saturation.evaluate(grid.points)
        if np.any(values <= 0):
            raise PerturbationError("saturation magnetization must stay positive on the surface")
        return values

    def ms_gradient(self, grid: SurfaceGrid) -> np.ndarray:
        return surface_scalar_gradient(grid, self.ms_values(grid))

    def kmatrix(self, ctx, sigma):
        # restates (J w) x sigma: super() would make one call two nested kmatrix calls
        if ctx.grad_ms is None:
            raise PerturbationError("frame sample lacks the saturation gradient")
        g = np.broadcast_to(ctx.grad_ms, sigma.shape)
        outer = sigma[..., :, None] * g[..., None, :]
        return outer + right_cross_matrix(sigma) @ self.coupling


class EllipticTensor:
    """Scalar elliptic multiplier a(xi); identity or a positive surface field."""

    def __init__(self, kind: str = "identity", field: ScalarSurfaceField = None):
        if kind not in ("identity", "scalar_field"):
            raise PerturbationError(f"unknown tensor kind {kind!r}")
        if kind == "scalar_field" and field is None:
            raise PerturbationError("scalar_field tensor needs a field")
        self.kind = kind
        self.field = field

    def values_on(self, grid: SurfaceGrid) -> np.ndarray:
        if self.kind == "identity":
            return np.ones(grid.shape)
        values = self.field.evaluate(grid.points)
        if np.min(values) <= 0.0:
            raise PerturbationError("elliptic tensor must be positive on the surface")
        return values


IDENTITY_TENSOR = EllipticTensor("identity")
