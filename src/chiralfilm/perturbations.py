"""Perturbation matrix fields K(xi, sigma) and the elliptic tensor A(xi).

Presets cover the standard antisymmetric-exchange variants.  `AnisotropicDMI`
holds the one (J w) x sigma term, K(sigma) w = (J w) x sigma, and its coupling
check; isotropic bulk exchange (K(sigma) w = kappa * w x sigma) is its coupling
kappa * I, and nonuniform saturation magnetization adds (grad_Ms . w) sigma to
it, paired with the scalar tensor A = Ms * I.  Interfacial exchange in the
direction of the surface normal is K(xi, sigma) w = kappa * [(n.sigma) w - (w.sigma) n].

Every preset is linear in sigma, so K(xi, sigma) = sum_j sigma_j K(xi, e_j),
and the energies only ever use K(xi, e_j) f_m for the frame f = (tau_1, tau_2,
n_N).  Each kind states that frame basis in closed form as `frame_basis`,
which `frame_sample` evaluates once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def positive_on(self, grid: SurfaceGrid, name: str) -> np.ndarray:
        """The nodal values on `grid`, which must be finite and positive."""
        with np.errstate(all="ignore"):  # an overflow is reported below, not as a warning
            values = self.evaluate(grid.points)
        if not np.all(np.isfinite(values) & (values > 0.0)):
            raise PerturbationError(f"{name} must stay finite and positive on the surface")
        return values


def surface_scalar_gradient(grid: SurfaceGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient of a nodal scalar field, as a 3-vector per node."""
    d1 = grid.tangential_derivative(values[..., None], 0)[..., 0]
    d2 = grid.tangential_derivative(values[..., None], 1)[..., 0]
    return d1[..., None] * grid.tau1 + d2[..., None] * grid.tau2


def frame_sample(grid: SurfaceGrid, pert) -> np.ndarray:
    """The frame basis K(e_j) f_m of `pert` on `grid`, shape (3, n_u, n_v, 3, 3)
    indexed (m, u, v, j, i), for the frame f = (tau_1, tau_2, n_N)."""
    return pert.frame_basis(grid, np.stack([grid.tau1, grid.tau2, grid.normal]))


class Perturbation:
    """Base evaluator for the matrix field K(xi, sigma), linear in sigma.

    `frame_basis` takes the frame rows f_m as (3, n_u, n_v, 3) and returns
    K(e_j) f_m in the layout of `frame_sample`.
    """

    def frame_basis(self, grid: SurfaceGrid, frame: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroPerturbation(Perturbation):
    def frame_basis(self, grid, frame):
        return np.zeros(frame.shape + (3,))


class AnisotropicDMI(Perturbation):
    def __init__(self, coupling):
        mat = np.asarray(coupling, dtype=float)
        if mat.shape != (3, 3) or not np.all(np.isfinite(mat)):
            raise PerturbationError("coupling must be a finite 3x3 matrix")
        self.coupling = mat

    def frame_basis(self, grid, frame):
        # K(e_j) f_m = (J f_m) x e_j
        return np.cross((frame @ self.coupling.T)[..., None, :], np.eye(3))


class BulkDMI(AnisotropicDMI):
    def __init__(self, kappa: float = 1.0):
        self.kappa = float(kappa)
        super().__init__(self.kappa * np.eye(3))


class InterfacialDMI(Perturbation):
    def __init__(self, kappa: float = 1.0):
        self.kappa = float(kappa)

    def frame_basis(self, grid, frame):
        # K(e_j) f_m = kappa (n_j f_m - (f_m)_j n)
        n = grid.normal
        return self.kappa * (n[..., :, None] * frame[..., None, :]
                             - frame[..., :, None] * n[..., None, :])


class TemperatureDMI(AnisotropicDMI):
    """Nonuniform saturation magnetization on top of anisotropic exchange."""

    def __init__(self, saturation: ScalarSurfaceField, coupling):
        super().__init__(coupling)
        self.saturation = saturation

    def frame_basis(self, grid, frame):
        # K(e_j) f_m = (J f_m) x e_j + (grad_Ms . f_m) e_j
        ms = self.saturation.positive_on(grid, "saturation magnetization")
        grad = surface_scalar_gradient(grid, ms)
        along = np.einsum("uvk,muvk->muv", grad, frame)
        return super().frame_basis(grid, frame) + along[..., None, None] * np.eye(3)


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
        return self.field.positive_on(grid, "elliptic tensor")


IDENTITY_TENSOR = EllipticTensor("identity")
