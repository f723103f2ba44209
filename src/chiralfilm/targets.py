"""Target constraint manifolds with nearest-point projection.

Each target supplies project, normal and normal_pullback (the transpose of
the normal's Jacobian) plus the tangent projector.  The normal field is
implemented as a smooth extension to a neighborhood of the manifold so that
energies stay differentiable when a node value drifts off the constraint
during finite-difference checks.

All operations are vectorized over leading axes of (... , 3) arrays.
"""

from __future__ import annotations

import numpy as np


class TargetError(ValueError):
    """Projection request outside the admissible region, or non-convergence."""


def _norm(y):
    return np.sqrt(np.einsum("...k,...k->...", y, y))[..., None]


def tangent_part(n, v):
    """v minus its component along the unit normals n."""
    out = n * np.einsum("...k,...k->...", v, n)[..., None]
    return np.subtract(v, out, out=out)


class TargetManifold:
    """Interface for a closed constraint manifold in R^3.

    Users may supply their own subclass.  Its project raises TargetError where
    the nearest point is undefined or not found; nothing checks that a custom
    projection is idempotent, stationary or globally nearest.
    """

    admissible_radius: float

    def project(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal(self, sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal_pullback(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Transpose of the normal-extension Jacobian applied to w."""
        raise NotImplementedError

    def tangent_project(self, sigma: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Remove the component of g along the outward normal at sigma."""
        return tangent_part(self.normal(sigma), g)


class SphereTarget(TargetManifold):
    """Sphere of given radius centered at the origin; all maps closed-form."""

    def __init__(self, radius: float = 1.0):
        if radius <= 0:
            raise TargetError("sphere radius must be positive")
        self.radius = float(radius)
        self.admissible_radius = 0.5 * self.radius

    def _safe_norm(self, y):
        r = _norm(y)
        if np.any(r < 1e-12 * self.radius):
            raise TargetError("point too close to the center: projection undefined")
        return r

    def project(self, y):
        y = np.asarray(y, dtype=float)
        return self.radius * y / self._safe_norm(y)

    def normal(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return sigma / self._safe_norm(sigma)

    def normal_pullback(self, y, w):
        y = np.asarray(y, dtype=float)
        r = self._safe_norm(y)
        return tangent_part(y / r, w) / r


class EllipsoidTarget(TargetManifold):
    """Axis-aligned ellipsoid sum((x_i/a_i)^2) = 1.

    Projection solves the single Lagrange-multiplier equation by Newton's
    method on a concave form of it, which needs no bracket or fallback; the
    passes run on every point, with the converged ones frozen by a mask.
    """

    tol = 1e-12
    max_iter = 50

    def __init__(self, semi_axes):
        axes = np.asarray(semi_axes, dtype=float)
        if axes.shape != (3,) or np.any(axes <= 0):
            raise TargetError("ellipsoid needs three positive semi-axes")
        self.semi_axes = axes
        # the normal tube is a tubular neighborhood only inside the reach
        # min(a)^2 / max(a), which is below 0.5 min(a) when min(a) < 0.5 max(a)
        a_min, a_max = float(np.min(axes)), float(np.max(axes))
        self.admissible_radius = min(0.5 * a_min, 0.9 * a_min * a_min / a_max)
        self._a2 = axes * axes
        self._shift = self._a2 - np.min(self._a2)

    def project(self, y):
        """Nearest points a_i^2 y_i / (x + c_i), x > 0 the root of S(x) =
        sum(a_i^2 y_i^2 / (x + c_i)^2) = 1, c = a^2 - min a^2.

        x = t + min a^2 puts the pole at 0, so x keeps its relative precision
        next to the medial axis.  Newton runs on S^(-1/2) - 1, a weighted power
        mean of the x + c_i, so concave and increasing: a step from either side
        of the root lands left of it, and from there the steps rise to it.  The
        clamp at max_i(a_i |y_i| - c_i), where S >= 1, keeps steps off the pole.
        Newton starts at t = 0, the root for a point on the surface.  Each pass
        evaluates S at every point, in work arrays allocated once with one
        contiguous row per component; a point whose |S - 1| is below tol is
        frozen, so its x, and with it its S, stays as it is.
        """
        y = np.asarray(y, dtype=float)
        c = self._shift[:, None]
        comps = np.array(y.reshape(-1, 3).T, order="C")   # a copy: it becomes a work array
        a2y = self._a2[:, None] * comps
        w = a2y * comps     # a_i^2 y_i^2
        floor = np.min(self._a2) * 1e-12
        b = np.abs(comps)
        b *= self.semi_axes[:, None]
        b -= c
        low = np.maximum(np.maximum(b[0], b[1]), np.maximum(b[2], floor))
        d, q = b, comps     # reused as work arrays: x + c_i and the terms of S and S'
        s, slope, step = np.empty((3, len(low)))

        def evaluate_s(x):
            np.add(x, c, out=d)
            np.multiply(d, d, out=q)
            np.divide(w, q, out=q)
            np.add(np.add(q[0], q[1], out=s), q[2], out=s)

        evaluate_s(floor)
        if np.any(s <= 1.0):
            raise TargetError(
                "projection undefined: point too close to the medial axis of the ellipsoid"
            )
        x = np.full(len(low), np.min(self._a2))
        for _ in range(self.max_iter):
            evaluate_s(x)
            np.subtract(s, 1.0, out=step)
            # not `>= tol`: a NaN keeps moving, into the non-convergence error
            moving = ~(np.abs(step, out=step) < self.tol)
            if not moving.any():
                break
            # x + s (sqrt(s) - 1) / slope, clamped below
            np.divide(q, d, out=q)
            np.add(np.add(q[0], q[1], out=slope), q[2], out=slope)
            np.sqrt(s, out=step)
            step -= 1.0
            step *= s
            step /= slope
            step += x
            np.copyto(x, np.maximum(step, low, out=step), where=moving)
        else:
            raise TargetError("ellipsoid projection did not converge")
        # d = x + c_i from the last pass; written through the transposed view
        sigma = np.empty(y.shape)
        np.divide(a2y, d, out=sigma.reshape(-1, 3).T)
        return sigma

    def normal(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        grad = sigma / self._a2
        n = _norm(grad)
        if np.any(n < 1e-14):
            raise TargetError("normal undefined at the center")
        return grad / n

    def normal_pullback(self, y, w):
        y = np.asarray(y, dtype=float)
        grad = y / self._a2
        gn = _norm(grad)
        return (tangent_part(grad / gn, w) / self._a2) / gn
