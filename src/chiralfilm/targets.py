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
    return np.sqrt(np.sum(y * y, axis=-1, keepdims=True))


def tangent_part(n, v):
    """v minus its component along the unit normals n."""
    out = n * np.einsum("...k,...k->...", v, n)[..., None]
    return np.subtract(v, out, out=out)


class TargetManifold:
    """Interface for a closed constraint manifold in R^3.

    Users may supply their own subclass; the library validates projection
    idempotence and stationarity but cannot verify global nearest-point
    uniqueness for custom targets.
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
        n = y / r
        return (w - np.sum(w * n, axis=-1, keepdims=True) * n) / r


class EllipsoidTarget(TargetManifold):
    """Axis-aligned ellipsoid sum((x_i/a_i)^2) = 1.

    Projection solves the single Lagrange-multiplier equation with a
    safeguarded Newton iteration (bisection fallback inside the bracket).
    """

    def __init__(self, semi_axes, tol: float = 1e-12, max_iter: int = 50):
        axes = np.asarray(semi_axes, dtype=float)
        if axes.shape != (3,) or np.any(axes <= 0):
            raise TargetError("ellipsoid needs three positive semi-axes")
        self.semi_axes = axes
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        # the normal tube is a tubular neighborhood only inside the reach
        # min(a)^2 / max(a), which is below 0.5 min(a) when min(a) < 0.5 max(a)
        a_min, a_max = float(np.min(axes)), float(np.max(axes))
        self.admissible_radius = min(0.5 * a_min, 0.9 * a_min * a_min / a_max)
        self._a2 = axes * axes

    def _multiplier(self, y):
        """Root of g(t) = sum(a_i^2 y_i^2 / (t + a_i^2)^2) - 1 on (-min a^2, inf).

        Newton starts at t = 0, the root for a point on the surface, and each
        pass works only on the points whose |g| is still at or above tol.
        """
        a2 = self._a2
        flat = y.reshape(-1, 3)
        # numerator weights a_i^2 y_i^2, one contiguous array per component
        w = [a2[i] * flat[:, i] * flat[:, i] for i in range(3)]
        lo = np.full(len(flat), -np.min(a2) * (1.0 - 1e-12))
        hi = np.maximum(np.sqrt(w[0] + w[1] + w[2]), lo + np.min(a2) * 1e-9)

        def g_and_dg(t, w):
            d = [t + a2[i] for i in range(3)]
            q = [w[i] / (d[i] * d[i]) for i in range(3)]
            return q[0] + q[1] + q[2] - 1.0, -2.0 * (q[0] / d[0] + q[1] / d[1] + q[2] / d[2])

        g_lo, _ = g_and_dg(lo, w)
        if np.any(g_lo <= 0.0):
            raise TargetError(
                "projection undefined: point too close to the medial axis of the ellipsoid"
            )
        out = np.empty(len(flat))
        active = np.arange(len(flat))
        t = np.zeros(len(flat))
        for _ in range(self.max_iter):
            g, dg = g_and_dg(t, w)
            done = np.abs(g) < self.tol
            if done.any():
                out[active[done]] = t[done]
                keep = ~done
                active, t, lo, hi, g, dg = (a[keep] for a in (active, t, lo, hi, g, dg))
                w = [wi[keep] for wi in w]
            if not len(active):
                break
            lo = np.where(g > 0.0, t, lo)
            hi = np.where(g < 0.0, t, hi)
            t_new = t - g / dg
            bad = (t_new <= lo) | (t_new >= hi) | ~np.isfinite(t_new)
            t = np.where(bad, 0.5 * (lo + hi), t_new)
        else:
            g, _ = g_and_dg(t, w)
            if np.any(np.abs(g) >= np.sqrt(self.tol)):
                raise TargetError("ellipsoid projection did not converge")
            out[active] = t
        return out.reshape(y.shape[:-1])

    def project(self, y):
        y = np.asarray(y, dtype=float)
        t = self._multiplier(y)
        return self._a2 * y / (t[..., None] + self._a2)

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
        n = grad / gn
        wt = w - np.sum(w * n, axis=-1, keepdims=True) * n
        return (wt / self._a2) / gn
