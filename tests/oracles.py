"""Reference computations the tests compare the library against.

Each oracle reaches its number by a route the library does not take: the
analytic chart map instead of the node arrays, a finite-difference Jacobian
of the offset map instead of the closed-form metric factors, K as each
kind's explicit 3x3 matrix evaluated at every node's value instead of through
the closed-form frame basis, and the L-BFGS two-loop recursion pair by pair
instead of over the stacked pairs, and a field CSV formatted row by row
instead of one u-row per `%`.
"""

import numpy as np

from chiralfilm.energies import EnergyBreakdown, EnergyError, s_quadrature
from chiralfilm.perturbations import (
    AnisotropicDMI,
    InterfacialDMI,
    TemperatureDMI,
    ZeroPerturbation,
    surface_scalar_gradient,
)
from chiralfilm.surfaces import _CHARTS, apply_difference


def chart_point(grid, cu, cv):
    """Analytic chart map: coordinates -> embedded point(s)."""
    cu = np.asarray(cu, dtype=float)
    cv = np.asarray(cv, dtype=float)
    return _CHARTS[grid.spec.kind](grid.spec, cu, cv)[0]


def chart_normal(grid, cu, cv):
    cu = np.asarray(cu, dtype=float)
    cv = np.asarray(cv, dtype=float)
    return _CHARTS[grid.spec.kind](grid.spec, cu, cv)[3]


def tubular_points(grid, eps: float, s) -> np.ndarray:
    """Offset map xi + eps*s*normal for s scalar or 1D array of layers."""
    grid.require_eps(eps)
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return grid.points + eps * float(s) * grid.normal
    return grid.points[:, :, None, :] + eps * s[None, None, :, None] * grid.normal[:, :, None, :]


def metric_volume_factor(kappa1, kappa2, eps, s):
    """Volume distortion between the offset layer and the base surface."""
    return (1.0 + eps * s * kappa1) * (1.0 + eps * s * kappa2)


def _invert_3x3(mat: np.ndarray) -> np.ndarray:
    """Batched closed-form (adjugate) inverse of (..., 3, 3) arrays."""
    a = mat[..., 0, 0]
    b = mat[..., 0, 1]
    c = mat[..., 0, 2]
    d = mat[..., 1, 0]
    e = mat[..., 1, 1]
    f = mat[..., 1, 2]
    g = mat[..., 2, 0]
    h = mat[..., 2, 1]
    i = mat[..., 2, 2]
    co_a = e * i - f * h
    co_b = f * g - d * i
    co_c = d * h - e * g
    det = a * co_a + b * co_b + c * co_c
    inv = np.empty_like(mat)
    inv[..., 0, 0] = co_a
    inv[..., 0, 1] = c * h - b * i
    inv[..., 0, 2] = b * f - c * e
    inv[..., 1, 0] = co_b
    inv[..., 1, 1] = a * i - c * g
    inv[..., 1, 2] = c * d - a * f
    inv[..., 2, 0] = co_c
    inv[..., 2, 1] = b * g - a * h
    inv[..., 2, 2] = a * e - b * d
    inv /= det[..., None, None]
    return inv


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


def kmatrix(grid, pert, sigma) -> np.ndarray:
    """K(xi, sigma) per node as an explicit (..., 3, 3) matrix, from each kind's
    formula; sigma has the grid's node shape, (n_u, n_v, 3)."""
    if isinstance(pert, ZeroPerturbation):
        return np.zeros(sigma.shape + (3,))
    if isinstance(pert, InterfacialDMI):
        # kappa [(n . sigma) I - n sigma^T]
        n = np.broadcast_to(grid.normal, sigma.shape)
        c = np.sum(n * sigma, axis=-1)
        return pert.kappa * (c[..., None, None] * np.eye(3) - n[..., :, None] * sigma[..., None, :])
    if not isinstance(pert, AnisotropicDMI):
        raise TypeError(f"no K(sigma) formula for {type(pert).__name__}")
    k = right_cross_matrix(sigma) @ pert.coupling  # (J w) x sigma
    if isinstance(pert, TemperatureDMI):
        # plus sigma (grad_Ms . w)
        grad = surface_scalar_gradient(grid, pert.saturation.evaluate(grid.points))
        k = k + sigma[..., :, None] * np.broadcast_to(grad, sigma.shape)[..., None, :]
    return k


def frame_images(grid, kmat) -> np.ndarray:
    """Row m of the (..., 3, 3) result is K f_m, for the frame f = (tau_1, tau_2, n_N)."""
    frame = np.stack([grid.tau1, grid.tau2, grid.normal], axis=-2)
    return np.einsum("...ij,...mj->...mi", kmat, frame)


def direct_tubular_energy(grid, pert, eps, field) -> float:
    """Ambient chiral Dirichlet energy by direct volume quadrature.

    The 3D Jacobian of the film field is recovered by inverting a
    finite-difference Jacobian of the offset map at grid resolution, so the
    frame decomposition and tangential/normal coefficients of the pull-back
    never enter; only the volume weights reuse eps*sqrt(g).
    """
    if field.layout != "thin":
        raise EnergyError("direct quadrature needs a thin field")
    grid.require_eps(eps)
    values = field.values
    n_s = field.n_s
    s, s_weights, diff_s = s_quadrature(n_s)
    positions = tubular_points(grid, eps, s)

    dp1 = apply_difference(grid.diff_u, positions, 0)
    dp2 = apply_difference(grid.diff_v, positions, 1)
    dps = apply_difference(diff_s, positions, 2)
    jac = np.stack([dp1, dp2, dps], axis=-1)

    du1 = apply_difference(grid.diff_u, values, 0)
    du2 = apply_difference(grid.diff_v, values, 1)
    dus = apply_difference(diff_s, values, 2)
    mu = np.stack([du1, du2, dus], axis=-1)

    dv = mu @ _invert_3x3(jac)
    kmat = np.stack([kmatrix(grid, pert, values[:, :, k]) for k in range(n_s)], axis=2)
    dens = np.sum((dv + kmat) ** 2, axis=(-2, -1))

    es = eps * s[None, None, :]
    sqrtg = (1.0 + es * grid.kappa1[..., None]) * (1.0 + es * grid.kappa2[..., None])
    w = grid.area_weight[..., None] * s_weights[None, None, :] * sqrtg
    return float(0.5 * np.sum(w * dens))


def _node_images(grid, pert, values):
    """K(u) f_m per node, as (..., 3, 3) with row m = K(u) f_m, straight from kmatrix."""
    return frame_images(grid, kmatrix(grid, pert, values))


def per_node_limit_breakdown(grid, target, pert, tensor, values) -> EnergyBreakdown:
    """Limit breakdown with K(u) taken at each node's value."""
    a = tensor.values_on(grid)[..., None]
    images = _node_images(grid, pert, values)
    r = [a * grid.tangential_derivative(values, m) + images[..., m, :] for m in (0, 1)]
    rho = np.sum(images[..., 2, :] * target.normal(values), axis=-1)
    w = grid.area_weight
    tangential = np.sum(w * (np.sum(r[0] ** 2, axis=-1) + np.sum(r[1] ** 2, axis=-1)))
    return EnergyBreakdown.of(tangential, np.sum(w * rho**2))


def per_node_thin_breakdown(grid, pert, eps, tensor, values) -> EnergyBreakdown:
    """Thin-film breakdown with K(u) taken at each node and layer's value."""
    n_s = values.shape[2]
    s, s_weights, diff_s = s_quadrature(n_s)
    a = tensor.values_on(grid)[..., None]
    # (n_u, n_v, n_s, 3, 3): layer k holds the frame images of K(u[:, :, k])
    images = np.stack([_node_images(grid, pert, values[:, :, k]) for k in range(n_s)], axis=2)
    f1 = 1.0 + eps * s * grid.kappa1[..., None]
    f2 = 1.0 + eps * s * grid.kappa2[..., None]
    coeffs = (a / f1, a / f2, np.broadcast_to(a / eps, f1.shape))
    derivs = (grid.tangential_derivative(values, 0), grid.tangential_derivative(values, 1),
              apply_difference(diff_s, values, 2))
    w = grid.area_weight[..., None] * s_weights * f1 * f2
    sums = [np.sum(w * np.sum((c[..., None] * d + images[..., m, :]) ** 2, axis=-1))
            for m, (c, d) in enumerate(zip(coeffs, derivs))]
    return EnergyBreakdown.of(0.5 * (sums[0] + sums[1]), 0.5 * sums[2])


def two_loop(g, pairs, gamma, solve):
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


def field_csv_by_rows(grid, field) -> str:
    """Field CSV text with each row formatted by its own `%`, each chart
    coordinate formatted once."""
    def fmt(x):
        return format(float(x), ".17g")

    if field.layout == "surface":
        lines = ["u,v,ux,uy,uz\n"]
        tails = [fmt(v) + "," for v in grid.v]
    else:
        lines = ["u,v,s,ux,uy,uz\n"]
        s = [fmt(sk) + "," for sk in s_quadrature(field.n_s)[0]]
        tails = [fmt(v) + "," + sk for v in grid.v for sk in s]
    for u, block in zip(grid.u, field.values):
        head = fmt(u) + ","
        lines += ["%s%s%.17g,%.17g,%.17g\n" % (head, tail, x, y, z)
                  for tail, (x, y, z) in zip(tails, block.reshape(-1, 3).tolist())]
    return "".join(lines)
