import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.config import build_objects, resolve_config
from chiralfilm.energies import s_quadrature
from chiralfilm.surfaces import (
    SurfaceError,
    SurfaceSpec,
    apply_difference,
    build_surface,
    difference_matrix,
    thickness_budget,
)
from oracles import chart_normal, chart_point, metric_volume_factor, tubular_points

ALL_SPECS = [
    SurfaceSpec("sphere", 32, 32, radius=1.0, theta_cap=0.15),
    SurfaceSpec("torus", 32, 32, major_radius=2.0, minor_radius=0.5),
    SurfaceSpec("cylinder", 32, 32, radius=0.8, height=2.0),
    SurfaceSpec("flat_patch", 16, 16, lx=1.0, ly=2.0),
]


def fd_chart_jacobian(grid, cu, cv, eps, s, delta=1e-6):
    """Small-step finite-difference Jacobian of the offset map in chart
    coordinates, columns normalized by the analytic chart stretches."""

    def phi(a, b):
        return chart_point(grid, a, b) + eps * s * chart_normal(grid, a, b)

    col_u = (phi(cu + delta, cv) - phi(cu - delta, cv)) / (2 * delta)
    col_v = (phi(cu, cv + delta) - phi(cu, cv - delta)) / (2 * delta)
    col_s = eps * chart_normal(grid, cu, cv)
    return np.stack([col_u, col_v, col_s], axis=-1)


def test_flat_patch_area_exact():
    grid = build_surface(SurfaceSpec("flat_patch", 16, 16))
    assert grid.area_weight.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(grid.kappa1 == 0.0) and np.all(grid.kappa2 == 0.0)


def test_sphere_band_area_matches_zone_formula(sphere_band):
    # band area oracle: zone formula, 2*pi*R^2*(cos t - cos(pi - t))
    expected = 4.0 * np.pi * np.cos(0.15)
    total = sphere_band.area_weight.sum()
    assert abs(total - expected) / expected < 1e-3
    assert np.allclose(sphere_band.kappa1, 1.0) and np.allclose(sphere_band.kappa2, 1.0)


def test_torus_area_matches_closed_form(torus_grid):
    # 4 pi^2 a b for the full torus
    expected = 4.0 * np.pi**2 * 2.0 * 0.5
    assert abs(torus_grid.area_weight.sum() - expected) / expected < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_frames_orthonormal_right_handed(spec):
    grid = build_surface(spec)
    for arr in (grid.tau1, grid.tau2, grid.normal):
        assert np.max(np.abs(np.sum(arr * arr, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.sum(grid.tau1 * grid.tau2, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(grid.tau1 * grid.normal, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(grid.tau2 * grid.normal, axis=-1))) < 1e-12
    assert np.max(np.abs(np.cross(grid.tau1, grid.tau2) - grid.normal)) < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_curvatures_match_small_step_shape_operator(spec):
    # d(normal)/d(tau_i) = kappa_i tau_i, by small-step chart differencing
    grid = build_surface(spec)
    rng = np.random.default_rng(7)
    ii = rng.integers(0, grid.shape[0], size=50)
    jj = rng.integers(0, grid.shape[1], size=50)
    cu, cv = grid.u[ii], grid.v[jj]
    delta = 1e-6

    dn_u = (chart_normal(grid, cu + delta, cv) - chart_normal(grid, cu - delta, cv)) / (2 * delta)
    dn_u /= grid.stretch_u[ii, jj][:, None]
    expected_u = grid.kappa1[ii, jj][:, None] * grid.tau1[ii, jj]
    assert np.max(np.abs(dn_u - expected_u)) < 1e-6

    dn_v = (chart_normal(grid, cu, cv + delta) - chart_normal(grid, cu, cv - delta)) / (2 * delta)
    dn_v /= grid.stretch_v[ii, jj][:, None]
    expected_v = grid.kappa2[ii, jj][:, None] * grid.tau2[ii, jj]
    assert np.max(np.abs(dn_v - expected_v)) < 1e-6


def test_shape_operator_grid_stencil_second_order():
    # residual of the grid-stencil normal derivative shrinks at order >= 1.9
    errors = {}
    for n in (32, 64):
        grid = build_surface(SurfaceSpec("torus", n, n, major_radius=2.0, minor_radius=0.5))
        worst = 0.0
        for direction, (tau, kappa) in enumerate(
            [(grid.tau1, grid.kappa1), (grid.tau2, grid.kappa2)]
        ):
            dn = grid.tangential_derivative(grid.normal, direction)
            worst = max(worst, float(np.max(np.abs(dn - kappa[..., None] * tau))))
        errors[n] = worst
    order = np.log2(errors[32] / errors[64])
    assert order >= 1.9


def test_tubular_point_examples(flat_patch, sphere_band):
    # a flat patch moves along its normal, e3
    moved = tubular_points(flat_patch, 0.1, 0.5)
    assert np.all(np.abs(moved[..., 2] - 0.05) <= 1e-15)
    assert np.array_equal(moved[..., :2], flat_patch.points[..., :2])

    # the unit sphere's radius becomes 1 + eps*s, and s = 0 is exact
    moved = tubular_points(sphere_band, 0.1, 1.0)
    assert np.max(np.abs(np.linalg.norm(moved, axis=-1) - 1.1)) <= 1e-12
    assert np.array_equal(tubular_points(sphere_band, 0.1, 0.0), sphere_band.points)

    for eps in (0.6, 0.0):  # outside the budget (0, 1/2]
        with pytest.raises(SurfaceError):
            tubular_points(sphere_band, eps, 0.5)


def test_tubular_points_signed_distance(sphere_band, torus_grid):
    # offset points sit at signed distance eps*s from the surface
    s = np.array([-1.0, -0.25, 0.5, 1.0])
    pts = tubular_points(sphere_band, 0.2, s)
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - (1.0 + 0.2 * s)[None, None, :])) < 1e-12

    pts = tubular_points(torus_grid, 0.2, s)
    ring = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
    tube = np.sqrt((ring - 2.0) ** 2 + pts[..., 2] ** 2)
    assert np.max(np.abs(tube - (0.5 + 0.2 * s)[None, None, :])) < 1e-12


def test_metric_factor_values():
    assert metric_volume_factor(0.0, 0.0, 0.3, 0.7) == 1.0
    assert metric_volume_factor(1.0, 1.0, 0.1, 1.0) == pytest.approx(1.21, abs=1e-15)


def test_volume_factor_mean_gaussian_form(rng):
    k1 = rng.uniform(-2.0, 2.0, size=500)
    k2 = rng.uniform(-2.0, 2.0, size=500)
    eps = rng.uniform(0.0, 0.2, size=500)
    s = rng.uniform(-1.0, 1.0, size=500)
    direct = metric_volume_factor(k1, k2, eps, s)
    mean = 0.5 * (k1 + k2)
    gauss = k1 * k2
    via_curvatures = np.abs(1.0 + 2.0 * (eps * s) * mean + (eps * s) ** 2 * gauss)
    assert np.max(np.abs(direct - via_curvatures)) < 1e-14


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_volume_factor_matches_fd_jacobian(spec, rng):
    grid = build_surface(spec)
    for _ in range(100):
        i = int(rng.integers(0, grid.shape[0]))
        j = int(rng.integers(0, grid.shape[1]))
        eps = float(rng.uniform(0.2, 1.0)) * grid.budget.eps_max
        s = float(rng.uniform(-1.0, 1.0))
        jac = fd_chart_jacobian(grid, grid.u[i], grid.v[j], eps, s)
        jac[..., 0] /= grid.stretch_u[i, j]
        jac[..., 1] /= grid.stretch_v[i, j]
        det = float(np.linalg.det(jac)) / eps
        expected = metric_volume_factor(grid.kappa1[i, j], grid.kappa2[i, j], eps, s)
        assert abs(det - expected) / abs(expected) < 1e-5


def test_budget_guarantees_metric_bounds():
    for spec in ALL_SPECS:
        grid = build_surface(spec)
        eps = grid.budget.eps_max
        bound = grid.budget.metric_bound
        for s in (-1.0, 1.0):
            g = metric_volume_factor(grid.kappa1, grid.kappa2, eps, s)
            # the tangential coefficients h_i = 1/(1 + eps s kappa_i) of the thin form
            h1 = 1.0 / (1.0 + eps * s * grid.kappa1)
            h2 = 1.0 / (1.0 + eps * s * grid.kappa2)
            for arr in (g, h1, h2):
                assert np.all(arr >= 1.0 / bound - 1e-12)
                assert np.all(arr <= bound + 1e-12)


def test_budget_values():
    torus = build_surface(SurfaceSpec("torus", 16, 16, major_radius=2.0, minor_radius=0.5))
    assert torus.budget.kappa_max == pytest.approx(2.0)
    assert torus.budget.eps_max == pytest.approx(0.25)
    flat = build_surface(SurfaceSpec("flat_patch", 16, 16))
    assert flat.budget.eps_max == 1.0


@pytest.mark.parametrize(
    "surface,kappa_max",
    [
        ({"kind": "sphere", "radius": 0.7}, 1.0 / 0.7),
        ({"kind": "cylinder", "radius": 0.8}, 1.0 / 0.8),
        ({"kind": "torus", "major_radius": 2.0, "minor_radius": 0.5}, 2.0),
        # thick tori: sup|kappa| = 1/(R - r) sits on the inner equator, between the nodes
        ({"kind": "torus", "n_u": 32, "n_v": 16, "major_radius": 2.0, "minor_radius": 1.5}, 2.0),
        ({"kind": "torus", "major_radius": 2.0, "minor_radius": 1.9}, 10.0),
        ({"kind": "flat_patch", "lx": 1.0, "ly": 2.0}, 0.0),
    ],
    ids=["sphere", "cylinder", "torus", "thick-torus-32x16", "thick-torus-64", "flat_patch"],
)
def test_budget_is_the_closed_form_curvature_bound(surface, kappa_max):
    cfg = resolve_config({"surface": surface, "target": {"kind": "sphere"},
                          "perturbation": {"kind": "zero"}})
    grid = build_objects(cfg).grid
    budget = grid.budget
    assert budget == thickness_budget(grid.spec)
    assert budget.kappa_max == pytest.approx(kappa_max, rel=1e-14)
    if kappa_max > 0.0:
        assert budget.eps_max == pytest.approx(1.0 / (2.0 * kappa_max), rel=1e-14)
    else:
        assert budget.eps_max == grid.spec.flat_eps_max
    assert np.all(budget.eps_max * np.maximum(np.abs(grid.kappa1), np.abs(grid.kappa2)) <= 0.5)
    # the default thickness list is clipped by the same budget
    assert all(0.0 < eps <= budget.eps_max for eps in cfg["sweep"]["eps_list"])


def test_shell_volume_consistency(sphere_band):
    # quadrature of eps*sqrt(g) over the band's film reproduces the shell
    # volume between radii R-eps and R+eps restricted to the band cone
    eps = 0.2
    s, weights, _ = s_quadrature(8)
    g = metric_volume_factor(
        sphere_band.kappa1[..., None], sphere_band.kappa2[..., None], eps, s[None, None, :]
    )
    volume = float(np.sum(sphere_band.area_weight[..., None] * weights[None, None, :] * g * eps))
    expected = 2.0 * np.pi * 2.0 * np.cos(0.15) * ((1.2**3 - 0.8**3) / 3.0)
    assert abs(volume - expected) / expected < 1e-3


def test_tangential_derivative_constant_and_linear(flat_patch):
    const = np.ones(flat_patch.shape + (3,))
    for direction in (0, 1):
        assert np.all(flat_patch.tangential_derivative(const, direction) == 0.0)

    embed = flat_patch.points.copy()
    d1 = flat_patch.tangential_derivative(embed, 0)
    d2 = flat_patch.tangential_derivative(embed, 1)
    assert np.max(np.abs(d1 - np.array([1.0, 0.0, 0.0]))) < 1e-13
    assert np.max(np.abs(d2 - np.array([0.0, 1.0, 0.0]))) < 1e-13


def test_tangential_derivative_identity_map_on_sphere(sphere_band):
    # derivative of the embedding along tau_i is tau_i itself; the azimuthal
    # stencil error is (2*pi/n)^2/6, which crosses 1e-3 only at n >= 128
    def worst(grid):
        d1 = grid.tangential_derivative(grid.points, 0)
        d2 = grid.tangential_derivative(grid.points, 1)
        return max(float(np.max(np.abs(d1 - grid.tau1))), float(np.max(np.abs(d2 - grid.tau2))))

    err64 = worst(sphere_band)
    assert err64 < 2e-3
    fine = build_surface(SurfaceSpec("sphere", 128, 128, radius=1.0, theta_cap=0.15))
    err128 = worst(fine)
    assert err128 < 1e-3
    assert np.log2(err64 / err128) > 1.9


def test_tangential_derivative_shape_mismatch(flat_patch):
    # the adjoint checks its cotangent and direction as the derivative checks its field
    for apply in (flat_patch.tangential_derivative, flat_patch.tangential_derivative_adjoint):
        with pytest.raises(SurfaceError, match="does not match grid"):
            apply(np.zeros((3, 3, 3)), 0)
        with pytest.raises(SurfaceError, match="direction must be 0 or 1"):
            apply(np.zeros(flat_patch.shape + (3,)), 2)


def test_adjoint_is_exact_transpose(small_torus, rng):
    grids = [
        small_torus,
        build_surface(SurfaceSpec("sphere", 16, 12, radius=1.0, theta_cap=0.15)),  # one-sided rows in u
        build_surface(SurfaceSpec("cylinder", 12, 16, radius=0.8, height=2.0)),    # one-sided rows in v
    ]
    for grid in grids:
        x = rng.standard_normal(grid.shape + (5, 3))
        y = rng.standard_normal(grid.shape + (5, 3))
        for direction in (0, 1):
            lhs = np.sum(grid.tangential_derivative(x, direction) * y)
            rhs = np.sum(x * grid.tangential_derivative_adjoint(y, direction))
            assert lhs == pytest.approx(rhs, rel=1e-12)
    # the s-stencil of the thin form and its transpose
    _, _, diff_s = s_quadrature(5)
    lhs = np.sum(apply_difference(diff_s, x, 2) * y)
    rhs = np.sum(x * apply_difference(diff_s.T, y, 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


_extents = st.lists(st.integers(1, 3), max_size=2)


@given(n=st.integers(4, 40), periodic=st.booleans(), spacing=st.floats(1e-3, 10.0),
       lead=_extents, trail=_extents, seed=st.integers(0, 2**32 - 1))
def test_stencil_adjoint_identity(n, periodic, spacing, lead, trail, seed):
    # <D x, y> = <x, D^T y> along any axis of any array shape
    d = difference_matrix(n, spacing, periodic)
    axis = len(lead)
    shape = tuple(lead) + (n,) + tuple(trail)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    dx = apply_difference(d, x, axis)
    dty = apply_difference(d.T, y, axis)
    assert dx.shape == dty.shape == shape
    lhs, rhs = np.sum(dx * y), np.sum(x * dty)
    scale = np.sum(np.abs(dx * y)) + np.sum(np.abs(x * dty))
    assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize(
    "bad_spec",
    [
        SurfaceSpec("sphere", 3, 16),
        SurfaceSpec("sphere", 16, 16, radius=-1.0),
        SurfaceSpec("sphere", 16, 16, theta_cap=2.0),
        SurfaceSpec("torus", 16, 16, major_radius=0.5, minor_radius=0.5),
        SurfaceSpec("torus", 16, 16, major_radius=2.0, minor_radius=0.0),
        SurfaceSpec("cylinder", 16, 16, radius=0.0),
        SurfaceSpec("flat_patch", 16, 16, lx=0.0),
        SurfaceSpec("nonsense", 16, 16),
    ],
    ids=str,
)
def test_invalid_specs_rejected(bad_spec):
    with pytest.raises(SurfaceError):
        build_surface(bad_spec)


def test_frame_view_matches_arrays(small_torus):
    # the layered offset map agrees node by node with the frame arrays and the scalar-s map
    s = np.array([-1.0, 0.0, 0.5])
    layers = tubular_points(small_torus, 0.1, s)
    assert layers.shape == small_torus.shape + (3, 3)
    for k, sk in enumerate(s):
        assert np.array_equal(layers[:, :, k], tubular_points(small_torus, 0.1, sk))
    assert np.array_equal(layers[2, 3, 2], small_torus.points[2, 3] + 0.05 * small_torus.normal[2, 3])
    assert np.array_equal(layers[:, :, 1], small_torus.points)
    assert np.array_equal(small_torus.area_weight,
                          small_torus.du * small_torus.dv * small_torus.stretch_u * small_torus.stretch_v)
