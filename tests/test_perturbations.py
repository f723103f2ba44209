import numpy as np
import pytest

from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    CustomPerturbation,
    EllipticTensor,
    InterfacialDMI,
    PerturbationError,
    ScalarSurfaceField,
    TemperatureDMI,
    ZeroPerturbation,
    estimate_bound,
    frame_sample,
    right_cross_matrix,
    surface_scalar_gradient,
)
from chiralfilm.targets import EllipsoidTarget, SphereTarget


def sample_ctx(grid, pert, rng, count=100):
    ii = rng.integers(0, grid.shape[0], size=count)
    jj = rng.integers(0, grid.shape[1], size=count)
    return frame_sample(grid, pert, index=(ii, jj))


def test_right_cross_matrix_matches_cross_product(rng):
    sigma = rng.standard_normal((50, 3))
    w = rng.standard_normal((50, 3))
    applied = np.einsum("...ij,...j->...i", right_cross_matrix(sigma), w)
    assert np.max(np.abs(applied - np.cross(w, sigma))) < 1e-15


def test_bulk_column_example(small_torus):
    pert = BulkDMI(1.0)
    ctx = frame_sample(small_torus, pert, index=(np.array([0]), np.array([0])))
    sigma = np.array([[0.0, 0.0, 1.0]])
    k = pert.kmatrix(ctx, sigma)[0]
    # first column is K e_1 = e_1 x sigma
    assert np.allclose(k[:, 0], [0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(k[:, 1], [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(k[:, 2], [0.0, 0.0, 0.0], atol=1e-15)


def test_interfacial_annihilates_normal(small_torus, rng):
    pert = InterfacialDMI(0.9)
    ctx = sample_ctx(small_torus, pert, rng, 500)
    sigma = rng.standard_normal((500, 3))
    k = pert.kmatrix(ctx, sigma)
    kn = np.einsum("...ij,...j->...i", k, ctx.normal)
    assert np.max(np.abs(kn)) < 1e-14


def test_interfacial_flat_patch_form(flat_patch, rng):
    kappa = 1.3
    pert = InterfacialDMI(kappa)
    ctx = frame_sample(flat_patch, pert)
    sigma = rng.standard_normal(flat_patch.shape + (3,))
    k = pert.kmatrix(ctx, sigma)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        applied = np.einsum("...ij,j->...i", k, e)
        expected = kappa * (sigma[..., 2:3] * e - sigma[..., i : i + 1] * np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(applied - expected)) < 1e-14


def test_anisotropic_with_identity_equals_bulk(small_torus, rng):
    kappa = 1.7
    bulk = BulkDMI(kappa)
    aniso = AnisotropicDMI(kappa * np.eye(3))
    ctx = sample_ctx(small_torus, bulk, rng)
    sigma = rng.standard_normal((100, 3))
    kb = bulk.kmatrix(ctx, sigma)
    ka = aniso.kmatrix(ctx, sigma)
    assert np.array_equal(kb, ka)


def test_zero_perturbation(small_torus, rng):
    pert = ZeroPerturbation()
    ctx = sample_ctx(small_torus, pert, rng, 10)
    sigma = rng.standard_normal((10, 3))
    assert np.all(pert.kmatrix(ctx, sigma) == 0.0)


def test_temperature_with_constant_saturation_reduces_to_anisotropic(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=2.0), coupling)
    aniso = AnisotropicDMI(coupling)
    ctx_t = frame_sample(small_torus, temp)
    ctx_a = frame_sample(small_torus, aniso)
    sigma = rng.standard_normal(small_torus.shape + (3,))
    kt = temp.kmatrix(ctx_t, sigma)
    ka = aniso.kmatrix(ctx_a, sigma)
    # gradient of a constant field vanishes exactly through the stencils
    assert np.array_equal(kt, ka)


def test_antisymmetry_of_coupled_cross_perturbations(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    for pert in (BulkDMI(1.1), AnisotropicDMI(coupling)):
        ctx = sample_ctx(small_torus, pert, rng, 200)
        sigma = rng.standard_normal((200, 3))
        w = rng.standard_normal((200, 3))
        k = pert.kmatrix(ctx, sigma)
        kw = np.einsum("...ij,...j->...i", k, w)
        assert np.max(np.abs(np.sum(kw * sigma, axis=-1))) < 1e-13


def test_matrix_linearity_in_argument(small_torus, rng):
    pert = InterfacialDMI(0.7)
    ctx = sample_ctx(small_torus, pert, rng, 50)
    sigma = rng.standard_normal((50, 3))
    k = pert.kmatrix(ctx, sigma)
    w1 = rng.standard_normal((50, 3))
    w2 = rng.standard_normal((50, 3))
    alpha = 1.375
    lhs = np.einsum("...ij,...j->...i", k, alpha * w1 + w2)
    rhs = alpha * np.einsum("...ij,...j->...i", k, w1) + np.einsum("...ij,...j->...i", k, w2)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_linear_presets_are_linear_in_sigma(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    saturation = ScalarSurfaceField("affine", c0=2.0, c=(0.1, -0.05, 0.2))
    for pert in (BulkDMI(0.8), InterfacialDMI(1.2), AnisotropicDMI(coupling),
                 TemperatureDMI(saturation, coupling)):
        ctx = frame_sample(small_torus, pert)
        s1 = rng.standard_normal(small_torus.shape + (3,))
        s2 = rng.standard_normal(small_torus.shape + (3,))
        lhs = pert.kmatrix(ctx, 2.0 * s1 + s2)
        rhs = 2.0 * pert.kmatrix(ctx, s1) + pert.kmatrix(ctx, s2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        # the derivative path reuses the evaluator
        d = pert.kmatrix_dsigma(ctx, s1, s2)
        assert np.array_equal(d, pert.kmatrix(ctx, s2))


def test_tangential_images(sphere_band, flat_patch, rng):
    from chiralfilm.perturbations import tangential_images

    # |K tau_i| = kappa for unit sigma orthogonal to tau_i: take sigma = n_N
    kappa = 1.4
    kt1, kt2 = tangential_images(BulkDMI(kappa), sphere_band, sphere_band.normal.copy())
    assert np.max(np.abs(np.linalg.norm(kt1, axis=-1) - kappa)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(kt2, axis=-1) - kappa)) < 1e-12

    # interfacial on the flat patch: K e_i = kappa (m3 e_i - m_i e3)
    sigma = rng.standard_normal(flat_patch.shape + (3,))
    kt1, kt2 = tangential_images(InterfacialDMI(kappa), flat_patch, sigma)
    exp1 = kappa * (sigma[..., 2:3] * np.array([1.0, 0.0, 0.0])
                    - sigma[..., 0:1] * np.array([0.0, 0.0, 1.0]))
    exp2 = kappa * (sigma[..., 2:3] * np.array([0.0, 1.0, 0.0])
                    - sigma[..., 1:2] * np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(kt1 - exp1)) < 1e-14
    assert np.max(np.abs(kt2 - exp2)) < 1e-14

    kt1, kt2 = tangential_images(ZeroPerturbation(), flat_patch, sigma)
    assert np.all(kt1 == 0.0) and np.all(kt2 == 0.0)


def test_scalar_surface_field_catalogue(flat_patch):
    pts = flat_patch.points
    const = ScalarSurfaceField("constant", c0=3.5)
    assert np.all(const.evaluate(pts) == 3.5)
    affine = ScalarSurfaceField("affine", c0=1.0, c=(2.0, -1.0, 0.0))
    assert np.max(np.abs(affine.evaluate(pts) - (1.0 + 2.0 * pts[..., 0] - pts[..., 1]))) < 1e-15
    banded = ScalarSurfaceField("banded", c0=1.0, c1=0.5)
    assert np.max(np.abs(banded.evaluate(pts) - 1.0)) < 1e-15  # x3 = 0 on the patch
    with pytest.raises(PerturbationError):
        ScalarSurfaceField("mystery").evaluate(pts)


def test_surface_scalar_gradient_is_tangent_projection(sphere_band):
    c = np.array([0.3, -0.2, 0.5])
    field = ScalarSurfaceField("affine", c0=1.0, c=tuple(c))
    grad = surface_scalar_gradient(sphere_band, field.evaluate(sphere_band.points))
    normal_dot = np.sum(grad * sphere_band.normal, axis=-1)
    assert np.max(np.abs(normal_dot)) < 1e-12
    expected = c - np.sum(c * sphere_band.normal, axis=-1, keepdims=True) * sphere_band.normal
    assert np.max(np.abs(grad - expected)) < 2e-3


def test_elliptic_tensor(flat_patch):
    ident = EllipticTensor("identity")
    assert np.all(ident.values_on(flat_patch) == 1.0)
    const2 = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=2.0))
    assert np.all(const2.values_on(flat_patch) == 2.0)
    assert const2.bounds_on(flat_patch) == (2.0, 2.0)
    bad = EllipticTensor("scalar_field", ScalarSurfaceField("affine", c0=-0.5, c=(1.0, 0.0, 0.0)))
    with pytest.raises(PerturbationError):
        bad.values_on(flat_patch)
    with pytest.raises(PerturbationError):
        EllipticTensor("scalar_field")


def test_elliptic_tensor_affine_on_sphere(sphere_band):
    tensor = EllipticTensor("scalar_field", ScalarSurfaceField("affine", c0=1.0, c=(0.0, 0.0, 0.1)))
    values = tensor.values_on(sphere_band)
    expected = 1.0 + 0.1 * sphere_band.points[..., 2]
    assert np.max(np.abs(values - expected)) < 1e-15
    lo, hi = tensor.bounds_on(sphere_band)
    assert lo == values.min() and hi == values.max() and lo > 0


def test_estimate_bound_values(small_torus):
    sphere = SphereTarget(1.0)
    assert estimate_bound(ZeroPerturbation(), small_torus, sphere) == 0.0
    # |K|_F = kappa*sqrt(2)|sigma| for the cross-product matrix, and the
    # difference quotient equals the same constant, so the estimate is exact
    bound = estimate_bound(BulkDMI(1.0), small_torus, sphere)
    assert bound == pytest.approx(1.1 * np.sqrt(2.0), rel=1e-9)
    with pytest.raises(PerturbationError):
        estimate_bound(BulkDMI(1.0), small_torus, sphere, samples=10)


def test_estimate_bound_scales_linearly(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    b1 = estimate_bound(AnisotropicDMI(coupling), small_torus, ell, seed=5)
    b2 = estimate_bound(AnisotropicDMI(2.0 * coupling), small_torus, ell, seed=5)
    assert b2 == pytest.approx(2.0 * b1, rel=1e-12)


def test_custom_perturbation_validation(small_torus, rng):
    ctx = sample_ctx(small_torus, CustomPerturbation(lambda c, s: None), rng, 4)
    sigma = rng.standard_normal((4, 3))

    bad_shape = CustomPerturbation(lambda c, s: np.zeros((4, 2, 3)))
    with pytest.raises(PerturbationError):
        bad_shape.kmatrix(ctx, sigma)

    nonfinite = CustomPerturbation(lambda c, s: np.full(s.shape + (3,), np.nan))
    with pytest.raises(PerturbationError):
        nonfinite.kmatrix(ctx, sigma)


def test_temperature_requires_positive_saturation(small_torus):
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=-1.0), np.eye(3))
    with pytest.raises(PerturbationError):
        temp.ms_values(small_torus)
