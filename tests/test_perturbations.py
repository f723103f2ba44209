import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.config import _KINDS
from chiralfilm.energies import frame_images
from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    EllipticTensor,
    InterfacialDMI,
    PerturbationError,
    ScalarSurfaceField,
    TemperatureDMI,
    ZeroPerturbation,
    frame_sample,
    right_cross_matrix,
    surface_scalar_gradient,
)


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


_coupling = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                    min_size=3, max_size=3)
# One strategy per kind of the config's perturbation table.
_PERTURBATION_KINDS = {
    "zero": st.just(ZeroPerturbation()),
    "bulk_dmi": st.floats(-2.0, 2.0).map(BulkDMI),
    "interfacial_dmi": st.floats(-2.0, 2.0).map(InterfacialDMI),
    "anisotropic_dmi": _coupling.map(AnisotropicDMI),
    # c0 + c . x stays positive on the test torus, whose points have |x_1| + |x_2| + |x_3| < 3.7
    "temperature": st.builds(
        lambda c0, c, m: TemperatureDMI(ScalarSurfaceField("affine", c0=c0, c=c), m),
        st.floats(1.0, 2.0), st.tuples(*[st.floats(-0.2, 0.2)] * 3), _coupling),
}


@given(kind=st.sampled_from(sorted(_KINDS["perturbation"])), t=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**16), data=st.data())
def test_every_kind_is_linear_in_sigma(small_torus, kind, t, seed, data):
    # K(s1 + t s2) = K(s1) + t K(s2), which the frame basis of the energies
    # relies on; a kind without a strategy above fails with a KeyError
    pert = data.draw(_PERTURBATION_KINDS[kind])
    rng = np.random.default_rng(seed)
    ctx = frame_sample(small_torus, pert)
    s1 = rng.standard_normal(small_torus.shape + (3,))
    s2 = rng.standard_normal(small_torus.shape + (3,))
    k1, k2 = pert.kmatrix(ctx, s1), pert.kmatrix(ctx, s2)
    lhs = pert.kmatrix(ctx, s1 + t * s2)
    scale = 1.0 + np.max(np.abs(k1)) + abs(t) * np.max(np.abs(k2))
    assert np.max(np.abs(lhs - (k1 + t * k2))) <= 1e-14 * scale


def tangential_images(pert, grid, sigma):
    """Columns K(xi, sigma) tau_1 and K(xi, sigma) tau_2 per node."""
    ctx = frame_sample(grid, pert)
    images = frame_images(pert.kmatrix(ctx, sigma), ctx)
    return images[..., 0, :], images[..., 1, :]


def test_tangential_images(sphere_band, flat_patch, rng):
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


def test_temperature_requires_positive_saturation(small_torus):
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=-1.0), np.eye(3))
    with pytest.raises(PerturbationError):
        temp.ms_values(small_torus)
