import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.config import _KINDS
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
    surface_scalar_gradient,
)
from oracles import frame_images, kmatrix, right_cross_matrix


def test_right_cross_matrix_matches_cross_product(rng):
    sigma = rng.standard_normal((50, 3))
    w = rng.standard_normal((50, 3))
    applied = np.einsum("...ij,...j->...i", right_cross_matrix(sigma), w)
    assert np.max(np.abs(applied - np.cross(w, sigma))) < 1e-15


def test_bulk_column_example(small_torus):
    pert = BulkDMI(1.0)
    sigma = np.broadcast_to([0.0, 0.0, 1.0], small_torus.shape + (3,))
    k = kmatrix(small_torus, pert, sigma)[0, 0]
    # first column is K e_1 = e_1 x sigma
    assert np.allclose(k[:, 0], [0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(k[:, 1], [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(k[:, 2], [0.0, 0.0, 0.0], atol=1e-15)


def test_interfacial_annihilates_normal(small_torus, rng):
    pert = InterfacialDMI(0.9)
    sigma = rng.standard_normal(small_torus.shape + (3,))
    k = kmatrix(small_torus, pert, sigma)
    kn = np.einsum("...ij,...j->...i", k, small_torus.normal)
    assert np.max(np.abs(kn)) < 1e-14
    # the frame basis states K(e_j) n_N = kappa (n_j n - n_j n), which is exactly 0
    assert np.all(frame_sample(small_torus, pert)[2] == 0.0)


def test_interfacial_flat_patch_form(flat_patch, rng):
    kappa = 1.3
    pert = InterfacialDMI(kappa)
    sigma = rng.standard_normal(flat_patch.shape + (3,))
    k = kmatrix(flat_patch, pert, sigma)
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
    sigma = rng.standard_normal(small_torus.shape + (3,))
    kb = kmatrix(small_torus, bulk, sigma)
    ka = kmatrix(small_torus, aniso, sigma)
    assert np.array_equal(kb, ka)
    assert np.array_equal(frame_sample(small_torus, bulk), frame_sample(small_torus, aniso))


def test_zero_perturbation(small_torus, rng):
    pert = ZeroPerturbation()
    sigma = rng.standard_normal(small_torus.shape + (3,))
    assert np.all(kmatrix(small_torus, pert, sigma) == 0.0)
    assert np.all(frame_sample(small_torus, pert) == 0.0)


def test_temperature_with_constant_saturation_reduces_to_anisotropic(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=2.0), coupling)
    aniso = AnisotropicDMI(coupling)
    sigma = rng.standard_normal(small_torus.shape + (3,))
    kt = kmatrix(small_torus, temp, sigma)
    ka = kmatrix(small_torus, aniso, sigma)
    # gradient of a constant field vanishes exactly through the stencils
    assert np.array_equal(kt, ka)
    assert np.array_equal(frame_sample(small_torus, temp), frame_sample(small_torus, aniso))


def test_antisymmetry_of_coupled_cross_perturbations(small_torus, rng):
    coupling = rng.standard_normal((3, 3))
    for pert in (BulkDMI(1.1), AnisotropicDMI(coupling)):
        sigma = rng.standard_normal(small_torus.shape + (3,))
        w = rng.standard_normal(small_torus.shape + (3,))
        k = kmatrix(small_torus, pert, sigma)
        kw = np.einsum("...ij,...j->...i", k, w)
        assert np.max(np.abs(np.sum(kw * sigma, axis=-1))) < 1e-13


def test_matrix_linearity_in_argument(small_torus, rng):
    pert = InterfacialDMI(0.7)
    sigma = rng.standard_normal(small_torus.shape + (3,))
    k = kmatrix(small_torus, pert, sigma)
    w1 = rng.standard_normal(small_torus.shape + (3,))
    w2 = rng.standard_normal(small_torus.shape + (3,))
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
    s1 = rng.standard_normal(small_torus.shape + (3,))
    s2 = rng.standard_normal(small_torus.shape + (3,))
    k1, k2 = kmatrix(small_torus, pert, s1), kmatrix(small_torus, pert, s2)
    lhs = kmatrix(small_torus, pert, s1 + t * s2)
    scale = 1.0 + np.max(np.abs(k1)) + abs(t) * np.max(np.abs(k2))
    assert np.max(np.abs(lhs - (k1 + t * k2))) <= 1e-14 * scale


@pytest.mark.parametrize("surface", ["sphere_band", "small_torus", "flat_patch"])
@given(kind=st.sampled_from(sorted(_PERTURBATION_KINDS)), data=st.data())
def test_frame_basis_is_the_explicit_matrix_on_the_frame(request, surface, kind, data):
    # each kind's closed-form K(e_j) f_m against its explicit 3x3 K(e_j) applied to f_m
    grid = request.getfixturevalue(surface)
    pert = data.draw(_PERTURBATION_KINDS[kind])
    basis = frame_sample(grid, pert)
    assert basis.shape == (3,) + grid.shape + (3, 3)
    want = np.stack([frame_images(grid, kmatrix(grid, pert, np.broadcast_to(e, grid.normal.shape)))
                     for e in np.eye(3)], axis=-2)  # (n_u, n_v, m, j, i)
    want = np.moveaxis(want, -3, 0)
    # below the smallest normal float (a subnormal kappa) roundoff is absolute
    bound = 1e-14 * np.max(np.abs(want)) + np.finfo(float).tiny
    assert np.max(np.abs(basis - want)) <= bound


def tangential_images(pert, grid, sigma):
    """Columns K(xi, sigma) tau_1 and K(xi, sigma) tau_2 per node."""
    images = frame_images(grid, kmatrix(grid, pert, sigma))
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
        frame_sample(small_torus, temp)


_NOT_POSITIVE = [
    ScalarSurfaceField("constant", c0=0.0),
    ScalarSurfaceField("constant", c0=float("nan")),
    ScalarSurfaceField("constant", c0=float("inf")),
    ScalarSurfaceField("banded", c0=1e308, c1=1e308),  # overflows to inf off the equator
]


@pytest.mark.parametrize("field", _NOT_POSITIVE)
def test_surface_fields_must_be_finite_and_positive(sphere_band, field):
    # a RuntimeWarning from the overflow would fail here too, as the test suite makes it an error
    temp = TemperatureDMI(field, np.eye(3))
    with pytest.raises(PerturbationError, match="saturation magnetization must stay finite and positive"):
        frame_sample(sphere_band, temp)
    with pytest.raises(PerturbationError, match="elliptic tensor must stay finite and positive"):
        EllipticTensor("scalar_field", field).values_on(sphere_band)
