import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.config import _KINDS
from chiralfilm.descent import random_field
from chiralfilm.energies import (
    DirectorField,
    EnergyError,
    KFrame,
    LimitEnergy,
    ThinFilmEnergy,
    h1_distance,
    optimal_corrector,
    recovery_field,
    s_quadrature,
)
from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    IDENTITY_TENSOR,
    EllipticTensor,
    InterfacialDMI,
    ScalarSurfaceField,
    TemperatureDMI,
    ZeroPerturbation,
)
from chiralfilm.surfaces import SurfaceSpec, build_surface
from chiralfilm.targets import EllipsoidTarget, SphereTarget
from oracles import direct_tubular_energy, kmatrix, per_node_limit_breakdown, per_node_thin_breakdown

SPHERE = SphereTarget(1.0)
ELLIPSOID = EllipsoidTarget([2.0, 1.0, 1.0])
COUPLING = [[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]]


def band_integral_of_one_plus_nz2(theta_cap, n=200000):
    """High-resolution colatitude quadrature of (1 + (n.e3)^2) over the band."""
    theta = np.linspace(theta_cap, np.pi - theta_cap, n)
    mid = 0.5 * (theta[1:] + theta[:-1])
    return 2.0 * np.pi * np.sum((1.0 + np.cos(mid) ** 2) * np.sin(mid) * np.diff(theta))


def smooth_thin_field(grid, target, n_s, rng, scale=0.4):
    """Projection of a random affine-plus-linear-in-s ambient field."""
    s = np.linspace(-1.0, 1.0, n_s)
    for _ in range(50):
        mat = scale * rng.standard_normal((3, 3))
        shift = rng.standard_normal(3) * 0.3 + np.array([0.0, 0.0, 1.2])
        lin = scale * 0.5 * rng.standard_normal((3, 3))
        base = grid.points @ mat.T + shift
        wiggle = grid.points @ lin.T
        raw = base[:, :, None, :] + s[None, None, :, None] * wiggle[:, :, None, :]
        if np.min(np.linalg.norm(raw, axis=-1)) > 0.3:
            return DirectorField(target.project(raw), on_target=True)
    raise AssertionError("could not draw an admissible smooth field")


def test_breakdown_additivity_and_nonnegativity(small_torus, rng):
    pert = BulkDMI(1.0)
    f = random_field(small_torus, SPHERE, "surface", seed=1)
    bd = LimitEnergy(small_torus, SPHERE, pert).breakdown(f.values)[0]
    assert bd.total == bd.tangential + bd.normal_or_anisotropy
    assert bd.tangential >= 0 and bd.normal_or_anisotropy >= 0

    ft = random_field(small_torus, SPHERE, "thin", n_s=6, seed=2)
    bd = ThinFilmEnergy(small_torus, pert, 0.1, ft.n_s).breakdown(ft.values)[0]
    assert bd.total == bd.tangential + bd.normal_or_anisotropy
    assert bd.tangential >= 0 and bd.normal_or_anisotropy >= 0


def test_constant_field_zero_perturbation_gives_zero(small_torus):
    pert = ZeroPerturbation()
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), small_torus.shape + (3,)).copy()
    )
    assert LimitEnergy(small_torus, SPHERE, pert).breakdown(const.values)[0].total == 0.0
    thin = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), small_torus.shape + (6, 3)).copy()
    )
    assert ThinFilmEnergy(small_torus, pert, 0.1, thin.n_s).breakdown(thin.values)[0].total == 0.0


def test_flat_patch_s_constant_reduction(flat_patch, rng):
    # on a flat film with an s-constant field: thin tangential equals the
    # limit tangential, and the normal term is the plain quadrature of |K n|^2
    pert = BulkDMI(1.3)
    surf = random_field(flat_patch, SPHERE, "surface", seed=3)
    thin_values = np.repeat(surf.values[:, :, None, :], 8, axis=2)
    thin = DirectorField(thin_values)

    bd_thin = ThinFilmEnergy(flat_patch, pert, 0.2, thin.n_s).breakdown(thin.values)[0]
    bd_lim = LimitEnergy(flat_patch, SPHERE, pert).breakdown(surf.values)[0]
    assert bd_thin.tangential == pytest.approx(bd_lim.tangential, rel=1e-10)

    kmat = kmatrix(flat_patch, pert, surf.values)
    kn = np.einsum("...ij,...j->...i", kmat, flat_patch.normal)
    expected_normal = float(np.sum(flat_patch.area_weight * np.sum(kn * kn, axis=-1)))
    assert bd_thin.normal_or_anisotropy == pytest.approx(expected_normal, rel=1e-10)


def test_limit_energy_constant_field_band_oracle(sphere_band):
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), sphere_band.shape + (3,)).copy()
    )
    bd = LimitEnergy(sphere_band, SPHERE, BulkDMI(1.0)).breakdown(const.values)[0]
    oracle = band_integral_of_one_plus_nz2(0.15)
    assert abs(bd.tangential - oracle) / oracle < 1e-3
    assert bd.normal_or_anisotropy == 0.0


def test_thin_energy_constant_field_band_oracle(sphere_band):
    # s-constant field on the unit-sphere band: the metric factors reduce to
    # (1 + eps*s)^2/h^2-free expression whose s-quadrature is explicit
    eps, n_s = 0.1, 8
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), sphere_band.shape + (n_s, 3)).copy()
    )
    bd = ThinFilmEnergy(sphere_band, BulkDMI(1.0), eps, n_s).breakdown(const.values)[0]
    s, weights, _ = s_quadrature(n_s)
    s_factor = 0.5 * np.sum(weights * (1.0 + eps * s) ** 2)
    oracle = band_integral_of_one_plus_nz2(0.15) * s_factor
    assert abs(bd.tangential - oracle) / oracle < 1e-3


@pytest.mark.parametrize(
    "pert,target,vanishes",
    [
        (BulkDMI(1.0), SPHERE, True),
        (AnisotropicDMI(np.array([[1.0, 0.4, 0.0], [0.2, 0.9, 0.1], [0.0, 0.3, 1.1]])), SPHERE, True),
        (InterfacialDMI(1.0), SPHERE, True),
        (InterfacialDMI(1.0), ELLIPSOID, True),
        (BulkDMI(1.0), ELLIPSOID, False),
    ],
    ids=["bulk-sphere", "aniso-sphere", "interf-sphere", "interf-ellipsoid", "bulk-ellipsoid"],
)
def test_anisotropy_term_vanishing(small_torus, pert, target, vanishes, rng):
    f = random_field(small_torus, target, "surface", seed=11)
    bd = LimitEnergy(small_torus, target, pert).breakdown(f.values)[0]
    if vanishes:
        assert bd.normal_or_anisotropy <= 1e-14 * max(bd.total, 1.0)
    else:
        assert bd.normal_or_anisotropy > 1e-6


def test_temperature_anisotropy_vanishes_on_sphere_target(small_torus, rng):
    pert = TemperatureDMI(ScalarSurfaceField("affine", c0=1.5, c=(0.0, 0.0, 0.3)),
                          np.eye(3))
    f = random_field(small_torus, SPHERE, "surface", seed=12)
    bd = LimitEnergy(small_torus, SPHERE, pert).breakdown(f.values)[0]
    assert bd.normal_or_anisotropy <= 1e-14 * max(bd.total, 1.0)


def test_bulk_ellipsoid_anisotropy_matches_cross_product_density(small_torus):
    # independent assembly of the density kappa^2 ((n_M(u) x u) . n_N)^2
    kappa = 1.4
    pert = BulkDMI(kappa)
    f = random_field(small_torus, ELLIPSOID, "surface", seed=13)
    bd = LimitEnergy(small_torus, ELLIPSOID, pert).breakdown(f.values)[0]
    n_m = ELLIPSOID.normal(f.values)
    density = kappa**2 * np.sum(np.cross(n_m, f.values) * small_torus.normal, axis=-1) ** 2
    expected = float(np.sum(small_torus.area_weight * density))
    assert bd.normal_or_anisotropy == pytest.approx(expected, rel=1e-12)


def test_optimal_corrector_properties(small_torus, rng):
    pert = BulkDMI(1.2)
    f = random_field(small_torus, ELLIPSOID, "surface", seed=4)
    d0 = optimal_corrector(LimitEnergy(small_torus, ELLIPSOID, pert), f.values)

    n_m = ELLIPSOID.normal(f.values)
    assert np.max(np.abs(np.sum(d0 * n_m, axis=-1))) < 1e-12

    kn = np.einsum("...ij,...j->...i", kmatrix(small_torus, pert, f.values), small_torus.normal)
    plugged = np.sum((d0 + kn) ** 2, axis=-1)
    expected = np.sum(kn * n_m, axis=-1) ** 2
    assert np.max(np.abs(plugged - expected)) < 1e-12

    assert np.all(optimal_corrector(LimitEnergy(small_torus, ELLIPSOID, ZeroPerturbation()), f.values) == 0.0)

    d0_interf = optimal_corrector(LimitEnergy(small_torus, ELLIPSOID, InterfacialDMI(2.0)), f.values)
    assert np.max(np.abs(d0_interf)) < 1e-14


def test_optimal_corrector_against_tangent_grid_search(small_torus, rng):
    pert = BulkDMI(1.0)
    f = random_field(small_torus, ELLIPSOID, "surface", seed=5)
    d0 = optimal_corrector(LimitEnergy(small_torus, ELLIPSOID, pert), f.values)
    kn_all = np.einsum("...ij,...j->...i", kmatrix(small_torus, pert, f.values), small_torus.normal)

    for _ in range(20):
        i = int(rng.integers(0, small_torus.shape[0]))
        j = int(rng.integers(0, small_torus.shape[1]))
        sigma = f.values[i, j]
        kn = kn_all[i, j]
        n_m = ELLIPSOID.normal(sigma)
        # tangent-plane basis by Gram-Schmidt
        seeddir = np.array([1.0, 0.0, 0.0])
        if abs(n_m[0]) > 0.9:
            seeddir = np.array([0.0, 1.0, 0.0])
        t1 = seeddir - np.dot(seeddir, n_m) * n_m
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(n_m, t1)
        span = 2.0 * max(np.linalg.norm(kn), 1e-3)
        lo_a, hi_a, lo_b, hi_b = -span, span, -span, span
        best = None
        for _ in range(4):
            a = np.linspace(lo_a, hi_a, 41)
            b = np.linspace(lo_b, hi_b, 41)
            aa, bb = np.meshgrid(a, b, indexing="ij")
            d = aa[..., None] * t1 + bb[..., None] * t2
            obj = np.sum((d + kn) ** 2, axis=-1)
            k = np.unravel_index(np.argmin(obj), obj.shape)
            best = d[k]
            da, db = a[1] - a[0], b[1] - b[0]
            lo_a, hi_a = a[k[0]] - 2 * da, a[k[0]] + 2 * da
            lo_b, hi_b = b[k[1]] - 2 * db, b[k[1]] + 2 * db
        assert np.linalg.norm(best - d0[i, j]) < 1e-3
        assert np.sum((d0[i, j] + kn) ** 2) <= np.sum((best + kn) ** 2) + 1e-12


def test_recovery_field_properties(small_torus, rng):
    pert = BulkDMI(1.0)
    u0 = random_field(small_torus, SPHERE, "surface", seed=6)

    rec = recovery_field(small_torus, SPHERE, u0.values, np.zeros_like(u0.values), 0.1, 5)
    for k in range(5):
        assert np.array_equal(rec.values[:, :, k, :], u0.values)

    d0 = optimal_corrector(LimitEnergy(small_torus, SPHERE, pert), u0.values)
    rec = recovery_field(small_torus, SPHERE, u0.values, d0, 0.1, 5)
    # middle layer (s = 0) is an exact copy
    assert np.array_equal(rec.values[:, :, 2, :], u0.values)
    d0_max = np.max(np.linalg.norm(d0, axis=-1))
    moved = np.linalg.norm(rec.values - u0.values[:, :, None, :], axis=-1)
    assert np.max(moved) <= 0.1 * d0_max + 1e-12

    big = np.full_like(u0.values, 100.0)
    with pytest.raises(EnergyError):
        recovery_field(small_torus, SPHERE, u0.values, big, 0.1, 5)


def test_recovery_energy_decreases_with_eps(sphere_band):
    pert = BulkDMI(1.0)
    rng = np.random.default_rng(0)
    # generic smooth field: projected ambient affine map
    mat = 0.5 * rng.standard_normal((3, 3))
    raw = sphere_band.points @ mat.T + np.array([0.2, -0.1, 1.1])
    u0 = DirectorField(SPHERE.project(raw), on_target=True)
    d0 = optimal_corrector(LimitEnergy(sphere_band, SPHERE, pert), u0.values)
    e_lim = LimitEnergy(sphere_band, SPHERE, pert).breakdown(u0.values)[0].total
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        rec = recovery_field(sphere_band, SPHERE, u0.values, d0, eps, 8)
        gaps.append(ThinFilmEnergy(sphere_band, pert, eps, rec.n_s).breakdown(rec.values)[0].total - e_lim)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] > -1e-6


def test_h1_distance_properties(small_torus, rng):
    surf = random_field(small_torus, SPHERE, "surface", seed=9)
    same = DirectorField(np.repeat(surf.values[:, :, None, :], 6, axis=2))
    assert h1_distance(small_torus, same, surf) == 0.0

    shift = np.array([0.3, -0.1, 0.2])
    shifted = DirectorField(same.values + shift)
    area = float(np.sum(small_torus.area_weight))
    expected = np.sqrt(np.dot(shift, shift) * area * 2.0)
    assert h1_distance(small_torus, shifted, surf) == pytest.approx(expected, rel=1e-12)

    amp = 0.37
    direction = np.array([0.0, 1.0, 0.0])
    s, weights, _ = s_quadrature(6)
    wiggled = DirectorField(same.values + amp * s[None, None, :, None] * direction)
    # |diff|^2 integrates amp^2 s^2; d_s(diff) = amp exactly for linear data
    expected_sq = amp**2 * area * (np.sum(weights * s**2) + 2.0)
    assert h1_distance(small_torus, wiggled, surf) == pytest.approx(np.sqrt(expected_sq), rel=1e-12)


def test_limit_general_reductions(small_torus, rng):
    pert = BulkDMI(0.9)
    f = random_field(small_torus, ELLIPSOID, "surface", seed=10)
    plain = LimitEnergy(small_torus, ELLIPSOID, pert).breakdown(f.values)[0]
    ident = LimitEnergy(small_torus, ELLIPSOID, pert,
                        tensor=EllipticTensor("identity")).breakdown(f.values)[0]
    assert plain.tangential == ident.tangential
    assert plain.normal_or_anisotropy == ident.normal_or_anisotropy

    const1 = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=1.0))
    near = LimitEnergy(small_torus, ELLIPSOID, pert, tensor=const1).breakdown(f.values)[0]
    assert near.total == pytest.approx(plain.total, rel=1e-12)

    # a scalar tensor cancels from the anisotropy quotient, so a non-constant
    # one leaves that term exactly at its identity-tensor value
    affine = EllipticTensor("scalar_field", ScalarSurfaceField("affine", c0=1.5, c=(0.2, -0.1, 0.3)))
    varied = LimitEnergy(small_torus, ELLIPSOID, pert, tensor=affine).breakdown(f.values)[0]
    assert varied.normal_or_anisotropy == ident.normal_or_anisotropy
    assert varied.tangential != ident.tangential


def test_limit_general_doubling_scales_dirichlet(small_torus):
    f = random_field(small_torus, SPHERE, "surface", seed=14)
    two = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=2.0))
    plain = LimitEnergy(small_torus, SPHERE, ZeroPerturbation()).breakdown(f.values)[0]
    doubled = LimitEnergy(small_torus, SPHERE, ZeroPerturbation(), tensor=two).breakdown(f.values)[0]
    assert doubled.tangential == pytest.approx(4.0 * plain.tangential, rel=1e-12)
    assert doubled.normal_or_anisotropy == 0.0


def test_temperature_constant_saturation_scaling(small_torus, rng):
    # temperature preset with constant saturation c:
    # tangential |c du + K tau|^2 = c^2 |du + (K/c) tau|^2, and the anisotropy
    # ratio is invariant under scalar tensors, so the whole breakdown matches
    # the c^2-scaled anisotropic energy with coupling J/c
    c = 1.7
    coupling = rng.standard_normal((3, 3))
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=c), coupling)
    tensor = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=c))
    aniso = AnisotropicDMI(coupling / c)

    f = random_field(small_torus, ELLIPSOID, "surface", seed=15)
    lhs = LimitEnergy(small_torus, ELLIPSOID, temp, tensor=tensor).breakdown(f.values)[0]
    rhs = LimitEnergy(small_torus, ELLIPSOID, aniso).breakdown(f.values)[0]
    assert lhs.tangential == pytest.approx(c**2 * rhs.tangential, rel=1e-10)
    assert lhs.normal_or_anisotropy == pytest.approx(c**2 * rhs.normal_or_anisotropy, rel=1e-10)


def assert_gradient_matches_finite_differences(model, values, rng, points):
    """Central differences (step 1e-5) at `points` random nodes, all three components."""
    grad = model.breakdown_and_gradient(values)[1]
    step = 1e-5
    for _ in range(points):
        idx = tuple(int(rng.integers(0, s)) for s in values.shape[:-1])
        for comp in range(3):
            plus = values.copy()
            plus[idx + (comp,)] += step
            minus = values.copy()
            minus[idx + (comp,)] -= step
            fd = (model.breakdown(plus)[0].total - model.breakdown(minus)[0].total) / (2 * step)
            ga = grad[idx + (comp,)]
            assert abs(ga - fd) <= 1e-6 * max(abs(ga), abs(fd), 1.0)


@pytest.mark.parametrize("layout", ["surface", "thin"])
def test_gradient_matches_finite_differences(small_torus, layout, rng):
    tensor = EllipticTensor("scalar_field", ScalarSurfaceField("banded", c0=1.2, c1=0.2))
    saturation = ScalarSurfaceField("affine", c0=1.5, c=(0.1, -0.2, 0.3))
    for pert in (InterfacialDMI(1.1), TemperatureDMI(saturation, COUPLING)):
        if layout == "surface":
            f = random_field(small_torus, ELLIPSOID, "surface", seed=16)
            model = LimitEnergy(small_torus, ELLIPSOID, pert, tensor=tensor)
        else:
            f = random_field(small_torus, ELLIPSOID, "thin", n_s=6, seed=16)
            model = ThinFilmEnergy(small_torus, pert, 0.1, 6, tensor=tensor)
        assert_gradient_matches_finite_differences(model, f.values, rng, points=10)


coupling = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
                    min_size=3, max_size=3)
# the affine saturation c0 + c.x with c0 >= 1 and |c_i| <= this bound stays
# positive on every default surface (R = 2.5 at the torus's outer equator)
SATURATION_SLOPE = 0.2
SURFACE_KINDS = ["sphere", "torus", "cylinder", "flat_patch"]
GRID_SIZES = range(4, 11)  # n_u and n_v the gradient property draws
perturbations = st.one_of(
    st.just(ZeroPerturbation()),
    st.floats(-2.0, 2.0).map(BulkDMI),
    st.floats(-2.0, 2.0).map(InterfacialDMI),
    coupling.map(AnisotropicDMI),
    st.builds(lambda c0, c, m: TemperatureDMI(ScalarSurfaceField("affine", c0=c0, c=c), m),
              st.floats(1.0, 2.0),
              st.tuples(*[st.floats(-SATURATION_SLOPE, SATURATION_SLOPE)] * 3),
              coupling),
)
tensors = st.one_of(
    st.just(IDENTITY_TENSOR),
    st.builds(lambda c0, c1: EllipticTensor("scalar_field", ScalarSurfaceField("banded", c0=c0, c1=c1)),
              st.floats(0.5, 2.0), st.floats(0.0, 0.5)),
)


def test_perturbation_strategy_keeps_saturation_positive():
    # the strategy's worst corners: c0 = 1 and c_i = +-bound in every sign pattern
    for kind in SURFACE_KINDS:
        for n_u in GRID_SIZES:
            for n_v in GRID_SIZES:
                grid = build_surface(SurfaceSpec(kind, n_u, n_v))
                for signs in np.ndindex(2, 2, 2):
                    c = tuple(SATURATION_SLOPE * (2 * np.array(signs) - 1))
                    pert = TemperatureDMI(ScalarSurfaceField("affine", c0=1.0, c=c), COUPLING)
                    assert np.min(pert.saturation.evaluate(grid.points)) > 0.0


@pytest.mark.parametrize("layout", ["surface", "thin"])
@given(kind=st.sampled_from(SURFACE_KINDS),
       n_u=st.integers(GRID_SIZES[0], GRID_SIZES[-1]),
       n_v=st.integers(GRID_SIZES[0], GRID_SIZES[-1]), n_s=st.integers(4, 6),
       target=st.sampled_from([SPHERE, ELLIPSOID]), pert=perturbations, tensor=tensors,
       seed=st.integers(0, 2**16))
def test_gradient_matches_finite_differences_property(layout, kind, n_u, n_v, n_s, target,
                                                      pert, tensor, seed):
    # every surface kind and perturbation, on grids small enough for many examples
    grid = build_surface(SurfaceSpec(kind, n_u, n_v))
    if layout == "surface":
        f = random_field(grid, target, "surface", seed=seed)
        model = LimitEnergy(grid, target, pert, tensor=tensor)
    else:
        f = random_field(grid, target, "thin", n_s=n_s, seed=seed)
        model = ThinFilmEnergy(grid, pert, 0.5 * grid.budget.eps_max, n_s, tensor=tensor)
    assert_gradient_matches_finite_differences(model, f.values, np.random.default_rng(seed),
                                               points=5)


def test_gradient_constant_field_zero_perturbation(small_torus):
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), small_torus.shape + (3,)).copy()
    )
    grad = LimitEnergy(small_torus, SPHERE, ZeroPerturbation()).breakdown_and_gradient(const.values)[1]
    assert np.max(np.abs(grad)) < 1e-14


def test_gradient_directional_derivative_quadratic(small_torus, rng):
    # ellipsoid target keeps the anisotropy term genuinely nonlinear
    pert = BulkDMI(1.0)
    f = random_field(small_torus, ELLIPSOID, "surface", seed=17)
    model = LimitEnergy(small_torus, ELLIPSOID, pert)
    grad = model.breakdown_and_gradient(f.values)[1]
    delta = rng.standard_normal(f.values.shape)
    predicted = float(np.sum(grad * delta))
    errors = []
    for t in (1e-3, 5e-4, 2.5e-4):
        e_plus = model.breakdown(f.values + t * delta)[0].total
        e_minus = model.breakdown(f.values - t * delta)[0].total
        errors.append(abs((e_plus - e_minus) / (2 * t) - predicted))
    # central differences converge at second order in the step
    assert errors[0] / errors[2] > 8.0


def test_general_gradient_at_identity_matches_plain(small_torus):
    pert = BulkDMI(1.0)
    f = random_field(small_torus, SPHERE, "surface", seed=18)
    g_plain = LimitEnergy(small_torus, SPHERE, pert).breakdown_and_gradient(f.values)[1]
    ident = LimitEnergy(small_torus, SPHERE, pert, tensor=EllipticTensor("identity"))
    g_ident = ident.breakdown_and_gradient(f.values)[1]
    assert np.array_equal(g_plain, g_ident)


def test_gradient_reuses_only_a_forward_pass_of_identical_values(small_torus):
    temperature = TemperatureDMI(ScalarSurfaceField("affine", c0=1.5, c=(0.0, 0.0, 0.3)), COUPLING)
    tensor = EllipticTensor("scalar_field", ScalarSurfaceField("banded", c0=1.2, c1=0.2))
    for pert, tens in ((BulkDMI(1.0), IDENTITY_TENSOR), (temperature, tensor)):
        for layout in ("surface", "thin"):
            def fresh():
                if layout == "surface":
                    return LimitEnergy(small_torus, ELLIPSOID, pert, tensor=tens)
                return ThinFilmEnergy(small_torus, pert, 0.1, 6, tensor=tens)

            v = random_field(small_torus, ELLIPSOID, layout, n_s=6, seed=23).values
            w = random_field(small_torus, ELLIPSOID, layout, n_s=6, seed=24).values
            want_bd, want_g = fresh().breakdown_and_gradient(v)
            model = fresh()
            bd, state = model.breakdown(v)
            assert bd == want_bd
            # the gradient from the forward state of v is the fresh one, bit for bit
            bd, g = model.breakdown_and_gradient(v, state)
            assert bd == want_bd and g.tobytes() == want_g.tobytes()
            # without a state the forward pass runs again, to the same bits
            bd, g = model.breakdown_and_gradient(v)
            assert bd == want_bd and g.tobytes() == want_g.tobytes()
            # the model keeps no state of its own: a forward pass of v leaves the
            # gradient at w untouched
            model.breakdown(v)
            bd, g = model.breakdown_and_gradient(w)
            want_bd, want_g = fresh().breakdown_and_gradient(w)
            assert bd == want_bd and g.tobytes() == want_g.tobytes()


SATURATION = ScalarSurfaceField("affine", 1.5, (0.0, 0.0, 0.3))
# one perturbation per kind of the config's perturbation table
PERTURBATION_PER_KIND = {
    "zero": ZeroPerturbation(),
    "bulk_dmi": BulkDMI(1.3),
    "interfacial_dmi": InterfacialDMI(0.9),
    "anisotropic_dmi": AnisotropicDMI(COUPLING),
    "temperature": TemperatureDMI(SATURATION, COUPLING),
}


@pytest.mark.parametrize("layout", ["surface", "thin"])
def test_precomputed_basis_matches_per_iterate_k(small_torus, layout):
    # every config perturbation kind through the stored frame basis and through
    # an assembly that evaluates K at each node's value
    assert set(PERTURBATION_PER_KIND) == set(_KINDS["perturbation"])
    tensor = EllipticTensor("scalar_field", SATURATION)
    f = random_field(small_torus, ELLIPSOID, layout, n_s=6, seed=22)
    for kind, pert in PERTURBATION_PER_KIND.items():
        if layout == "surface":
            got = LimitEnergy(small_torus, ELLIPSOID, pert, tensor=tensor).breakdown(f.values)[0]
            want = per_node_limit_breakdown(small_torus, ELLIPSOID, pert, tensor, f.values)
        else:
            got = ThinFilmEnergy(small_torus, pert, 0.1, 6, tensor=tensor).breakdown(f.values)[0]
            want = per_node_thin_breakdown(small_torus, pert, 0.1, tensor, f.values)
        assert got.tangential == pytest.approx(want.tangential, rel=1e-12), kind
        assert got.normal_or_anisotropy == pytest.approx(want.normal_or_anisotropy, rel=1e-12), kind


@pytest.mark.parametrize("layout", ["surface", "thin"])
def test_couplings_match_a_per_node_contraction(small_torus, layout, rng):
    # block m of couplings(y) is the u-gradient of y[m] . K(u) f_m, so its
    # component j is y[m] . K(e_j) f_m, with K(e_j) from kmatrix at each node
    assert set(PERTURBATION_PER_KIND) == set(_KINDS["perturbation"])
    layers = (slice(None), slice(None)) + ((None,) if layout == "thin" else ())
    shape = small_torus.shape + ((6,) if layout == "thin" else ()) + (3,)
    y = rng.standard_normal((3,) + shape)
    for kind, pert in PERTURBATION_PER_KIND.items():
        frame = (small_torus.tau1, small_torus.tau2, small_torus.normal)
        want = np.empty_like(y)
        for j, e in enumerate(np.eye(3)):
            k_j = kmatrix(small_torus, pert, np.broadcast_to(e, small_torus.normal.shape))
            for m, f_m in enumerate(frame):
                want[m, ..., j] = np.einsum("...i,...ik,...k->...", y[m], k_j[layers], f_m[layers])
        got = KFrame(small_torus, pert).couplings(y)
        assert got.shape == y.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want))), kind


@pytest.mark.parametrize("layout", ["surface", "thin"])
@given(kind=st.sampled_from(sorted(PERTURBATION_PER_KIND)), target=st.sampled_from([SPHERE, ELLIPSOID]),
       tensor=st.sampled_from([IDENTITY_TENSOR, EllipticTensor("scalar_field", SATURATION)]),
       seed=st.integers(0, 2**16))
def test_gradient_from_the_forward_state_is_the_fresh_gradient(small_torus, layout, kind, target,
                                                               tensor, seed):
    pert = PERTURBATION_PER_KIND[kind]
    v = random_field(small_torus, target, layout, n_s=6, seed=seed).values
    if layout == "surface":
        model = LimitEnergy(small_torus, target, pert, tensor=tensor)
    else:
        model = ThinFilmEnergy(small_torus, pert, 0.1, 6, tensor=tensor)
    bd, g = model.breakdown_and_gradient(v, model.breakdown(v)[1])
    want_bd, want_g = model.breakdown_and_gradient(v)
    assert bd == want_bd and g.tobytes() == want_g.tobytes()


@pytest.mark.parametrize("surface_kind", ["sphere", "torus"])
def test_pullback_matches_direct_quadrature(surface_kind, rng):
    if surface_kind == "sphere":
        grid = build_surface(SurfaceSpec("sphere", 48, 48, radius=1.0, theta_cap=0.15))
    else:
        grid = build_surface(SurfaceSpec("torus", 48, 48, major_radius=2.0, minor_radius=0.5))
    pert = BulkDMI(1.0)
    eps = 0.1
    for _ in range(5):
        f = smooth_thin_field(grid, SPHERE, 8, rng)
        e_pull = ThinFilmEnergy(grid, pert, eps, f.n_s).breakdown(f.values)[0].total
        e_direct = direct_tubular_energy(grid, pert, eps, f)
        assert abs(e_pull - e_direct) / max(e_pull, 1.0) < 5e-3


def test_layout_and_shape_validation(small_torus):
    surf = random_field(small_torus, SPHERE, "surface", seed=21)
    thin = random_field(small_torus, SPHERE, "thin", n_s=6, seed=21)
    # the layout is the array's rank
    assert (surf.layout, thin.layout, thin.n_s) == ("surface", "thin", 6)
    with pytest.raises(EnergyError):
        surf.n_s
    with pytest.raises(EnergyError):
        ThinFilmEnergy(small_torus, BulkDMI(1.0), 0.1, 6).breakdown(surf.values)
    with pytest.raises(EnergyError):
        LimitEnergy(small_torus, SPHERE, BulkDMI(1.0)).breakdown(thin.values)
    with pytest.raises(EnergyError):
        LimitEnergy(small_torus, SPHERE, BulkDMI(1.0)).breakdown_and_gradient(thin.values)
    wrong = DirectorField(np.zeros((4, 4, 3)))
    with pytest.raises(EnergyError):
        LimitEnergy(small_torus, SPHERE, BulkDMI(1.0)).breakdown(wrong.values)
    for shape in ((4, 4), (4, 4, 2), (4, 4, 6, 2), (4, 4, 6, 2, 3)):
        with pytest.raises(EnergyError):
            DirectorField(np.zeros(shape))
    with pytest.raises(EnergyError):
        DirectorField(np.zeros((4, 4, 3, 3)))  # n_s < 4
    with pytest.raises(EnergyError):
        s_quadrature(3)


def test_director_field_projection_on_construction(small_torus, rng):
    raw = rng.standard_normal(small_torus.shape + (3,)) + np.array([0.0, 0.0, 2.0])
    f = DirectorField(SPHERE.project(raw), on_target=True)
    assert np.max(np.abs(np.linalg.norm(f.values, axis=-1) - 1.0)) < 1e-9
    t = DirectorField(SPHERE.project(rng.standard_normal(small_torus.shape + (5, 3)) + 2.0),
                      on_target=True)
    assert t.n_s == 5
    assert np.max(np.abs(np.linalg.norm(t.values, axis=-1) - 1.0)) < 1e-9
