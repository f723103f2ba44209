from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.targets import EllipsoidTarget, SphereTarget, TargetError


def ellipsoid_surface_cloud(axes, n_theta=400, n_phi=800):
    theta = np.linspace(1e-4, np.pi - 1e-4, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    pts = np.stack(
        [
            axes[0] * np.sin(th) * np.cos(ph),
            axes[1] * np.sin(th) * np.sin(ph),
            axes[2] * np.cos(th),
        ],
        axis=-1,
    )
    return pts.reshape(-1, 3)


def brute_force_nearest(axes, y, levels=3):
    """Dense parametric sampling with local refinement around the argmin."""
    axes = np.asarray(axes, dtype=float)
    t_lo, t_hi, p_lo, p_hi = 1e-6, np.pi - 1e-6, 0.0, 2.0 * np.pi
    best = None
    for _ in range(levels):
        theta = np.linspace(t_lo, t_hi, 300)
        phi = np.linspace(p_lo, p_hi, 600)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        pts = np.stack(
            [
                axes[0] * np.sin(th) * np.cos(ph),
                axes[1] * np.sin(th) * np.sin(ph),
                axes[2] * np.cos(th),
            ],
            axis=-1,
        )
        dist = np.sum((pts - y) ** 2, axis=-1)
        k = np.unravel_index(np.argmin(dist), dist.shape)
        best = pts[k]
        dt, dp = theta[1] - theta[0], phi[1] - phi[0]
        t_lo, t_hi = max(1e-8, theta[k[0]] - 2 * dt), min(np.pi - 1e-8, theta[k[0]] + 2 * dt)
        p_lo, p_hi = phi[k[1]] - 2 * dp, phi[k[1]] + 2 * dp
    return best


def reference_projection(axes, y):
    """Nearest point on the ellipsoid for a point y inside it, off its medial set.

    Bisection at 50 significant digits on sum(a_i^2 y_i^2 / (x + c_i)^2) = 1,
    c = a^2 - min(a^2): the left side falls from infinity at x = 0 (y has a
    non-zero shortest-axis coordinate) to at most 1 at x = |a * y|.  200
    halvings pin x to 2^-200 of that bracket, far below double precision.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a2 = [Decimal(float(v)) ** 2 for v in axes]
        c = [v - min(a2) for v in a2]
        w = [a2[i] * Decimal(float(y[i])) ** 2 for i in range(3)]
        lo, hi = Decimal(0), sum(w).sqrt()
        for _ in range(200):
            mid = (lo + hi) / 2
            if sum(w[i] / (mid + c[i]) ** 2 for i in range(3)) > 1:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
        return np.array([float(a2[i] * Decimal(float(y[i])) / (x + c[i])) for i in range(3)])


def near_medial_points(rng, axes, n):
    """Points inside the ellipsoid whose shortest-axis coordinate is +-1e-10 to 1e-2."""
    v = rng.standard_normal((n, 3))
    v *= rng.uniform(0.0, 1.0, (n, 1)) ** (1 / 3) / np.linalg.norm(v, axis=1, keepdims=True)
    y = np.asarray(axes) * v
    y[:, np.argmin(axes)] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-10.0, -2.0, n)
    return y


def signed_distance(target, y):
    """+-|y - project(y)|, positive on the side the outward normal points to."""
    foot = target.project(y)
    offset = y - foot
    side = np.sign(np.sum(offset * target.normal(foot), axis=-1))
    return side * np.linalg.norm(offset, axis=-1)


def test_sphere_projection_examples():
    unit = SphereTarget(1.0)
    assert np.allclose(unit.project(np.array([0.0, 0.0, 2.0])), [0.0, 0.0, 1.0], atol=1e-15)
    two = SphereTarget(2.0)
    assert np.allclose(two.project(np.array([3.0, 0.0, 0.0])), [2.0, 0.0, 0.0], atol=1e-15)


def test_sphere_signed_distance_examples():
    unit = SphereTarget(1.0)
    assert signed_distance(unit, np.array([0.0, 0.0, 1.3])) == pytest.approx(0.3, abs=1e-15)
    assert signed_distance(unit, np.array([0.0, 0.0, 0.6])) == pytest.approx(-0.4, abs=1e-15)


def test_sphere_rejects_center():
    unit = SphereTarget(1.0)
    with pytest.raises(TargetError):
        unit.project(np.zeros(3))


def test_ellipsoid_axis_projection():
    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    assert np.allclose(ell.project(np.array([3.0, 0.0, 0.0])), [2.0, 0.0, 0.0], atol=1e-12)


def test_ellipsoid_projection_against_brute_force(rng):
    axes = [2.0, 1.0, 1.0]
    ell = EllipsoidTarget(axes)
    for _ in range(12):
        sigma0 = ell.project(rng.standard_normal(3))
        y = sigma0 + rng.uniform(-0.35, 0.35) * ell.normal(sigma0)
        got = ell.project(y)
        ref = brute_force_nearest(axes, y)
        assert np.linalg.norm(got - ref) < 2e-3
        assert abs(np.linalg.norm(y - got) - np.linalg.norm(y - ref)) < 1e-6
        # stationarity pins the answer far more tightly than the grid search
        resid = np.cross(y - got, ell.normal(got))
        assert np.linalg.norm(resid) < 1e-9


def test_ellipsoid_signed_distance_against_brute_force(rng):
    axes = [2.0, 1.0, 1.0]
    ell = EllipsoidTarget(axes)
    for _ in range(8):
        sigma0 = ell.project(rng.standard_normal(3))
        t = rng.uniform(-0.3, 0.3)
        y = sigma0 + t * ell.normal(sigma0)
        ref = brute_force_nearest(axes, y)
        expected = np.linalg.norm(y - ref) * np.sign(t) if t != 0 else 0.0
        assert signed_distance(ell, y) == pytest.approx(expected, abs=1e-6)


def test_normals():
    unit = SphereTarget(1.0)
    assert np.allclose(unit.normal(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0], atol=1e-15)
    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    assert np.allclose(ell.normal(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-15)


def test_ellipsoid_normal_matches_distance_gradient(rng):
    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    delta = 1e-6
    for _ in range(10):
        sigma = ell.project(rng.standard_normal(3))
        grad = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = delta
            grad[j] = (signed_distance(ell, sigma + e) - signed_distance(ell, sigma - e)) / (2 * delta)
        grad /= np.linalg.norm(grad)
        assert np.linalg.norm(grad - ell.normal(sigma)) < 1e-6


@pytest.mark.parametrize("target", [SphereTarget(1.0), EllipsoidTarget([2.0, 1.0, 1.0])],
                         ids=["sphere", "ellipsoid"])
def test_projection_stationarity_and_idempotence(target, rng):
    sigma = target.project(rng.standard_normal((1000, 3)))
    offsets = rng.uniform(-0.3, 0.3, size=(1000, 1)) * target.normal(sigma)
    y = sigma + offsets
    proj = target.project(y)
    residual = np.cross(y - proj, target.normal(proj))
    assert np.max(np.sqrt(np.sum(residual**2, axis=-1))) < 1e-9
    again = target.project(proj)
    assert np.max(np.abs(again - proj)) < 1e-12


def test_sphere_closed_form_agrees_with_newton_path(rng):
    sphere = SphereTarget(1.3)
    generic = EllipsoidTarget([1.3, 1.3, 1.3])
    y = rng.standard_normal((1000, 3))
    keep = np.linalg.norm(y, axis=-1) > 1e-2
    y = y[keep]
    assert np.max(np.abs(sphere.project(y) - generic.project(y))) < 1e-12
    assert np.max(np.abs(signed_distance(sphere, y) - signed_distance(generic, y))) < 1e-12


@pytest.mark.parametrize("target", [SphereTarget(1.0), EllipsoidTarget([2.0, 1.0, 1.0])],
                         ids=["sphere", "ellipsoid"])
def test_distance_along_normal_is_linear(target, rng):
    sigma = target.project(rng.standard_normal((200, 3)))
    t = rng.uniform(-0.4, 0.4, size=(200,)) * target.admissible_radius
    y = sigma + t[:, None] * target.normal(sigma)
    assert np.max(np.abs(signed_distance(target, y) - t)) < 1e-9


@pytest.mark.parametrize("target", [SphereTarget(1.0), EllipsoidTarget([2.0, 1.0, 1.0])],
                         ids=["sphere", "ellipsoid"])
def test_tangent_project_properties(target, rng):
    sigma = target.project(rng.standard_normal((500, 3)))
    n = target.normal(sigma)
    assert np.max(np.abs(np.sum(target.tangent_project(sigma, n) * n, axis=-1))) < 1e-12

    g = rng.standard_normal((500, 3))
    out = target.tangent_project(sigma, g)
    assert np.max(np.abs(np.sum(out * n, axis=-1))) < 1e-12
    # Pythagoras: |out|^2 = |g|^2 - (g.n)^2
    lhs = np.sum(out * out, axis=-1)
    rhs = np.sum(g * g, axis=-1) - np.sum(g * n, axis=-1) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # idempotence
    assert np.max(np.abs(target.tangent_project(sigma, out) - out)) < 1e-15

    tangent = target.tangent_project(sigma, g)
    assert np.max(np.abs(target.tangent_project(sigma, tangent) - tangent)) < 1e-15


def test_ellipsoid_batch_rows_match_single_points(rng):
    """Rows that converge at different passes leave the batch bit-identical."""
    ell = EllipsoidTarget([1.2, 1.0, 0.8])
    on = ell.project(rng.standard_normal((20, 3)))
    near = on + 0.3 * ell.normal(on)
    far = 10.0 * rng.standard_normal((20, 3))
    batch = rng.permutation(np.concatenate([on, near, far]))
    got = ell.project(batch)
    for i in range(len(batch)):
        assert np.array_equal(got[i], ell.project(batch[i:i + 1])[0])
        assert np.array_equal(got[i], ell.project(batch[i]))  # also checks the (3,) shape
    field = batch[:48].reshape(2, 3, 8, 3)
    assert np.array_equal(ell.project(field), got[:48].reshape(2, 3, 8, 3))


def test_ellipsoid_newton_starts_on_the_surface(rng):
    axes = [1.2, 1.0, 0.8]
    ell = EllipsoidTarget(axes)
    ell.max_iter = 2
    sigma = EllipsoidTarget(axes).project(rng.standard_normal((200, 3)))
    assert np.max(np.abs(ell.project(sigma) - sigma)) <= 1e-15
    with pytest.raises(TargetError, match="did not converge"):
        ell.project(10.0 * rng.standard_normal((20, 3)))


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _offset_point(axes, direction, tangent, normal_step, tangent_step):
    """A surface point moved along its normal and along a tangent, both within
    admissible_radius."""
    ell = EllipsoidTarget(axes)
    sigma0 = axes * _unit(direction)
    along = ell.tangent_project(sigma0, np.asarray(tangent, dtype=float))
    if np.linalg.norm(along) > 1e-3:
        along = _unit(along)
    depth = normal_step * ell.admissible_radius
    return sigma0 + depth * ell.normal(sigma0) + tangent_step * ell.admissible_radius * along


def test_ellipsoid_admissible_radius_stays_inside_the_reach(rng):
    # with min(a) / max(a) = 1/4 the reach min(a)^2 / max(a) = 0.125 is below
    # 0.5 min(a) = 0.25; every normal offset inside the radius projects to its foot
    axes = np.array([0.5, 2.0, 2.0])
    ell = EllipsoidTarget(axes)
    assert ell.admissible_radius < np.min(axes) ** 2 / np.max(axes)
    sigma = np.concatenate([[[0.0, 2.0, 0.0], [0.0, 0.0, -2.0]],
                            ell.project(rng.standard_normal((400, 3)))])
    normal = ell.normal(sigma)
    for t in np.linspace(-0.999, 0.999, 21) * ell.admissible_radius:
        assert np.max(np.abs(ell.project(sigma + t * normal) - sigma)) < 1e-9
    # the presets' axes keep their radius
    assert EllipsoidTarget([1.2, 1.0, 0.8]).admissible_radius == 0.4


_direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1)


@given(axes=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3), direction=_direction,
       tangent=_direction, normal_step=st.floats(-0.95, 0.95), tangent_step=st.floats(0.0, 0.95))
def test_ellipsoid_projection_properties(axes, direction, tangent, normal_step, tangent_step):
    axes = np.array(axes)
    ell = EllipsoidTarget(axes)
    y = _offset_point(axes, direction, tangent, normal_step, tangent_step)
    sigma = ell.project(y)
    # The solver stops at |g| < tol on its own rounding of g, which leaves a
    # point within max(a) * tol / 2 <= tol of the surface (a <= 2 here);
    # recomputing from sigma adds a few ulps.
    bound = ell.tol + 1e-15
    assert abs(np.sum((sigma / axes) ** 2) - 1.0) < bound
    assert np.linalg.norm(np.cross(y - sigma, ell.normal(sigma))) < 1e-9
    assert np.max(np.abs(ell.project(sigma) - sigma)) < bound

    round_axes = np.full(3, axes[0])
    y = _offset_point(round_axes, direction, tangent, normal_step, tangent_step)
    sphere = SphereTarget(axes[0])
    assert np.max(np.abs(EllipsoidTarget(round_axes).project(y) - sphere.project(y))) < bound


def test_ellipsoid_rejects_medial_axis():
    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    with pytest.raises(TargetError):
        ell.project(np.zeros(3))


def test_ellipsoid_projects_a_point_next_to_the_medial_plane():
    # 5.6e-9 from the plane of the shortest axis, inside the ellipsoid
    axes = np.array([1.2, 1.0, 0.8])
    y = np.array([-0.330219848, 0.00856945472, -5.59140527e-09])
    sigma = EllipsoidTarget(axes).project(y)
    assert np.linalg.norm(sigma - reference_projection(axes, y)) <= 1e-12


def _reference_error(axes, y):
    sigma = EllipsoidTarget(axes).project(y)
    ref = np.array([reference_projection(axes, p) for p in y])
    return np.max(np.linalg.norm(sigma - ref, axis=-1))


def test_ellipsoid_projection_near_the_medial_plane_against_reference(rng):
    preset = np.array([1.2, 1.0, 0.8])
    assert _reference_error(preset, near_medial_points(rng, preset, 200)) <= 1e-12
    for _ in range(20):
        axes = rng.uniform(0.3, 2.0, 3)
        err = _reference_error(axes, near_medial_points(rng, axes, 10))
        assert err <= np.max(axes) * EllipsoidTarget.tol


@given(axes=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1.0, 100.0))
def test_ellipsoid_projection_converges_near_the_medial_plane_and_far_out(axes, seed, scale):
    rng = np.random.default_rng(seed)
    y = np.concatenate([near_medial_points(rng, axes, 100), scale * rng.standard_normal((100, 3))])
    ell = EllipsoidTarget(axes)
    sigma = ell.project(y)
    assert np.max(np.abs(np.sum((sigma / ell.semi_axes) ** 2, axis=-1) - 1.0)) < ell.tol + 1e-15
