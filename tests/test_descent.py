import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chiralfilm.descent import (
    MEMORY,
    SIGMA,
    H1Preconditioner,
    MinimizeOptions,
    NumericalFailure,
    PairMemory,
    _varying_axis,
    minimize,
    random_field,
)
from chiralfilm.energies import (
    DirectorField,
    EnergyBreakdown,
    LimitEnergy,
    ThinFilmEnergy,
    s_quadrature,
)
from chiralfilm.perturbations import BulkDMI, ZeroPerturbation
from chiralfilm.surfaces import SurfaceSpec, apply_difference, build_surface
from chiralfilm.targets import EllipsoidTarget, SphereTarget
from oracles import two_loop

SPHERE = SphereTarget(1.0)


def test_dirichlet_on_free_patch_relaxes_to_constants(flat_patch):
    model = LimitEnergy(flat_patch, SPHERE, ZeroPerturbation())
    init = random_field(flat_patch, SPHERE, "surface", seed=3)
    opts = MinimizeOptions(max_iterations=4000, grad_tol=1e-10)
    field, report = minimize(model, SPHERE, init, opts)
    assert report.energy.tangential < 1e-8
    # iterates stayed on the constraint manifold
    assert np.max(np.abs(np.linalg.norm(field.values, axis=-1) - 1.0)) < 1e-9
    # stationarity at convergence: projected gradient below the tolerance
    assert report.termination == "gradient_tolerance"
    assert report.grad_norm <= 1e-10 * max(1.0, report.energy.total)


def test_constant_init_is_already_stationary(flat_patch):
    model = LimitEnergy(flat_patch, SPHERE, ZeroPerturbation())
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), flat_patch.shape + (3,)).copy()
    )
    field, report = minimize(model, SPHERE, const, MinimizeOptions())
    assert report.iterations == 0
    assert report.termination == "gradient_tolerance"
    assert report.energy.total == 0.0
    # a cap of zero iterations still checks the start
    _, capped = minimize(model, SPHERE, const, MinimizeOptions(max_iterations=0))
    assert capped.termination == "gradient_tolerance"


def test_convergence_on_the_last_allowed_iteration_is_reported():
    grid = build_surface(SurfaceSpec("sphere", 16, 16))
    model = LimitEnergy(grid, SPHERE, BulkDMI(1.0))
    init = random_field(grid, SPHERE, "surface", seed=3)
    _, free = minimize(model, SPHERE, init, MinimizeOptions(grad_tol=1e-6))
    assert free.termination == "gradient_tolerance" and free.iterations > 0
    capped_opts = MinimizeOptions(max_iterations=free.iterations, grad_tol=1e-6)
    _, capped = minimize(model, SPHERE, init, capped_opts)
    assert capped.iterations == free.iterations
    assert capped.grad_norm == free.grad_norm
    assert capped.termination == "gradient_tolerance"
    one_short = MinimizeOptions(max_iterations=free.iterations - 1, grad_tol=1e-6)
    assert minimize(model, SPHERE, init, one_short)[1].termination == "max_iterations"


def test_helix_is_near_stationary_for_matched_chirality():
    # periodic patch, kappa = 2*pi, helix m = (0, sin(kx), cos(kx)):
    # the first helical derivative cancels exactly, so the energy reduces to
    # the transverse term and descent must not increase it
    n = 32
    grid = build_surface(
        SurfaceSpec("flat_patch", n, n, lx=1.0, ly=1.0, periodic_u=True, periodic_v=True)
    )
    kappa = 2.0 * np.pi
    x = grid.points[..., 0]
    helix = np.stack([np.zeros_like(x), np.sin(kappa * x), np.cos(kappa * x)], axis=-1)
    init = DirectorField(helix)

    model = LimitEnergy(grid, SPHERE, BulkDMI(kappa))
    start = model.breakdown(init.values)[0]
    # energy is dominated by the transverse residual kappa^2 |e2 x m|^2,
    # whose chart quadrature is kappa^2 * mean(cos^2) = kappa^2 / 2
    residual = kappa**2 * 0.5
    assert start.total == pytest.approx(residual, rel=2e-2)

    field, report = minimize(model, SPHERE, init, MinimizeOptions(max_iterations=200))
    assert report.energy.total <= start.total + 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(report.energy_trace, report.energy_trace[1:]))


def test_minimize_thin_monotone_and_constrained(small_torus):
    model = ThinFilmEnergy(small_torus, BulkDMI(1.0), 0.1, 6)
    init = random_field(small_torus, SPHERE, "thin", n_s=6, seed=5)
    field, report = minimize(model, SPHERE, init, MinimizeOptions(max_iterations=300))
    trace = report.energy_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert np.max(np.abs(np.linalg.norm(field.values, axis=-1) - 1.0)) < 1e-9
    assert report.grad_norm == report.grad_trace[-1]


def test_minimize_layout_mismatch(small_torus):
    model = ThinFilmEnergy(small_torus, BulkDMI(1.0), 0.1, 6)
    surf = random_field(small_torus, SPHERE, "surface", seed=1)
    with pytest.raises(ValueError):
        minimize(model, SPHERE, surf, MinimizeOptions())


def test_minimize_determinism(small_torus):
    model = LimitEnergy(small_torus, SPHERE, BulkDMI(1.0))
    opts = MinimizeOptions(max_iterations=150)
    runs = []
    for _ in range(2):
        init = random_field(small_torus, SPHERE, "surface", seed=9)
        field, report = minimize(model, SPHERE, init, opts)
        runs.append((field.values.copy(), tuple(report.energy_trace)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_nan_energy_aborts():
    class BadModel:
        layout = "surface"

        def breakdown(self, values):
            return EnergyBreakdown.of(float("nan"), 0.0), None

        def breakdown_and_gradient(self, values, state=None):
            return self.breakdown(values)[0], np.zeros_like(values)

    grid = build_surface(SurfaceSpec("flat_patch", 8, 8))
    init = random_field(grid, SPHERE, "surface", seed=0)
    with pytest.raises(NumericalFailure):
        minimize(BadModel(), SPHERE, init, MinimizeOptions())


def test_options_validation():
    for grad_tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            MinimizeOptions(grad_tol=grad_tol)
    with pytest.raises(ValueError):
        MinimizeOptions(max_iterations=-1)


def test_random_field_reproducible_and_on_manifold(small_torus):
    a = random_field(small_torus, SPHERE, "surface", seed=7)
    b = random_field(small_torus, SPHERE, "surface", seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.max(np.abs(np.linalg.norm(a.values, axis=-1) - 1.0)) < 1e-9

    c = random_field(small_torus, SPHERE, "surface", seed=8)
    differs = np.any(a.values != c.values, axis=-1)
    assert np.mean(differs) > 0.99

    ell = EllipsoidTarget([2.0, 1.0, 1.0])
    d = random_field(small_torus, ell, "thin", n_s=5, seed=11)
    constraint = np.sum((d.values / ell.semi_axes) ** 2, axis=-1)
    assert np.max(np.abs(constraint - 1.0)) < 1e-9


def test_random_field_propagates_errors_other_than_target_error():
    class BrokenTarget(SphereTarget):
        def project(self, y):
            raise ZeroDivisionError("bug in a custom projection")

    grid = build_surface(SurfaceSpec("flat_patch", 4, 4))
    with pytest.raises(ZeroDivisionError, match="bug in a custom projection"):
        random_field(grid, BrokenTarget(1.0), "surface", seed=0)


def test_random_field_needs_ns_for_thin(small_torus):
    with pytest.raises(ValueError):
        random_field(small_torus, SPHERE, "thin")
    with pytest.raises(ValueError):
        random_field(small_torus, SPHERE, "volume")


def test_minimize_reports_its_evaluation_counts(small_torus):
    model = ThinFilmEnergy(small_torus, BulkDMI(1.0), 0.1, 6)
    init = random_field(small_torus, SPHERE, "thin", n_s=6, seed=5)
    _, report = minimize(model, SPHERE, init, MinimizeOptions(max_iterations=30))
    assert report.iterations > 0
    assert report.gradient_evaluations == report.iterations + 1
    assert report.trials >= report.iterations
    # one solve in the two-loop recursion, one for the scaling of each stored
    # pair, and one more for each fallback to the preconditioned gradient
    assert report.iterations <= report.preconditioner_solves <= 3 * report.iterations
    summary = report.as_dict()
    for key in ("iterations", "termination", "trials", "gradient_evaluations",
                "preconditioner_solves"):
        assert summary[key] == getattr(report, key)


def test_flagged_start_is_not_projected_again(small_torus):
    projections = []

    class CountingSphere(SphereTarget):
        def project(self, y):
            projections.append(np.shape(y))
            return super().project(y)

    target = CountingSphere(1.0)
    model = LimitEnergy(small_torus, target, BulkDMI(1.0))
    start = random_field(small_torus, SPHERE, "surface", seed=2)
    assert start.on_target
    no_steps = MinimizeOptions(max_iterations=0)
    field, _ = minimize(model, target, start, no_steps)
    assert projections == []
    assert field.on_target and field.values is start.values
    unflagged = DirectorField(start.values)
    minimize(model, target, unflagged, no_steps)
    assert projections == [start.values.shape]
    # a field is flagged only when its maker says so, at either rank
    assert DirectorField(SPHERE.project(start.values), on_target=True).on_target
    assert not DirectorField(start.values).on_target
    thin = np.repeat(start.values[:, :, None, :], 4, axis=2)
    assert DirectorField(thin, on_target=True).on_target and not DirectorField(thin).on_target


def apply_h1_model(grid, x, eps=None, n_s=None):
    """The preconditioner's operator, applied through the stencils and their adjoints."""
    w = grid.area_weight
    scale = 2.0
    if eps is not None:
        _, ws, diff_s = s_quadrature(n_s)
        w = w[..., None] * ws
        scale = 1.0
    w = w[..., None]
    out = SIGMA * w * x
    for i in (0, 1):
        out += grid.tangential_derivative_adjoint(w * grid.tangential_derivative(x, i), i)
    if eps is not None:
        out += apply_difference(diff_s.T, w * apply_difference(diff_s, x, 2), 2) / eps**2
    return scale * out


@st.composite
def preconditioner_cases(draw):
    kind = draw(st.sampled_from(("sphere", "torus", "cylinder", "flat_patch")))
    n_u, n_v = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    extra = {}
    if kind == "flat_patch":
        extra = dict(periodic_u=draw(st.booleans()), periodic_v=draw(st.booleans()),
                     lx=draw(st.floats(0.5, 2.0)), ly=draw(st.floats(0.5, 2.0)))
    grid = build_surface(SurfaceSpec(kind, n_u, n_v, **extra))
    eps = n_s = None
    if draw(st.booleans()):
        eps = draw(st.floats(0.05, 1.0)) * grid.budget.eps_max
        n_s = draw(st.integers(4, 8))
    return grid, eps, n_s, draw(st.integers(0, 2**32 - 1))


@given(preconditioner_cases())
def test_preconditioner_is_spd_and_solve_inverts_it(case):
    grid, eps, n_s, seed = case
    rng = np.random.default_rng(seed)
    shape = grid.shape + ((n_s,) if n_s else ()) + (3,)
    x, y = rng.standard_normal(shape), rng.standard_normal(shape)
    px, py = apply_h1_model(grid, x, eps, n_s), apply_h1_model(grid, y, eps, n_s)
    xpx, ypy = np.vdot(x, px), np.vdot(y, py)
    assert xpx > 0 and ypy > 0
    assert abs(np.vdot(y, px) - np.vdot(x, py)) <= 1e-12 * np.sqrt(xpx * ypy)
    solved = H1Preconditioner(grid, eps=eps, n_s=n_s).solve(px)
    assert solved.shape == shape
    assert np.linalg.norm(solved - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("case", ["sphere-limit", "sphere-thin", "torus-thin"])
def test_preconditioner_inverts_at_product_scale(case, sphere_band):
    # the 64^2 preset band in both forms, and a torus whose varying axis is periodic
    if case.startswith("sphere"):
        grid = sphere_band
    else:
        grid = build_surface(SurfaceSpec("torus", 48, 32, major_radius=2.0, minor_radius=0.5))
        assert (grid.periodic_u, grid.periodic_v)[_varying_axis(grid)]
    eps, n_s = (0.025, 8) if case.endswith("thin") else (None, None)
    x = np.random.default_rng(5).standard_normal(grid.shape + ((n_s,) if n_s else ()) + (3,))
    solved = H1Preconditioner(grid, eps=eps, n_s=n_s).solve(apply_h1_model(grid, x, eps, n_s))
    assert np.linalg.norm(solved - x) <= 1e-10 * np.linalg.norm(x)


def test_preconditioner_needs_one_constant_axis(small_torus):
    bumped = small_torus.area_weight.copy()
    bumped[3, 5] *= 1.01  # now varies along both chart axes
    with pytest.raises(ValueError, match="constant along one chart axis"):
        H1Preconditioner(dataclasses.replace(small_torus, area_weight=bumped))


@st.composite
def pair_sequences(draw):
    """A field shape of either rank, up to 12 pairs with s . y > 0, and where to clear."""
    shape = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    if draw(st.booleans()):
        shape += (draw(st.integers(4, 6)),)
    appends = draw(st.integers(0, 12))
    clear_at = draw(st.none() | st.integers(0, appends))
    return shape + (3,), appends, clear_at, draw(st.floats(0.1, 10.0)), draw(st.integers(0, 2**32 - 1))


@given(pair_sequences())
def test_stacked_pairs_match_the_per_pair_two_loop(case):
    shape, appends, clear_at, gamma, seed = case
    rng = np.random.default_rng(seed)
    # a positive diagonal Hessian model keeps s . y > 0 and the pairs well conditioned
    curvature = rng.uniform(0.5, 2.0, shape)
    precond = rng.uniform(0.5, 2.0, shape)

    def solve(v):
        return v / precond

    memory, kept = PairMemory(int(np.prod(shape))), []
    for k in range(appends + 1):
        g = rng.standard_normal(shape)
        want = two_loop(g, kept, gamma, solve)
        got = memory.apply(g, gamma, solve)
        assert got.shape == shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        if k == clear_at:
            memory.clear()
            kept.clear()
        if k < appends:
            s = rng.standard_normal(shape)
            y = (curvature + rng.uniform(-0.4, 0.4, shape)) * s
            memory.append(s, y)
            kept = (kept + [(s, y, 1.0 / np.vdot(s, y))])[-MEMORY:]
