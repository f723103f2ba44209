"""Acceptance suite: one test per shipped verification criterion.

Each test prints a PASS line with the measured numbers (run with -s to see
them on success).  Criterion 7 drives the four shipped preset sweeps at full
desk scale and is the slow part; criterion 9 reruns one preset through the
CLI and compares report bytes.
"""

import json

import numpy as np
import pytest

from chiralfilm.cli import main as cli_main
from chiralfilm.config import build_objects, preset_config
from chiralfilm.descent import random_field
from chiralfilm.energies import (
    DirectorField,
    LimitEnergy,
    ThinFilmEnergy,
)
from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    EllipticTensor,
    InterfacialDMI,
    ScalarSurfaceField,
    TemperatureDMI,
)
from chiralfilm.surfaces import SurfaceSpec, build_surface
from chiralfilm.sweep import check_vanishing_identity, planar_interfacial_crosscheck, run_sweep
from chiralfilm.targets import EllipsoidTarget, SphereTarget
from oracles import chart_normal, chart_point, direct_tubular_energy, metric_volume_factor

PRESET_NAMES = ("bulk", "interfacial", "anisotropic", "temperature")
_SWEEP_CACHE = {}


def preset_sweep(name):
    if name not in _SWEEP_CACHE:
        report, _ = run_sweep(build_objects(preset_config(name)))
        _SWEEP_CACHE[name] = report
    return _SWEEP_CACHE[name]


def smooth_thin_field(grid, target, n_s, rng, scale=0.4):
    s = np.linspace(-1.0, 1.0, n_s)
    for _ in range(100):
        mat = scale * rng.standard_normal((3, 3))
        shift = rng.standard_normal(3) * 0.3 + np.array([0.0, 0.0, 1.2])
        lin = 0.5 * scale * rng.standard_normal((3, 3))
        base = grid.points @ mat.T + shift
        wiggle = grid.points @ lin.T
        raw = base[:, :, None, :] + s[None, None, :, None] * wiggle[:, :, None, :]
        if np.min(np.linalg.norm(raw, axis=-1)) > 0.3:
            return DirectorField(target.project(raw), on_target=True), (mat, shift, lin)
    raise AssertionError("could not draw an admissible smooth field")


def resample_thin_field(grid, target, n_s, params):
    mat, shift, lin = params
    s = np.linspace(-1.0, 1.0, n_s)
    base = grid.points @ mat.T + shift
    wiggle = grid.points @ lin.T
    raw = base[:, :, None, :] + s[None, None, :, None] * wiggle[:, :, None, :]
    return DirectorField(target.project(raw), on_target=True)


def band_oracle_one_plus_nz2(theta_cap, n=400000):
    theta = np.linspace(theta_cap, np.pi - theta_cap, n)
    mid = 0.5 * (theta[1:] + theta[:-1])
    return 2.0 * np.pi * np.sum((1.0 + np.cos(mid) ** 2) * np.sin(mid) * np.diff(theta))


def test_criterion_1_pullback_equivalence():
    """Pull-back energy equals the direct volume quadrature, order >= 1.8."""
    target = SphereTarget(1.0)
    pert = BulkDMI(1.0)
    eps = 0.1
    rng = np.random.default_rng(101)
    worst = 0.0
    orders = []
    for kind in ("sphere", "torus"):
        def make(n):
            if kind == "sphere":
                return build_surface(SurfaceSpec("sphere", n, n, radius=1.0, theta_cap=0.15))
            return build_surface(SurfaceSpec("torus", n, n, major_radius=2.0, minor_radius=0.5))

        coarse = make(64)
        fine = make(128)
        for trial in range(20):
            field, params = smooth_thin_field(coarse, target, 8, rng)
            e_pull = ThinFilmEnergy(coarse, pert, eps, field.n_s).breakdown(field.values)[0].total
            e_direct = direct_tubular_energy(coarse, pert, eps, field)
            disc = abs(e_pull - e_direct) / max(e_pull, 1.0)
            worst = max(worst, disc)
            assert disc <= 5e-3
            if trial < 6:
                refined = resample_thin_field(fine, target, 16, params)
                e_pull_f = ThinFilmEnergy(fine, pert, eps, refined.n_s).breakdown(refined.values)[0].total
                e_direct_f = direct_tubular_energy(fine, pert, eps, refined)
                disc_f = abs(e_pull_f - e_direct_f) / max(e_pull_f, 1.0)
                orders.append(np.log2(disc / disc_f))
    min_order = min(orders)
    assert min_order >= 1.8
    print(f"ACCEPTANCE 1 pull-back equivalence: PASS "
          f"(max rel discrepancy {worst:.2e} <= 5e-3, min observed order {min_order:.2f} >= 1.8)")


def test_criterion_2_jacobian_identity():
    """Volume factor matches the finite-difference Jacobian determinant."""
    specs = [
        SurfaceSpec("sphere", 32, 32, radius=1.0, theta_cap=0.15),
        SurfaceSpec("torus", 32, 32, major_radius=2.0, minor_radius=0.5),
        SurfaceSpec("cylinder", 32, 32, radius=0.8, height=2.0),
        SurfaceSpec("flat_patch", 16, 16),
    ]
    rng = np.random.default_rng(2)
    worst = 0.0
    for spec in specs:
        grid = build_surface(spec)
        for _ in range(100):
            i = int(rng.integers(0, grid.shape[0]))
            j = int(rng.integers(0, grid.shape[1]))
            eps = float(rng.uniform(0.2, 1.0)) * grid.budget.eps_max
            s = float(rng.uniform(-1.0, 1.0))
            delta = 1e-6
            cu, cv = grid.u[i], grid.v[j]

            def phi(a, b):
                return chart_point(grid, a, b) + eps * s * chart_normal(grid, a, b)

            col_u = (phi(cu + delta, cv) - phi(cu - delta, cv)) / (2 * delta) / grid.stretch_u[i, j]
            col_v = (phi(cu, cv + delta) - phi(cu, cv - delta)) / (2 * delta) / grid.stretch_v[i, j]
            col_s = eps * chart_normal(grid, cu, cv)
            det = float(np.linalg.det(np.stack([col_u, col_v, col_s], axis=-1))) / eps
            expected = metric_volume_factor(grid.kappa1[i, j], grid.kappa2[i, j], eps, s)
            rel = abs(det - expected) / abs(expected)
            worst = max(worst, rel)
            assert rel <= 1e-5
    print(f"ACCEPTANCE 2 metric-factor Jacobian identity: PASS (max rel error {worst:.2e} <= 1e-5)")


def test_criterion_3_gradient_correctness():
    """Analytic gradients of all three forms match central finite differences."""
    rng = np.random.default_rng(3)
    surfaces = {
        "sphere": build_surface(SurfaceSpec("sphere", 24, 24, radius=1.0, theta_cap=0.15)),
        "torus": build_surface(SurfaceSpec("torus", 24, 24, major_radius=2.0, minor_radius=0.5)),
    }
    targets = {"sphere": SphereTarget(1.0), "ellipsoid": EllipsoidTarget([2.0, 1.0, 1.0])}
    coupling = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]])
    saturation = ScalarSurfaceField("affine", c0=1.5, c=(0.0, 0.0, 0.3))
    perts = {
        "bulk": BulkDMI(1.0),
        "interfacial": InterfacialDMI(1.0),
        "anisotropic": AnisotropicDMI(coupling),
        "temperature": TemperatureDMI(saturation, coupling),
    }
    tensor = EllipticTensor("scalar_field", saturation)
    step = 1e-5
    n_s = 6
    worst = 0.0
    combos = 0
    for grid in surfaces.values():
        for target in targets.values():
            for pert in perts.values():
                surf = random_field(grid, target, "surface", seed=31 + combos)
                thin = random_field(grid, target, "thin", n_s=n_s, seed=32 + combos)
                models = [
                    (LimitEnergy(grid, target, pert), surf.values),
                    (LimitEnergy(grid, target, pert, tensor=tensor), surf.values),
                    (ThinFilmEnergy(grid, pert, 0.1, n_s), thin.values),
                ]
                combos += 1
                for model, values in models:
                    grad = model.breakdown_and_gradient(values)[1]
                    checks = 0
                    while checks < 50:
                        idx = tuple(int(rng.integers(0, n)) for n in values.shape[:-1])
                        comp = int(rng.integers(0, 3))
                        plus = values.copy()
                        plus[idx + (comp,)] += step
                        minus = values.copy()
                        minus[idx + (comp,)] -= step
                        fd = (model.breakdown(plus)[0].total - model.breakdown(minus)[0].total) / (2 * step)
                        ga = grad[idx + (comp,)]
                        rel = abs(ga - fd) / max(abs(ga), abs(fd), 1.0)
                        worst = max(worst, rel)
                        assert rel <= 1e-6
                        checks += 1
    print(f"ACCEPTANCE 3 gradient correctness: PASS "
          f"({combos} preset/surface/target combos x 3 forms x 50 nodes, max rel {worst:.2e} <= 1e-6)")


def test_criterion_4_vanishing_identities():
    """Shape-anisotropy density vanishes exactly where predicted."""
    grid = build_surface(SurfaceSpec("sphere", 24, 24, radius=1.0, theta_cap=0.15))
    torus = build_surface(SurfaceSpec("torus", 24, 24, major_radius=2.0, minor_radius=0.5))
    sphere = SphereTarget(1.0)
    ellipsoid = EllipsoidTarget([2.0, 1.0, 1.0])
    coupling = np.array([[1.0, 0.4, -0.2], [0.3, 0.8, 0.1], [0.0, 0.2, 1.1]])
    cases = [
        ("bulk vs sphere target", grid, BulkDMI(1.0), sphere, True),
        ("anisotropic vs sphere target", grid, AnisotropicDMI(coupling), sphere, True),
        ("interfacial vs sphere target", grid, InterfacialDMI(1.0), sphere, True),
        ("interfacial vs ellipsoid target", torus, InterfacialDMI(1.0), ellipsoid, True),
        ("temperature vs sphere target", grid,
         TemperatureDMI(ScalarSurfaceField("affine", c0=1.5, c=(0.0, 0.0, 0.3)), coupling),
         sphere, True),
        ("bulk vs ellipsoid target", grid, BulkDMI(1.0), ellipsoid, False),
    ]
    lines = []
    for label, g, pert, target, vanish in cases:
        residual, scale = check_vanishing_identity(g, target, pert, samples=1000, seed=4)
        if vanish:
            assert residual <= 1e-14 * scale
            lines.append(f"{label}: {residual:.2e} <= 1e-14*{scale:.2f}")
        else:
            assert residual > 1e-6
            lines.append(f"{label}: strictly positive ({residual:.3f})")
    print("ACCEPTANCE 4 vanishing identities: PASS (" + "; ".join(lines) + ")")


def test_criterion_5_analytic_band_value():
    """Constant-field energy matches the colatitude-quadrature oracle."""
    grid = build_surface(SurfaceSpec("sphere", 128, 128, radius=1.0, theta_cap=0.15))
    const = DirectorField(
        np.broadcast_to(np.array([0.0, 0.0, 1.0]), grid.shape + (3,)).copy()
    )
    bd = LimitEnergy(grid, SphereTarget(1.0), BulkDMI(1.0)).breakdown(const.values)[0]
    oracle = band_oracle_one_plus_nz2(0.15)
    rel = abs(bd.total - oracle) / oracle
    assert rel <= 1e-3
    # the same oracle extrapolated to the full sphere reproduces 16*pi/3
    full = band_oracle_one_plus_nz2(1e-9)
    assert abs(full - 16.0 * np.pi / 3.0) / (16.0 * np.pi / 3.0) < 1e-9
    print(f"ACCEPTANCE 5 analytic value check: PASS "
          f"(band energy {bd.total:.6f} vs oracle {oracle:.6f}, rel {rel:.2e} <= 1e-3; "
          f"full-sphere oracle -> 16*pi/3 = {16 * np.pi / 3:.4f})")


def test_criterion_6_planar_interfacial_crosscheck():
    """Interfacial limit energy equals its expanded planar form."""
    grid = build_surface(SurfaceSpec("flat_patch", 48, 48))
    worst = planar_interfacial_crosscheck(grid, kappa=1.0, fields=20, seed=6)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 6 planar interfacial cross-check: PASS (max rel discrepancy {worst:.2e} <= 1e-10)")


@pytest.mark.slow
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_7_gamma_sweep(name):
    """Film-thickness sweep trends for every shipped preset."""
    report = preset_sweep(name)
    flags = report.flags
    gaps = [e.gap for e in report.entries]
    assert flags["all_eps_succeeded"], [e.failure for e in report.entries]
    assert flags["gaps_non_increasing"], gaps
    assert flags["gap_ratio_ok"], gaps
    assert flags["recovery_non_increasing"], [e.recovery_energy for e in report.entries]
    assert flags["s_share_decreasing"], [e.s_share for e in report.entries]
    assert flags["h1_non_increasing"], [e.h1_to_limit for e in report.entries]
    print(f"ACCEPTANCE 7 sweep [{name}]: PASS "
          f"(gaps {', '.join(f'{g:.3e}' for g in gaps)}; smallest/largest = {gaps[-1] / gaps[0]:.3%} <= 20%)")


@pytest.mark.slow
@pytest.mark.parametrize("name", ("bulk", "temperature"))
def test_gamma_sweep_with_shape_anisotropy(name):
    """Criterion 7's trends where the limit carries the shape-anisotropy term.

    The presets' sphere target makes (K(u) n_N . n_M(u))^2 vanish for every
    preset; an ellipsoid target keeps it, and it reaches the sweep through the
    n_N rows of the frame basis (images[2], couplings[2]).
    """
    cfg = preset_config(name)
    cfg["surface"].update(n_u=32, n_v=32)
    cfg["target"] = {"kind": "ellipsoid", "semi_axes": [1.2, 1.0, 0.8]}
    report, _ = run_sweep(build_objects(cfg))
    flags = report.flags
    gaps = [e.gap for e in report.entries]
    for flag in ("all_eps_succeeded", "gaps_non_increasing", "gap_ratio_ok",
                 "recovery_non_increasing", "s_share_decreasing", "h1_non_increasing",
                 "all_converged"):
        assert flags[flag], (flag, gaps)
    # the term is no roundoff residue: it dwarfs the smallest gap
    anisotropy = report.limit_energy["normal_or_anisotropy"]
    assert anisotropy >= 10.0 * min(gaps), (anisotropy, gaps)
    print(f"ACCEPTANCE 7 sweep [{name}, ellipsoid target]: PASS "
          f"(gaps {', '.join(f'{g:.3e}' for g in gaps)}; anisotropy {anisotropy:.3e} "
          f"= {anisotropy / min(gaps):.0f} x smallest gap)")


@pytest.mark.slow
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_minimizations_reach_gradient_tolerance(name):
    """Every limit restart and every thickness of the preset converges (cached sweeps)."""
    report = preset_sweep(name)
    restarts = [r["termination"] for r in report.limit_restarts]
    films = [e.termination for e in report.entries]
    assert len(restarts) == preset_config(name)["sweep"]["restarts"]
    assert set(restarts) == set(films) == {"gradient_tolerance"}, (restarts, films)
    assert report.flags["all_converged"]


def test_criterion_8_generalized_limit_reduction():
    """Generalized limit reduces to the plain limit and scales correctly."""
    grid = build_surface(SurfaceSpec("torus", 24, 24, major_radius=2.0, minor_radius=0.5))
    ellipsoid = EllipsoidTarget([2.0, 1.0, 1.0])
    rng = np.random.default_rng(8)
    coupling = rng.standard_normal((3, 3))
    pert = AnisotropicDMI(coupling)

    worst_ident = 0.0
    for seed in range(5):
        f = random_field(grid, ellipsoid, "surface", seed=80 + seed)
        plain = LimitEnergy(grid, ellipsoid, pert).breakdown(f.values)[0]
        ident = LimitEnergy(grid, ellipsoid, pert,
                            tensor=EllipticTensor("identity")).breakdown(f.values)[0]
        assert plain.total == ident.total  # definitional reduction, bit-exact
        const1 = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=1.0))
        near = LimitEnergy(grid, ellipsoid, pert, tensor=const1).breakdown(f.values)[0]
        worst_ident = max(worst_ident, abs(near.total - plain.total) / max(plain.total, 1.0))
        assert worst_ident <= 1e-12

    c = 1.6
    temp = TemperatureDMI(ScalarSurfaceField("constant", c0=c), coupling)
    tensor = EllipticTensor("scalar_field", ScalarSurfaceField("constant", c0=c))
    scaled = AnisotropicDMI(coupling / c)
    worst_temp = 0.0
    for seed in range(5):
        f = random_field(grid, ellipsoid, "surface", seed=90 + seed)
        lhs = LimitEnergy(grid, ellipsoid, temp, tensor=tensor).breakdown(f.values)[0]
        rhs = LimitEnergy(grid, ellipsoid, scaled).breakdown(f.values)[0]
        rel = abs(lhs.total - c**2 * rhs.total) / max(abs(lhs.total), 1.0)
        worst_temp = max(worst_temp, rel)
        assert rel <= 1e-10
    print(f"ACCEPTANCE 8 generalized-limit reduction: PASS "
          f"(identity reduction exact, unit scalar field <= {worst_ident:.2e}, "
          f"constant-saturation scaling <= {worst_temp:.2e})")


@pytest.mark.slow
def test_criterion_9_sweep_determinism(tmp_path):
    """Repeated sweep with fixed seed and thread count is byte-identical."""
    cfg = preset_config("bulk")
    out = tmp_path / "run"
    cfg["output_dir"] = str(out)
    cfg_path = tmp_path / "bulk.json"
    cfg_path.write_text(json.dumps(cfg))

    assert cli_main(["sweep", "--config", str(cfg_path), "--quiet"]) == 0
    report_first = (out / "report.json").read_bytes()
    limit_first = (out / "fields" / "limit.csv").read_bytes()
    sweep_first = (out / "sweep.csv").read_bytes()

    assert cli_main(["sweep", "--config", str(cfg_path), "--quiet"]) == 0
    assert (out / "report.json").read_bytes() == report_first
    assert (out / "fields" / "limit.csv").read_bytes() == limit_first
    assert (out / "sweep.csv").read_bytes() == sweep_first
    print("ACCEPTANCE 9 determinism: PASS (repeated sweep produced byte-identical report.json)")
