import os
import time

import numpy as np
import pytest

from chiralfilm.descent import MinimizeOptions
from chiralfilm.energies import ThinFilmEnergy
from chiralfilm.perturbations import (
    AnisotropicDMI,
    BulkDMI,
    InterfacialDMI,
    ScalarSurfaceField,
    TemperatureDMI,
    ZeroPerturbation,
)
from chiralfilm.reporting import sweep_csv
from chiralfilm.surfaces import SurfaceSpec, build_surface
from chiralfilm.sweep import (
    SweepConfig,
    SweepError,
    check_vanishing_identity,
    identity_is_predicted_vanishing,
    planar_interfacial_crosscheck,
    run_sweep,
)
from chiralfilm.targets import EllipsoidTarget, SphereTarget

SPHERE = SphereTarget(1.0)
ELLIPSOID = EllipsoidTarget([2.0, 1.0, 1.0])


def small_band(n=24):
    return build_surface(SurfaceSpec("sphere", n, n, radius=1.0, theta_cap=0.15))


def pin_cpus(monkeypatch, count):
    """Make the sweep see `count` usable CPUs, so it runs its films in that
    many processes (one means in this process)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_zero_perturbation_sweep_all_gaps_vanish():
    grid = small_band(16)
    config = SweepConfig(
        grid=grid,
        target=SPHERE,
        pert=ZeroPerturbation(),
        eps_list=(0.2, 0.1),
        n_s=4,
        options=MinimizeOptions(max_iterations=2000, grad_tol=1e-9),
        seed=3,
    )
    report, artifacts = run_sweep(config)
    assert report.limit_energy["total"] < 1e-10
    for entry in report.entries:
        assert not entry.failed
        assert entry.gap < 1e-8
    assert report.flags["all_eps_succeeded"]


def test_bulk_sweep_trends_small_grid():
    grid = small_band(24)
    config = SweepConfig(
        grid=grid,
        target=SPHERE,
        pert=BulkDMI(1.0),
        eps_list=(0.2, 0.1, 0.05),
        n_s=6,
        options=MinimizeOptions(max_iterations=4000, grad_tol=1e-7),
        restarts=2,
        seed=1234,
    )
    report, artifacts = run_sweep(config)
    gaps = [e.gap for e in report.entries]
    assert all(not e.failed for e in report.entries)
    assert gaps[0] > gaps[1] > gaps[2]
    recs = [e.recovery_energy for e in report.entries]
    assert recs[0] > recs[1] > recs[2] > report.limit_energy["total"] - 1e-9
    # minimality: the warm-started minimum never exceeds its recovery energy
    for entry in report.entries:
        assert entry.min_energy["total"] <= entry.recovery_energy + 1e-10
    shares = [e.s_share for e in report.entries]
    assert shares[0] > shares[1] > shares[2]
    assert artifacts["limit_field"].values.shape == grid.shape + (3,)


def test_torus_bulk_gap_trend():
    grid = build_surface(SurfaceSpec("torus", 24, 24, major_radius=2.0, minor_radius=0.5))
    config = SweepConfig(
        grid=grid,
        target=SPHERE,
        pert=BulkDMI(1.0),
        eps_list=(0.2, 0.1, 0.05),
        n_s=6,
        options=MinimizeOptions(max_iterations=4000, grad_tol=1e-7),
        restarts=2,
        seed=7,
    )
    report, _ = run_sweep(config)
    gaps = [e.gap for e in report.entries]
    assert all(not e.failed for e in report.entries)
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_validation():
    grid = small_band(16)
    good = dict(grid=grid, target=SPHERE, pert=BulkDMI(1.0), n_s=4)
    with pytest.raises(SweepError):
        SweepConfig(eps_list=(0.1, 0.2), **good).validate()
    with pytest.raises(SweepError):
        SweepConfig(eps_list=(0.9,), **good).validate()  # beyond thickness budget
    with pytest.raises(SweepError):
        SweepConfig(eps_list=(), **good).validate()
    with pytest.raises(SweepError):
        SweepConfig(eps_list=(0.2,), grid=grid, target=SPHERE, pert=BulkDMI(1.0), n_s=3).validate()
    with pytest.raises(SweepError):
        SweepConfig(eps_list=(0.2,), restarts=0, **good).validate()


def test_failed_eps_entry_marked_and_sweep_continues():
    # a user-supplied target with a tiny admissible neighborhood forces the
    # recovery construction to fail for the largest thickness only
    class TinyNeighborhood(SphereTarget):
        def __init__(self):
            super().__init__(1.0)
            self.admissible_radius = 0.012

    grid = small_band(16)
    config = SweepConfig(
        grid=grid,
        target=TinyNeighborhood(),
        pert=BulkDMI(1.0),
        eps_list=(0.2, 0.01),
        n_s=4,
        options=MinimizeOptions(max_iterations=200, grad_tol=1e-6),
        seed=2,
    )
    report, _ = run_sweep(config)
    assert_no_child_left()
    assert report.entries[0].failed
    assert "neighborhood" in report.entries[0].failure
    assert not report.entries[1].failed
    assert not report.flags["all_eps_succeeded"]
    assert not report.flags["pass"]
    # the failed row leaves the iteration and termination columns empty
    rows = sweep_csv(report).splitlines()
    assert rows[1].split(",")[1] == "failed" and rows[1].endswith(",,")
    assert rows[2].split(",")[-1] == report.entries[1].termination


@pytest.mark.parametrize(
    "pert,target,predicted",
    [
        (BulkDMI(1.0), SPHERE, True),
        (AnisotropicDMI(np.array([[0.9, 0.3, 0.0], [0.1, 1.1, 0.2], [0.0, 0.0, 0.8]])), SPHERE, True),
        (InterfacialDMI(0.7), SPHERE, True),
        (InterfacialDMI(0.7), ELLIPSOID, True),
        (TemperatureDMI(ScalarSurfaceField("affine", c0=1.5, c=(0.0, 0.0, 0.3)), np.eye(3)), SPHERE, True),
        (BulkDMI(1.0), ELLIPSOID, False),
    ],
    ids=["bulk-s2", "aniso-s2", "interf-s2", "interf-ell", "temp-s2", "bulk-ell"],
)
def test_vanishing_identities(pert, target, predicted):
    grid = small_band(16)
    residual, scale = check_vanishing_identity(grid, target, pert, samples=1000, seed=0)
    assert identity_is_predicted_vanishing(pert, target) == predicted
    if predicted:
        assert residual <= 1e-14 * scale
    else:
        assert residual > 1e-6


def test_vanishing_identity_sample_floor():
    grid = small_band(16)
    with pytest.raises(SweepError):
        check_vanishing_identity(grid, SPHERE, BulkDMI(1.0), samples=10)


def test_planar_interfacial_crosscheck_constant_fields():
    # density kappa^2 (1 + m3^2): m = e3 gives 2*kappa^2*area, m = e1 gives kappa^2*area
    grid = build_surface(SurfaceSpec("flat_patch", 24, 24))
    from chiralfilm.energies import LimitEnergy

    kappa = 1.3
    pert = InterfacialDMI(kappa)
    area = float(np.sum(grid.area_weight))
    model = LimitEnergy(grid, SPHERE, pert)
    e3 = np.broadcast_to(np.array([0.0, 0.0, 1.0]), grid.shape + (3,)).copy()
    bd = model.breakdown(e3)[0]
    assert bd.total == pytest.approx(2.0 * kappa**2 * area, rel=1e-12)
    e1 = np.broadcast_to(np.array([1.0, 0.0, 0.0]), grid.shape + (3,)).copy()
    bd = model.breakdown(e1)[0]
    assert bd.total == pytest.approx(kappa**2 * area, rel=1e-12)


def test_planar_interfacial_crosscheck_random_fields():
    grid = build_surface(SurfaceSpec("flat_patch", 32, 32))
    worst = planar_interfacial_crosscheck(grid, kappa=1.0, fields=20, seed=1)
    assert worst <= 1e-10


def test_planar_crosscheck_requires_flat_patch():
    with pytest.raises(SweepError):
        planar_interfacial_crosscheck(small_band(16))


def test_report_serializable_shape():
    grid = small_band(16)
    config = SweepConfig(
        grid=grid,
        target=SPHERE,
        pert=InterfacialDMI(1.0),
        eps_list=(0.2, 0.1),
        n_s=4,
        options=MinimizeOptions(max_iterations=100, grad_tol=1e-6),
        seed=1,
    )
    report, _ = run_sweep(config)
    payload = report.as_dict()
    assert {"limit", "per_eps", "identity_check", "flags"} <= set(payload)
    assert len(payload["per_eps"]) == 2
    assert payload["identity_check"]["max_residual"] <= 1e-14 * payload["identity_check"]["scale"]


def test_film_start_reuses_the_recovery_forward_pass(monkeypatch):
    # minimize starts from the flagged recovery field as it is, so the one
    # forward pass of each film gives both the recovery energy and the first
    # entry of its energy trace
    passes = []
    evaluate = ThinFilmEnergy._evaluate

    def counting(self, values):
        passes.append(self.eps)
        return evaluate(self, values)

    monkeypatch.setattr(ThinFilmEnergy, "_evaluate", counting)
    # the count is kept in this process, so every film must run here
    pin_cpus(monkeypatch, 1)
    config = SweepConfig(grid=small_band(12), target=SPHERE, pert=BulkDMI(1.0), eps_list=(0.2, 0.1),
                         n_s=4, options=MinimizeOptions(max_iterations=0), seed=1)
    report, artifacts = run_sweep(config)
    assert passes == [0.2, 0.1]
    for e in report.entries:
        assert e.recovery_energy == artifacts["eps_traces"][e.eps].energy_trace[0] == e.min_energy["total"]


def test_report_lists_every_limit_restart():
    config = SweepConfig(grid=small_band(12), target=SPHERE, pert=BulkDMI(1.0), eps_list=(0.2,),
                         n_s=4, options=MinimizeOptions(max_iterations=25), restarts=3, seed=40)
    report, artifacts = run_sweep(config)
    restarts = report.as_dict()["limit"]["restarts"]
    assert [r["seed"] for r in restarts] == [40, 41, 42]
    for r in restarts:
        assert set(r) >= {"seed", "iterations", "termination", "energy", "grad_norm", "trials",
                          "gradient_evaluations", "preconditioner_solves"}
    kept = min(restarts, key=lambda r: r["energy"]["total"])
    assert kept["energy"] == report.limit_energy
    assert kept["iterations"] == report.limit_iterations == artifacts["limit_trace"].iterations
    assert kept["termination"] == report.limit_termination


def effort_config():
    return SweepConfig(grid=small_band(12), target=SPHERE, pert=BulkDMI(1.0),
                       eps_list=(0.2, 0.1, 0.05), n_s=4,
                       options=MinimizeOptions(max_iterations=30), seed=5)


def test_entries_report_each_film_effort():
    report, artifacts = run_sweep(effort_config())
    for e, row in zip(report.entries, report.as_dict()["per_eps"]):
        trace = artifacts["eps_traces"][e.eps]
        assert trace.trials > 0
        for key in ("trials", "gradient_evaluations", "preconditioner_solves"):
            assert row[key] == getattr(e, key) == getattr(trace, key)


@pytest.mark.parametrize("cpus", [None, 2, 3])
def test_film_processes_match_the_in_process_map_bit_for_bit(monkeypatch, cpus):
    # five thicknesses are dealt unevenly over two or three processes;
    # None keeps the host's CPU count
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    config = effort_config()
    config.eps_list = (0.2, 0.1, 0.05, 0.04, 0.03)
    if cpus is not None:
        pin_cpus(monkeypatch, cpus)
    expected_forks = min(len(config.eps_list), len(os.sched_getaffinity(0))) - 1
    report, artifacts = run_sweep(config)
    assert len(forks) == expected_forks
    assert_no_child_left()

    pin_cpus(monkeypatch, 1)
    serial, serial_artifacts = run_sweep(config)
    assert len(forks) == expected_forks
    assert report.as_dict() == serial.as_dict()
    assert list(artifacts["eps_fields"]) == list(serial_artifacts["eps_fields"]) == list(config.eps_list)
    for eps, f in serial_artifacts["eps_fields"].items():
        assert np.array_equal(artifacts["eps_fields"][eps].values, f.values)
        ours, theirs = artifacts["eps_traces"][eps], serial_artifacts["eps_traces"][eps]
        assert np.array_equal(ours.energy_trace, theirs.energy_trace)
        assert np.array_equal(ours.grad_trace, theirs.grad_trace)
        assert ours.as_dict() == theirs.as_dict()


def fail_at(monkeypatch, **actions):
    """Make building the film model at a thickness run its action, keyed by
    the thickness's position in the eps list (`at0`, `at1`, ...)."""
    eps_list = effort_config().eps_list
    init = ThinFilmEnergy.__init__

    def failing(self, grid, pert, eps, *args, **kwargs):
        action = actions.get(f"at{eps_list.index(eps)}")
        if action is not None:
            action()
        init(self, grid, pert, eps, *args, **kwargs)

    monkeypatch.setattr(ThinFilmEnergy, "__init__", failing)


def raise_runtime_error():
    raise RuntimeError("film model exploded")


def test_unexpected_error_in_a_worker_film_reaches_the_caller(monkeypatch):
    pin_cpus(monkeypatch, 2)
    fail_at(monkeypatch, at1=raise_runtime_error)  # the second thickness goes to the child
    with pytest.raises(RuntimeError, match="film model exploded"):
        run_sweep(effort_config())
    assert_no_child_left()


class TwoPartError(Exception):
    # pickles with its message as the only argument, so it cannot be rebuilt
    def __init__(self, part, rest):
        super().__init__(f"{part} {rest}")


def test_worker_error_that_cannot_be_rebuilt_arrives_by_name(monkeypatch):
    pin_cpus(monkeypatch, 2)

    def raise_two_part():
        raise TwoPartError("film", "model exploded")

    fail_at(monkeypatch, at1=raise_two_part)
    with pytest.raises(RuntimeError, match="TwoPartError: film model exploded"):
        run_sweep(effort_config())
    assert_no_child_left()


def test_worker_that_dies_without_a_result_is_reported(monkeypatch):
    pin_cpus(monkeypatch, 2)
    fail_at(monkeypatch, at1=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exit status 3"):
        run_sweep(effort_config())
    assert_no_child_left()


def test_error_in_the_parent_share_kills_and_reaps_the_workers(monkeypatch):
    pin_cpus(monkeypatch, 2)
    # the first thickness stays in this process and fails while the child's film hangs
    fail_at(monkeypatch, at0=raise_runtime_error, at1=lambda: time.sleep(30))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="film model exploded"):
        run_sweep(effort_config())
    assert time.monotonic() - start < 15  # the hanging child was killed, not waited for
    assert_no_child_left()
