#!/usr/bin/env python3
"""Per-layer kernel table: one call of each layer's hot function at n x n nodes.

    python3 benchmarks/kernels.py [--out benchmarks/results/kernels.json]

For every size this times (best of several calls, BLAS on one thread) the
bulk-DMI limit and thin energies with and without gradient, one tangential
derivative plus its adjoint on a thin field, projection of a thin field onto
the sphere and onto the ellipsoid, and `build_surface`.  Thin fields carry
n_s = 8 layers; the thin form uses eps = 0.05.

`computed_bytes` is worked out from array sizes, not measured: the field
read plus the field or gradient written, plus the dense n x n stencil matrix
for the derivative pair and the frame arrays for `build_surface`.  Cache
misses are not counted.  No bandwidth roofline is given: at n = 256 a thin
field is 12.6 MB, far below four times the last-level cache, so these calls
run from cache and say nothing about memory bandwidth.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run as bench

sys.path.insert(0, bench.SRC)

from chiralfilm.descent import random_field  # noqa: E402
from chiralfilm.energies import LimitEnergy, ThinFilmEnergy  # noqa: E402
from chiralfilm.perturbations import BulkDMI  # noqa: E402
from chiralfilm.surfaces import SurfaceSpec, build_surface  # noqa: E402
from chiralfilm.targets import EllipsoidTarget, SphereTarget  # noqa: E402

SIZES = (32, 64, 128, 256)
N_S = 8
EPS = 0.05


def best_ms(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples) * 1e3


def rows_for(n):
    spec = SurfaceSpec("sphere", n, n, radius=1.0, theta_cap=0.15)
    grid = build_surface(spec)
    sphere = SphereTarget(1.0)
    ellipsoid = EllipsoidTarget([1.2, 1.0, 0.8])
    pert = BulkDMI(1.0)
    limit = LimitEnergy(grid, sphere, pert)
    thin = ThinFilmEnergy(grid, pert, EPS, N_S)
    u = random_field(grid, sphere, "surface", seed=1).values
    v = random_field(grid, sphere, "thin", n_s=N_S, seed=1).values
    near = 1.01 * v                      # off the target, as a retraction candidate is
    surface_bytes, thin_bytes, stencil_bytes = u.nbytes, v.nbytes, grid.diff_u.nbytes
    grid_bytes = sum(a.nbytes for a in (grid.points, grid.tau1, grid.tau2, grid.normal,
                                        grid.kappa1, grid.kappa2, grid.stretch_u,
                                        grid.stretch_v, grid.area_weight, grid.diff_u,
                                        grid.diff_v))
    repeats = 7 if n <= 64 else 3

    def deriv_pair():
        grid.tangential_derivative_adjoint(grid.tangential_derivative(v, 0), 0)

    kernels = [
        ("surfaces.build_surface", lambda: build_surface(spec), grid_bytes),
        ("energies.limit_eval", lambda: limit.breakdown(u), surface_bytes),
        ("energies.limit_grad", lambda: limit.breakdown_and_gradient(u), 2 * surface_bytes),
        ("energies.thin_eval", lambda: thin.breakdown(v), thin_bytes),
        ("energies.thin_grad", lambda: thin.breakdown_and_gradient(v), 2 * thin_bytes),
        ("surfaces.deriv_pair", deriv_pair, 2 * (2 * thin_bytes + stencil_bytes)),
        ("targets.project_sphere", lambda: sphere.project(near), 2 * thin_bytes),
        ("targets.project_ellipsoid", lambda: ellipsoid.project(near), 2 * thin_bytes),
    ]
    return [{"kernel": name, "n": n, "best_ms": best_ms(fn, repeats),
             "computed_bytes": nbytes, "repeats": repeats}
            for name, fn, nbytes in kernels]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    rows = []
    for n in SIZES:
        for row in rows_for(n):
            rows.append(row)
            print(f"{row['kernel']:28s} n={n:4d} {row['best_ms']:10.3f} ms "
                  f"{row['computed_bytes'] / 1e6:9.2f} MB computed", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"machine": bench.machine_block(), "n_s": N_S, "eps": EPS,
                       "bytes_note": "computed from array sizes, not measured",
                       "rows": rows}, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
