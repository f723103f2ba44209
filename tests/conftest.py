import os

# Pin the BLAS thread count before numpy loads: keeps runs deterministic and
# avoids oversubscription on small shared machines.
os.environ.setdefault("CHIRALFILM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from chiralfilm.surfaces import SurfaceSpec, build_surface

# One hypothesis profile for every property test: small enough for Tier-1,
# and no deadline, since example times vary with array sizes and host load.
settings.register_profile("chiralfilm", max_examples=50, deadline=None)
settings.load_profile("chiralfilm")


@pytest.fixture(scope="session")
def sphere_band():
    return build_surface(SurfaceSpec("sphere", 64, 64, radius=1.0, theta_cap=0.15))


@pytest.fixture(scope="session")
def torus_grid():
    return build_surface(SurfaceSpec("torus", 64, 64, major_radius=2.0, minor_radius=0.5))


@pytest.fixture(scope="session")
def small_torus():
    return build_surface(SurfaceSpec("torus", 16, 16, major_radius=2.0, minor_radius=0.5))


@pytest.fixture(scope="session")
def flat_patch():
    return build_surface(SurfaceSpec("flat_patch", 16, 16))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
