"""The benchmark scripts under `benchmarks/` reach into the package by name.

These tests run the parts they depend on, so that a change to the package
that breaks `benchmarks/run.py --trace 1` or `benchmarks/kernels.py` fails
here.  They read `benchmarks/` and change nothing in it.
"""

import math
import os
from pathlib import Path
from unittest import mock

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_tools_find_what_they_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    with mock.patch.dict(os.environ):  # importing run.py pins the BLAS thread variables
        import kernels
        import spans
    import chiralfilm.sweep as sweep

    original = sweep.run_sweep
    tracer = spans.Tracer()
    try:
        spans.install_outcomes(tracer)
        spans.install_layers(tracer)
        assert sweep.run_sweep is not original
    finally:
        tracer.restore()
    assert sweep.run_sweep is original

    rows = kernels.rows_for(16)
    assert len(rows) == 8
    assert all(row["n"] == 16 and math.isfinite(row["best_ms"]) for row in rows)
