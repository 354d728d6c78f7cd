"""Test-session set-up: one BLAS/OpenMP thread.

The acceptance budgets are seconds on one CPU core, and the benchmark
runs with one BLAS thread too. BLAS reads these variables once, when
numpy is first imported, so they are set here, before any test module
imports it; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
