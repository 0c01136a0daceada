"""Test-run setup: single-threaded BLAS.

The variables are read once, when numpy loads its BLAS, so they are set here,
before any test module imports numpy. A multithreaded BLAS contending for a
busy core slowed the suite about eightfold; values set in the environment
still win.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
