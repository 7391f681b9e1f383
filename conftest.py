"""Pin BLAS to one thread for the whole test run.

The variables are read when numpy loads its BLAS, and pytest imports this
file before any test module imports numpy; a value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
