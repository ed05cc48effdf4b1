"""Test-session setup: one BLAS thread.

The networks are small, so a multi-threaded BLAS only adds hand-off cost,
and a lot of it when another process holds the other cores. numpy reads
these variables when it is first imported, which happens after this file
runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
