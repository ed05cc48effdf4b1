"""Edge VNF orchestration lab: simulator, learners, benchmark harness. The
package re-exports nothing: import from its submodules (vnf_lab.env, ...)."""

import os

# The networks are small, so extra BLAS threads only add hand-off cost, and a
# lot of it when other processes hold the cores. numpy reads these when it is
# first imported, so they are set here, before any submodule imports it; a
# value the user set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
