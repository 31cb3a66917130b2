"""Run the suite with one OpenBLAS thread, as the CLI does.

Test modules import numpy before twistcyl, which would load BLAS with its
default thread count. A thread count set by the user still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
