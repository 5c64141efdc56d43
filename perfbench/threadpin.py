"""Pin BLAS and OpenMP pools to one thread; call before numpy is first imported."""

import os

POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_one_thread():
    for var in POOL_VARIABLES:
        os.environ[var] = "1"
