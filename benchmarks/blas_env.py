"""BLAS thread pinning, applied before numpy is first imported.

Every workload runs in one process on one BLAS thread, within the machine's
``nproc``. With two OpenBLAS threads on shared cores, any other busy process
stalls the spinning BLAS threads and small convolutions slow by an order
of magnitude (see DESIGN.md). The setting lives in the benchmark's own
environment, never in the package under test, so two commits measured
with the same benchmark files get the same thread count.
"""

from __future__ import annotations

import os

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
