"""Two lanes of work: the calling thread and one helper thread.

``both(first, second)`` returns ``(first(), second())``. When each lane's
BLAS threads have cores of their own (numpy's OpenBLAS on one thread on two
cores, as the benchmark pins it), ``second`` runs on the helper thread
while ``first`` runs on the caller; with OpenBLAS at its default of one
thread per core, or when the caller already runs in a lane, the two run one
after the other on the caller. So no more than two lanes run at once.

Callers hand ``both`` parts that share nothing but read-only inputs and
write disjoint parts of arrays the caller allocated, each part doing the
same operations in the same order on either thread, so results are
bit-identical whether the lanes run or not. No caller reads the lane rule:
``network`` runs the event branch's two readers and ``detect``'s window
pairs on ``both``, ``tensor_core`` each stage of a Winograd convolution.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

__all__ = ["openblas_threads", "two_lanes", "both"]

_OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads")


@functools.cache
def openblas_threads():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None
    when numpy carries no OpenBLAS of its own."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GET_THREADS:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def two_lanes() -> bool:
    """Whether two lanes may run at once: only when each lane's BLAS
    threads get cores of their own. Two lanes of spinning BLAS threads on
    shared cores ran slower than one lane (two OpenBLAS threads each on two
    cores). An unknown BLAS thread count runs one lane."""
    get = openblas_threads()
    if get is None:
        return False
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 * get() <= (cores or 1)


_lane = threading.local()  # ``busy`` while this thread runs one of two lanes


def _in_lane(fn):
    _lane.busy = True
    try:
        return fn()
    finally:
        _lane.busy = False


_helper = None  # (pid, one-worker pool) of this process's helper thread


def _helper_lane() -> ThreadPoolExecutor:
    """The process's one helper thread. One thread for the process's life
    allocates from one malloc arena; a thread per call could start before
    the last one had let go of its arena and take a new one, about 25 MiB
    of peak RSS each. A forked child starts its own: it has no copy of the
    parent's thread."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        _helper = (os.getpid(),
                   ThreadPoolExecutor(max_workers=1, thread_name_prefix="mitoscope-lane"))
    return _helper[1]


def both(first, second):
    """Return ``(first(), second())``. When ``two_lanes()`` holds and the
    caller is not itself in a lane, ``second`` runs on the helper thread
    while ``first`` runs on the caller; a ``both`` inside either runs in
    turn. An error in either reaches the caller, and never before
    ``second`` has finished."""
    if getattr(_lane, "busy", False) or not two_lanes():
        return first(), second()
    pending = _helper_lane().submit(_in_lane, second)
    try:
        result = _in_lane(first)
    finally:
        wait([pending])
    return result, pending.result()
