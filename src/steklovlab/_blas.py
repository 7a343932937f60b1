"""The thread pools of the OpenBLAS runtimes in the process.

numpy and scipy each bundle an OpenBLAS with its own pool of worker threads.
``one_blas_thread`` runs a block with every pool at one thread, so results
never depend on a thread setting, and ``stop_blas_workers`` ends the workers
of a pool, which at one thread stay idle but busy-wait for a while before
they sleep, on a core that a second Python thread needs.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# thread-count (getter, setter) of the OpenBLAS builds numpy and scipy bundle
# (64-bit and 32-bit integer interfaces), then of a plain OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_libs():
    """Every OpenBLAS mapped into the process, as a ctypes library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def blas_pools():
    """(get, set) thread-count functions of each OpenBLAS mapped into the process."""
    pools = []
    for lib in openblas_libs():
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return pools


@contextmanager
def one_blas_thread():
    """Every OpenBLAS pool at one thread while the block runs, and back at its
    previous count on exit.

    The setting is process-wide: while the block runs, every other thread of
    the process computes at one BLAS thread too.  A count is set only where
    it changes, since setting one starts the workers that
    ``stop_blas_workers`` ended.
    """
    pools = blas_pools()
    previous = [get() for get, _ in pools]
    for (_, set_), n in zip(pools, previous):
        if n != 1:
            set_(1)
    try:
        yield
    finally:
        for (get, set_), n in zip(pools, previous):
            if get() != n:
                set_(n)


def stop_blas_workers():
    """End the worker threads of each OpenBLAS mapped into the process.

    Setting a pool's thread count, as ``one_blas_thread`` does on exit when
    it found more than one thread there, starts its workers again.
    """
    for lib in openblas_libs():
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            shutdown()
