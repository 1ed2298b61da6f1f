"""glibc's malloc thresholds, fixed for the rest of the process.

glibc serves a block of at least its mmap threshold (128 KiB at start) with a
mapping of its own and raises that threshold to the size of the largest such
block freed. A free that leaves more than the trim threshold (128 KiB at
start, then twice the mmap threshold) at the heap's top gives those pages
back to the kernel. A training step frees 0.1-1 MB temporaries that the
next step allocates again, so at the defaults each step faulted the same
pages in once more: about 100-670 minor faults per step on the benchmark's
workloads once warm, and under 2 with the thresholds below. The CLI fixes
them once, as it pins BLAS to one thread, and never undoes them; library
callers keep their own allocator settings.
"""

from __future__ import annotations

import ctypes
import functools

__all__ = ["fix_malloc_thresholds"]

# mallopt's parameter numbers in glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's own cap for its dynamic mmap threshold on 64-bit systems, so arrays
# come from the heap from the first step on
MMAP_THRESHOLD = 32 * 1024 * 1024
# far above any step's freed memory, so freed pages stay mapped for the next step
TRIM_THRESHOLD = 1024 * 1024 * 1024


@functools.cache
def _mallopt():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to ask
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds for the rest of the process, and
    say whether both took effect; where the C library has no ``mallopt``,
    do nothing and return false."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    return all([mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)])
