"""The thread count of the OpenBLAS that numpy bundles.

OpenBLAS splits a matrix product differently at different thread counts,
and for some shapes the bits differ: at 1 and 2 threads a product with
inner dimension 400 (the second FFN ``linear`` of the default V=200 encoder)
gives different checkpoints. The CLI pins one thread, so its artifacts are a
function of (config, seed) alone. The pin is never undone, so a process that
runs the CLI in process keeps one thread afterwards; library callers that do
not keep the process's setting.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

__all__ = ["pin_one_blas_thread"]

# the setter's name in the scipy-openblas builds numpy wheels bundle, then in
# plain OpenBLAS with 64-bit and 32-bit integers
SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
           "openblas_set_num_threads")


@functools.cache
def _setter():
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def pin_one_blas_thread() -> None:
    """Run the bundled OpenBLAS on one thread for the rest of the process; do
    nothing when numpy bundles no OpenBLAS with a known setter."""
    setter = _setter()
    if setter is not None:
        setter(1)
