"""Pin the thread count of NumPy's bundled OpenBLAS.

On a small shared machine, OpenBLAS's thread hand-off can stall a whole
process for milliseconds per call, so a benchmark that wants stable numbers
pins BLAS to one thread at start-up.  Nothing calls this on import:
each benchmark script decides for itself.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Optional

import numpy as np


def pin_blas_to_one_thread() -> Optional[int]:
    """Set NumPy's bundled OpenBLAS to one thread.

    Returns the count that was set (1), or ``None`` (and changes nothing) when
    no bundled OpenBLAS with a thread-count setter is found, e.g. for a
    NumPy built against another BLAS.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return 1
    return None
