"""Keep freed heap memory resident between forwards.

By default glibc gives the top of the heap back to the kernel as soon as
enough of it is free.  A forward or a training step frees all its
activations when it returns, so the next one maps the same megabytes again
and pays a zero-filled page fault per 4 KiB page (about 1500 faults per
batch-32 augmented MobileNetV2-small served forward).  Raising glibc's
``M_TOP_PAD`` keeps that much free memory at the top of each heap instead.
``repro.nn`` calls :func:`keep_heap_resident` once, on import.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

#: Free bytes glibc keeps at the top of each heap instead of trimming them.
#: 64 MiB took both the served forward and a perfbench training step to zero
#: page faults in steady state; peak RSS moved by about 1%.
HEAP_TOP_PAD_BYTES = 64 << 20

#: Setting any malloc parameter freezes glibc's adaptive mmap threshold at
#: its 128 KiB start, so every array of 128 KiB or more would be mmapped and
#: page-faulted afresh on each allocation.  This is the ceiling the adaptive
#: threshold climbs to on 64-bit glibc, set up front.
HEAP_MMAP_THRESHOLD_BYTES = 32 << 20

#: ``M_TOP_PAD`` and ``M_MMAP_THRESHOLD`` from glibc's ``<malloc.h>``.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3


def keep_heap_resident() -> Optional[int]:
    """Set glibc's ``M_TOP_PAD`` to :data:`HEAP_TOP_PAD_BYTES`.

    Also sets ``M_MMAP_THRESHOLD`` to :data:`HEAP_MMAP_THRESHOLD_BYTES`.
    Returns the pad that was set, or ``None`` (and changes nothing) when the
    C library is not glibc or refuses a setting.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD_BYTES) != 1:
        return None
    return HEAP_TOP_PAD_BYTES if mallopt(_M_TOP_PAD, HEAP_TOP_PAD_BYTES) == 1 else None
