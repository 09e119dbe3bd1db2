"""glibc malloc's heap thresholds, fixed once per process.

glibc serves a request of ``M_MMAP_THRESHOLD`` bytes or more with a fresh
mapping, and returns the free top of the heap to the kernel once it exceeds
``M_TRIM_THRESHOLD``. By default both slide: freeing a mapped block raises
the first to its size and the second to twice that. Which of a training
step's or an ``embed`` chunk's freed activation pages survive to the next
one then depends on what was freed last, and a call often faults its whole
working set in again. Setting both once fixes them, which turns the
sliding off; freed pages then stay in the heap for the next step or call.
Only where arrays live changes, never a float.
"""

from __future__ import annotations

import ctypes
import functools
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's DEFAULT_MMAP_THRESHOLD_MAX, the largest value mallopt accepts:
# 32 MiB where a long has 8 bytes. Trim at twice it, as glibc's sliding
# rule keeps them.
MMAP_THRESHOLD = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
# Thresholds the user set for glibc at start-up, which take precedence.
_USER_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _libc() -> ctypes.CDLL | None:
    """The symbols of the running process, the C library's among them."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def fix_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds on the first call in a process.

    A no-op where the C library exports no ``mallopt`` (macOS, Windows) and
    where the environment already sets either threshold.
    """
    if any(name in os.environ for name in _USER_SETTINGS):
        return
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
