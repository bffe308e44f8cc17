"""One BLAS thread for a block of small products.

GRAPE's L-BFGS-B restarts and the exact Lie closures (up to d = 64)
multiply matrices too small for a second OpenBLAS thread to pay: it only
spins, doubling the CPU time at unchanged wall time. ``one_thread`` caps
every OpenBLAS mapped into the process at one thread for its body and
restores each library's count.

numpy and scipy each ship their own OpenBLAS, and scipy's is mapped only
when scipy is imported, so ``/proc/self/maps`` is read again once the size
of ``sys.modules`` changes; the library handles are cached per path.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager
from functools import cache, lru_cache
from typing import Callable

__all__ = ["one_thread", "thread_controls"]

# the thread-count setters of plain OpenBLAS, scipy-openblas and its 64-bit
# integer build; each getter has the same name with "get"
_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


@cache
def _controls_of(path: str) -> tuple[tuple[Callable, Callable], ...]:
    """The thread-count setters and getters that the library at ``path``
    exports; none if it cannot be loaded."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return ()
    controls = []
    for name in _SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((setter, getter))
    return tuple(controls)


def thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """The thread-count setter and getter of every OpenBLAS mapped into this
    process now; none off Linux or with another BLAS."""
    return _mapped_controls(len(sys.modules))


@lru_cache(maxsize=1)
def _mapped_controls(modules: int) -> tuple[tuple[Callable, Callable], ...]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    return tuple(control for path in sorted(paths) for control in _controls_of(path))


@contextmanager
def one_thread():
    """Run the body with one thread in every OpenBLAS, then restore each
    library's previous count."""
    controls = thread_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)
