"""The OpenBLAS kernel that numpy's BLAS runs on, for the counts that
depend on it.

A solve's path follows the rounding of its BLAS products, and OpenBLAS
built with ``DYNAMIC_ARCH`` picks a kernel per CPU (or as
``OPENBLAS_CORETYPE`` names it), each summing in its own order.  So a few
pinned counts hold on one kernel only; their tests take the expectation
of the kernel loaded here through :func:`per_kernel`.

Run ``python tests/blas.py`` to print the kernel's name.
"""

import ctypes
from pathlib import Path

import numpy as np


def core_name() -> str:
    """The name OpenBLAS reports for its loaded kernel, such as
    ``SkylakeX`` or ``Haswell``; ``"unknown"`` when numpy bundles no
    ``scipy-openblas`` library (a wheel built for another platform, or
    numpy built against a system BLAS)."""
    # numpy has loaded the library, so this opens that same copy
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so"):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


CORE = core_name()


def per_kernel(expected, **by_kernel):
    """``by_kernel[CORE]`` when given, else ``expected``, the value
    measured on SkylakeX, to which every kernel not named is held."""
    return by_kernel.get(CORE, expected)


if __name__ == "__main__":
    print(CORE)
