"""Name the platform that record bytes depend on: OpenBLAS kernel/SIMD level.

Haar record bytes depend on two things outside the code: the OpenBLAS
kernel numpy's wheel picked for this CPU (its short complex dots round
differently with and without FMA) and the SIMD level numpy dispatches its
ufuncs to (its AVX-512 ``arccos`` differs from libm).  The committed
digests (``tools/record_digests.txt`` and the pins in
``tests/test_harness.py``) are defined on ``DIGESTS_DEFINED_ON``.  A
mismatch elsewhere reads first as a platform change, so the digest tool and
tests name the platform they ran on.  The kernel is the name OpenBLAS
reports, which need not be the ``OPENBLAS_CORETYPE`` that selected it: under
``OPENBLAS_CORETYPE=Prescott`` OpenBLAS reports ``Katmai``, so with numpy at
``X86_V2`` this prints ``Katmai/X86_V2``.  Run from the repository root to
print both parts:

    python tools/digest_platform.py
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

DIGESTS_DEFINED_ON = "SkylakeX/X86_V4"
# numpy's x86-64 dispatch levels, highest first.  Each reads False when
# NPY_DISABLE_CPU_FEATURES disables it (X86_V4 with AVX512_SKX), so an
# emulated level reads as that level.
_SIMD_LEVELS = ("X86_V4", "X86_V3", "X86_V2")


def openblas_kernel() -> str:
    """The kernel name OpenBLAS reports (``OPENBLAS_CORETYPE`` overrides
    it), or ``unknown`` when the wheel's OpenBLAS or its symbol is missing."""
    directory = os.path.dirname(numpy.__file__) + ".libs"
    libs = glob.glob(os.path.join(directory, "*openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def simd_level() -> str:
    """The highest x86-64 level numpy dispatches to, or ``unknown``."""
    levels = [level for level in _SIMD_LEVELS if __cpu_features__.get(level)]
    return levels[0] if levels else "unknown"


def platform() -> str:
    """``kernel/level``, for example ``SkylakeX/X86_V4``."""
    return f"{openblas_kernel()}/{simd_level()}"


def describe() -> str:
    """The line a digest mismatch is read by: this platform and the one the
    committed digests are defined on."""
    return f"platform {platform()}, digests defined on {DIGESTS_DEFINED_ON}"


if __name__ == "__main__":
    print("OpenBLAS kernel:", openblas_kernel())
    print("numpy SIMD level:", simd_level())
    print(describe())
