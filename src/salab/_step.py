"""The compiled step kernel (_step.c), built on first use and loaded with ctypes.

The source is compiled with the local ``cc`` and linked against numpy's
static ``numpy/random/lib/libnpyrandom.a``, whose C distributions draw the
noise inside the kernel, into
``${XDG_CACHE_HOME:-~/.cache}/salab/step-<key>.so``.  The key is a sha256
of everything the build reads: the source, CFLAGS, the numpy version and
the bytes of libnpyrandom.a.  The build writes a temporary file and renames
it into place while holding a lock, so concurrent first uses never load a
half-written library.  ctypes releases the GIL for the length of each call.
Without a compiler, numpy's archive or a header, or when the cache cannot
be written, load() returns None and the engine keeps its numpy body, which
writes the same bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

#: compiler flags: no fused multiply-add and no fast-math, so every rounding
#: is the one numpy makes
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

SOURCE = Path(__file__).with_name("_step.c")

#: numpy's static C distributions library, which the kernel links
LIBRARY = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"

_long, _double, _ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p

#: the bitgen_t * of a numpy BitGenerator, read from its capsule
_capsule_pointer = ctypes.PYFUNCTYPE(_ptr, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


#: the drifts the kernel steps, in the order of _step.c's enum:
#: F(x) = -x^3 (d = 1) and x A^T + b (any d)
KINDS = ("neg_cube", "affine")

#: the noise shapes the kernel draws, in the order of _step.c's enum
SHAPES = ("gaussian", "uniform", "rademacher", "noiseless")


class Drift(ctypes.Structure):
    """The drift the kernel steps: its kind, d, its row-major A and b, and dc."""

    _fields_ = [("kind", _long), ("d", _long), ("a", _ptr), ("b", _ptr), ("dc", _double)]


class Noise(ctypes.Structure):
    """The noise the kernel draws: its shape, row-major Cholesky factor and coeff."""

    _fields_ = [("shape", _long), ("l", _ptr), ("coeff", _double)]


def _data(a: np.ndarray, dtype, shape) -> int:
    """Address of a's buffer, once it is checked to be what the kernel reads."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"step kernel needs a C-contiguous {np.dtype(dtype)} array "
                         f"of shape {shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def _drift(kind, a, b, dc) -> Drift:
    """The kernel's view of (kind, a, b, dc); the caller keeps a and b alive."""
    if kind not in KINDS:
        raise ValueError(f"step kernel has no drift kind {kind!r}")
    if kind == "neg_cube":
        return Drift(0, 1, None, None, dc)
    d = len(a)
    return Drift(KINDS.index(kind), d, _data(a, np.float64, (d, d)),
                 _data(b, np.float64, (d,)), dc)


def _noise(shape, cholesky, coeff, d) -> Noise:
    """The kernel's view of (shape, cholesky, coeff); the caller keeps cholesky alive."""
    if shape not in SHAPES:
        raise ValueError(f"step kernel has no noise shape {shape!r}")
    return Noise(SHAPES.index(shape), _data(cholesky, np.float64, (d, d)), coeff)


class Kernel:
    """Runs a group of chains through their whole schedule in one call.

    drift is (kind, a, b, dc): a drift F of one of the KINDS, its
    coefficients and dc.  For affine, a is the C-contiguous float64 (d, d)
    matrix A and b the (d,) vector; both are None for neg_cube, whose d is
    1.  noise is (shape, cholesky, coeff): one of the SHAPES, the
    C-contiguous float64 (d, d) lower Cholesky factor of Sigma, and the
    coefficient of the noise.
    """

    def __init__(self, lib: ctypes.CDLL):
        lib.run.argtypes = [ctypes.POINTER(Drift), ctypes.POINTER(Noise), _ptr, _ptr,
                            _long, _ptr, _long, _long, _long]
        lib.run.restype = ctypes.c_int
        self._lib = lib

    def run(self, drift, noise, gens, x, out, burn_in, thin) -> None:
        """Steps chain c from state x[c] through burn_in + spc * thin steps.

        Chain c draws its noise from the numpy Generator gens[c], which no
        other thread may use during the call and which is left where the
        numpy body would leave it.  Record r, the state after step
        burn_in + (r + 1) * thin, goes to out[c, r]; x ends at the final
        state.
        """
        f = _drift(*drift)
        nz = _noise(*noise, f.d)
        n = len(gens)
        spc = out.shape[1] if out.ndim == 3 else 0
        if thin < 1 or burn_in < 0:
            raise ValueError(f"no schedule of burn-in {burn_in} and thin {thin}")
        bitgens = np.array([_capsule_pointer(g.bit_generator.capsule, b"BitGenerator")
                            for g in gens], np.uintp)
        status = self._lib.run(f, nz, bitgens.ctypes.data, _data(x, np.float64, (n, f.d)), n,
                               _data(out, np.float64, (n, spc, f.d)), spc, burn_in, thin)
        if status != 0:
            raise MemoryError("step kernel could not allocate its buffers")


def _includes() -> list:
    """-I flags for numpy's headers and Python's, which numpy's include."""
    import sysconfig

    return [f"-I{np.get_include()}", f"-I{sysconfig.get_paths()['include']}"]


def compile_source(source: bytes, target: Path, *extra: str) -> subprocess.CompletedProcess:
    """Compile source, as C, into the shared library target, as the kernel is built.

    extra flags (warnings, reports) are added to CFLAGS; the result holds
    the compiler's exit status and its output.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    # the source is read from stdin; "-x none" lets the archive be an archive
    argv = [cc, *CFLAGS, *extra, *_includes(), "-x", "c", "-", "-x", "none",
            str(LIBRARY), "-lm", "-o", str(target)]
    return subprocess.run(argv, input=source, capture_output=True, timeout=120)


def cache_key(source: bytes, library: bytes) -> str:
    """sha256 of the source, CFLAGS, the numpy version and libnpyrandom.a's bytes."""
    h = hashlib.sha256()
    for part in (source, " ".join(CFLAGS).encode(), np.__version__.encode(), library):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _build(source: bytes, target: Path) -> None:
    """Compile source into target, unless another process already has."""
    import fcntl

    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():
            return
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            # compile the very bytes that were hashed
            compile_source(source, Path(tmp)).check_returncode()
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


@cache
def load() -> Optional[Kernel]:
    """The kernel, built on the first call; None when it cannot be built or loaded."""
    try:
        source = SOURCE.read_bytes()
        key = cache_key(source, LIBRARY.read_bytes())
        cache_dir = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        target = Path(cache_dir) / "salab" / f"step-{key}.so"
        if not target.exists():
            _build(source, target)
        return Kernel(ctypes.CDLL(str(target)))
    except (OSError, ImportError, AttributeError, subprocess.SubprocessError):
        return None
