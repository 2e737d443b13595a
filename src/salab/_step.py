"""The compiled step kernel (_step.c), built on first use and loaded with ctypes.

The source is compiled with the local ``cc`` into
``${XDG_CACHE_HOME:-~/.cache}/salab/step-<sha256 of the source>.so``: the
build writes a temporary file and renames it into place while holding a
lock, so concurrent first uses never load a half-written library.  ctypes
releases the GIL for the length of each call.  Without a compiler, or when
the cache cannot be written, load() returns None and the engine keeps its
numpy body, which writes the same bytes.
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

_long, _double, _ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p


#: the drifts the kernel steps, in the order of _step.c's enum:
#: F(x) = -x^3 (d = 1) and x A^T + b (any d)
KINDS = ("neg_cube", "affine")


class Drift(ctypes.Structure):
    """The drift the kernel steps: its kind, d, its row-major A and b, and dc."""

    _fields_ = [("kind", _long), ("d", _long), ("a", _ptr), ("b", _ptr), ("dc", _double)]


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


def _records(out, n, d, k0, m, burn_in, thin) -> tuple:
    """The record arguments, once steps k0 + 1 .. k0 + m are checked to fit out."""
    spc = out.shape[1] if out.ndim == 3 else 0
    address = _data(out, np.float64, (n, spc, d))
    if thin < 1 or not 0 <= k0 <= k0 + m <= burn_in + spc * thin:
        raise ValueError(f"steps {k0 + 1}..{k0 + m} lie outside the records' schedule")
    return address, spc, burn_in, thin


class Kernel:
    """Steps n chains, state x of shape (n, d), through one block.

    drift is (kind, a, b, dc): a drift F of one of the KINDS, its
    coefficients and dc.  For affine, a is the C-contiguous float64 (d, d)
    matrix A and b the (d,) vector; both are None for neg_cube, whose d is
    1.  k0 is the number of steps taken before the block; each chain's
    record r, its state after step burn_in + (r + 1) * thin, goes to
    out[chain, r].
    """

    def __init__(self, lib: ctypes.CDLL):
        drift = ctypes.POINTER(Drift)
        lib.step_tile.argtypes = [drift, _ptr, _long, _ptr, _long, _long,
                                  _ptr, _long, _long, _long]
        lib.step_signs.argtypes = [drift, _ptr, _long, _ptr, _long, _long, _double,
                                   _double, _ptr, _long, _long, _long]
        lib.step_tile.restype = lib.step_signs.restype = None
        self._lib = lib

    def step_tile(self, drift, x, draws, k0, out, burn_in, thin) -> None:
        """draws: (n, m, d) noise, already scaled, as each chain drew it."""
        f = _drift(*drift)
        n, m = draws.shape[:2]
        self._lib.step_tile(
            f, _data(x, np.float64, (n, f.d)), n, _data(draws, np.float64, (n, m, f.d)),
            m, k0, *_records(out, n, f.d, k0, m, burn_in, thin))

    def step_signs(self, drift, x, words, m, k0, lo, hi, out, burn_in, thin) -> None:
        """d = 1 only.  words: (ceil(m / 64), n) packed draws; a set bit adds hi,
        a clear one lo."""
        f = _drift(*drift)
        if f.d != 1:
            raise ValueError(f"step kernel steps sign words at d = 1 only, not d = {f.d}")
        n = len(x)
        self._lib.step_signs(
            f, _data(x, np.float64, (n, 1)), n,
            _data(words, np.uint64, ((m + 63) // 64, n)), m, k0, lo, hi,
            *_records(out, n, 1, k0, m, burn_in, thin))


def _build(source: bytes, target: Path) -> None:
    """Compile source into target, unless another process already has."""
    import fcntl

    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():
            return
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
        os.close(fd)
        try:
            # compile the very bytes that were hashed, read from stdin
            subprocess.run([cc, *CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                           capture_output=True, check=True, timeout=120)
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


@cache
def load() -> Optional[Kernel]:
    """The kernel, built on the first call; None when it cannot be built or loaded."""
    try:
        source = SOURCE.read_bytes()
        cache_dir = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        target = Path(cache_dir) / "salab" / f"step-{hashlib.sha256(source).hexdigest()}.so"
        if not target.exists():
            _build(source, target)
        return Kernel(ctypes.CDLL(str(target)))
    except (OSError, ImportError, AttributeError, subprocess.SubprocessError):
        return None
