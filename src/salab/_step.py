"""The compiled step kernel (_step.c), built on first use and loaded with ctypes.

The kernel runs each chain's Philox stream itself, from the chain's key,
and the fast path of numpy's gaussian ziggurat inline, and scales the unit
draws inside each step.  The same library prints the rows of
samples_<alpha>.csv (format_samples), up to a row with a value it does not
print, which Python then writes.  The source is
compiled with the local ``cc`` and linked against numpy's static
``numpy/random/lib/libnpyrandom.a``, whose random_standard_normal makes the
draws the fast path rejects and gives back numpy's ziggurat tables, into
``${XDG_CACHE_HOME:-~/.cache}/salab/step-<key>.so``.  The key is a blake2b
of everything the build reads and everything numpy's reference draws
depend on: the source, CFLAGS, the numpy version, the bytes of
libnpyrandom.a, of numpy.random's _philox, _generator, bit_generator and
_common extension modules, and of salab's noise.py, core.py and this
module.  The build writes a temporary file and renames
it into place while holding a lock, so concurrent first uses never load a
half-written library.  ctypes releases the GIL for the length of each call.
On loading, the kernel reads the tables (init), then draws a few
thousand values of every noise shape, whose digest must be that of numpy's
draws (_self_check), and prints about a thousand values, which must be
repr()'s (_format_check).  The digest of numpy's draws is computed once per
key, from seed_rng Generators, and kept beside the library as
``step-<key>.ref`` (written only from numpy's draws, when missing), so a
run on a built kernel loads neither numpy.random nor (through hashlib)
OpenSSL.  Without a compiler, numpy's archive or a
header, when the cache cannot be written, or when the tables or either
check fail, load() returns None: the engine keeps its numpy body and
samples_<alpha>.csv its Python writer, which write the same bytes.
"""

from __future__ import annotations

import ctypes
import os
import platform
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from .core import blake2b, philox_key
from .noise import SHAPES

#: compiler flags: no fused multiply-add and no fast-math, so every rounding
#: is the one numpy makes.  On x86-64 the assembler pads the code so that no
#: jump crosses or ends on a 32-byte boundary, which Intel's JCC-erratum
#: microcode makes slow, so a step loop's speed does not hang on where
#: edits elsewhere move it.  An assembler without the option fails the
#: build, which leaves the numpy body in charge.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC",
          *(("-Wa,-mbranches-within-32B-boundaries",)
            if platform.machine().lower() in ("x86_64", "amd64") else ()))

SOURCE = Path(__file__).with_name("_step.c")

#: numpy's static C distributions library, which the kernel links
LIBRARY = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"

_long, _double, _ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p

#: the largest value of a C long, which ctypes would wrap rather than reject
_LONG_MAX = 2 ** (8 * ctypes.sizeof(_long) - 1) - 1

#: the drifts the kernel steps, in the order of _step.c's enum:
#: F(x) = -x^3 (d = 1) and x A^T + b (any d)
KINDS = ("neg_cube", "affine")

#: format_samples prints the values of magnitude in [lo, hi), and +-0.0:
#: those repr() prints in fixed notation
FORMAT_RANGE = (1e-4, 1e16)


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
    """Runs a group of chains through their whole schedule in one call (run),
    and prints the rows of samples CSVs (format_samples).  isa names the
    clone of run this CPU takes: "x86-64-v4", "avx2" or "default".

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
        lib.init.argtypes = []
        lib.init.restype = ctypes.c_int
        lib.format_samples.argtypes = [_ptr, _ptr, _long, _ptr, _long, _long, _long, _ptr,
                                       _long, ctypes.POINTER(_long)]
        lib.format_samples.restype = _long
        lib.isa.argtypes = []
        lib.isa.restype = ctypes.c_char_p
        self._lib = lib
        self.isa = lib.isa().decode()

    def run(self, drift, noise, keys, x, out, burn_in, thin) -> None:
        """Steps chain c from state x[c] through burn_in + spc * thin steps.

        keys is the C-contiguous uint64 (n, 2) array of the chains' Philox
        keys: chain c draws its noise from a fresh
        np.random.Philox(key=keys[c]), as Generator draws it.  Record r,
        the state after step burn_in + (r + 1) * thin, goes to out[c, r];
        x ends at the final state.
        """
        f = _drift(*drift)
        nz = _noise(*noise, f.d)
        n = len(keys)
        spc = out.shape[1] if out.ndim == 3 else 0
        if thin < 1 or burn_in < 0:
            raise ValueError(f"no schedule of burn-in {burn_in} and thin {thin}")
        # the kernel counts to step burn_in + (spc + 1) * thin
        if burn_in + (spc + 1) * thin > _LONG_MAX:
            raise ValueError(f"the schedule of burn-in {burn_in}, thin {thin} and {spc} "
                             f"records counts past {_LONG_MAX}, a C long's largest value")
        status = self._lib.run(f, nz, _data(keys, np.uint64, (n, 2)),
                               _data(x, np.float64, (n, f.d)), n,
                               _data(out, np.float64, (n, spc, f.d)), spc, burn_in, thin)
        if status != 0:
            raise MemoryError("step kernel could not allocate its buffers")

    def format_samples(self, chain_ids, steps, samples, row, buf) -> tuple:
        """Prints rows row, row + 1, ... of a samples CSV into buf.

        samples is the C-contiguous float64 (n, spc, d) array of records,
        chain_ids the (n,) and steps the (spc,) int64 arrays of their chains
        and steps, and buf a C-contiguous uint8 array.  Row r is
        `chain,step,y_1..y_d\\r\\n` for record r % spc of chain r // spc,
        the bytes csv.writer writes for it.  Printing stops before a row
        with a value outside FORMAT_RANGE (nan, inf, too small or too
        large), and before a row that might not fit in what is left of buf.
        Returns the first row not printed and the number of bytes printed.
        """
        n, spc, d = samples.shape
        if not 0 <= row <= n * spc:
            raise ValueError(f"no row {row} among {n * spc}")
        used = _long()
        row = self._lib.format_samples(
            _data(chain_ids, np.int64, (n,)), _data(steps, np.int64, (spc,)), spc,
            _data(samples, np.float64, (n, spc, d)), d, row, n * spc,
            _data(buf, np.uint8, buf.shape), buf.size, ctypes.byref(used))
        return row, used.value


def _includes() -> list:
    """-I flags for numpy's headers and Python's, which numpy's include."""
    import sysconfig

    return [f"-I{np.get_include()}", f"-I{sysconfig.get_paths()['include']}"]


def compile_source(source: bytes, target: Path, *extra: str):
    """Compile source, as C, into the shared library target, as the kernel is built.

    extra flags (warnings, reports) are added to CFLAGS; the result, a
    subprocess.CompletedProcess, holds the compiler's exit status and its
    output.
    """
    # imported here, as only a build runs the compiler
    import shutil
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    # the source is read from stdin; "-x none" lets the archive be an archive
    argv = [cc, *CFLAGS, *extra, *_includes(), "-x", "c", "-", "-x", "none",
            str(LIBRARY), "-lm", "-o", str(target)]
    return subprocess.run(argv, input=source, capture_output=True, timeout=120)


def _key_files() -> list:
    """The files whose bytes the key covers besides the source: the archive
    the build links, and the numpy.random extension modules and salab
    modules that numpy's reference draws (_numpy_digest) run through.

    The modules are found by name, as the import system finds them, without
    importing numpy.random.
    """
    import importlib.machinery

    package, files = LIBRARY.parent.parent, [LIBRARY]
    for name in ("_philox", "_generator", "bit_generator", "_common"):
        paths = [package / f"{name}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        # with none there, opening the first raises the OSError
        files.append(next((path for path in paths if path.exists()), paths[0]))
    return [*files, *(SOURCE.with_name(f) for f in ("noise.py", "core.py", "_step.py"))]


def cache_key(source: bytes) -> str:
    """blake2b of the source, CFLAGS, the numpy version and the bytes of
    _key_files(), each read in 64 KB chunks."""
    h = blake2b(digest_size=32)
    for part in (source, " ".join(CFLAGS).encode(), np.__version__.encode()):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    for path in _key_files():
        with open(path, "rb") as f:
            h.update(os.fstat(f.fileno()).st_size.to_bytes(8, "little"))
            while chunk := f.read(1 << 16):
                h.update(chunk)
    return h.hexdigest()


def _build(source: bytes, target: Path) -> None:
    """Compile source into target, unless another process already has; OSError
    when the compiler fails."""
    import fcntl
    import subprocess
    import tempfile

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
        except subprocess.SubprocessError as err:
            raise OSError(f"step kernel build failed: {err}") from err
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


#: the self-check's noise shapes and dimensions, and the Philox keys of its
#: two chains
_CHECKS = (("gaussian", 1), ("gaussian", 2), ("uniform", 1), ("uniform", 2),
           ("rademacher", 1), ("rademacher", 3))
_CHECK_KEYS = (philox_key(20240917, 0), philox_key(20240917, 1))


def _digest(blocks) -> bytes:
    """The hex blake2b of the arrays' bytes, in order, as ASCII."""
    h = blake2b(digest_size=32)
    for block in blocks:
        h.update(block.tobytes())
    return h.hexdigest().encode()


def _kernel_digest(kernel: Kernel) -> bytes:
    """Digest of the kernel's draws for every case of _CHECKS: each chain
    makes about 1,024 unit draws, with F(x) = -x, dc = 1, L = I and coeff = 1,
    so that each record is a draw (x + (-x) = 0, then 0 + z = z)."""
    keys, outs = np.array(_CHECK_KEYS, np.uint64), []
    for shape, d in _CHECKS:
        x, out = np.ones((2, d)), np.empty((2, 1024 // d, d))
        kernel.run(("affine", -np.eye(d), np.zeros(d), 1.0), (shape, np.eye(d), 1.0),
                   keys, x, out, burn_in=0, thin=1)
        outs.extend(out)
    return _digest(outs)


def _numpy_digest() -> bytes:
    """Digest of the numpy body's draws (noise._unit_variance_block) from
    seed_rng Generators, for the same cases, keys and order."""
    from .core import seed_rng
    from .noise import _unit_variance_block

    return _digest(_unit_variance_block(shape, seed_rng(*key), 1024 // d, d)
                   for shape, d in _CHECKS for key in _CHECK_KEYS)


def _self_check(kernel: Kernel, ref: Path) -> bool:
    """Whether the kernel's draws of every noise shape are the numpy body's,
    bit for bit: whether their digest is the one ref holds.

    When ref is missing or unreadable, numpy's digest is computed and
    written to it (a temporary file renamed into place) first.  Only numpy's
    draws ever write ref, and the key covers every input they depend on, so
    a ref holds numpy's digest for its key.
    """
    try:
        expected = ref.read_bytes()
    except OSError:
        expected = _numpy_digest()
        tmp = ref.with_name(f".ref-{os.getpid()}-{ref.name}")
        try:
            tmp.write_bytes(expected)
            os.replace(tmp, ref)
        except OSError:
            pass  # a cache it cannot write: the digest is numpy's all the same
    return _kernel_digest(kernel) == expected


def _splitmix64(n: int, seed: int) -> np.ndarray:
    """The first n words of Vigna's splitmix64 from seed, in uint64 arithmetic."""
    z = np.uint64(seed) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _format_probes() -> np.ndarray:
    """About a thousand values that format_samples must print as repr() does.

    The edges of FORMAT_RANGE and their neighbours, +-0.0, ties between
    two shortest digit strings (2**50 + 0.25 prints as ...624.2 and
    2**50 + 0.75 as ...624.8), the neighbours of each power of two in
    range, whose lower neighbour is nearer than the upper one, and
    pseudo-random bit patterns (_splitmix64), in the range and anywhere
    (nan, inf, subnormals).
    """
    lo, hi = FORMAT_RANGE
    edges = np.array([lo, hi, 0.0, 0.1, 1.0, 2.0**50 + 0.25, 2.0**50 + 0.75,
                      2.0**49 + 0.25, 2.0**49 + 0.75, 5e-324, np.inf, np.nan])
    edges = np.concatenate([edges, np.nextafter(edges[:2], 0), np.nextafter(edges[:2], np.inf)])
    powers = np.ldexp(1.0, np.arange(-15, 56))
    words, bits = _splitmix64(320, 20240917), np.array([lo, hi]).view(np.uint64)
    in_range = (bits[0] + words[:256] % (bits[1] - bits[0])).view(np.float64)
    anywhere = words[256:].view(np.float64)
    values = np.concatenate([edges, np.nextafter(powers, 0), powers,
                             np.nextafter(powers, np.inf), in_range, anywhere])
    return np.concatenate([values, -values])


def _format_check(kernel: Kernel) -> bool:
    """Whether the kernel prints each of _format_probes() as repr() does, and
    leaves to Python exactly the rows of those outside FORMAT_RANGE."""
    values = _format_probes()
    n = len(values)
    samples = values.reshape(n, 1, 1)
    ids, steps = np.arange(n, dtype=np.int64), np.zeros(1, np.int64)
    lines = [f"{i},0,{v!r}\r\n".encode() for i, v in enumerate(values.tolist())]
    # room for every row, so each call stops only at a row it does not print
    buf, text, left, row = np.empty(128 * n, np.uint8), [], [], 0
    while row < n:
        row, used = kernel.format_samples(ids, steps, samples, row, buf)
        text.append(buf[:used].tobytes())
        if row < n:
            text.append(lines[row])
            left.append(row)
            row += 1
    lo, hi = FORMAT_RANGE
    outside = [i for i, v in enumerate(values.tolist()) if not (lo <= abs(v) < hi or v == 0)]
    return left == outside and b"".join(text) == b"".join(lines)


@cache
def load() -> Optional[Kernel]:
    """The kernel, built on the first call; None when it cannot be built or
    loaded, when it does not draw numpy's bits, or when it does not print
    repr()'s."""
    try:
        source = SOURCE.read_bytes()
        key = cache_key(source)
        cache_dir = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
        target = Path(cache_dir) / "salab" / f"step-{key}.so"
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
        kernel = Kernel(lib)
        if (lib.init() != 0 or not _self_check(kernel, target.with_suffix(".ref"))
                or not _format_check(kernel)):
            return None
        return kernel
    except (OSError, ImportError, AttributeError):
        return None
