"""The compiled step kernel: its build, its dispatch and its numpy fallback."""

import ctypes
import functools
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import salab._step as step
import salab.simulate as sim
from salab.core import philox_key, seed_rng
from salab.drift import (DriftOperator, contractive_tanh, exp_square, grad_quadratic, linear,
                         quartic, quartic_sine)
from salab.noise import SHAPES, make_noise

SRC = Path(__file__).resolve().parents[1] / "src"

QUARTIC_CFG = """
drift = quartic
noise.shape = rademacher
noise.sigma = [[1.0]]
alphas = 0.01
scaling = 0.25
n_chains = 70
burn_in = 2000
thin = 37
samples_per_chain = 16
seed = 3
"""

GRAD_CFG = """
drift = grad_quadratic
drift.hessian = [[2.0]]
noise.shape = gaussian
noise.sigma = [[1.5]]
alphas = 0.02, 0.005
scaling = 0.5
n_chains = 70
burn_in = 4100
thin = 13
samples_per_chain = 16
seed = 3
"""

#: the benchmark's 2-d `pipeline` config, whose A has exact products
PIPELINE_CFG = """
drift = linear
drift.a = [[-1.0, 1.0], [0.0, -2.0]]
drift.b = [0.0, 0.0]
noise.shape = gaussian
noise.sigma = [[1.0, 0.0], [0.0, 1.0]]
alphas = 0.05, 0.005
scaling = auto
n_chains = 512
thin = 50
samples_per_chain = 512
"""

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")

#: x86-64 with glibc builds an x86-64-v4 clone of the kernel, at 64-byte
#: vectors, and an AVX2 clone, at 32-byte vectors, beside the baseline one
CLONED = platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"


def run_salab(args, tmp_path, cache, path=None):
    """salab in a fresh interpreter with its kernel cache at `cache`."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def fake_cc(tmp_path):
    """A directory whose `cc` only leaves a marker file behind, and that marker."""
    bin_dir, marker = tmp_path / "bin", tmp_path / "cc-ran"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\ntouch '{marker}'\nexit 1\n")
    cc.chmod(0o755)
    return bin_dir, marker


@pytest.fixture
def fresh_kernel(tmp_path, monkeypatch):
    """A kernel built now into an empty cache, and loaded in place of the cached one."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    kernel = step.load()
    assert kernel is not None
    return kernel


@pytest.fixture
def kernel():
    """The kernel the engine loads, from its usual cache."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    kernel = step.load()
    assert kernel is not None
    return kernel


def csv_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def stepped_by(op):
    """The kernel_isa of one step of op's chain: the clone that ran it, or
    None when the numpy body did."""
    nm = make_noise("gaussian", np.eye(op.dim))
    return sim.run_chains(op, nm, 0.01, 0.01, n_chains=1, burn_in=0, thin=1,
                          samples_per_chain=1, seed=0).kernel_isa


@needs_cc
def test_source_compiles_without_warnings(tmp_path):
    # the production build plus every common warning, as errors
    res = step.compile_source(step.SOURCE.read_bytes(), tmp_path / "step.so",
                              "-Wall", "-Wextra", "-Werror")
    assert res.returncode == 0, res.stderr.decode()


@needs_cc
def test_sign_tile_is_vectorized_for_each_drift_kind(tmp_path):
    # the full tile's chain loops, in each clone of the kernel, are what
    # make it fast: the fused sign loop of advance(), which only the
    # quartic takes, carries fig3, and the row-wise step() at d = 1 and
    # d = 2, which also scales the drawn noise, the gaussian workloads; a
    # VLA or an aliasing store silently stops them
    res = step.compile_source(step.SOURCE.read_bytes(), tmp_path / "step.so",
                              "-fopt-info-vec-optimized")
    stderr = res.stderr.decode()
    if res.returncode != 0 or "optimized:" not in stderr:
        pytest.skip("cc does not report vectorized loops with -fopt-info-vec-optimized")
    lines = list(enumerate(step.SOURCE.read_text().splitlines(), 1))
    reports = [(int(m.group(1)), int(m.group(2))) for m in re.finditer(
        r"<stdin>:(\d+):\d+: optimized: loop vectorized using (\d+) byte vectors", stderr)]

    def chain_loops(signature):
        """The vector widths reported for each chain loop of a function's
        body, from its signature to the next closing brace in column 0."""
        start = next(i for i, line in lines if line.startswith(signature))
        end = next(i for i, line in lines if i > start and line == "}")
        return [[width for at, width in reports if at == i] for i, line in lines
                if start < i < end and "for (long c = 0; c < TILE; c++)" in line]

    def vectorized(widths, instances):
        assert len(widths) == instances * (3 if CLONED else 1), stderr
        if CLONED:
            assert widths.count(64) == widths.count(32) == instances, stderr

    (signs,) = chain_loops("INLINE void advance(")
    vectorized(signs, 1)
    # step()'s chain loops in order: neg_cube's row; affine's first product,
    # later products and bias at d = 1, 2 and a runtime d (later products
    # only above d = 1); then, at all four, the noise row's first product,
    # its later products (above d = 1 only) and the update
    rows = chain_loops("INLINE void step(")
    assert len(rows) == 7, rows
    for widths, instances in zip(rows, (1, 3, 2, 3, 4, 2, 4)):
        vectorized(widths, instances)


#: the clones of run and refill in _step.c's target_clones list, each with
#: the numpy CPU features a host needs to run it
CLONE_FEATURES = {
    "arch=x86-64-v4": ("AVX2", "BMI", "BMI2", "F16C", "FMA3", "LZCNT", "MOVBE",
                       "AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL"),
    "avx2": ("AVX2",),
    "default": (),
}


def cpu_features() -> dict:
    """numpy's map of the host's CPU features, by numpy's names."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@needs_cc
@pytest.mark.skipif(not CLONED, reason="only x86-64 with glibc builds clones")
@pytest.mark.parametrize("clone", CLONE_FEATURES)
def test_every_clone_writes_the_same_bits(kernel, tmp_path, clone):
    # the loader runs one clone on a host, so each is built here on its
    # own: target_clones(...) becomes target(clone), or no attribute for
    # the baseline, and its records must be the loaded kernel's
    source = step.SOURCE.read_text()
    (listed,) = re.findall(r"target_clones\((.*)\)\)\)", source)
    assert re.findall(r'"([^"]+)"', listed) == list(CLONE_FEATURES)
    missing = [f for f in CLONE_FEATURES[clone] if not cpu_features().get(f)]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)} for the {clone} clone")
    attribute = "" if clone == "default" else f'__attribute__((target("{clone}")))'
    single = source.replace(f"__attribute__((target_clones({listed})))", attribute)
    res = step.compile_source(single.encode(), tmp_path / "clone.so")
    assert res.returncode == 0, res.stderr.decode()
    lib = ctypes.CDLL(str(tmp_path / "clone.so"))
    assert lib.init() == 0
    one = step.Kernel(lib)

    # two tiles, the second partial, through three blocks of the quartic's
    # packed sign words and many sub-blocks of drawn noise
    n = KERNEL_TILE + 6
    keys = np.array([philox_key(13, c) for c in range(n)], np.uint64)
    cases = [(("neg_cube", None, None, 0.01), "rademacher", np.eye(1))]
    for a, b, chol in (([[-1.3]], [0.1], [[0.7]]),
                       ([[-1.3, 0.7], [0.2, -2.1]], [0.1, -0.3], [[0.9, 0.0], [0.4, 0.6]])):
        for shape in SHAPES:
            cases.append((("affine", np.array(a), np.array(b), 0.01), shape, np.array(chol)))
    for drift, shape, chol in cases:
        d = len(chol)
        runs = []
        for k in (kernel, one):
            x, out = np.linspace(-2.0, 2.0, n * d).reshape(n, d), np.empty((n, 16, d))
            k.run(drift, (shape, chol, 0.1), keys, x, out, burn_in=1000, thin=517)
            runs.append(out.tobytes())
        assert runs[0] == runs[1], (clone, drift[0], shape, d)


def test_isa_names_the_clone_the_cpu_takes(kernel):
    # the first clone of the list whose features the CPU has, as glibc's
    # resolver picks it; a build without clones has only the baseline
    runs = [c for c, features in CLONE_FEATURES.items()
            if CLONED and all(cpu_features().get(f) for f in features)]
    assert kernel.isa == (runs[0].removeprefix("arch=") if runs else "default")


def test_only_the_quartic_drift_takes_the_kernel(fresh_kernel):
    # the quartic, and the two affine drifts at every d; nothing else
    isa = fresh_kernel.isa
    assert stepped_by(quartic()) == isa
    assert stepped_by(linear([[-1.0]])) == isa
    assert stepped_by(linear([[-1.0]], [0.5])) == isa
    assert stepped_by(grad_quadratic([[2.0]])) == isa
    assert stepped_by(linear([[-1.0, 0.5], [0.0, -2.0]])) == isa
    assert stepped_by(linear(-np.eye(3), [0.1, 0.2, 0.3])) == isa
    assert stepped_by(grad_quadratic(np.eye(2))) == isa
    for op in (quartic_sine(), exp_square(), contractive_tanh(),
               DriftOperator("plain", 1, lambda x: -x, np.zeros(1), np.array([[-1.0]]))):
        assert stepped_by(op) is None, op.name


def test_compiled_body_draws_no_noise_in_python(fresh_kernel, monkeypatch):
    def in_python(*args):
        raise AssertionError("the compiled body drew or laid out noise in Python")

    for name in ("_noise_windows", "sample_block", "sign_words", "sign_bits"):
        monkeypatch.setattr(sim, name, in_python)
    ops = (quartic(), grad_quadratic([[2.0]]), linear([[-1.0]], [0.5]),
           grad_quadratic([[0.9, 0.2], [0.2, 0.7]]),
           linear([[-1.3, 0.7], [0.2, -2.1]], [0.1, -0.3]),
           linear([[-1.3, 0.7, 0.1], [0.2, -2.1, 0.3], [-0.4, 0.6, -1.7]], [0.1, -0.3, 0.7]))
    for op in ops:
        d = op.dim
        for shape in SHAPES:
            nm = make_noise(shape, np.eye(d))
            ens = sim.run_chains(op, nm, 0.01, 0.01, n_chains=10, burn_in=10, thin=3,
                                 samples_per_chain=4, seed=1)
            assert ens.samples.shape == (10, 4, d)


#: chains per tile of the kernel (TILE in _step.c)
KERNEL_TILE = 64

#: words of a chain's Philox stream one refill makes (BUF_WORDS in _step.c)
KERNEL_BUF_WORDS = 64


def numpy_draws(seed, chain, shape, steps, d):
    """Chain `chain`'s (steps, d) unit draws as the numpy body makes them."""
    rng = seed_rng(seed, chain)
    if shape == "gaussian":
        return rng.standard_normal((steps, d))
    if shape == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (steps, d))
    words = rng.bit_generator.random_raw(-(-steps * d // 64))
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")[: steps * d]
    return (2.0 * bits - 1.0).reshape(steps, d)


def kernel_draws(kernel, seed, n, shape, steps, d):
    """The kernel's (n, steps, d) unit draws of chains 0 .. n - 1.

    With F(x) = -x, dc = 1, L = I and coeff = 1 each step lands on its unit
    draw: x + (-x) = 0, then 0 + z = z.  So the records are the draws.
    """
    keys = np.array([philox_key(seed, c) for c in range(n)], np.uint64)
    x, out = np.ones((n, d)), np.empty((n, steps, d))
    kernel.run(("affine", -np.eye(d), np.zeros(d), 1.0), (shape, np.eye(d), 1.0),
               keys, x, out, burn_in=0, thin=1)
    return out


@pytest.mark.parametrize("seed", [3, 41, 2024])
@pytest.mark.parametrize(
    "shape, d, steps",
    [
        # the kernel draws SUB_DRAWS = 64 values per chain at a time, so
        # 64 // d steps: two full sub-blocks and a partial one
        ("gaussian", 1, 2 * 64 + 7),
        ("gaussian", 3, 2 * 21 + 1),
        ("uniform", 1, 64 + 1),
        ("uniform", 2, 2 * 32 + 5),
        # packed sign words, 4096 steps at a time: across four blocks,
        # ending in a partial word
        ("rademacher", 1, 16384 + 64 + 5),
        # 63 sign bits per sub-block, so words straddle the sub-blocks
        ("rademacher", 3, 2 * 21 + 7),
        # a chain's buffer holds 64 words: 63 words per sub-block of 21
        # steps, so sub-blocks end mid-buffer and each holds a refill
        ("uniform", 3, 6 * 21 + 5),
        ("gaussian", 3, 6 * 21 + 5),
        # 64 words per sub-block of 32 steps: 4 refills and part of a fifth
        ("uniform", 2, 4 * 32 + 9),
        # a sign word per 64 bits: 3 refills and part of a fourth
        ("rademacher", 3, 3 * KERNEL_BUF_WORDS * 64 // 3 + 50),
    ],
)
def test_kernel_draws_are_numpys(kernel, seed, shape, d, steps):
    n = KERNEL_TILE + 6
    out = kernel_draws(kernel, seed, n, shape, steps, d)
    for c in (0, KERNEL_TILE - 1, KERNEL_TILE, n - 1):
        assert out[c].tobytes() == numpy_draws(seed, c, shape, steps, d).tobytes(), c


def gaussian_draw_starts(seed, chain, draws):
    """The index of the Philox word at which each of a chain's first
    `draws` standard_normal draws starts, then that of the word after them."""
    rng = seed_rng(seed, chain)
    starts = []
    for _ in range(draws + 1):
        state = rng.bit_generator.state
        # the counter is bumped before each block of four words
        starts.append(4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"])
        rng.standard_normal()
    return np.array(starts)


def test_kernel_gaussian_rejected_on_a_buffers_last_word(kernel):
    # a draw whose first word is the last of a refill and which the fast
    # path rejects: numpy's slow path rereads that word and reads on into
    # the next refill's words
    seed, draws = 8, 1024
    for chain in range(64):
        starts = gaussian_draw_starts(seed, chain, draws)
        rejected = np.diff(starts) > 1
        edge = np.flatnonzero(rejected & (starts[:-1] % KERNEL_BUF_WORDS == KERNEL_BUF_WORDS - 1))
        if edge.size:
            break
    else:
        pytest.fail("no draw rejected on a buffer's last word")
    steps = int(edge[0]) + 64    # the draw, then a sub-block past it
    out = kernel_draws(kernel, seed, chain + 1, "gaussian", steps, 1)
    for c in range(chain + 1):
        assert out[c].tobytes() == numpy_draws(seed, c, "gaussian", steps, 1).tobytes(), c


@pytest.mark.parametrize("shape", ["rademacher", "gaussian"])
@pytest.mark.parametrize("kind, d", [("neg_cube", 1), ("affine", 1), ("affine", 2), ("affine", 3)])
def test_kernel_ends_each_chain_at_its_last_record(kernel, shape, kind, d):
    # the last record is the state after the last step, and run leaves
    # that state in x too, for every chain of a full and a partial tile
    n = KERNEL_TILE + 6
    keys = np.array([philox_key(5, c) for c in range(n)], np.uint64)
    a = -np.eye(d) + 0.25 * np.tri(d, d, -1)
    drift = (kind, None, None, 0.1) if kind == "neg_cube" else (kind, a, np.full(d, 0.5), 0.1)
    x, out = np.linspace(-1.0, 1.0, n * d).reshape(n, d), np.empty((n, 5, d))
    kernel.run(drift, (shape, np.eye(d), 0.1), keys, x, out, burn_in=2, thin=3)
    assert x.tobytes() == out[:, -1].tobytes()


def test_kernel_gaussians_are_numpys_through_the_tail(kernel):
    # a million draws: about 1% miss the ziggurat's fast path and are made
    # again by numpy's random_standard_normal, a few hundred of them in the
    # tail beyond numpy's ziggurat_nor_r
    n, steps = 16, 62_500
    keys = np.array([philox_key(11, c) for c in range(n)], np.uint64)
    x, out = np.ones((n, 1)), np.empty((n, steps, 1))
    kernel.run(("affine", -np.eye(1), np.zeros(1), 1.0), ("gaussian", np.eye(1), 1.0),
               keys, x, out, burn_in=0, thin=1)
    for c in range(n):
        assert out[c].tobytes() == seed_rng(11, c).standard_normal((steps, 1)).tobytes(), c
    assert (np.abs(out) > 3.6541528853610088).any()


def printed(kernel, values, per_row=100):
    """format_samples' text of each of values, per_row values to a row."""
    values = np.asarray(values, np.float64)
    rows = -(-len(values) // per_row)
    samples = np.zeros(rows * per_row)
    samples[: len(values)] = values
    samples = samples.reshape(rows, 1, per_row)
    ids, steps = np.arange(rows, dtype=np.int64), np.zeros(1, np.int64)
    buf, text, row = np.empty(1 << 20, np.uint8), [], 0
    while row < rows:
        row, used = kernel.format_samples(ids, steps, samples, row, buf)
        assert used, f"format_samples stopped at row {row}"
        text.append(buf[:used].tobytes())
    lines = b"".join(text).decode().split("\r\n")
    assert lines.pop() == ""
    return [v for line in lines for v in line.split(",")[2:]][: len(values)]


def in_range(values):
    a = np.abs(values)
    return values[(a >= 1e-4) & (a < 1e16)]


def test_format_samples_prints_what_repr_prints(kernel):
    rng = np.random.default_rng(20261019)
    lo, hi = np.array([1e-4, np.nextafter(1e16, 0)]).view(np.uint64)
    random_bits = rng.integers(lo, hi, 300_000, dtype=np.uint64, endpoint=True).view(np.float64)
    gaussian = in_range(rng.normal(0.0, 0.7, 300_000))
    # the lower neighbour of a power of two is nearer than the upper one
    powers = np.ldexp(1.0, np.arange(-13, 54))
    near_powers = [np.nextafter(p, 0.0) * (1.0 + j * 2.0**-52) for p in powers
                   for j in range(-40, 41)]
    short = in_range(np.array([float(f"{i}e{e}") for i in range(1, 10_000, 3)
                               for e in range(-8, 16)]))
    integers = rng.integers(0, 2**53, 200_000).astype(np.float64)
    # two shortest digit strings equally near: 2**k + 0.25 and + 0.75
    ties = [2.0**k + f for k in range(0, 54) for f in (0.25, 0.75)]
    edges = [1e-4, np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0), 2.0**53 - 1, 2.0**53 + 2,
             0.0, 0.1, 0.1 + 0.2, 1.0 / 3.0]
    values = np.concatenate([random_bits, gaussian, near_powers, short, integers, ties, edges])
    values = np.concatenate([values, -values])
    assert len(values) >= 1_000_000
    got, want = printed(kernel, values), list(map(repr, values.tolist()))
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:10]
    assert printed(kernel, [2.0**50 + 0.25, 2.0**50 + 0.75, -0.0]) == \
        ["1125899906842624.2", "1125899906842624.8", "-0.0"]


@pytest.mark.parametrize("value", [np.nextafter(1e-4, 0.0), 1e-5, 1e16, np.nextafter(1e16, np.inf),
                                   5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                                   np.inf, -np.inf, np.nan])
def test_format_samples_leaves_out_rows_with_a_value_it_does_not_print(kernel, value):
    # rows of 2 values: printing stops before each row holding value or
    # -value, which prints nothing, and resumes after it
    samples = np.array([[1.0, 2.0], [3.0, value], [-value, 4.0], [5.0, 6.0]]).reshape(4, 1, 2)
    ids, steps = np.arange(4, dtype=np.int64), np.array([7], np.int64)
    buf = np.empty(1024, np.uint8)
    calls = []
    for start in (0, 1, 2, 3, 4):
        row, used = kernel.format_samples(ids, steps, samples, start, buf)
        calls.append((start, row, buf[:used].tobytes()))
    assert calls == [(0, 1, b"0,7,1.0,2.0\r\n"), (1, 1, b""), (2, 2, b""),
                     (3, 4, b"3,7,5.0,6.0\r\n"), (4, 4, b"")]


def test_format_samples_stops_before_a_row_that_might_not_fit(kernel):
    samples = np.full((3, 2, 1), 0.5)
    ids, steps = np.array([0, 1, 2**62], np.int64), np.array([-3, 2**62], np.int64)
    assert kernel.format_samples(ids, steps, samples, 0, np.empty(1000, np.uint8))[0] == 6
    # a row of one value takes at most 2 * 21 + 26 + 2 bytes
    buf = np.empty(70, np.uint8)
    assert kernel.format_samples(ids, steps, samples, 0, buf) == (1, len(b"0,-3,0.5\r\n"))
    row, used = kernel.format_samples(ids, steps, samples, 5, buf)
    assert (row, buf[:used].tobytes()) == (6, f"{2**62},{2**62},0.5\r\n".encode())
    # a row that might not fit in an empty buffer is not printed
    assert kernel.format_samples(ids, steps, samples, 4, np.empty(69, np.uint8)) == (4, 0)
    # no records, so no rows
    assert kernel.format_samples(ids, steps[:0], samples[:, :0], 0, buf) == (0, 0)
    with pytest.raises(ValueError, match="no row 7"):
        kernel.format_samples(ids, steps, samples, 7, buf)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.format_samples(ids, steps, np.full((3, 2, 2), 0.5)[:, :, :1], 0, buf)
    with pytest.raises(ValueError, match="int64"):
        kernel.format_samples(ids.astype(np.int32), steps, samples, 0, buf)
    with pytest.raises(ValueError, match="shape"):
        kernel.format_samples(ids[:2], steps, samples, 0, buf)
    with pytest.raises(ValueError, match="uint8"):
        kernel.format_samples(ids, steps, samples, 0, buf.view(np.int8))


def test_failed_format_check_falls_back_to_the_python_writer(fresh_kernel, tmp_path,
                                                             monkeypatch):
    import salab.cli as cli

    values = np.random.default_rng(4).normal(size=(70, 3, 2))
    values[5, 1, 0] = np.nan
    ens = sim.Ensemble(samples=values, chain_ids=np.arange(70), n_chains=70, n_diverged=0,
                       burn_in=3, thin=2)
    cli._write_samples(tmp_path / "compiled.csv", ens)
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    monkeypatch.setattr(step, "_format_check", lambda kernel: False)
    assert step.load() is None
    assert stepped_by(quartic()) is None
    cli._write_samples(tmp_path / "python.csv", ens)
    assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "compiled.csv").read_bytes()


def test_failed_self_check_falls_back_to_the_numpy_body(fresh_kernel, tmp_path, monkeypatch):
    op, nm = (linear([[-1.3, 0.7], [0.2, -2.1]], [0.1, -0.3]),
              make_noise("gaussian", [[1.0, 0.3], [0.3, 0.5]]))
    sizes = dict(n_chains=70, burn_in=300, thin=7, samples_per_chain=5, seed=8)
    compiled = sim.run_chains(op, nm, 0.01, 0.02, **sizes)
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    monkeypatch.setattr(step, "_self_check", lambda kernel, ref: False)
    fallback = sim.run_chains(op, nm, 0.01, 0.02, **sizes)
    assert compiled.kernel_isa == fresh_kernel.isa and fallback.kernel_isa is None
    assert fallback.samples.tobytes() == compiled.samples.tobytes()


def reference_file():
    """The digest file beside the kernel that the cache at XDG_CACHE_HOME holds."""
    key = step.cache_key(step.SOURCE.read_bytes())
    return Path(os.environ["XDG_CACHE_HOME"]) / "salab" / f"step-{key}.ref"


def test_wrong_reference_digest_falls_back_to_the_numpy_body(fresh_kernel, monkeypatch):
    op, nm = quartic(), make_noise("rademacher", [[0.5]])
    sizes = dict(n_chains=70, burn_in=300, thin=7, samples_per_chain=5, seed=8)
    compiled = sim.run_chains(op, nm, 0.01, 0.02, **sizes)
    ref = reference_file()
    assert ref.read_bytes() == step._numpy_digest()
    # a well-formed digest of draws that are not numpy's
    wrong = step._digest([np.ones(1)])
    ref.write_bytes(wrong)
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    assert step.load() is None
    fallback = sim.run_chains(op, nm, 0.01, 0.02, **sizes)
    assert compiled.kernel_isa == fresh_kernel.isa and fallback.kernel_isa is None
    assert fallback.samples.tobytes() == compiled.samples.tobytes()
    # the file is never rewritten from the kernel's draws
    assert ref.read_bytes() == wrong


def test_missing_reference_file_is_rewritten_from_numpys_draws(fresh_kernel, monkeypatch):
    ref = reference_file()
    expected = ref.read_bytes()
    ref.unlink()
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    assert step.load() is not None
    assert ref.read_bytes() == expected == step._numpy_digest()
    assert step._kernel_digest(step.load()) == expected
    # and the temporary file it was written through is gone
    assert sorted(p.suffix for p in ref.parent.iterdir()) == [".lock", ".ref", ".so"]


def test_self_check_computes_numpys_digest_only_without_a_reference(fresh_kernel, monkeypatch,
                                                                     tmp_path):
    calls = []
    digest = step._numpy_digest
    monkeypatch.setattr(step, "_numpy_digest", lambda: calls.append(1) or digest())
    ref = tmp_path / "step.ref"
    assert step._self_check(fresh_kernel, ref) and calls == [1]
    assert step._self_check(fresh_kernel, ref) and calls == [1]
    # a cache it cannot write still gets numpy's digest compared
    assert step._self_check(fresh_kernel, tmp_path / "no-dir" / "step.ref") and calls == [1, 1]


def test_key_covers_every_input_of_numpys_reference(tmp_path, monkeypatch):
    # a copy of the files the key reads, each changed by one byte in turn
    files = step._key_files()
    names = [p.name for p in files]
    for name in ("_philox", "_generator", "bit_generator", "_common"):
        assert sum(n.startswith(f"{name}.") for n in names) == 1, name
    assert names[0] == "libnpyrandom.a" and names[-3:] == ["noise.py", "core.py", "_step.py"]
    package, salab = tmp_path / "random", tmp_path / "salab"
    (package / "lib").mkdir(parents=True)
    salab.mkdir()
    copies = [package / "lib" / names[0], *(package / n for n in names[1:-3]),
              *(salab / n for n in names[-3:])]
    for src, dst in zip(files, copies):
        dst.write_bytes(src.read_bytes()[:100_000])
    monkeypatch.setattr(step, "LIBRARY", copies[0])
    monkeypatch.setattr(step, "SOURCE", salab / "_step.c")
    assert step._key_files() == copies
    source = b"int x;"
    keys = {step.cache_key(source), step.cache_key(source + b" ")}
    for path in copies:
        data = path.read_bytes()
        path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        keys.add(step.cache_key(source))
        path.write_bytes(data)
    assert len(keys) == 2 + len(copies)
    assert step.cache_key(source) in keys
    copies[1].unlink()
    with pytest.raises(OSError):
        step.cache_key(source)


@pytest.mark.parametrize("missing", ["archive", "header"])
def test_missing_numpy_random_falls_back_to_the_numpy_body(fresh_kernel, tmp_path,
                                                           monkeypatch, missing):
    cases = ((quartic(), make_noise("rademacher", [[0.5]])),
             (linear([[-1.3, 0.7], [0.2, -2.1]], [0.1, -0.3]),
              make_noise("gaussian", [[1.0, 0.3], [0.3, 0.5]])))
    sizes = dict(n_chains=70, burn_in=300, thin=7, samples_per_chain=5, seed=8)
    compiled = [sim.run_chains(op, nm, 0.01, 0.02, **sizes) for op, nm in cases]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other-cache"))
    monkeypatch.setattr(step, "load", functools.cache(step.load.__wrapped__))
    if missing == "archive":
        monkeypatch.setattr(step, "LIBRARY", tmp_path / "libnpyrandom.a")
    else:
        monkeypatch.setattr(step, "_includes", lambda: [f"-I{tmp_path}"])
    for (op, nm), ens in zip(cases, compiled):
        fallback = sim.run_chains(op, nm, 0.01, 0.02, **sizes)
        assert ens.kernel_isa == fresh_kernel.isa and fallback.kernel_isa is None
        assert fallback.samples.tobytes() == ens.samples.tobytes()


def test_import_and_dry_run_build_nothing(tmp_path):
    cache = tmp_path / "cache"
    bin_dir, marker = fake_cc(tmp_path)
    path = f"{bin_dir}{os.pathsep}{os.environ['PATH']}"
    for args in (["-c", "import salab.cli"],
                 ["-m", "salab", "figure", "fig3", "--dry-run"]):
        res = run_salab(args, tmp_path, cache, path)
        assert res.returncode == 0, res.stderr
    assert not marker.exists() and not cache.exists()
    # the probe sees a build: a quartic run starts the compiler, whose
    # failure leaves the numpy body in charge
    cfg = tmp_path / "q.cfg"
    cfg.write_text(QUARTIC_CFG)
    res = run_salab(["-m", "salab", "simulate", "--config", str(cfg), "--out", "q"],
                    tmp_path, cache, path)
    assert res.returncode == 0, res.stderr
    assert marker.exists()
    assert json.loads((tmp_path / "q" / "manifest.json").read_text())["engine"] == "numpy"


#: the runs of test_fallback_writes_the_compiled_bytes: --out, command and config
FALLBACK_RUNS = (("q", "simulate", QUARTIC_CFG), ("g", "simulate", GRAD_CFG),
                 ("p", "pipeline", PIPELINE_CFG))


@pytest.fixture(scope="module")
def compiled_runs(tmp_path_factory):
    """The directory of FALLBACK_RUNS made with the usual kernel, built into
    an empty cache by the first of them, and that cache."""
    tmp = tmp_path_factory.mktemp("compiled")
    cache = tmp / "cache"
    for name, command, text in FALLBACK_RUNS:
        cfg = tmp / f"{name}.cfg"
        cfg.write_text(text)
        res = run_salab(["-m", "salab", command, "--config", str(cfg), "--out", name], tmp, cache)
        assert res.returncode == 0, res.stderr
    return tmp, cache


@pytest.mark.parametrize("failure", ["no-compiler", "unwritable-cache"])
def test_fallback_writes_the_compiled_bytes(tmp_path, compiled_runs, failure):
    compiled, cache = compiled_runs
    for name, command, text in FALLBACK_RUNS:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        args = ["-m", "salab", command, "--config", str(cfg), "--out", name]
        if failure == "no-compiler":
            empty = tmp_path / "empty"
            empty.mkdir(exist_ok=True)
            res = run_salab(args, tmp_path, tmp_path / "c1", path=empty)
        else:
            blocked = tmp_path / "not-a-dir"
            blocked.write_text("")
            res = run_salab(args, tmp_path, blocked)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["engine"] == "numpy"
        assert csv_bytes(tmp_path / name) == csv_bytes(compiled / name)
        if shutil.which("cc") is not None:
            manifest = json.loads((compiled / name / "manifest.json").read_text())
            assert manifest["engine"] == "compiled"
    if shutil.which("cc") is not None:
        key = step.cache_key(step.SOURCE.read_bytes())
        built = sorted(p.name for p in (cache / "salab").glob("*.so"))
        assert built == [f"step-{key}.so"]
        assert (cache / "salab" / f"step-{key}.ref").read_bytes() == step._numpy_digest()


def test_kernel_rejects_buffers_it_cannot_step(fresh_kernel):
    kernel = fresh_kernel
    cube = ("neg_cube", None, None, 0.1)
    signs = ("rademacher", np.eye(1), 0.1)
    keys = np.array([philox_key(1, c) for c in range(4)], np.uint64)
    x, out = np.zeros((4, 1)), np.zeros((4, 3, 1))
    kernel.run(cube, signs, keys, x, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="shape"):
        # four states for three keys
        kernel.run(cube, signs, keys[:3], x, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="uint64"):
        kernel.run(cube, signs, keys.astype(np.int64), x, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="shape"):
        kernel.run(cube, signs, np.zeros((4, 3), np.uint64), x, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.run(cube, signs, np.zeros((4, 4), np.uint64)[:, ::2], x, out,
                   burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.run(cube, signs, keys, np.zeros((4, 2))[:, :1], out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.run(cube, signs, keys, x, np.zeros((3, 4, 1)).transpose(1, 0, 2),
                   burn_in=1, thin=3)
    with pytest.raises(ValueError, match="float64"):
        kernel.run(cube, signs, keys, x.astype(np.float32), out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="drift kind"):
        kernel.run(("cube", None, None, 0.1), signs, keys, x, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="noise shape"):
        kernel.run(cube, ("cauchy", np.eye(1), 0.1), keys, x, out, burn_in=1, thin=3)
    # ctypes would pass a count modulo 2^64: a thin of 2^64 + 1 as 1, a
    # burn-in of 2^64 + 5 as 5 and one of 2^63 as -2^63.  And burn-in
    # 2^63 - 12 with 3 records of thin 3 ends at step 2^63 - 3, but the
    # kernel counts to one stride past the last record
    for burn_in, thin in ((1, 0), (-1, 3), (1, 2**64 + 1), (2**64 + 5, 3), (2**63, 3),
                          (2**63 - 12, 3)):
        with pytest.raises(ValueError, match="schedule"):
            kernel.run(cube, signs, keys, x, out, burn_in=burn_in, thin=thin)

    # a 2-d affine drift: x, out and the Cholesky factor must be those of d = 2
    affine = ("affine", np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([0.1, 0.2]), 0.1)
    gauss = ("gaussian", np.eye(2), 0.1)
    x2, out2 = np.zeros((4, 2)), np.zeros((4, 3, 2))
    kernel.run(affine, gauss, keys, x2, out2, burn_in=1, thin=3)
    for xa, outa, noise in ((x, out2, gauss), (x2, out, gauss),
                            (x2, out2, ("gaussian", np.eye(1), 0.1)),
                            (np.zeros((4, 3)), out2, gauss)):
        with pytest.raises(ValueError, match="shape"):
            kernel.run(affine, noise, keys, xa, outa, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="shape"):
        # b must have d entries, and a must be d x d
        kernel.run(("affine", affine[1], np.zeros(3), 0.1), gauss, keys, x2, out2,
                   burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.run(("affine", np.eye(2).T[:, ::-1], affine[2], 0.1), gauss, keys, x2, out2,
                   burn_in=1, thin=3)
