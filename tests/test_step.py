"""The compiled step kernel: its build, its dispatch and its numpy fallback."""

import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import salab._step as step
import salab.simulate as sim
from salab.drift import (contractive_tanh, exp_square, grad_generic, grad_quadratic, linear,
                         quartic, quartic_sine)
from salab.noise import make_noise

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


def csv_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@needs_cc
def test_source_compiles_without_warnings(tmp_path):
    # the production flags plus every common warning, as errors
    res = subprocess.run(
        ["cc", *step.CFLAGS, "-Wall", "-Wextra", "-Werror", str(step.SOURCE),
         "-o", str(tmp_path / "step.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr


@needs_cc
def test_sign_tile_is_vectorized_for_each_drift_kind(tmp_path):
    # the full sign tile's chain loop, once per drift kind, is what makes
    # fig3 fast; a VLA or an aliasing store in step() silently stops it
    res = subprocess.run(
        ["cc", *step.CFLAGS, "-fopt-info-vec-optimized", str(step.SOURCE),
         "-o", str(tmp_path / "step.so")],
        capture_output=True, text=True, timeout=120,
    )
    if res.returncode != 0 or "optimized:" not in res.stderr:
        pytest.skip("cc does not report vectorized loops with -fopt-info-vec-optimized")
    # signs_tile's body: from its signature to the next closing brace in column 0
    lines = list(enumerate(step.SOURCE.read_text().splitlines(), 1))
    start = next(i for i, line in lines if line.startswith("INLINE void signs_tile("))
    end = next(i for i, line in lines if i > start and line == "}")
    vectorized = [int(m.group(1)) for m in
                  re.finditer(r"_step\.c:(\d+):\d+: optimized: loop vectorized", res.stderr)]
    assert sum(start < n < end for n in vectorized) == len(step.KINDS), res.stderr


def test_only_the_quartic_drift_takes_the_kernel(fresh_kernel):
    # the quartic, and the two affine drifts at every d; nothing else
    assert sim.engine(quartic()) == "compiled"
    assert sim.engine(linear([[-1.0]])) == "compiled"
    assert sim.engine(linear([[-1.0]], [0.5])) == "compiled"
    assert sim.engine(grad_quadratic([[2.0]])) == "compiled"
    assert sim.engine(linear([[-1.0, 0.5], [0.0, -2.0]])) == "compiled"
    assert sim.engine(linear(-np.eye(3), [0.1, 0.2, 0.3])) == "compiled"
    assert sim.engine(grad_quadratic(np.eye(2))) == "compiled"
    for op in (quartic_sine(), exp_square(), contractive_tanh(),
               grad_generic(lambda x: x, root=[0.0])):
        assert sim.engine(op) == "numpy", op.name


def test_compiled_body_builds_no_step_major_noise(fresh_kernel, monkeypatch):
    def step_major(*args):
        raise AssertionError("the compiled body laid the noise out step-major")

    monkeypatch.setattr(sim, "_shaped_chunks", step_major)
    ops = (quartic(), grad_quadratic([[2.0]]), linear([[-1.0]], [0.5]),
           grad_quadratic([[0.9, 0.2], [0.2, 0.7]]),
           linear([[-1.3, 0.7], [0.2, -2.1]], [0.1, -0.3]),
           linear([[-1.3, 0.7, 0.1], [0.2, -2.1, 0.3], [-0.4, 0.6, -1.7]], [0.1, -0.3, 0.7]))
    for op in ops:
        d = op.dim
        # scalar sign noise is packed words, not a noise tile; from d = 2 on it is a tile
        shapes = ("gaussian", "uniform", "noiseless") + (("rademacher",) if d > 1 else ())
        for shape in shapes:
            nm = make_noise(shape, np.eye(d))
            ens = sim.run_chains(op, nm, 0.01, 0.01, n_chains=10, burn_in=10, thin=3,
                                 samples_per_chain=4, seed=1)
            assert ens.samples.shape == (10, 4, d)


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


@pytest.mark.parametrize("failure", ["no-compiler", "unwritable-cache"])
def test_fallback_writes_the_compiled_bytes(tmp_path, failure):
    for name, command, text in (("q", "simulate", QUARTIC_CFG), ("g", "simulate", GRAD_CFG),
                                ("p", "pipeline", PIPELINE_CFG)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        args = ["-m", "salab", command, "--config", str(cfg), "--out"]
        if failure == "no-compiler":
            empty = tmp_path / "empty"
            empty.mkdir(exist_ok=True)
            res = run_salab([*args, f"{name}-fallback"], tmp_path, tmp_path / "c1", path=empty)
        else:
            blocked = tmp_path / "not-a-dir"
            blocked.write_text("")
            res = run_salab([*args, f"{name}-fallback"], tmp_path, blocked)
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / f"{name}-fallback" / "manifest.json").read_text())
        assert manifest["engine"] == "numpy"

        cache = tmp_path / "c2"
        res = run_salab([*args, f"{name}-compiled"], tmp_path, cache)
        assert res.returncode == 0, res.stderr
        assert csv_bytes(tmp_path / f"{name}-fallback") == csv_bytes(tmp_path / f"{name}-compiled")
        if shutil.which("cc") is not None:
            manifest = json.loads((tmp_path / f"{name}-compiled" / "manifest.json").read_text())
            assert manifest["engine"] == "compiled"
            digest = hashlib.sha256(step.SOURCE.read_bytes()).hexdigest()
            built = sorted(p.name for p in (cache / "salab").glob("*.so"))
            assert built == [f"step-{digest}.so"]


def test_kernel_rejects_buffers_it_cannot_step(fresh_kernel):
    kernel = fresh_kernel
    cube = ("neg_cube", None, None, 0.1)
    x, out = np.zeros((4, 1)), np.zeros((4, 3, 1))
    draws = np.zeros((4, 10, 1))
    kernel.step_tile(cube, x, draws, 0, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="shape"):
        kernel.step_tile(cube, x, draws[:3], 0, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.step_tile(cube, np.zeros((4, 2))[:, :1], draws, 0, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        # a step-major block's tile of chains is not what the kernel reads
        kernel.step_tile(cube, x, np.zeros((10, 4, 1)).transpose(1, 0, 2), 0, out,
                         burn_in=1, thin=3)
    with pytest.raises(ValueError, match="uint64"):
        kernel.step_signs(cube, x, np.zeros((1, 4)), 10, 0, -1.0, 1.0, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="drift kind"):
        kernel.step_tile(("cube", None, None, 0.1), x, draws, 0, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="schedule"):
        # steps 1..10 of a schedule that ends at step 1 + 3 * 3 = 10 fit; 2..11 do not
        kernel.step_tile(cube, x, draws, 1, out, burn_in=1, thin=3)
    with pytest.raises(ValueError, match="schedule"):
        kernel.step_signs(cube, x, np.zeros((1, 4), np.uint64), 10, 1, -1.0, 1.0, out,
                          burn_in=1, thin=3)

    # a 2-d affine drift: x, draws and out must end in an axis of d = 2
    affine = ("affine", np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([0.1, 0.2]), 0.1)
    x2, draws2, out2 = np.zeros((4, 2)), np.zeros((4, 10, 2)), np.zeros((4, 3, 2))
    kernel.step_tile(affine, x2, draws2, 0, out2, burn_in=1, thin=3)
    for args in ((x, draws2, out2), (x2, draws, out2), (x2, draws2, out),
                 (np.zeros((4, 3)), draws2, out2)):
        with pytest.raises(ValueError, match="shape"):
            kernel.step_tile(affine, *args[:2], 0, args[2], burn_in=1, thin=3)
    with pytest.raises(ValueError, match="shape"):
        # b must have d entries, and a must be d x d
        kernel.step_tile(("affine", affine[1], np.zeros(3), 0.1), x2, draws2, 0, out2,
                         burn_in=1, thin=3)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel.step_tile(("affine", np.eye(2).T[:, ::-1], affine[2], 0.1), x2, draws2, 0, out2,
                         burn_in=1, thin=3)
    with pytest.raises(ValueError, match="d = 1 only"):
        kernel.step_signs(affine, x2, np.zeros((1, 4), np.uint64), 10, 0, -1.0, 1.0, out2,
                          burn_in=1, thin=3)
