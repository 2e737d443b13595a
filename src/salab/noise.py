"""i.i.d. zero-mean noise with prescribed covariance, in several shapes.

All shapes share the first two moments (0, Sigma); the limiting scaled
stationary law depends on the noise only through Sigma, so swapping shapes
exercises that universality empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, require_spd
from .drift import _ordered_product

_SQRT3 = np.sqrt(3.0)

#: the noise shapes, in the order of _step.c's enum
SHAPES = ("gaussian", "uniform", "rademacher")


@dataclass(frozen=True)
class NoiseModel:
    """Noise distribution: one of SHAPES, with symmetric positive definite Sigma.

    ``cholesky`` is the cached lower factor of Sigma; draws are
    cholesky @ z with z made of i.i.d. unit-variance zero-mean entries of
    the chosen shape.  Immutable; sampling needs an exclusively owned rng.
    """

    shape: str
    sigma: np.ndarray
    cholesky: np.ndarray

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def make_noise(shape: str, sigma) -> NoiseModel:
    """Build a noise model, enforcing symmetric positive definite Sigma."""
    if shape not in SHAPES:
        raise ConfigError(f"unknown noise shape {shape!r}")
    sigma = require_spd(sigma, "noise sigma")
    chol = np.linalg.cholesky(sigma)
    return NoiseModel(shape=shape, sigma=sigma, cholesky=chol)


def sign_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """Raw 64-bit words for n sign draws: draw s is bit s % 64 of word s // 64.

    One raw word feeds 64 sign draws, which is much cheaper than floats.
    The words are the bit generator's raw output: for the Philox streams
    of core.seed_rng, the same words (and the same later draws) as
    rng.integers(0, 1 << 64, dtype=np.uint64), at a third of the cost.
    """
    return rng.bit_generator.random_raw((n + 63) // 64)


def sign_bits(words: np.ndarray) -> np.ndarray:
    """The bits of uint64 words as uint8, least significant first: bit s of
    words[i] is entry 64 i + s, on a host of either byte order."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")


def _unit_variance_block(shape: str, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) block of i.i.d. zero-mean unit-variance entries."""
    if shape == "gaussian":
        return rng.standard_normal((n, d))
    if shape == "uniform":
        return rng.uniform(-_SQRT3, _SQRT3, size=(n, d))
    if shape == "rademacher":
        bits = sign_bits(sign_words(rng, n * d))[: n * d]
        return (bits * 2.0 - 1.0).reshape(n, d)
    raise ConfigError(f"unknown noise shape {shape!r}")


def sample_block(nm: NoiseModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n noise vectors with covariance Sigma, shape (n, dim).

    Row s is L z_s summed in one fixed order, as drift._ordered_product
    sums (no fused multiply-add), so its bits never depend on n, as a BLAS
    product's can, and the compiled kernel draws the same.
    """
    return _ordered_product(_unit_variance_block(nm.shape, rng, n, nm.dim), nm.cholesky)

