"""Empirical verification toolkit: KDE, characteristic-function residuals,
Gaussian goodness of fit, and log-density regressions.

Thinned chains remain mildly correlated, so every threshold here runs on an
effective sample size estimated by batch means (20 batches) rather than the
raw count.

Printed statistics sum in a fixed order (sample_moments, fit_line, _dot),
never in BLAS or LAPACK, whose CPU kernel and thread count split the sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, require_spd, seed_rng, stream_id
from .drift import _ordered_product

#: batches used for batch-means standard errors and effective sample size
N_BATCHES = 20

#: asymptotic Kolmogorov-Smirnov acceptance constant: D <= KS_CRITICAL/sqrt(n_eff)
KS_CRITICAL = 1.95

#: KDE bandwidth rule: 1.06 std n^(-1/5)
_SILVERMAN_FACTOR = 1.06

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: samples whose cf-residual summands are formed together, a multiple of
#: every SIMD width, so a probe's temporaries stay small and in cache
_CF_BLOCK = 8192


# ---------------------------------------------------------------------------
# fixed-order sums and batch means
# ---------------------------------------------------------------------------

def _sample_matrix(samples) -> np.ndarray:
    """Samples as an (n, d) float array: 1-D input holds n scalar samples.

    2-D input is always read as (n, d), so a single d-dimensional sample
    stays one sample and meets the callers' dimension checks.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        return samples[:, None]
    if samples.ndim != 2:
        raise NumericalError(f"samples must be 1-D or (n, d), got shape {samples.shape}")
    return samples


def _dot(x, v):
    """x v for x of shape (..., d): sum_k x[..., k] v[k], in order of k."""
    return _ordered_product(x, v[None, :])[..., 0]


def sample_moments(samples) -> tuple:
    """(mean, unbiased covariance) of (n, d) samples; 1-D input is n scalars.

    Entry (i, j) is numpy's pairwise add.reduce of the products of centred
    columns i and j, each laid out contiguously: its order depends on n only.
    """
    samples = _sample_matrix(samples)
    n, d = samples.shape
    mean = samples.mean(axis=0)
    centred = np.subtract(samples.T, mean[:, None], out=np.empty((d, n)))
    cov = np.empty((d, d))
    for i in range(d):
        for j in range(i + 1):
            cov[i, j] = cov[j, i] = np.add.reduce(centred[i] * centred[j]) / (n - 1)
    return mean, cov


def fit_line(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through the points (x, y)."""
    mean, cov = sample_moments(np.column_stack([x, y]))
    slope = cov[0, 1] / cov[0, 0]
    return float(slope), float(mean[1] - slope * mean[0])


def _batch_means(values: np.ndarray, n_batches: int) -> np.ndarray:
    n = values.shape[0]
    if n < 2 * n_batches:
        n_batches = max(2, n // 2)
    size = n // n_batches
    trimmed = values[: size * n_batches]
    return trimmed.reshape(n_batches, size, *values.shape[1:]).mean(axis=1)


def batch_means_se(values, n_batches: int = N_BATCHES) -> float:
    """Standard error of the mean of a (possibly autocorrelated) sequence."""
    values = np.asarray(values, dtype=float)
    means = _batch_means(values, n_batches)
    return float(means.std(ddof=1) / np.sqrt(means.shape[0]))


def effective_sample_size(values, n_batches: int = N_BATCHES) -> float:
    """Batch-means ESS: marginal variance over long-run variance, times n."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    marginal = values.var(ddof=1)
    if marginal == 0.0:
        return float(n)
    means = _batch_means(values, n_batches)
    batch = n // means.shape[0]
    longrun = batch * means.var(ddof=1)
    if longrun == 0.0:
        return float(n)
    return float(min(n, n * marginal / longrun))


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    count: int


def silverman_bandwidth(samples: np.ndarray) -> float:
    return _SILVERMAN_FACTOR * float(samples.std(ddof=1)) * samples.size ** (-0.2)


#: kernel cutoff: exp(-0.5 * 8.7^2) ~ 4e-17 is below double-precision
#: resolution of the accumulated sum, so truncation does not alter results
_KERNEL_CUTOFF = 8.7


def estimate_density(samples, grid) -> DensityEstimate:
    """Gaussian-kernel density estimate on the given grid (scalar samples).

    Evaluates each grid point against the sorted-sample window within the
    kernel cutoff, so the cost is proportional to the mass actually under
    each kernel instead of n times the grid size.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    grid = np.asarray(grid, dtype=float)
    if samples.size < 1000:
        raise NumericalError("density estimation needs at least 1000 samples")
    h = silverman_bandwidth(samples)
    if h <= 0.0 or not np.isfinite(h):
        raise NumericalError("zero bandwidth: samples are degenerate")
    ordered = np.sort(samples)
    reach = _KERNEL_CUTOFF * h
    lo = np.searchsorted(ordered, grid - reach, side="left")
    hi = np.searchsorted(ordered, grid + reach, side="right")
    density = np.zeros_like(grid)
    for j, (a, b) in enumerate(zip(lo, hi)):
        if a == b:
            continue
        z = (grid[j] - ordered[a:b]) / h
        density[j] = np.exp(-0.5 * z * z).sum()
    density /= samples.size * h * _SQRT_2PI
    return DensityEstimate(grid=grid, density=density, bandwidth=h, count=samples.size)


# ---------------------------------------------------------------------------
# characteristic-function residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CfResidualReport:
    t_grid: np.ndarray          # (k, d)
    residual_real: np.ndarray
    residual_imag: np.ndarray
    se: np.ndarray              # combined Monte-Carlo SE per t


def default_t_grid(dim: int, seed: int = 0) -> np.ndarray:
    """Frequency probes: signed scalars for d=1, axes plus random directions else."""
    if dim == 1:
        return np.array([[0.25], [-0.25], [0.5], [-0.5], [1.0], [-1.0], [2.0], [-2.0]])
    rows = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        for mag in (0.5, 1.0):
            rows.append(mag * e)
            rows.append(-mag * e)
    rng = seed_rng(seed, stream_id("t-grid", dim))
    for _ in range(8):
        v = rng.standard_normal(dim)
        rows.append(v / np.linalg.norm(v, axis=0))
    return np.array(rows)


def cf_residual(samples, m_lyap, sigma, t_grid=None) -> CfResidualReport:
    """Monte-Carlo residual of E[(t'St - 2i t'M Y) exp(i t'Y)] per frequency t.

    The expectation is exactly zero when Y follows the Gaussian limit whose
    covariance solves the Lyapunov equation for (M, Sigma).  Standard errors
    come from batch means over the sample order, so correlated ensembles get
    honest error bars.

    Negating t negates the phase, t'M y and the sine exactly, and leaves
    t'St and the cosine as they are, so each summand becomes its conjugate:
    a probe whose exact negation is an earlier row takes that row's
    (re, -im, se) without a pass over the samples.  A zero im is computed
    again, as negating it cannot tell which zero the sum would give.
    """
    samples = _sample_matrix(samples)
    n, d = samples.shape
    m_lyap = np.atleast_2d(np.asarray(m_lyap, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if m_lyap.shape != (d, d) or sigma.shape != (d, d):
        raise NumericalError("M / Sigma dimension mismatch")
    if t_grid is None:
        t_grid = default_t_grid(d)
    t_grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    if t_grid.shape[1] != d:
        raise NumericalError("t grid dimension mismatch")
    if n < 2:
        raise NumericalError("cf residual needs at least 2 samples")

    res_re = np.empty(t_grid.shape[0])
    res_im = np.empty(t_grid.shape[0])
    ses = np.empty(t_grid.shape[0])
    summand = np.empty(n, complex)
    wave = np.empty(min(n, _CF_BLOCK), complex)    # exp(i t'y_j) per sample
    rows = {}                                       # t.tobytes() -> its row
    for j, t in enumerate(t_grid):
        mirror = rows.get((-t).tobytes())
        rows[t.tobytes()] = j
        if mirror is not None and res_im[mirror] != 0.0:
            res_re[j], res_im[j], ses[j] = res_re[mirror], -res_im[mirror], ses[mirror]
            continue
        quad = float(_dot(t, _dot(sigma, t)))
        mt = _dot(m_lyap.T, t)
        # every step is elementwise, so the block size changes no bit
        for lo in range(0, n, _CF_BLOCK):
            y = samples[lo : lo + _CF_BLOCK]
            s, w = summand[lo : lo + _CF_BLOCK], wave[: len(y)]
            phase = _dot(y, t)
            # the real sine and cosine cost less than a complex exp, and
            # give its bits
            np.cos(phase, out=w.real)
            np.sin(phase, out=w.imag)
            np.multiply(2j, _dot(y, mt), out=s)    # 2i t'M y_j per sample
            np.subtract(quad, s, out=s)
            np.multiply(s, w, out=s)
        res_re[j] = summand.real.mean()
        res_im[j] = summand.imag.mean()
        se_re = batch_means_se(summand.real)
        se_im = batch_means_se(summand.imag)
        ses[j] = np.hypot(se_re, se_im)
    return CfResidualReport(
        t_grid=t_grid,
        residual_real=res_re,
        residual_imag=res_im,
        se=ses,
    )


# ---------------------------------------------------------------------------
# Gaussian goodness of fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GofReport:
    ks_distance: float            # NaN for d > 1
    ks_threshold: float
    mean_z: np.ndarray
    cov_rel_err: float
    cov_threshold: float
    n_eff: float
    passed: bool


def gaussian_gof(samples, sigma_y) -> GofReport:
    """Test samples against the zero-mean Gaussian with covariance sigma_y.

    d = 1 additionally runs a two-sided Kolmogorov-Smirnov test; all
    dimensions check standardized mean z-scores (|z| <= 4) and the relative
    Frobenius error of the sample covariance against a 5-standard-error
    bound.  Thresholds use the batch-means effective sample size.
    """
    samples = _sample_matrix(samples)
    n, d = samples.shape
    sigma_y = require_spd(sigma_y, "Sigma_Y")
    if sigma_y.shape[0] != d:
        raise NumericalError("Sigma_Y dimension mismatch")
    if n < 2:
        raise NumericalError("Gaussian goodness of fit needs at least 2 samples")

    n_eff = min(effective_sample_size(samples[:, i]) for i in range(d))

    mean, cov = sample_moments(samples)
    mean_z = mean / np.sqrt(np.diag(sigma_y) / n_eff)

    # given an axis, norm is an add.reduce of squares; without one, a BLAS dot
    sigma_norm = float(np.linalg.norm(sigma_y, axis=(0, 1)))
    cov_rel_err = float(np.linalg.norm(cov - sigma_y, axis=(0, 1))) / sigma_norm
    # sum of per-entry sampling variances of a Gaussian covariance estimate:
    # Var(S_ij) = (S_ii S_jj + S_ij^2) / n, totalling tr(S)^2 + ||S||_F^2
    cov_threshold = 5.0 * np.sqrt(np.trace(sigma_y) ** 2 + sigma_norm**2) / (
        np.sqrt(n_eff) * sigma_norm
    )

    if d == 1:
        # imported here so that importing salab never loads scipy
        from scipy.special import ndtr

        scale = np.sqrt(sigma_y[0, 0])
        sorted_samples = np.sort(samples[:, 0])
        cdf = ndtr(sorted_samples / scale)
        hi = np.max(np.arange(1, n + 1) / n - cdf)
        lo = np.max(cdf - np.arange(0, n) / n)
        ks = float(max(hi, lo))
    else:
        ks = float("nan")
    ks_threshold = KS_CRITICAL / np.sqrt(n_eff)

    passed = (
        (d > 1 or ks <= ks_threshold)
        and bool(np.all(np.abs(mean_z) <= 4.0))
        and cov_rel_err <= cov_threshold
    )
    return GofReport(
        ks_distance=ks,
        ks_threshold=float(ks_threshold),
        mean_z=mean_z,
        cov_rel_err=cov_rel_err,
        cov_threshold=float(cov_threshold),
        n_eff=float(n_eff),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# log-density regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    exponent: float
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def log_density_fit(est: DensityEstimate, q: float, tail_trim: float = 0.01) -> FitReport:
    """OLS of log density against |y|^q on |y|-symmetrized bins.

    Grid points whose density falls below tail_trim times the peak are
    discarded; KDE tails there are noise-dominated.
    """
    if q not in (2, 4):
        raise NumericalError("fit exponent q must be 2 or 4")
    if not (0.0 < tail_trim < 0.5):
        raise NumericalError("tail_trim must lie in (0, 0.5)")
    # fold the grid by |y|, averaging mirrored density values
    keys = np.round(np.abs(est.grid), 9)
    order = np.argsort(keys)
    keys, dens = keys[order], est.density[order]
    uniq, start = np.unique(keys, return_index=True)
    folded = np.add.reduceat(dens, start) / np.diff(np.append(start, dens.size))
    keep = folded > tail_trim * folded.max()
    x, p = uniq[keep] ** q, folded[keep]
    if x.size < 10:
        raise NumericalError("fewer than 10 grid points retained for the fit")
    logp = np.log(p)
    slope, intercept = fit_line(x, logp)
    fitted = slope * x + intercept
    ss_res = float(((logp - fitted) ** 2).sum())
    ss_tot = float(((logp - logp.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return FitReport(
        exponent=float(q),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        n_points=int(x.size),
    )
