"""Empirical verification toolkit: one summary per sample array, KDE,
characteristic-function residuals, Gaussian goodness of fit, log-density fits.

Thinned chains remain mildly correlated, so every threshold here runs on an
effective sample size estimated by batch means (20 batches) rather than the
raw count.

Printed statistics sum in a fixed order (sample_moments, fit_line, _dot),
never in BLAS or LAPACK, whose CPU kernel and thread count split the sums.
A sum over the n samples is numpy's pairwise add.reduce tree, evaluated one
subtree of at most _BLOCK samples at a time (_pairwise_sum), so it has the
bits of the whole-array reduction; means over axis 0 add the rows in
order.  No statistic here holds a temporary of the samples' length: each
forms its products, deviations or summands one block at a time, and only
the KS test (d = 1) holds a copy, the sorted one.  Every product and sum
rounds on its own, with no fused multiply-add, so the bits do not depend
on numpy's SIMD level either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, require_spd
from .drift import _ordered_product

#: batches used for batch-means standard errors and effective sample size
N_BATCHES = 20

#: asymptotic Kolmogorov-Smirnov acceptance constant: D <= KS_CRITICAL/sqrt(n_eff)
KS_CRITICAL = 1.95

#: KDE bandwidth rule: 1.06 std n^(-1/5)
_SILVERMAN_FACTOR = 1.06

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: samples whose products, deviations or summands a statistic forms
#: together: a multiple of every SIMD width and of numpy's 8-way unrolled
#: sum, so the temporaries stay small and in cache
_BLOCK = 8192


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


def _pairwise_sum(n: int, leaf, lo: int = 0):
    """The sum over [lo, lo + n) that numpy's pairwise add.reduce of those n values makes.

    numpy adds more than 128 values as the sum of the first
    n2 = n // 2 - (n // 2) % 8 of them and the sum of the rest, each split
    the same way.  This splits the range at the same places down to ranges
    of at most _BLOCK and adds leaf(a, b), np.add.reduce over [a, b),
    which is that subtree bit for bit, in the tree's order.  The ranges are
    visited from left to right.  leaf may return an array, for several
    trees over the same ranges.
    """
    if n <= _BLOCK:
        return leaf(lo, lo + n)
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_sum(n2, leaf, lo) + _pairwise_sum(n - n2, leaf, lo + n2)


def _dot(x, v):
    """x v for x of shape (..., d): sum_k x[..., k] v[k], in order of k."""
    return _ordered_product(x, v[None, :])[..., 0]


def sample_moments(samples) -> tuple:
    """(mean, unbiased covariance) of (n, d) samples; 1-D input is n scalars.

    Entry (i, j) is numpy's pairwise add.reduce of the products of centred
    columns i and j, each laid out contiguously: its order depends on n only.
    The products are formed one block at a time (_pairwise_sum).
    """
    samples = _sample_matrix(samples)
    n, d = samples.shape
    mean = samples.mean(axis=0)
    pairs = [(i, j) for i in range(d) for j in range(i + 1)]
    centred = np.empty((d, min(n, _BLOCK)))
    product = np.empty(min(n, _BLOCK))

    def leaf(lo, hi):
        c = np.subtract(samples[lo:hi].T, mean[:, None], out=centred[:, : hi - lo])
        p = product[: hi - lo]
        return np.array([np.add.reduce(np.multiply(c[i], c[j], out=p)) for i, j in pairs])

    cov = np.empty((d, d))
    for (i, j), s in zip(pairs, _pairwise_sum(n, leaf) / (n - 1)):
        cov[i, j] = cov[j, i] = s
    return mean, cov


def fit_line(x, y) -> tuple:
    """(slope, intercept) of the least-squares line through the points (x, y)."""
    mean, cov = sample_moments(np.column_stack([x, y]))
    slope = cov[0, 1] / cov[0, 0]
    return float(slope), float(mean[1] - slope * mean[0])


def _batch_shape(n: int) -> tuple:
    """(batches, size): the first batches * size of n values, in batches of size."""
    n_batches = N_BATCHES
    if n < 2 * n_batches:
        n_batches = max(2, n // 2)
    return n_batches, n // n_batches


def _batch_means(values: np.ndarray) -> np.ndarray:
    n_batches, size = _batch_shape(values.shape[0])
    trimmed = values[: size * n_batches]
    return trimmed.reshape(n_batches, size, *values.shape[1:]).mean(axis=1)


def _mean_se(means: np.ndarray) -> float:
    """Standard error of the mean over batches with these means."""
    return float(means.std(ddof=1) / np.sqrt(means.shape[0]))


def batch_means_se(values) -> float:
    """Standard error of the mean of a (possibly autocorrelated) sequence."""
    return _mean_se(_batch_means(np.asarray(values, dtype=float)))


def effective_sample_size(values) -> float:
    """Batch-means ESS: marginal variance over long-run variance, times n."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    marginal = sample_moments(values)[1][0, 0]
    if marginal == 0.0:
        return float(n)
    means = _batch_means(values)
    batch = n // means.shape[0]
    longrun = batch * means.var(ddof=1)
    if longrun == 0.0:
        return float(n)
    return float(min(n, n * marginal / longrun))


@dataclass(frozen=True)
class Summary:
    """What every verdict reads of one array of (n, d) samples."""

    count: int
    mean: np.ndarray              # (d,)
    cov: np.ndarray               # (d, d), unbiased
    n_eff: tuple                  # effective_sample_size of each coordinate

    @property
    def sd(self) -> float:
        """std(ddof=1) of scalar samples."""
        return math.sqrt(self.cov[0, 0])


def summarize(samples) -> Summary:
    """The Summary of (n, d) samples (1-D input is n scalars): each field is the
    fixed-order whole-array statistic of sample_moments or the ESS."""
    samples = _sample_matrix(samples)
    n, d = samples.shape
    if n < 2:
        raise NumericalError("a sample summary needs at least 2 samples")
    mean, cov = sample_moments(samples)
    return Summary(count=n, mean=mean, cov=cov,
                   n_eff=tuple(effective_sample_size(samples[:, i]) for i in range(d)))


def second_moment_trace(samples) -> float:
    """The mean of |y|^2 over (n, d) samples (1-D input is n scalars):
    (samples**2).sum(axis=1).mean(), one block of squares at a time."""
    samples = _sample_matrix(samples)
    n = samples.shape[0]
    squares = _pairwise_sum(n, lambda lo, hi: np.add.reduce((samples[lo:hi] ** 2).sum(axis=1)))
    return float(squares / n)


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    count: int


#: kernel cutoff: exp(-0.5 * 8.7^2) ~ 4e-17 is below double-precision
#: resolution of the accumulated sum, so truncation does not alter results
_KERNEL_CUTOFF = 8.7

#: fewest samples a density is estimated from
MIN_DENSITY_SAMPLES = 1000

#: the log-density fit drops grid points below this fraction of the peak
_TAIL_TRIM = 0.01


def density_grid(sigma: float) -> np.ndarray:
    """The 513-point grid a density is estimated on, over +-4.6 sigma."""
    span = 4.6 * sigma
    return np.linspace(-span, span, 513)


def estimate_density(samples, grid, sd: float) -> DensityEstimate:
    """Gaussian-kernel density estimate on the given grid (scalar samples).

    The bandwidth is Silverman's, from sd, the samples' Summary.sd.
    Evaluates each grid point against the sorted-sample window within the
    kernel cutoff, so the cost is proportional to the mass actually under
    each kernel instead of n times the grid size.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    grid = np.asarray(grid, dtype=float)
    if samples.size < MIN_DENSITY_SAMPLES:
        raise NumericalError(
            f"density estimation needs at least {MIN_DENSITY_SAMPLES} samples")
    h = _SILVERMAN_FACTOR * sd * samples.size ** (-0.2)
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


def default_t_grid(dim: int) -> np.ndarray:
    """Frequency probes, one t of each +-t pair, whose residuals are conjugates.

    d = 1: 0.25, 0.5, 1 and 2.  Else each axis at 0.5 and then 1, then for
    each pair i < j the diagonals (e_i + e_j)/sqrt(2) and (e_i - e_j)/sqrt(2),
    so every covariance entry has a probe.
    """
    if dim == 1:
        return np.array([[0.25], [0.5], [1.0], [2.0]])
    eye = np.eye(dim)
    rows = [mag * e for e in eye for mag in (0.5, 1.0)]
    for i in range(dim):
        for j in range(i + 1, dim):
            rows += [(eye[i] + eye[j]) / math.sqrt(2.0), (eye[i] - eye[j]) / math.sqrt(2.0)]
    return np.array(rows)


def cf_residual(samples, m_lyap, sigma, t_grid=None) -> CfResidualReport:
    """Monte-Carlo residual of E[(t'St - 2i t'M Y) exp(i t'Y)] per frequency t.

    The expectation is exactly zero when Y follows the Gaussian limit whose
    covariance solves the Lyapunov equation for (M, Sigma).  Standard errors
    come from batch means over the sample order, so correlated ensembles get
    honest error bars.
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

    k = t_grid.shape[0]
    res_re, res_im, ses = np.empty(k), np.empty(k), np.empty(k)
    m = min(n, _BLOCK)
    cos, sin, lin, prod = np.empty((4, m))
    summand = np.empty((2, m))                      # real and imaginary parts
    n_batches, size = _batch_shape(n)
    batch = np.empty((2, size))                     # the batch being filled
    means = np.empty((2, n_batches))                # batch means of re and im
    for j, t in enumerate(t_grid):
        quad = float(_dot(t, _dot(sigma, t)))
        mt = _dot(m_lyap.T, t)

        def leaf(lo, hi):
            # every step is elementwise, so the range changes no bit
            y, k = samples[lo:hi], hi - lo
            c, s, b, p = cos[:k], sin[:k], lin[:k], prod[:k]
            re, im = summand[:, :k]
            phase = _dot(y, t)
            np.cos(phase, out=c)
            np.sin(phase, out=s)
            np.multiply(_dot(y, mt), 2.0, out=b)
            np.subtract(0.0, b, out=b)              # b = 0 - 2 t'M y_j per sample
            # (quad + i b)(cos + i sin) in real arithmetic, each product and
            # sum rounded on its own: a complex multiply would fuse them
            # where the CPU has FMA
            np.subtract(np.multiply(quad, c, out=re), np.multiply(b, s, out=p), out=re)
            np.add(np.multiply(quad, s, out=im), np.multiply(b, c, out=p), out=im)
            # ranges come in order: copy this one into the batches it
            # meets, and average each batch once it is full
            at, end = lo, min(hi, n_batches * size)
            while at < end:
                i, off = divmod(at, size)
                stop = min(end, (i + 1) * size)
                batch[:, off : off + stop - at] = summand[:, at - lo : stop - lo]
                if stop == (i + 1) * size:
                    means[:, i] = np.add.reduce(batch, axis=1) / size
                at = stop
            return np.add.reduce(summand[:, :k], axis=1)

        res_re[j], res_im[j] = _pairwise_sum(n, leaf) / n
        ses[j] = np.hypot(_mean_se(means[0]), _mean_se(means[1]))
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


def gaussian_gof(samples, summary: Summary, sigma_y) -> GofReport:
    """Test samples, summarized by summary, against N(0, sigma_y).

    d = 1 additionally runs a two-sided Kolmogorov-Smirnov test; all
    dimensions check standardized mean z-scores (|z| <= 4) and the relative
    Frobenius error of the sample covariance against a 5-standard-error
    bound.  Thresholds use the least n_eff of the summary's coordinates.
    """
    d = summary.mean.shape[0]
    sigma_y = require_spd(sigma_y, "Sigma_Y")
    if sigma_y.shape[0] != d:
        raise NumericalError("Sigma_Y dimension mismatch")

    n_eff = min(summary.n_eff)
    mean_z = summary.mean / np.sqrt(np.diag(sigma_y) / n_eff)

    # given an axis, norm is an add.reduce of squares; without one, a BLAS dot
    sigma_norm = float(np.linalg.norm(sigma_y, axis=(0, 1)))
    cov_rel_err = float(np.linalg.norm(summary.cov - sigma_y, axis=(0, 1))) / sigma_norm
    # sum of per-entry sampling variances of a Gaussian covariance estimate:
    # Var(S_ij) = (S_ii S_jj + S_ij^2) / n, totalling tr(S)^2 + ||S||_F^2
    cov_threshold = 5.0 * np.sqrt(np.trace(sigma_y) ** 2 + sigma_norm**2) / (
        np.sqrt(n_eff) * sigma_norm
    )

    if d == 1:
        # the sorted copy becomes the normal cdf in place, and the steps of
        # the empirical cdf are formed, one block at a time
        n = summary.count
        cdf = np.sort(_sample_matrix(samples)[:, 0])
        root = math.sqrt(2.0 * sigma_y[0, 0])
        blocks = [(a, min(n, a + _BLOCK)) for a in range(0, n, _BLOCK)]
        for a, b in blocks:
            cdf[a:b] = [0.5 * math.erfc(-x / root) for x in cdf[a:b].tolist()]
        hi = np.max([np.max(np.arange(a + 1, b + 1) / n - cdf[a:b]) for a, b in blocks])
        lo = np.max([np.max(cdf[a:b] - np.arange(a, b) / n) for a, b in blocks])
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


def log_fit_exponents(exponent: float) -> tuple:
    """The q of the log-density fits at scaling exponent p: 2, and 4 at p = 1/4."""
    return (2, 4) if abs(exponent - 0.25) < 1e-9 else (2,)


def log_density_fit(est: DensityEstimate, q: float) -> FitReport:
    """OLS of log density against |y|^q on |y|-symmetrized bins.

    Grid points whose density falls below _TAIL_TRIM times the peak are
    discarded; KDE tails there are noise-dominated.
    """
    if q not in (2, 4):
        raise NumericalError("fit exponent q must be 2 or 4")
    # fold the grid by |y|, averaging mirrored density values
    keys = np.round(np.abs(est.grid), 9)
    order = np.argsort(keys)
    keys, dens = keys[order], est.density[order]
    uniq, start = np.unique(keys, return_index=True)
    folded = np.add.reduceat(dens, start) / np.diff(np.append(start, dens.size))
    keep = folded > _TAIL_TRIM * folded.max()
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
