"""Search for the power-law scaling that makes the local drift limit nontrivial.

For a candidate exponent p the scaled drift alpha^p F(y alpha^p + x*) / alpha
is tracked over a decreasing alpha sequence: a flat magnitude trend marks the
nontrivial exponent, a rising trend means the limit vanishes, a falling trend
means it blows up.  The exponent where the fitted log-log slope crosses zero
is refined by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import NumericalError
from .drift import DriftOperator, eval_drift
from .stats import fit_line

#: candidate exponents, in increasing order
DEFAULT_EXPONENT_GRID = (1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4)

#: alpha_j = 10^(-2 - j/2), nine points spanning four decades
DEFAULT_ALPHA_SEQUENCE = tuple(10.0 ** (-2 - j / 2) for j in range(9))

#: probe offsets of both signs and two magnitudes, catching non-odd drifts
DEFAULT_PROBES = (0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

#: |log-log slope| below this reads as a stable (nontrivial) magnitude
SLOPE_TOL = 0.05

#: bisection target width for the exponent
EXPONENT_TOL = 1e-3

#: alpha at which the limit function is sampled (with Richardson cleanup)
_LIMIT_ALPHA = 1e-8

VANISHES = "vanishes"
NONTRIVIAL = "nontrivial"
BLOWS_UP = "blows_up"
OSCILLATES = "oscillates"


def scaled_drift(op: DriftOperator, p: float, alpha: float, y) -> np.ndarray:
    """alpha^p F(y alpha^p + x*) / alpha, the drift seen by the scaled iterate."""
    if alpha <= 0:
        raise NumericalError("alpha must be positive")
    g = float(alpha) ** float(p)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return g * eval_drift(op, op.root + g * y) / alpha


def _probe_vector(op: DriftOperator, probe: float) -> np.ndarray:
    """Scalar probe offsets act along the first coordinate axis."""
    y = np.zeros(op.dim)
    y[0] = probe
    return y


@dataclass(frozen=True)
class ProbeTrend:
    probe: float
    magnitudes: np.ndarray
    slope: float
    label: str


def _probe_trend(op: DriftOperator, p: float, probe: float) -> ProbeTrend:
    y = _probe_vector(op, probe)
    values = np.array([scaled_drift(op, p, a, y) for a in DEFAULT_ALPHA_SEQUENCE])
    mags = np.linalg.norm(values, axis=1)
    if np.any(mags == 0.0):
        # magnitude hits exact zero along the sequence: treat as vanishing
        return ProbeTrend(probe, mags, np.inf, VANISHES)
    signs = np.sign(values)
    flips = np.any((signs[:-1] * signs[1:]) < 0)
    slope = fit_line(np.log(DEFAULT_ALPHA_SEQUENCE), np.log(mags))[0]
    if flips:
        label = OSCILLATES
    elif slope >= SLOPE_TOL:
        label = VANISHES
    elif slope <= -SLOPE_TOL:
        label = BLOWS_UP
    else:
        label = NONTRIVIAL
    return ProbeTrend(probe, mags, slope, label)


def _combine(trends: Sequence[ProbeTrend]) -> str:
    labels = {t.label for t in trends}
    if BLOWS_UP in labels:
        return BLOWS_UP
    if NONTRIVIAL in labels:
        return NONTRIVIAL
    if OSCILLATES in labels:
        return OSCILLATES
    return VANISHES


def _mean_slope(op, p) -> float:
    trends = [_probe_trend(op, p, pr) for pr in DEFAULT_PROBES]
    slopes = [t.slope for t in trends if np.isfinite(t.slope)]
    if not slopes:
        return np.inf
    return float(np.mean(slopes))


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of the exponent search with its supporting evidence."""

    classifications: dict
    exponent: float
    ftilde: tuple                 # ((probe, F(probe) limit sample), ...)
    evidence: tuple               # rows (p, probe, alpha, magnitude, label)


def sample_limit_drift(op: DriftOperator, p: float) -> tuple:
    """Sample the limiting drift at the given exponent over DEFAULT_PROBES.

    Richardson extrapolation in alpha removes the leading linear-in-alpha
    truncation, so analytic drifts are resolved to ~1e-8 accuracy.
    """
    rows = []
    for probe in DEFAULT_PROBES:
        y = _probe_vector(op, probe)
        coarse = scaled_drift(op, p, _LIMIT_ALPHA, y)
        fine = scaled_drift(op, p, _LIMIT_ALPHA / 4.0, y)
        value = (4.0 * fine - coarse) / 3.0
        rows.append((probe, value[0] if op.dim == 1 else value))
    return tuple(rows)


def find_scaling_exponent(op: DriftOperator) -> ScalingReport:
    """Locate the unique exponent with a nontrivial scaled-drift limit.

    Each exponent of DEFAULT_EXPONENT_GRID is classified from the probes'
    trends along DEFAULT_ALPHA_SEQUENCE.  A grid exponent classified
    nontrivial wins outright; otherwise the blows-up/vanishes boundary is
    refined by bisecting on the sign of the fitted slope until the bracket
    is narrower than EXPONENT_TOL.
    """
    grid = DEFAULT_EXPONENT_GRID
    evidence = []
    labels = {}
    for p in grid:
        trends = [_probe_trend(op, p, pr) for pr in DEFAULT_PROBES]
        labels[p] = _combine(trends)
        for t in trends:
            for a, m in zip(DEFAULT_ALPHA_SEQUENCE, t.magnitudes):
                evidence.append((p, t.probe, float(a), float(m), t.label))

    nontrivial = [p for p in grid if labels[p] == NONTRIVIAL]

    if len(nontrivial) == 1:
        exponent = nontrivial[0]
    elif len(nontrivial) >= 2:
        # adjacent near-flat exponents: refine between the outermost pair
        exponent = _bisect_slope(op, nontrivial[0], nontrivial[-1])
    else:
        # slope decreases through zero as p crosses the true exponent
        bracket = None
        for lo, hi in zip(grid, grid[1:]):
            if labels[lo] == BLOWS_UP and labels[hi] == VANISHES:
                bracket = (lo, hi)
                break
        if bracket is None:
            raise NumericalError("no power-law scaling on grid")
        exponent = _bisect_slope(op, bracket[0], bracket[1])

    return ScalingReport(
        classifications=labels,
        exponent=exponent,
        ftilde=sample_limit_drift(op, exponent),
        evidence=tuple(evidence),
    )


def _bisect_slope(op, lo, hi) -> float:
    """Bisect on the sign of the fitted slope; the true exponent has slope 0."""
    s_lo = _mean_slope(op, lo)
    s_hi = _mean_slope(op, hi)
    if s_lo > 0 or s_hi < 0:
        # bracket does not straddle the zero slope; fall back to the midpoint
        return 0.5 * (lo + hi)
    while hi - lo > EXPONENT_TOL:
        mid = 0.5 * (lo + hi)
        if _mean_slope(op, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
