"""Built-in figure experiments: density convergence under candidate scalings.

Each figure simulates one drift across a decade ladder of stepsizes, scales
the iterates by a candidate power law, and reports kernel density curves
plus a convergence-trend verdict.  With the right exponent the curves pile
up on a fixed limit shape; with a wrong one they form a self-similar family
whose spread drifts geometrically, which the trend check detects.  A figure
of a single stepsize reports the log-density fits of its limit instead.

Ensembles here use sign noise: the limiting law depends on the noise only
through its covariance, and sign draws cost a fraction of gaussian ones,
which matters because the flat quartic drift mixes in ~2.2 alpha^(-3/2)
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Optional

import numpy as np

from .core import ExperimentConfig, NumericalError, PowerScaling, ValidatedConfig, validate_config
from .simulate import _config_chains
from .stats import density_grid, estimate_density, log_density_fit, log_fit_exponents, summarize

#: density curves flatten/sharpen 10^|p - p*| per decade under a wrong
#: exponent; allow half that movement (in log10) between the two smallest
#: stepsizes before declaring non-convergence
SIGMA_STABILITY_DEX = 0.125

#: the smallest-stepsize pair of curves may differ by at most this factor
#: times the largest-stepsize pair difference
DIFF_RATIO = 3.0

#: effective samples targeted per curve (equal across curves, so both pair
#: differences carry the same noise floor)
_N_EFF_TARGET = 4000

_FIGURE_ALPHAS = (1e-1, 1e-2, 1e-3, 1e-4)


def _mixing_steps(drift_name: str, alpha: float) -> float:
    """Integrated autocorrelation time of the chain, in steps.

    Drifts with a linear restoring term of rate theta mix like 1/(theta
    alpha); the flat quartic has no linear term and mixes on the slower
    alpha^(-3/2) clock of its limit diffusion (measured constant 2.2).
    """
    if drift_name == "quartic":
        return 2.2 * alpha**-1.5
    if drift_name == "exp_square":
        return 0.5 / alpha
    return 1.0 / alpha


def _figure_config(drift_name: str, alpha: float, seed: int) -> ValidatedConfig:
    """The figure rule's ensemble at alpha: sign noise with Sigma = I, and
    chains, burn-in, thin and records sized by the drift's mixing time."""
    tau = _mixing_steps(drift_name, alpha)
    n_chains = 2048 if tau > 1e5 else 1024
    thin = max(1, ceil(tau / 4.0))
    return validate_config(ExperimentConfig(
        drift=drift_name, noise_shape="rademacher", alphas=(alpha,), n_chains=n_chains,
        burn_in=ceil(2.5 * tau), thin=thin, seed=seed,
        samples_per_chain=max(8, ceil(_N_EFF_TARGET * tau / (n_chains * thin)))))


@dataclass(frozen=True)
class FigureSpec:
    name: str
    drift: str
    exponent: float
    alphas: tuple

    @property
    def trend(self) -> bool:           # the trend check, on a ladder of 3 or more
        return len(self.alphas) >= 3

    @property
    def fit_exponents(self) -> tuple:  # log-density fits, on a single stepsize
        return () if self.trend else log_fit_exponents(self.exponent)


FIGURE_SPECS = {
    # quartic objective: alpha^(1/2) is the wrong scaling, alpha^(1/4) right
    "fig1": FigureSpec("fig1", "quartic", 0.5, _FIGURE_ALPHAS),
    "fig2": FigureSpec("fig2", "quartic", 0.25, _FIGURE_ALPHAS),
    "fig3": FigureSpec("fig3", "quartic", 0.25, (1e-3,)),
    # exp(x^2) objective: alpha^(1/2) correct, limit is gaussian-shaped
    "fig4": FigureSpec("fig4", "exp_square", 0.5, _FIGURE_ALPHAS),
    "fig5": FigureSpec("fig5", "exp_square", 0.5, (1e-3,)),
    # quartic-plus-sine objective: alpha^(1/2) correct, alpha^(1/4) wrong
    "fig10": FigureSpec("fig10", "quartic_sine", 0.5, _FIGURE_ALPHAS),
    "fig11": FigureSpec("fig11", "quartic_sine", 0.25, _FIGURE_ALPHAS),
    "fig12": FigureSpec("fig12", "quartic_sine", 0.5, (1e-3,)),
}


@dataclass(frozen=True)
class TrendCheck:
    """Convergence verdict over a curve family ordered by decreasing alpha."""

    diff_small: float             # sup gap between the two smallest-alpha curves
    diff_large: float             # sup gap between the two largest-alpha curves
    diff_ok: bool
    sigma_log10_ratio: float      # spread movement between the two smallest alphas
    sigma_ok: bool
    passed: bool


def convergence_trend_check(curves, sigmas) -> TrendCheck:
    """Pass iff the curves stop moving as alpha decreases.

    Clause 1: the pointwise gap between the two smallest-alpha curves must
    not exceed DIFF_RATIO times the gap between the two largest-alpha
    curves.  Clause 2: the sample spread must stabilize; a wrong exponent
    moves it by |p - p*| decades per alpha decade, so its log10 movement
    between the two smallest alphas must stay below SIGMA_STABILITY_DEX.
    """
    if len(curves) < 3:
        raise NumericalError("trend check needs at least three curves")
    diff_large = float(np.abs(curves[0].density - curves[1].density).max())
    diff_small = float(np.abs(curves[-2].density - curves[-1].density).max())
    diff_ok = diff_small <= DIFF_RATIO * diff_large
    dex = abs(float(np.log10(sigmas[-1] / sigmas[-2])))
    sigma_ok = dex <= SIGMA_STABILITY_DEX
    return TrendCheck(
        diff_small=diff_small,
        diff_large=diff_large,
        diff_ok=diff_ok,
        sigma_log10_ratio=dex,
        sigma_ok=sigma_ok,
        passed=diff_ok and sigma_ok,
    )


@dataclass(frozen=True)
class FigureResult:
    name: str
    alphas: tuple
    densities: dict               # alpha -> DensityEstimate
    trend: Optional[TrendCheck]
    fits: dict                    # q -> FitReport
    ensembles: dict               # alpha -> its unscaled simulate.Ensemble
    summaries: dict               # alpha -> stats.Summary of its scaled records


def run_figure(
    name: str,
    seed: int = 0,
    threads: int = 1,
    cache: Optional[dict] = None,
) -> FigureResult:
    """Simulate and analyze one named figure.

    cache shares the raw ensembles of one (drift, alpha, seed) between
    figures; each ensemble carries the wall seconds of the run that made it.
    """
    if name not in FIGURE_SPECS:
        raise NumericalError(f"unknown figure name {name!r}")
    spec = FIGURE_SPECS[name]
    scaling = PowerScaling(spec.exponent)
    cache = {} if cache is None else cache

    scaled = {}
    summaries = {}
    for alpha in spec.alphas:
        cfg = _figure_config(spec.drift, alpha, seed)
        key = (spec.drift, alpha, seed)
        if key not in cache:
            cache[key] = _config_chains(cfg, alpha, alpha, 1.0, "figure", threads)
        y = cache[key].flat[:, 0] / scaling(alpha)
        scaled[alpha] = y
        summaries[alpha] = summarize(y)

    # one common grid wide enough for the widest curve in the family
    grid = density_grid(max(s.sd for s in summaries.values()))
    densities = {a: estimate_density(scaled[a], grid, summaries[a].sd) for a in spec.alphas}

    trend = None
    if spec.trend:
        ordered = sorted(spec.alphas, reverse=True)
        trend = convergence_trend_check(
            [densities[a] for a in ordered], [summaries[a].sd for a in ordered]
        )
    est = densities[spec.alphas[-1]]
    fits = {q: log_density_fit(est, q) for q in spec.fit_exponents}

    return FigureResult(
        name=name,
        alphas=spec.alphas,
        densities=densities,
        trend=trend,
        fits=fits,
        ensembles={a: cache[(spec.drift, a, seed)] for a in spec.alphas},
        summaries=summaries,
    )
