"""Euler-Maruyama discretization of dX = F(X) dt + dB and SA comparison.

The EM chain with accuracy dt carries drift factor dt and noise factor
sqrt(dt): exactly the structure of the scaled SA recursion.  For drifts
whose scaling exponent is p, the SA iterate magnified by alpha^(-p) and the
EM chain at dt = alpha share their stationary law up to first-order
discretization error, which is what the comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .core import NumericalError, PowerScaling
from .drift import DriftOperator, eval_drift
from .noise import NoiseModel, make_noise
from .simulate import Ensemble, require_stable, resolve_schedule, run_chains
from .stats import sample_moments


def _standard_noise(dim: int) -> NoiseModel:
    return make_noise("gaussian", np.eye(dim))


def run_em_ensemble(
    op: DriftOperator,
    delta_t: float,
    *,
    n_chains: int,
    burn_in="auto",
    thin="auto",
    samples_per_chain: int,
    seed: int,
    threads: int = 1,
) -> Ensemble:
    """Sample the EM chain's stationary law; returns the records of X-hat.

    burn_in and thin take the SA ensemble's values, "auto" included.
    """
    if delta_t <= 0:
        raise NumericalError("delta_t must be positive")
    burn_in, thin = resolve_schedule(delta_t, burn_in, thin)
    return require_stable(run_chains(
        op,
        _standard_noise(op.dim),
        drift_coeff=delta_t,
        noise_coeff=sqrt(delta_t),
        n_chains=n_chains,
        burn_in=burn_in,
        thin=thin,
        samples_per_chain=samples_per_chain,
        seed=seed,
        purpose="em",
        threads=threads,
    ))


@dataclass(frozen=True)
class EmCompareResult:
    sa_cov: np.ndarray
    em_cov: np.ndarray
    rel_err: float
    exponent: float
    sa_samples: np.ndarray    # (n, d), scaled SA records
    em_samples: np.ndarray    # (n, d), EM records centered at the root


def em_vs_sa_compare(
    op: DriftOperator,
    alpha: float,
    *,
    exponent: float,
    n_chains: int = 64,
    burn_in="auto",
    thin="auto",
    samples_per_chain: int = 1024,
    seed: int = 0,
    threads: int = 1,
) -> EmCompareResult:
    """Compare the scaled SA stationary covariance with the EM chain at dt = alpha.

    The SA side runs with unit-covariance gaussian noise (the SDE has
    identity diffusion) and its records are magnified by alpha^(-p); the EM
    records need no scaling since their noise already carries sqrt(dt).
    """
    probes = np.linspace(0.5, 2.0, 7)[:, None] * np.ones(op.dim)[None, :]
    if all(float(np.abs(eval_drift(op, op.root + row)).max()) == 0.0 for row in probes):
        raise NumericalError("no stationary law: drift vanishes near the root")

    scaling = PowerScaling(float(exponent))

    dt = float(alpha)
    sizes = dict(n_chains=n_chains, samples_per_chain=samples_per_chain, seed=seed,
                 threads=threads)
    burn_in, thin = resolve_schedule(dt, burn_in, thin)
    sa = require_stable(run_chains(
        op,
        _standard_noise(op.dim),
        drift_coeff=dt,
        noise_coeff=dt,
        burn_in=burn_in,
        thin=thin,
        purpose="em-compare-sa",
        **sizes,
    ))
    em = run_em_ensemble(op, dt, burn_in=burn_in, thin=thin, **sizes)

    g = scaling(dt)
    sa_flat = ((sa.samples - op.root) / g).reshape(-1, op.dim)
    em_flat = (em.samples - op.root).reshape(-1, op.dim)
    sa_cov = sample_moments(sa_flat)[1]
    em_cov = sample_moments(em_flat)[1]
    rel_err = float(np.linalg.norm(sa_cov - em_cov, axis=(0, 1))
                    / np.linalg.norm(em_cov, axis=(0, 1)))
    return EmCompareResult(
        sa_cov=sa_cov,
        em_cov=em_cov,
        rel_err=rel_err,
        exponent=float(exponent),
        sa_samples=sa_flat,
        em_samples=em_flat,
    )
