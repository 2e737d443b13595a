"""Euler-Maruyama discretization of dX = F(X) dt + L dB and SA comparison.

The EM chain with accuracy dt carries drift factor dt and noise factor
sqrt(dt): exactly the structure of the scaled SA recursion.  For drifts
whose scaling exponent is p, the SA iterate magnified by alpha^(-p) and the
EM chain at dt = alpha share their stationary law up to first-order
discretization error, which is what the comparison measures.  Both sides
run the configured ensemble: its drift, noise, schedule, sizes and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .core import NumericalError, PowerScaling, ValidatedConfig
from .drift import eval_drift
from .simulate import Ensemble, _config_chains, run_ensemble
from .stats import Summary, summarize


def run_em_ensemble(cfg: ValidatedConfig, delta_t: float, *, threads: int = 1) -> Ensemble:
    """Sample the EM chain's stationary law; returns the records of X-hat - x*.

    L is the config's noise; its schedule is resolved at delta_t as SA's at alpha.
    """
    if delta_t <= 0:
        raise NumericalError("delta_t must be positive")
    return _config_chains(cfg, delta_t, sqrt(delta_t), 1.0, "em", threads)


@dataclass(frozen=True)
class EmCompareResult:
    rel_err: float
    sa: Ensemble              # scaled SA records
    em: Ensemble              # EM records centered at the root
    sa_summary: Summary       # of sa's records
    em_summary: Summary       # of em's records


def em_vs_sa_compare(cfg: ValidatedConfig, alpha: float, scaling: PowerScaling, *,
                     threads: int = 1) -> EmCompareResult:
    """Compare the scaled SA stationary covariance with the EM chain at dt = alpha.

    The SA records are magnified by alpha^(-p) (run_ensemble); the EM
    records need no scaling since their noise already carries sqrt(dt).
    The SDE's diffusion is the config's noise, which em-compare requires
    to be the identity.
    """
    op = cfg.op
    probes = np.linspace(0.5, 2.0, 7)[:, None] * np.ones(op.dim)[None, :]
    if all(float(np.abs(eval_drift(op, op.root + row)).max()) == 0.0 for row in probes):
        raise NumericalError("no stationary law: drift vanishes near the root")

    sa = run_ensemble(cfg, alpha, scaling, threads=threads, purpose="em-compare-sa")
    em = run_em_ensemble(cfg, float(alpha), threads=threads)
    sa_summary, em_summary = summarize(sa.flat), summarize(em.flat)
    rel_err = float(np.linalg.norm(sa_summary.cov - em_summary.cov, axis=(0, 1))
                    / np.linalg.norm(em_summary.cov, axis=(0, 1)))
    return EmCompareResult(
        rel_err=rel_err,
        sa=sa,
        em=em,
        sa_summary=sa_summary,
        em_summary=em_summary,
    )
