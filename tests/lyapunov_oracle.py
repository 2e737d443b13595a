"""Independent oracle for the Lyapunov equation M S + S M^T + Sigma = 0.

A truncated matrix-exponential quadrature, checked against salab's
Kronecker solve by tests/test_lyapunov.py and acceptance criterion 2.  It
returns the same residual certificate as the solve.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.linalg import expm as scipy_expm

from salab.core import NumericalError, as_square_matrix, require_spd
from salab.drift import check_hurwitz
from salab.lyapunov import LyapunovSolution, _finish

#: truncation: integrate until ||exp(M u)|| has decayed by this factor
_DECAY_FACTOR = 1e8


def solve_lyapunov_integral(m, sigma, quad_points: int = 2048) -> LyapunovSolution:
    """Independent oracle: integrate exp(M u) Sigma exp(M^T u) du numerically.

    The integrand decays like exp(2 u max Re lambda); truncating at
    U = ln(1e8)/|max Re lambda| leaves a relative tail below 1e-16.
    Composite Gauss-Legendre over eight equal panels (one per decade of
    decay) with quad_points nodes in total; each panel evaluates all of its
    nodes at once.
    """
    m = as_square_matrix(m, "M")
    sigma = require_spd(sigma, "Sigma")
    report = check_hurwitz(m)
    if not report.hurwitz:
        raise NumericalError("M is not Hurwitz: integral diverges")
    u_max = np.log(_DECAY_FACTOR) / abs(report.max_real_part)
    n_panels = max(1, round(np.log10(_DECAY_FACTOR)))
    per_panel = max(4, quad_points // n_panels)
    nodes, weights = _gauss_legendre(per_panel)

    expm = _make_expm(m)
    s = np.zeros_like(m)
    edges = np.linspace(0.0, u_max, n_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        e = expm(mid + half * nodes)
        s += np.einsum("k,kij,kmj->im", half * weights, e @ sigma, e)
    return _finish(m, sigma, s, "integral")


@cache
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _make_expm(m: np.ndarray):
    """Fast evaluator of exp(M u) at each node u of a vector, shape (nodes, d, d).

    It uses the eigendecomposition when that is well conditioned.
    """
    try:
        eigvals, vectors = np.linalg.eig(m)
        inv = np.linalg.inv(vectors)
        cond = np.linalg.cond(vectors)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < 1e8:
        def expm(u: np.ndarray) -> np.ndarray:
            return ((vectors * np.exp(np.multiply.outer(u, eigvals))[:, None, :]) @ inv).real

        return expm
    # ill-conditioned eigenvectors: fall back to scaling and squaring
    return lambda u: scipy_expm(np.multiply.outer(u, m))
