"""Predicted limiting covariance via the Lyapunov equation M S + S M^T + Sigma = 0.

Two independent routes are provided: a Kronecker-vectorized dense solve
(primary) and a truncated matrix-exponential quadrature (oracle).  Both
return a residual certificate so callers never have to trust the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import NumericalError, as_square_matrix, require_spd
from .drift import DriftOperator, check_hurwitz

#: certificate: ||M S + S M^T + Sigma||_F must not exceed this times ||Sigma||_F
RESIDUAL_REL_TOL = 1e-10

#: truncation: integrate until ||exp(M u)|| has decayed by this factor
_DECAY_FACTOR = 1e8

#: Gauss-Legendre nodes per decade of exponential decay
_POINTS_PER_DECADE = 256


@dataclass(frozen=True)
class LyapunovSolution:
    """Predicted covariance with its residual certificate."""

    sigma_y: np.ndarray
    residual_norm: float
    min_eigenvalue: float
    method: str


def _residual(m: np.ndarray, s: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.linalg.norm(m @ s + s @ m.T + sigma))


def _finish(m, sigma, s, method: str) -> LyapunovSolution:
    s = 0.5 * (s + s.T)
    res = _residual(m, s, sigma)
    bound = RESIDUAL_REL_TOL * float(np.linalg.norm(sigma))
    if res > bound:
        raise NumericalError(
            f"lyapunov residual certificate failed: {res:.3e} > {bound:.3e}"
        )
    return LyapunovSolution(
        sigma_y=s,
        residual_norm=res,
        min_eigenvalue=float(np.linalg.eigvalsh(s).min()),
        method=method,
    )


def solve_lyapunov(m, sigma) -> LyapunovSolution:
    """Solve M S + S M^T + Sigma = 0 by Kronecker vectorization.

    Requires M Hurwitz and Sigma symmetric positive definite, which together
    guarantee a unique positive definite solution.  Exact to round-off for
    desk-scale dimensions.
    """
    m = as_square_matrix(m, "M")
    sigma = require_spd(sigma, "Sigma")
    if not check_hurwitz(m).hurwitz:
        raise NumericalError("M is not Hurwitz: no unique PD solution guaranteed")
    d = m.shape[0]
    eye = np.eye(d)
    # column-major vec: vec(M S + S M^T) = (I (x) M + M (x) I) vec(S)
    kron = np.kron(eye, m) + np.kron(m, eye)
    try:
        vec = np.linalg.solve(kron, -sigma.ravel(order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular Kronecker system: {exc}")
    s = vec.reshape((d, d), order="F")
    return _finish(m, sigma, s, "kronecker")


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
    # ill-conditioned eigenvectors: fall back to scaling and squaring, imported
    # here so that importing salab never loads scipy
    from scipy.linalg import expm as scipy_expm

    return lambda u: scipy_expm(np.multiply.outer(u, m))


def predict_stationary(op: DriftOperator, nm) -> LyapunovSolution:
    """Predicted covariance of the limiting scaled iterate for this drift/noise.

    Valid whenever the drift's Lyapunov matrix is Hurwitz, which covers
    strongly convex gradient descent (-Hessian), stable affine fields (A)
    and contractions (J - I).
    """
    m = op.jacobian
    if not check_hurwitz(m).hurwitz:
        raise NumericalError(
            f"drift {op.name!r}: Lyapunov matrix is not Hurwitz, no Gaussian "
            "prediction available"
        )
    return solve_lyapunov(m, nm.sigma)
