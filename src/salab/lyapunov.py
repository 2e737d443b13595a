"""Predicted limiting covariance via the Lyapunov equation M S + S M^T + Sigma = 0.

A Kronecker-vectorized dense solve, which returns a residual certificate so
callers never have to trust the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumericalError, as_square_matrix, require_spd
from .drift import DriftOperator, check_hurwitz

#: certificate: ||M S + S M^T + Sigma||_F must not exceed this times ||Sigma||_F
RESIDUAL_REL_TOL = 1e-10


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
