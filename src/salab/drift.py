"""Catalog of drift fields F with analytic roots and derivative data.

Every operator stores the Jacobian of F at the root, which is exactly the
matrix appearing in the stationary-covariance Lyapunov equation: -Hessian
for gradient descent on f, A for affine fields Ax + b, and J - I for
fixed-point fields T(x) - x.  One solver therefore serves all three
families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    NumericalError,
    ROOT_TOL,
    as_square_matrix,
    as_vector,
)

#: eigenvalue real parts above -HURWITZ_TOL are treated as unstable
HURWITZ_TOL = 1e-10

_OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class DriftOperator:
    """Drift field F with root x*, its Jacobian there, and a stepsize limit.

    ``fn`` must be vectorized over leading axes: it maps arrays of shape
    (..., d) to arrays of the same shape.  Immutable and shareable across
    threads; evaluation is pure.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    root: np.ndarray
    jacobian: np.ndarray
    stability_limit: float = 0.25

    def __post_init__(self):
        root = as_vector(self.root, "root")
        object.__setattr__(self, "root", root)
        if root.size != self.dim:
            raise ConfigError(f"root dimension {root.size} != {self.dim}")
        jac = as_square_matrix(self.jacobian, "jacobian")
        if jac.shape[0] != self.dim:
            raise ConfigError("jacobian dimension mismatch")
        object.__setattr__(self, "jacobian", jac)
        residual = float(np.linalg.norm(eval_drift(self, root)))
        if residual > ROOT_TOL:
            raise ConfigError(
                f"drift {self.name!r}: |F(root)| = {residual:.3e} exceeds {ROOT_TOL}"
            )


def eval_drift(op: DriftOperator, x) -> np.ndarray:
    """Evaluate F(x); raises on overflow (the chain left the stability region)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NumericalError("drift overflow")
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.asarray(op.fn(x), dtype=float)
    if not np.all(np.isfinite(value)) or np.abs(value).max(initial=0.0) > _OVERFLOW_LIMIT:
        raise NumericalError("drift overflow")
    return value


@dataclass(frozen=True)
class HurwitzReport:
    hurwitz: bool
    max_real_part: float


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}")


def _hurwitz_report(eigs: np.ndarray) -> HurwitzReport:
    max_real = float(eigs.real.max())
    return HurwitzReport(hurwitz=max_real < -HURWITZ_TOL, max_real_part=max_real)


def check_hurwitz(m) -> HurwitzReport:
    """Check that every eigenvalue of M has strictly negative real part."""
    return _hurwitz_report(_eigenvalues(as_square_matrix(m, "M")))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# The engine steps these fields with its compiled kernel.  They are
# module-level types rather than lambdas so that it can recognize them and
# read their coefficients.

def _ordered_product(x, a):
    """x A^T summed in one fixed order: column i is x_0 a_i0 + x_1 a_i1 + ...

    Each product and each sum rounds on its own (no fused multiply-add), in
    order of k, so a row's value never depends on how many rows are
    evaluated together, as a BLAS product's can.  The compiled kernel adds
    in the same order.
    """
    f = x[..., :1] * a[:, 0]
    for k in range(1, a.shape[1]):
        f += x[..., k : k + 1] * a[:, k]
    return f


@dataclass(frozen=True, eq=False)
class Affine:
    """F(x) = x A^T + b."""

    a: np.ndarray
    b: np.ndarray

    def __call__(self, x):
        f = _ordered_product(x, self.a)
        f += self.b
        return f


def grad_quadratic(hessian=((1.0,),)) -> DriftOperator:
    """Gradient descent field for f(x) = x^T H x / 2 with H symmetric PD.

    F(x) = -H x is the affine field with A = -H and b = 0.
    """
    h = as_square_matrix(hessian, "hessian")
    if not np.allclose(h, h.T):
        raise ConfigError("hessian must be symmetric")
    eigs = np.linalg.eigvalsh(h)
    if eigs.min() <= 0:
        raise ConfigError("hessian must be positive definite")
    sig, big_l = float(eigs.min()), float(eigs.max())
    # L^2 is 0.0 when it underflows; as sigma <= L, sigma / L^2 < 1 only
    # when L^2 > sigma > 0
    try:
        l_sq = big_l**2
    except OverflowError:
        l_sq = math.inf
    return DriftOperator(
        name="grad_quadratic",
        dim=h.shape[0],
        fn=Affine(-h, np.zeros(h.shape[0])),
        root=np.zeros(h.shape[0]),
        jacobian=-h,
        # conservative threshold 0.1 min(1, sigma / L^2) for gradient drifts
        stability_limit=0.1 * (1.0 if sig >= l_sq else sig / l_sq),
    )


def linear(a, b=None) -> DriftOperator:
    """Affine field F(x) = A x + b with A Hurwitz."""
    a = as_square_matrix(a, "A")
    d = a.shape[0]
    b = np.zeros(d) if b is None else as_vector(b, "b")
    if b.size != d:
        raise ConfigError("b dimension mismatch")
    eigs = _eigenvalues(a)
    if not _hurwitz_report(eigs).hurwitz:
        raise ConfigError("linear drift requires a Hurwitz matrix A")
    root = np.linalg.solve(a, -b)
    # exact AR stability is alpha < 2|Re l|/|l|^2 per eigenvalue; keep half.
    # |l|^2 overflows to inf for |l| > 1.3e154, giving 0; past |Re l| > 9e307
    # 2|Re l| overflows too and inf / inf is nan, where the true ratio is
    # below 2.3e-308, so that is taken as 0.  Every other ratio keeps its bits.
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = 2.0 * (-eigs.real) / np.abs(eigs) ** 2
    exact = float(np.nan_to_num(ratios, nan=0.0).min())
    return DriftOperator(
        name="linear",
        dim=d,
        fn=Affine(a, b),
        root=root,
        jacobian=a.copy(),
        stability_limit=min(1.0, 0.5 * exact),
    )


def contractive_tanh(gain: float = 0.9) -> DriftOperator:
    """Fixed-point field T(x) - x for the scalar contraction T(x) = tanh(g x)."""
    try:
        gain = float(gain)
    except (TypeError, ValueError):
        raise ConfigError(f"contractive_tanh gain must be a number, got {gain!r}") from None
    if not (0.0 < gain < 1.0):
        raise ConfigError("contractive_tanh gain must lie in (0, 1)")
    return DriftOperator(
        name="contractive_tanh",
        dim=1,
        fn=lambda x: np.tanh(gain * x) - x,
        root=np.zeros(1),
        jacobian=np.array([[gain - 1.0]]),
        stability_limit=0.5,
    )


def _neg_cube(x):
    """F(x) = -x^3; the engine steps this drift with its compiled kernel."""
    return -(x * x * x)


def quartic() -> DriftOperator:
    """Descent field of f(x) = x^4 / 4: F(x) = -x^3, flat at the root."""
    return DriftOperator(
        name="quartic",
        dim=1,
        fn=_neg_cube,
        root=np.zeros(1),
        jacobian=np.array([[0.0]]),
        stability_limit=0.25,
    )


def exp_square() -> DriftOperator:
    """Descent field of f(x) = exp(x^2): F(x) = -2 x exp(x^2)."""
    return DriftOperator(
        name="exp_square",
        dim=1,
        fn=lambda x: -2.0 * x * np.exp(x * x),
        root=np.zeros(1),
        jacobian=np.array([[-2.0]]),
        # the map x - 2 alpha x exp(x^2) loses stability beyond |x| ~ 1 at alpha 0.1
        stability_limit=0.1,
    )


def quartic_sine() -> DriftOperator:
    """Descent field of f(x) = x^4/4 + sin(x)^2/2: F(x) = -x^3 - sin(x)cos(x)."""
    return DriftOperator(
        name="quartic_sine",
        dim=1,
        fn=lambda x: -(x * x * x) - np.sin(x) * np.cos(x),
        root=np.zeros(1),
        jacobian=np.array([[-1.0]]),
        stability_limit=0.25,
    )


def from_config(drift_id: str, params: dict) -> DriftOperator:
    """Resolve a drift identifier plus parameters from a configuration."""
    params = dict(params)
    if drift_id == "grad_quadratic":
        op = grad_quadratic(params.pop("hessian", ((1.0,),)))
    elif drift_id == "linear":
        if "a" not in params:
            raise ConfigError("linear drift requires drift.a")
        op = linear(params.pop("a"), params.pop("b", None))
    elif drift_id == "contractive_tanh":
        op = contractive_tanh(params.pop("gain", 0.9))
    elif drift_id == "quartic":
        op = quartic()
    elif drift_id == "exp_square":
        op = exp_square()
    elif drift_id == "quartic_sine":
        op = quartic_sine()
    else:
        raise ConfigError(f"unknown drift id {drift_id!r}")
    if params:
        raise ConfigError(f"unknown drift parameters: {sorted(params)}")
    return op
