import numpy as np
import pytest

from salab.core import ConfigError, ExperimentConfig, NumericalError, seed_rng, validate_config
from salab.drift import (
    Affine,
    DriftOperator,
    check_hurwitz,
    contractive_tanh,
    eval_drift,
    exp_square,
    grad_quadratic,
    linear,
    quartic,
    quartic_sine,
)

CATALOG = [
    grad_quadratic(),
    grad_quadratic([[1.0, 0.3], [0.3, 2.0]]),
    linear([[-1.0, 2.0], [0.0, -3.0]], [1.0, -1.0]),
    contractive_tanh(0.9),
    quartic(),
    exp_square(),
    quartic_sine(),
]

#: central finite-difference step; balances truncation and round-off
FD_STEP = 1e-5


def fd_jacobian(op):
    """Central finite differences of F at the root, one column per coordinate."""
    cols = []
    for e in np.eye(op.dim) * FD_STEP:
        cols.append((eval_drift(op, op.root + e) - eval_drift(op, op.root - e)) / (2 * FD_STEP))
    return np.column_stack(cols)


class TestEvalDrift:
    def test_linear_example(self):
        op = linear([[-1.0]], [0.0])
        assert eval_drift(op, [2.0]) == pytest.approx(-2.0)

    def test_quartic_at_two(self):
        assert eval_drift(quartic(), [2.0]) == pytest.approx(-8.0)

    def test_zero_operator_fixed_point_drift(self):
        # T identically zero: F(x) = T(x) - x = -x
        t = lambda x: np.zeros_like(x)
        op = DriftOperator(
            name="zero_op",
            dim=1,
            fn=lambda x: t(x) - x,
            root=np.zeros(1),
            jacobian=np.array([[-1.0]]),
        )
        assert eval_drift(op, [3.0]) == pytest.approx(-3.0)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError, match="drift overflow"):
            eval_drift(quartic(), [1e200])

    @pytest.mark.parametrize("op", CATALOG, ids=lambda o: o.name)
    def test_root_is_a_zero(self, op):
        assert np.linalg.norm(eval_drift(op, op.root)) <= 1e-12


class TestDerivativeAtRoot:
    def test_unit_quadratic(self):
        assert grad_quadratic().jacobian == pytest.approx(np.array([[-1.0]]))

    def test_linear_returns_a(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert np.allclose(linear(a).jacobian, a)

    def test_quartic_sine_is_minus_one(self):
        # the sine-squared well contributes curvature 1 at the root,
        # the quartic term contributes nothing
        assert quartic_sine().jacobian == pytest.approx(np.array([[-1.0]]))

    @pytest.mark.parametrize("op", CATALOG, ids=lambda o: o.name)
    def test_matches_finite_differences(self, op):
        assert np.abs(op.jacobian - fd_jacobian(op)).max() < 1e-6


class TestCheckHurwitz:
    def test_scalar_stable(self):
        rep = check_hurwitz([[-1.0]])
        assert rep.hurwitz and rep.max_real_part == pytest.approx(-1.0)

    def test_rotation_is_marginal(self):
        # eigenvalues +-i have zero real part
        rep = check_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
        assert not rep.hurwitz
        assert rep.max_real_part == pytest.approx(0.0, abs=1e-12)

    def test_triangular(self):
        rep = check_hurwitz([[-1.0, 2.0], [0.0, -3.0]])
        assert rep.hurwitz and rep.max_real_part == pytest.approx(-1.0)

    def test_invariant_under_orthogonal_similarity(self):
        rng = seed_rng(11, 0)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = rng.standard_normal((d, d)) - (d + 1.0) * np.eye(d)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a, b = check_hurwitz(m), check_hurwitz(q @ m @ q.T)
            assert a.hurwitz == b.hurwitz
            assert a.max_real_part == pytest.approx(b.max_real_part, abs=1e-8)

    def test_linear_computes_the_eigenvalues_once(self, monkeypatch):
        # one eigenvalue solve serves the Hurwitz check and the stability limit
        a = [[-1.0, 2.0], [0.5, -3.0]]
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or eigvals(m))
        op = linear(a)
        assert len(calls) == 1
        eigs = eigvals(np.array(a))
        assert op.stability_limit == min(1.0, 0.5 * float((2.0 * (-eigs.real) / np.abs(eigs) ** 2).min()))
        with pytest.raises(ConfigError, match="Hurwitz"):
            linear([[0.0, 1.0], [-1.0, 0.0]])


class TestCheckContraction:
    def test_tanh_bounded_by_gain(self):
        # T(x) = tanh(g x) is g-Lipschitz: |T(x1) - T(x2)| <= g |x1 - x2|
        gain = 0.9
        t = lambda x: contractive_tanh(gain).fn(x) + x
        rng = seed_rng(3, 0)
        x1, x2 = rng.uniform(-2.0, 2.0, (2, 500, 1))
        assert np.all(np.abs(t(x1) - t(x2)) <= gain * np.abs(x1 - x2) + 1e-12)


class TestCertificateSandwich:
    @pytest.mark.parametrize(
        "hessian", [[[1.0]], [[1.0, 0.3], [0.3, 2.0]]], ids=["d1", "d2"]
    )
    def test_drift_norm_between_sigma_and_l(self, hessian):
        op = grad_quadratic(hessian)
        # strong convexity and smoothness of x^T H x / 2
        eigs = np.linalg.eigvalsh(hessian)
        sigma, big_l = eigs.min(), eigs.max()
        rng = seed_rng(5, 0)
        for _ in range(1000):
            x = op.root + rng.standard_normal(op.dim) * 3.0
            dist = np.linalg.norm(x - op.root)
            norm = np.linalg.norm(eval_drift(op, x))
            assert sigma * dist <= norm + 1e-9
            assert norm <= big_l * dist + 1e-9


class TestConstruction:
    def test_rejects_nonzero_root(self):
        with pytest.raises(ConfigError, match="exceeds"):
            DriftOperator(
                name="bad", dim=1, fn=lambda x: x + 1.0, root=np.zeros(1),
                jacobian=np.array([[1.0]]),
            )

    def test_contractive_tanh_jacobian(self):
        op = contractive_tanh(0.9)
        assert op.jacobian == pytest.approx(np.array([[-0.1]]))

    @pytest.mark.parametrize("gain", [[0.5], {"a": 1}, "fast"])
    def test_non_numeric_gain_is_a_config_error(self, gain):
        with pytest.raises(ConfigError, match="gain must be a number"):
            contractive_tanh(gain)

    def test_tiny_hessian_validates(self):
        # L^2 = 1e-400 underflows to 0; sigma / L^2 is then far above 1
        cfg = validate_config(ExperimentConfig(
            drift="grad_quadratic", drift_params={"hessian": [[1e-200]]},
            alphas=(0.01,), scaling=0.5,
        ))
        assert cfg.alpha_max == 0.1

    @pytest.mark.parametrize("hessian, limit", [
        ([[0.5, 0.0], [0.0, 4.0]], 0.1 * (0.5 / 4.0**2)),
        # L^2 = 1e400 overflows; sigma / L^2 is then 0 to double precision
        ([[1e200]], 0.0),
    ], ids=["sigma-over-l-squared", "huge"])
    def test_gradient_stability_limit(self, hessian, limit):
        assert grad_quadratic(hessian).stability_limit == limit


def ordered_rows(x, a, b=None):
    """x A^T (+ b, else negated), one Python float operation at a time: the
    sum over k for each row and column, in order of k."""
    rows = []
    for row in x:
        values = []
        for a_i, b_i in zip(a, np.zeros(len(a)) if b is None else b):
            s = float(row[0]) * float(a_i[0])
            for x_k, a_ik in zip(row[1:], a_i[1:]):
                s = s + float(x_k) * float(a_ik)
            values.append(-s if b is None else s + float(b_i))
        rows.append(values)
    return np.array(rows)


class TestAffineSummationOrder:
    # coefficients whose products and sums round, so the order shows
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_rows_equal_the_ordered_sum_for_any_row_count(self, d):
        rng = seed_rng(21, d)
        a = rng.standard_normal((d, d)) - 2.0 * np.eye(d)
        b = rng.standard_normal(d)
        x = rng.standard_normal((4097, d)) * 7.3
        # grad_quadratic's F = -H x, with a symmetric positive definite H
        h = a.T @ a + np.eye(d)
        for fn, expect in ((Affine(a, b), ordered_rows(x, a, b)),
                           (grad_quadratic(h).fn, ordered_rows(x, h))):
            for n in (1, 2, 4, 4097):
                assert fn(x[:n]).tobytes() == expect[:n].tobytes(), (d, n)
            # one state vector, as eval_drift passes the root
            assert fn(x[5]).tobytes() == expect[5].tobytes()
