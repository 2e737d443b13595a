import numpy as np
import pytest

from salab.core import ConfigError, NumericalError, seed_rng
from salab.drift import (
    Affine,
    ContractionSpec,
    DriftOperator,
    check_contraction,
    check_hurwitz,
    contractive_tanh,
    derivative_at_root,
    eval_drift,
    exp_square,
    grad_generic,
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
        assert derivative_at_root(grad_quadratic()) == pytest.approx(np.array([[-1.0]]))

    def test_linear_returns_a(self):
        a = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert np.allclose(derivative_at_root(linear(a)), a)

    def test_quartic_sine_is_minus_one(self):
        # the sine-squared well contributes curvature 1 at the root,
        # the quartic term contributes nothing
        assert derivative_at_root(quartic_sine()) == pytest.approx(
            np.array([[-1.0]])
        )

    @pytest.mark.parametrize("op", CATALOG, ids=lambda o: o.name)
    def test_matches_finite_differences(self, op):
        analytic = derivative_at_root(op)
        fd = derivative_at_root(
            DriftOperator(
                name=op.name + "_fd", dim=op.dim, fn=op.fn, root=op.root,
                jacobian=None,
            )
        )
        assert np.abs(analytic - fd).max() < 1e-6


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
    def test_half_scaling(self):
        t = lambda x: 0.5 * x
        op = DriftOperator(
            name="half", dim=1, fn=lambda x: t(x) - x, root=np.zeros(1),
            contraction=ContractionSpec(operator=t, weights=np.ones(1)),
        )
        rep = check_contraction(op, n_probes=50, radius=2.0, rng=seed_rng(1, 0))
        assert rep.gamma_hat == pytest.approx(0.5)
        assert rep.contractive

    def test_translation_is_not_contractive(self):
        t = lambda x: x + 1.0
        op = DriftOperator(
            name="shift", dim=1, fn=lambda x: -np.ones_like(x) * 0.0, root=np.zeros(1),
            contraction=ContractionSpec(operator=t, weights=np.ones(1)),
        )
        rep = check_contraction(op, n_probes=50, radius=2.0, rng=seed_rng(2, 0))
        assert rep.gamma_hat == pytest.approx(1.0)
        assert not rep.contractive

    def test_tanh_bounded_by_gain(self):
        rep = check_contraction(
            contractive_tanh(0.9), n_probes=500, radius=2.0, rng=seed_rng(3, 0)
        )
        assert rep.gamma_hat <= 0.9 + 1e-12
        assert rep.contractive

    def test_requires_contraction_spec(self):
        with pytest.raises(ConfigError):
            check_contraction(quartic())


class TestCertificateSandwich:
    @pytest.mark.parametrize(
        "hessian", [[[1.0]], [[1.0, 0.3], [0.3, 2.0]]], ids=["d1", "d2"]
    )
    def test_drift_norm_between_sigma_and_l(self, hessian):
        op = grad_quadratic(hessian)
        cert = op.certificate
        rng = seed_rng(5, 0)
        for _ in range(1000):
            x = op.root + rng.standard_normal(op.dim) * 3.0
            dist = np.linalg.norm(x - op.root)
            norm = np.linalg.norm(eval_drift(op, x))
            assert cert.strong_convexity * dist <= norm + 1e-9
            assert norm <= cert.smoothness * dist + 1e-9


class TestConstruction:
    def test_rejects_nonzero_root(self):
        with pytest.raises(ConfigError, match="exceeds"):
            DriftOperator(
                name="bad", dim=1, fn=lambda x: x + 1.0, root=np.zeros(1)
            )

    def test_contractive_tanh_jacobian(self):
        op = contractive_tanh(0.9)
        assert derivative_at_root(op) == pytest.approx(np.array([[-0.1]]))

    def test_grad_generic_wraps_a_gradient(self):
        # f(x) = x^2/2 + x^4/10: gradient x + 0.4 x^3, curvature 1 at 0
        op = grad_generic(lambda x: x + 0.4 * x**3, root=[0.0])
        assert eval_drift(op, [1.0]) == pytest.approx(-1.4)
        assert derivative_at_root(op)[0, 0] == pytest.approx(-1.0, abs=1e-8)


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
