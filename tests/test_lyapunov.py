import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salab.core import NumericalError, seed_rng
from salab.drift import contractive_tanh, grad_quadratic, linear
from salab.lyapunov import RESIDUAL_REL_TOL, predict_stationary, solve_lyapunov
from salab.noise import make_noise

from lyapunov_oracle import solve_lyapunov_integral


def random_hurwitz(rng, d):
    """Random stable matrix: Q - cI with c beyond the spectral radius."""
    q = rng.standard_normal((d, d))
    c = np.abs(np.linalg.eigvals(q)).max() + rng.uniform(0.5, 2.0)
    return q - c * np.eye(d)


def random_spd(rng, d):
    b = rng.standard_normal((d, d))
    return b @ b.T + 0.1 * np.eye(d)


class TestKronecker:
    def test_unit_hessian_gives_half(self):
        sol = solve_lyapunov([[-1.0]], [[1.0]])
        assert abs(sol.sigma_y[0, 0] - 0.5) <= 1e-12

    def test_identity_case(self):
        sol = solve_lyapunov(-np.eye(4), np.eye(4))
        assert np.abs(sol.sigma_y - 0.5 * np.eye(4)).max() < 1e-12

    def test_diagonal_case(self):
        sol = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(sol.sigma_y, np.diag([0.5, 0.25]), atol=1e-12)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NumericalError, match="no unique PD solution"):
            solve_lyapunov([[1.0]], [[1.0]])

    def test_residual_certificate_on_random_instances(self):
        rng = seed_rng(21, 0)
        for _ in range(100):
            d = int(rng.integers(1, 11))
            m, sigma = random_hurwitz(rng, d), random_spd(rng, d)
            sol = solve_lyapunov(m, sigma)
            assert sol.residual_norm <= RESIDUAL_REL_TOL * np.linalg.norm(sigma)
            assert sol.min_eigenvalue > 0
            assert np.abs(sol.sigma_y - sol.sigma_y.T).max() < 1e-12

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_scaling_equivariance(self, c):
        m = np.array([[-1.0, 2.0], [0.0, -3.0]])
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        base = solve_lyapunov(m, sigma).sigma_y
        scaled = solve_lyapunov(m, c * sigma).sigma_y
        assert np.allclose(scaled, c * base, rtol=1e-9)


class TestIntegralOracle:
    def test_scalar_integral(self):
        sol = solve_lyapunov_integral([[-1.0]], [[1.0]])
        assert sol.sigma_y[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert sol.method == "integral"

    def test_diagonal_case(self):
        sol = solve_lyapunov_integral(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(sol.sigma_y, np.diag([0.5, 0.25]), atol=1e-9)

    def test_random_3x3_agrees_with_kronecker(self):
        rng = seed_rng(22, 0)
        m = random_hurwitz(rng, 3)
        kron = solve_lyapunov(m, np.eye(3)).sigma_y
        quad = solve_lyapunov_integral(m, np.eye(3)).sigma_y
        assert np.linalg.norm(kron - quad) < 1e-8

    def test_methods_agree_across_instances(self):
        rng = seed_rng(23, 0)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            m, sigma = random_hurwitz(rng, d), random_spd(rng, d)
            kron = solve_lyapunov(m, sigma).sigma_y
            quad = solve_lyapunov_integral(m, sigma).sigma_y
            assert np.linalg.norm(kron - quad) < 1e-7

    def test_defective_matrix_agrees_with_kronecker(self):
        # a Jordan block has no eigenbasis: the oracle takes scipy's expm
        m = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        kron = solve_lyapunov(m, sigma).sigma_y
        quad = solve_lyapunov_integral(m, sigma).sigma_y
        assert np.linalg.norm(kron - quad) < 1e-8

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NumericalError):
            solve_lyapunov_integral([[0.5]], [[1.0]])


class TestPredictStationary:
    def test_unit_quadratic(self):
        sol = predict_stationary(grad_quadratic(), make_noise("gaussian", [[1.0]]))
        assert sol.sigma_y[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_fixed_point_operator(self):
        # T = 0 means F(x) = -x, so the Lyapunov matrix is -1 and the
        # predicted variance is 1/2, matching the quadratic-descent case
        import salab.drift as drift_mod

        t = lambda x: np.zeros_like(x)
        op = drift_mod.DriftOperator(
            name="zero_op", dim=1, fn=lambda x: t(x) - x, root=np.zeros(1),
            jacobian=np.array([[-1.0]]),
        )
        sol = predict_stationary(op, make_noise("gaussian", [[1.0]]))
        assert sol.sigma_y[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_contractive_tanh(self):
        sol = predict_stationary(contractive_tanh(0.9), make_noise("gaussian", [[1.0]]))
        assert sol.sigma_y[0, 0] == pytest.approx(5.0, rel=1e-10)

    def test_linear_two_dim_certificate(self):
        op = linear([[-1.0, 1.0], [0.0, -1.0]])
        sol = predict_stationary(op, make_noise("gaussian", np.eye(2)))
        assert sol.residual_norm <= 1e-10 * np.sqrt(2.0)
        assert sol.min_eigenvalue > 0

    def test_quartic_has_no_prediction(self):
        from salab.drift import quartic

        with pytest.raises(NumericalError, match="no Gaussian prediction"):
            predict_stationary(quartic(), make_noise("gaussian", [[1.0]]))
