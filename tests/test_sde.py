import dataclasses
from math import sqrt

import numpy as np
import pytest

from salab.core import (
    ExperimentConfig,
    NumericalError,
    PowerScaling,
    seed_rng,
    stream_id,
    validate_config,
)
from salab.drift import DriftOperator, linear, quartic
from salab.noise import make_noise
from salab.sde import em_vs_sa_compare, run_em_ensemble
from salab.simulate import run_chains
from salab.stats import batch_means_se

STANDARD = make_noise("gaussian", [[1.0]])


def config(drift="linear", **fields):
    """A validated config of gaussian identity noise; linear means F(x) = -x."""
    params = {"a": [[-1.0]]} if drift == "linear" else {}
    return validate_config(ExperimentConfig(drift=drift, drift_params=params, **fields))


def zero_drift() -> DriftOperator:
    return DriftOperator(name="zero", dim=1, fn=np.zeros_like, root=np.zeros(1),
                         jacobian=np.zeros((1, 1)))


def em_records(op, dt, x0, n, seed):
    """X_1..X_n of EM chain 0 from x0: the engine at coefficients (dt, sqrt(dt))."""
    raw = run_chains(op, STANDARD, dt, sqrt(dt), n_chains=1, burn_in=0, thin=1,
                     samples_per_chain=n, seed=seed, purpose="em", init=x0)
    return raw.samples[0, :, 0]


def em_normals(op, dt, n, seed):
    """The n standard normals EM chain 0 consumes, from a copy of its stream."""
    label = ("em", op.name, "gaussian", format(float(dt), ".17g"))
    return seed_rng(seed, stream_id(*label, 0)).standard_normal((n, 1))[:, 0]


class TestEmStep:
    def test_pure_diffusion_step(self):
        # x + sqrt(dt) z: with z = 1 this is exactly 0.1 at dt = 0.01
        z = em_normals(zero_drift(), 0.01, 1, 1)[0]
        out = em_records(zero_drift(), 0.01, [0.0], 1, 1)[0]
        assert out == pytest.approx(0.1 * z)

    def test_linear_drift_step(self):
        op = linear([[-1.0]])
        z = em_normals(op, 0.01, 1, 2)[0]
        assert em_records(op, 0.01, [1.0], 1, 2)[0] == pytest.approx(0.99 + 0.1 * z)

    def test_cubic_drift_step(self):
        z = em_normals(quartic(), 0.01, 1, 3)[0]
        assert em_records(quartic(), 0.01, [2.0], 1, 3)[0] == pytest.approx(1.92 + 0.1 * z)

    def test_linear_em_recursion_equals_scaled_sa_recursion(self):
        # for F(x) = -x both recursions are y' = (1 - a) y + sqrt(a) z:
        # the AR(1) coefficients coincide exactly when dt = alpha
        alpha, y = 0.01, 1.3
        op = linear([[-1.0]])
        z = em_normals(op, alpha, 2, 4)
        em = em_records(op, alpha, [y], 2, 4)
        assert em[0] == pytest.approx((1 - alpha) * y + np.sqrt(alpha) * z[0], abs=1e-15)
        assert em[1] == pytest.approx((1 - alpha) * em[0] + np.sqrt(alpha) * z[1], abs=1e-15)

    def test_ensemble_runs_the_engine_at_dt_and_sqrt_dt(self):
        dt = 0.01
        sizes = dict(n_chains=3, burn_in=7, thin=3, samples_per_chain=5, seed=5)
        raw = run_em_ensemble(config("quartic", **sizes), dt)
        ref = run_chains(quartic(), STANDARD, dt, sqrt(dt), purpose="em", **sizes)
        assert raw.samples.tobytes() == (ref.samples - quartic().root).tobytes()

    def test_nonpositive_step_rejected(self):
        with pytest.raises(NumericalError, match="delta_t must be positive"):
            run_em_ensemble(config(n_chains=2, samples_per_chain=1), 0.0)


class TestOuDiscretization:
    @pytest.mark.parametrize("dt", [0.01, 0.001])
    def test_variance_matches_discretization_value(self, dt):
        raw = run_em_ensemble(config(n_chains=256, burn_in=int(30 / dt),
                                     thin=max(1, int(0.25 / dt)), samples_per_chain=256,
                                     seed=21), dt)
        flat = raw.samples.reshape(-1)
        target = 1.0 / (2.0 - dt)  # exact AR(1) stationary variance
        se = batch_means_se((flat - flat.mean()) ** 2)
        assert abs(flat.var(ddof=1) - target) <= 4 * se

    def test_discretization_values_approach_half(self):
        # the verified ladder 1/(2 - dt) decreases to the OU value 1/2
        values = [1.0 / (2.0 - dt) for dt in (0.01, 0.001)]
        assert abs(values[1] - 0.5) < abs(values[0] - 0.5)


class TestEmVsSaCompare:
    def test_linear_chains_coincide_in_law(self):
        result = em_vs_sa_compare(
            config(n_chains=256, thin=25, samples_per_chain=512, seed=31),
            0.01, PowerScaling(0.5),
        )
        assert result.rel_err <= 0.02
        # identical AR(1) recursions: variances differ only by Monte Carlo
        # noise; 1/(2 - alpha) is the common stationary variance
        target = 1.0 / (2.0 - 0.01)
        assert result.sa_summary.cov[0, 0] == pytest.approx(target, rel=0.02)
        assert result.em_summary.cov[0, 0] == pytest.approx(target, rel=0.02)

    def test_cubic_first_order_regime(self):
        # SA magnified by alpha^(-1/4) and EM at dt = alpha share the
        # quartic-well stationary law up to first-order error
        result = em_vs_sa_compare(
            config("quartic", alphas=(0.001,), n_chains=128, burn_in=200_000, thin=1000,
                   samples_per_chain=850, seed=32),
            0.001, PowerScaling(0.25),
        )
        assert result.rel_err <= 0.1

    def test_zero_burn_in_is_honoured(self):
        # burn_in = 0 keeps the first records, on both sides of the comparison
        op, dt = linear([[-1.0]]), 0.01
        sizes = dict(n_chains=4, burn_in=0, thin=1, samples_per_chain=2, seed=3)
        result = em_vs_sa_compare(config(**sizes), dt, PowerScaling(0.5))
        sa = run_chains(op, STANDARD, dt, dt, purpose="em-compare-sa", **sizes)
        em = run_chains(op, STANDARD, dt, sqrt(dt), purpose="em", **sizes)
        sa_scaled = (sa.samples - op.root) / PowerScaling(0.5)(dt)
        assert result.sa.flat.tobytes() == sa_scaled.reshape(-1, 1).tobytes()
        assert result.em.flat.tobytes() == (em.samples - op.root).reshape(-1, 1).tobytes()

    def test_diverged_chains_are_rejected(self):
        # alpha = 3 makes x <- -2x + 3w: every chain overflows, so no
        # covariance is left to compare
        with pytest.raises(NumericalError, match="unstable configuration: 8/8"):
            em_vs_sa_compare(config(alphas=(3.0,), alpha_max=3.0, n_chains=8, burn_in=2000,
                                    thin=1, samples_per_chain=4, seed=1),
                             3.0, PowerScaling(0.5))

    def test_zero_drift_has_no_stationary_law(self):
        with pytest.raises(NumericalError, match="no stationary law"):
            em_vs_sa_compare(dataclasses.replace(config(), op=zero_drift()), 0.01,
                             PowerScaling(0.5))
