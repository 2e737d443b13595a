#!/usr/bin/env python3
"""End-to-end verification of the three Gaussian-limit cases.

For each case the script simulates the scaled iterate at a small stepsize,
solves the Lyapunov prediction, and runs the goodness-of-fit plus
characteristic-function checks, printing a one-line verdict per case:

  1. gradient descent on a strongly convex quadratic,
  2. a two-dimensional stable affine field,
  3. a scalar tanh contraction.
"""

import sys

import numpy as np

from salab.core import ExperimentConfig, validate_config
from salab.lyapunov import predict_stationary
from salab.simulate import run_ensemble
from salab.stats import cf_residual, gaussian_gof, summarize

CASES = [
    ("gradient descent", dict(drift="grad_quadratic", noise_sigma=[[1.0]],
                              alphas=(0.005,), thin=50)),
    ("linear field", dict(drift="linear",
                          drift_params={"a": [[-1.0, 1.0], [0.0, -2.0]]},
                          noise_sigma=np.eye(2).tolist(),
                          alphas=(0.005,), thin=50)),
    ("tanh contraction", dict(drift="contractive_tanh", noise_sigma=[[1.0]],
                              alphas=(0.002,), burn_in=25_000, thin=1250,
                              samples_per_chain=64)),
]


def main() -> int:
    failures = 0
    for label, overrides in CASES:
        cfg = validate_config(ExperimentConfig(
            scaling=0.5, n_chains=256, samples_per_chain=overrides.pop(
                "samples_per_chain", 512), seed=1, **overrides))
        alpha = cfg.alphas[0]
        ens = run_ensemble(cfg, alpha)
        prediction = predict_stationary(cfg.op, cfg.noise)
        gof = gaussian_gof(ens.flat, summarize(ens.flat), prediction.sigma_y)
        cf = cf_residual(ens.flat, cfg.op.jacobian, cfg.noise.sigma)
        cf_ratio = float(np.max(
            np.hypot(cf.residual_real, cf.residual_imag) / cf.se))
        ok = gof.passed and cf_ratio <= 5.0
        failures += not ok
        print(f"{label:18s} alpha={alpha:<6g} gof={'pass' if gof.passed else 'FAIL'} "
              f"cov_rel_err={gof.cov_rel_err:.3f} max|cf|/se={cf_ratio:.2f} "
              f"-> {'OK' if ok else 'MISMATCH'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
