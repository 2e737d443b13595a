"""salab: simulation and verification lab for constant-stepsize stochastic
approximation.

Simulates iterate ensembles, predicts limiting scaled stationary
distributions via Lyapunov equations, discovers scaling exponents, and
statistically validates the asymptotic characterizations.
"""

import os

# Before numpy loads: its bundled OpenBLAS otherwise starts one worker per
# CPU, which busy-waits at import and after every threaded call.  salab's
# BLAS calls are all on d x d matrices, too small to gain from threads, and
# its parallelism is its own chain groups (--threads).  A value set by the
# caller is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    ConfigError,
    ExperimentConfig,
    NumericalError,
    PowerScaling,
    ValidatedConfig,
    parse_config_file,
    seed_rng,
    stream_id,
    validate_config,
)
from .drift import (
    DriftOperator,
    HurwitzReport,
    check_hurwitz,
    contractive_tanh,
    eval_drift,
    exp_square,
    grad_quadratic,
    linear,
    quartic,
    quartic_sine,
)
from .lyapunov import LyapunovSolution, predict_stationary, solve_lyapunov
from .noise import NoiseModel, make_noise, sample_block
from .scaling import (
    ScalingReport,
    find_scaling_exponent,
    sample_limit_drift,
    scaled_drift,
)
from .sde import EmCompareResult, em_vs_sa_compare, run_em_ensemble
from .simulate import Ensemble, run_ensemble
from .stats import (
    CfResidualReport,
    DensityEstimate,
    FitReport,
    GofReport,
    Summary,
    batch_means_se,
    cf_residual,
    default_t_grid,
    effective_sample_size,
    estimate_density,
    gaussian_gof,
    log_density_fit,
    summarize,
)

__version__ = "0.1.0"
