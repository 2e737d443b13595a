"""Ensembles of constant-stepsize stochastic-approximation chains.

Each chain follows X <- X + alpha (F(X) + w) from X0 = x*, discards a
burn-in prefix, then records the centered scaled iterate
Y = (X - x*) / g(alpha) every ``thin`` steps.  Chains own disjoint Philox
streams, keyed by core.philox_key(seed, stream_id(label, chain)), so
results are bit-identical for any worker-thread count.  The numpy body
draws from a numpy Generator per chain; the compiled kernel (_step) gets
only the keys and runs the same streams itself, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from time import perf_counter
from typing import Optional

import numpy as np

from .core import NumericalError, PowerScaling, ValidatedConfig, philox_key, seed_rng, stream_ids
from .drift import Affine, DriftOperator, _neg_cube
from .noise import NoiseModel, sample_block, sign_bits, sign_words

#: chains simulated together in one group, which bounds the numpy body's
#: chain-major noise block; grouping never affects results (chains own their
#: streams and update independently), only speed
_CHAIN_GROUP = 4096

#: steps of noise the numpy body draws per chain at a time
_STEP_BLOCK = 4096

#: abort when more than this fraction of chains diverges
_MAX_DIVERGED_FRACTION = 0.01


def default_burn_in(alpha: float) -> int:
    """Mixing time scales like 1/alpha for a unit linear-restoring drift."""
    return ceil(10.0 / alpha)


def default_thin(alpha: float) -> int:
    """Step stride between retained samples, reducing autocorrelation."""
    return ceil(1.0 / alpha)


def resolve_schedule(alpha: float, burn_in="auto", thin="auto") -> tuple:
    """(burn_in, thin) in steps, with "auto" replaced by the defaults for alpha."""
    return (
        default_burn_in(alpha) if burn_in == "auto" else burn_in,
        default_thin(alpha) if thin == "auto" else thin,
    )


@dataclass(frozen=True)
class Ensemble:
    """Records of the chains that stayed finite, the schedule that made them,
    the wall seconds run_chains took to step them and the body that did.

    Record r of a chain was taken after step burn_in + (r + 1) * thin, so
    samples[:, -1] is each chain's final state.  run_chains records X;
    run_ensemble records the centered scaled iterate Y = (X - x*) / g(alpha),
    and sde.run_em_ensemble the centered X - x*.  kernel_isa is the
    compiled kernel's clone (_step.Kernel.isa) when it stepped the chains,
    and None when the numpy body did.
    """

    samples: np.ndarray       # (n_kept, samples_per_chain, d)
    chain_ids: np.ndarray     # (n_kept,)
    n_chains: int
    n_diverged: int
    burn_in: int
    thin: int
    seconds: float = 0.0
    kernel_isa: Optional[str] = None

    @property
    def flat(self) -> np.ndarray:
        """All retained samples pooled in chain-major order, shape (n, d)."""
        return self.samples.reshape(-1, self.samples.shape[-1])


def require_stable(ens: Ensemble) -> Ensemble:
    """ens, unless more than _MAX_DIVERGED_FRACTION of its chains diverged."""
    if ens.n_diverged > _MAX_DIVERGED_FRACTION * ens.n_chains:
        raise NumericalError(
            f"unstable configuration: {ens.n_diverged}/{ens.n_chains} chains diverged"
        )
    return ens


def _kernel_for(op: DriftOperator):
    """(kernel, (kind, a, b)) when the compiled step kernel runs op's update, else None.

    The kernel steps F(x) = -x^3 (drift.quartic, d = 1) and, at every d,
    x A^T + b (linear, and grad_quadratic with A = -H), under every noise
    shape, whose draws it makes itself; (kind, a, b) names the drift and holds its coefficients as
    C-contiguous float64 arrays.  Its module is imported, and the kernel
    built and loaded, on the first such call, never on import; it is None
    when that fails.
    """
    fn = op.fn
    if fn is _neg_cube and op.dim == 1:
        drift = ("neg_cube", None, None)
    elif isinstance(fn, Affine):
        drift = ("affine", np.ascontiguousarray(fn.a, np.float64),
                 np.ascontiguousarray(fn.b, np.float64))
    else:
        return None
    from . import _step

    kernel = _step.load()
    return None if kernel is None else (kernel, drift)


def _noise_windows(nm: NoiseModel, gens, coeff: float, total: int):
    """The (steps, n, d) rows of coeff-scaled noise for all total steps, 64 at a time.

    Each chain draws _STEP_BLOCK steps from its own stream into its row of
    one chain-major block, which is refilled in place: the packed sign
    words of noise.sign_words, words[i, j] word i of chain j, for d = 1
    sign noise (draw s is bit s % 64 of word s // 64); coeff times
    sample_block's (steps, d) draws for every other shape.  Each 64-step
    window is then laid out step-major in one reused buffer: a word row is
    decoded bit b to b 2coeff - coeff, which rounds exactly to +-coeff, and
    drawn noise is copied.  The kernel lays its noise out the same way.
    """
    n, d = len(gens), nm.dim
    steps = min(_STEP_BLOCK, total)
    packed = nm.shape == "rademacher" and d == 1
    if packed:
        coeff *= float(nm.cholesky[0, 0])
        block = np.empty(((steps + 63) // 64, n), np.uint64)
    else:
        # one spare step per row, so rows do not lie a power of two apart,
        # where a window's reads of all the rows would share cache sets
        block = np.empty((n, steps + 1, d))
    window = np.empty((64, n, d))
    for k in range(0, total, steps):
        m = min(steps, total - k)
        for j, g in enumerate(gens):
            if packed:
                block[: (m + 63) // 64, j] = sign_words(g, m)
            else:
                np.multiply(sample_block(nm, g, m), coeff, out=block[j, :m])
        for s in range(0, m, 64):
            rows = window[: min(64, m - s)]
            if packed:
                np.multiply(sign_bits(block[s // 64]).reshape(n, 64).T, 2.0 * coeff,
                            out=window[..., 0])
                window -= coeff
            else:
                rows[...] = block[:, s : s + len(rows)].transpose(1, 0, 2)
            yield rows


def _run_group(
    op: DriftOperator,
    stepper,
    nm: NoiseModel,
    drift_coeff: float,
    noise_coeff: float,
    chain_ids: np.ndarray,
    burn_in: int,
    thin: int,
    out: np.ndarray,
    seed: int,
    label: tuple,
    init: np.ndarray,
) -> None:
    """Advance one group of chains in lockstep.

    Record r of the group's chain j goes to out[j, r], of shape
    (nc, samples_per_chain, d).

    Chains consume noise from their own streams in a fixed order, so
    per-chain trajectories are independent of the grouping; the group width
    only controls vectorization.  When stepper is not None (see
    _kernel_for), one call of the compiled kernel draws each chain's noise
    from its Philox key and steps the whole group.  Otherwise the state is
    one (nc, d) array for every drift, and every noise shape feeds the same
    update body with rows that already hold noise_coeff * w; the kernel
    makes the same draws and the same roundings in the same order.
    """
    nc = chain_ids.size
    streams = stream_ids(label, chain_ids.tolist())
    total = burn_in + out.shape[1] * thin
    x = np.tile(init, (nc, 1))

    if stepper is not None:
        kernel, coeffs = stepper
        keys = np.array([philox_key(seed, s) for s in streams], np.uint64)
        noise = (nm.shape, np.ascontiguousarray(nm.cholesky, np.float64), noise_coeff)
        kernel.run((*coeffs, drift_coeff), noise, keys, x, out, burn_in, thin)
    else:
        gens = [seed_rng(seed, s) for s in streams]
        k = 0
        next_record = burn_in + thin
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in _noise_windows(nm, gens, noise_coeff, total):
                for row in rows:
                    f = op.fn(x)
                    f *= drift_coeff
                    x += f
                    x += row
                    k += 1
                    if k == next_record:
                        out[:, (k - burn_in) // thin - 1] = x
                        next_record += thin


def run_chains(
    op: DriftOperator,
    nm: NoiseModel,
    drift_coeff: float,
    noise_coeff: float,
    *,
    n_chains: int,
    burn_in: int,
    thin: int,
    samples_per_chain: int,
    seed: int,
    purpose: str = "simulate",
    threads: int = 1,
    init: Optional[np.ndarray] = None,
) -> Ensemble:
    """Run the generic update X <- X + drift_coeff F(X) + noise_coeff w.

    The SA recursion uses drift_coeff = noise_coeff = alpha with shaped
    noise; the Euler-Maruyama scheme reuses the same engine with
    coefficients (dt, sqrt(dt)) and standard normal noise.  Chains start
    from init (default: the root), discard burn_in steps and then record X
    every thin steps; burn_in = 0, thin = 1 records every step.  Chains
    with a non-finite record are dropped and counted; require_stable
    decides whether too many were.
    """
    init = op.root if init is None else np.asarray(init, dtype=float)
    label = (purpose, op.name, nm.shape, format(float(drift_coeff), ".17g"))
    all_ids = np.arange(n_chains)
    groups = [all_ids[i : i + _CHAIN_GROUP] for i in range(0, n_chains, _CHAIN_GROUP)]
    stepper = _kernel_for(op)
    # every group records into its own rows of the one samples array
    samples = np.empty((n_chains, samples_per_chain, op.dim))

    def work(ids):
        _run_group(
            op, stepper, nm, drift_coeff, noise_coeff, ids, burn_in, thin,
            samples[ids[0] : ids[-1] + 1], seed, label, init,
        )

    t0 = perf_counter()     # after _kernel_for, so no build or load is timed
    if threads > 1 and len(groups) > 1:
        # imported here, as a run of one chain group starts no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, groups))
    else:
        for ids in groups:
            work(ids)
    # the last record is the final state, so this also checks where chains end
    alive = np.isfinite(samples).all(axis=(1, 2))

    return Ensemble(
        samples=samples if alive.all() else samples[alive],
        chain_ids=all_ids[alive],
        n_chains=n_chains,
        n_diverged=int((~alive).sum()),
        burn_in=burn_in,
        thin=thin,
        seconds=perf_counter() - t0,
        kernel_isa=None if stepper is None else stepper[0].isa,
    )


def run_ensemble(
    cfg: ValidatedConfig,
    alpha: float,
    scaling: Optional[PowerScaling] = None,
    *,
    threads: int = 1,
    purpose: str = "simulate",
) -> Ensemble:
    """Simulate the configured ensemble at one stepsize and scale the records."""
    alpha = float(alpha)
    if alpha <= 0 or alpha > cfg.alpha_max:
        raise NumericalError(
            f"alpha {alpha:g} outside stability range (0, {cfg.alpha_max:g}]"
        )
    if scaling is None:
        if not isinstance(cfg.scaling, PowerScaling):
            raise NumericalError("no scaling exponent resolved; run the scaling search")
        scaling = cfg.scaling
    return _config_chains(cfg, alpha, alpha, scaling(alpha), purpose, threads)


def _config_chains(cfg: ValidatedConfig, drift_coeff: float, noise_coeff: float,
                   g: float, purpose: str, threads: int) -> Ensemble:
    """cfg's chains of X <- X + drift_coeff F(X) + noise_coeff w, recording
    (X - x*) / g; their schedule, "auto" included, is resolved at drift_coeff."""
    burn_in, thin = resolve_schedule(drift_coeff, cfg.burn_in, cfg.thin)
    raw = require_stable(run_chains(
        cfg.op,
        cfg.noise,
        drift_coeff=drift_coeff,
        noise_coeff=noise_coeff,
        n_chains=cfg.n_chains,
        burn_in=burn_in,
        thin=thin,
        samples_per_chain=cfg.samples_per_chain,
        seed=cfg.seed,
        purpose=purpose,
        threads=threads,
    ))
    # in place, with the roundings of (samples - root) / g: run_chains' array
    # is this call's alone, so no second samples array is ever held
    np.subtract(raw.samples, cfg.op.root, out=raw.samples)
    np.divide(raw.samples, g, out=raw.samples)
    return raw
