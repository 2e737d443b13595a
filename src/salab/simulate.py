"""Ensembles of constant-stepsize stochastic-approximation chains.

Each chain follows X <- X + alpha (F(X) + w) from X0 = x*, discards a
burn-in prefix, then records the centered scaled iterate
Y = (X - x*) / g(alpha) every ``thin`` steps.  Chains own disjoint Philox
streams, so results are bit-identical for any worker-thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil
from typing import Optional

import numpy as np

from .core import NumericalError, PowerScaling, ValidatedConfig, seed_rng, stream_id
from .drift import DriftOperator
from .noise import (
    NoiseModel,
    decode_signs,
    sample_block,
    sample_noise,
    sign_table,
    sign_words,
)

#: chains simulated together in one vectorized group; grouping never affects
#: results (chains own their streams and updates are elementwise), only speed
_CHAIN_GROUP = 4096

#: steps of noise pre-generated per chain at a time
_STEP_BLOCK = 4096

#: larger blocks for the compact sign-noise fast path (1 byte per draw)
_SIGN_STEP_BLOCK = 16384

#: bytes of gaussian/uniform noise staged chain-major before it is laid out
#: step-major, a tile of consecutive chains at a time
_TILE_BYTES = 1 << 18

#: abort when more than this fraction of chains diverges
_MAX_DIVERGED_FRACTION = 0.01


def default_burn_in(alpha: float) -> int:
    """Mixing time scales like 1/alpha for a unit linear-restoring drift."""
    return ceil(10.0 / alpha)


def default_thin(alpha: float) -> int:
    """Step stride between retained samples, reducing autocorrelation."""
    return ceil(1.0 / alpha)


def step_chain(
    op: DriftOperator,
    nm: NoiseModel,
    alpha: float,
    x,
    rng: np.random.Generator,
) -> np.ndarray:
    """One update x + alpha (F(x) + w); raises if the result is non-finite."""
    x = np.asarray(x, dtype=float)
    w = sample_noise(nm, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        out = x + alpha * (op.fn(x) + w)
    if not np.all(np.isfinite(out)):
        raise NumericalError("chain diverged")
    return out


@dataclass(frozen=True)
class RawEnsemble:
    """Unscaled trajectory records for the chains that stayed finite."""

    samples: np.ndarray       # (n_kept, samples_per_chain, d), values of X
    final_states: np.ndarray  # (n_kept, d)
    chain_ids: np.ndarray     # (n_kept,)
    n_chains: int
    n_diverged: int


@dataclass(frozen=True)
class ChainEnsemble:
    """Post-burn-in samples of the centered scaled iterate Y."""

    alpha: float
    scaling: PowerScaling
    samples: np.ndarray       # (n_kept, samples_per_chain, d), values of Y
    final_states: np.ndarray  # (n_kept, d), values of X
    chain_ids: np.ndarray
    n_diverged: int
    drift_name: str
    noise_shape: str

    @property
    def flat(self) -> np.ndarray:
        """All retained samples pooled in chain-major order, shape (n, d)."""
        return self.samples.reshape(-1, self.samples.shape[-1])


@dataclass(frozen=True)
class MomentSummary:
    mean: np.ndarray
    covariance: np.ndarray
    second_moment_trace: float
    count: int


def moment_summary(ens: ChainEnsemble) -> MomentSummary:
    """Unbiased sample mean/covariance over all retained samples."""
    flat = ens.flat
    if flat.shape[0] < 2:
        raise NumericalError("ensemble too small for moments")
    mean = flat.mean(axis=0)
    cov = np.atleast_2d(np.cov(flat, rowvar=False, ddof=1))
    return MomentSummary(
        mean=mean,
        covariance=cov,
        second_moment_trace=float((flat**2).sum(axis=1).mean()),
        count=flat.shape[0],
    )


def _sign_chunks(gens, coeff: float, block: int):
    """Pre-scaled sign-noise rows for one block, one 64-step word at a time.

    Each chain draws its block's words from its own stream, so draw s of a
    chain is bit s % 64 of its word s // 64.  A word row is decoded into 64
    contiguous rows of +-coeff only when the update loop reaches it; the
    buffer is reused, so it never holds more than 64 steps.
    """
    words = np.stack([sign_words(g, block) for g in gens], axis=1)
    table = sign_table(coeff)
    rows = np.empty((64, len(gens)))
    for w, word_row in enumerate(words):
        np.copyto(rows, decode_signs(word_row, table).T)
        yield rows[: block - 64 * w]


def _tile_chains(block: int, d: int) -> int:
    """Chains per noise tile: about _TILE_BYTES of (block, d) float64 draws."""
    return max(1, _TILE_BYTES // (8 * block * d))


def _shaped_chunks(nm: NoiseModel, gens, coeff: float, block: int):
    """The block's noise from each chain's stream, scaled by coeff once.

    Consecutive chains draw their (block, d) noise into one contiguous
    tile of about _TILE_BYTES, and the tile is copied into the step-major
    block at once: every block row then receives tile * d adjacent values
    per copy instead of d values per chain.
    """
    n, d = len(gens), nm.dim
    noise = np.empty((block, n, d))
    tile = np.empty((min(n, _tile_chains(block, d)), block, d))
    for c0 in range(0, n, len(tile)):
        part = tile[: n - c0]
        for j, g in enumerate(gens[c0 : c0 + len(part)]):
            np.multiply(sample_block(nm, g, block), coeff, out=part[j])
        noise[:, c0 : c0 + len(part)] = part.transpose(1, 0, 2)
    yield noise


def _run_group(
    op: DriftOperator,
    nm: NoiseModel,
    drift_coeff: float,
    noise_coeff: float,
    chain_ids: np.ndarray,
    burn_in: int,
    thin: int,
    samples_per_chain: int,
    seed: int,
    label: tuple,
    init: np.ndarray,
):
    """Advance one group of chains in lockstep; returns (samples, states, alive).

    Chains consume noise from their own streams in a fixed block order, so
    per-chain trajectories are independent of the grouping; the group width
    only controls vectorization.  Elementwise scalar drifts run on flat
    (nc,) state arrays, everything else on (nc, d).  Every noise shape feeds
    the same update body with rows that already hold noise_coeff * w.
    """
    nc = chain_ids.size
    d = op.dim
    gens = [seed_rng(seed, stream_id(*label, int(c))) for c in chain_ids]
    out = np.empty((nc, samples_per_chain, d))
    total = burn_in + samples_per_chain * thin

    flat = d == 1 and op.elementwise
    if flat:
        x = np.full(nc, init[0])
        record = out[:, :, 0]
    else:
        x = np.tile(init, (nc, 1))
        record = out

    # scalar sign noise stays packed, one bit per draw, until decoded
    sign_path = nm.shape == "rademacher" and d == 1
    step_block = _SIGN_STEP_BLOCK if sign_path else _STEP_BLOCK
    sign_coeff = noise_coeff * float(nm.cholesky[0, 0])

    k = 0
    next_record = burn_in + thin
    with np.errstate(over="ignore", invalid="ignore"):
        while k < total:
            block = min(step_block, total - k)
            if sign_path:
                chunks = _sign_chunks(gens, sign_coeff, block)
            else:
                chunks = _shaped_chunks(nm, gens, noise_coeff, block)
            for rows in chunks:
                for row in rows.reshape(-1, *x.shape):
                    f = op.fn(x)
                    f *= drift_coeff
                    x += f
                    x += row
                    k += 1
                    if k == next_record:
                        record[:, (k - burn_in) // thin - 1] = x
                        next_record += thin
    states = x[:, None] if flat else x
    alive = np.isfinite(out).all(axis=(1, 2)) & np.isfinite(states).all(axis=1)
    return out, states, alive


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
) -> RawEnsemble:
    """Run the generic update X <- X + drift_coeff F(X) + noise_coeff w.

    The SA recursion uses drift_coeff = noise_coeff = alpha with shaped
    noise; the Euler-Maruyama scheme reuses the same engine with
    coefficients (dt, sqrt(dt)) and standard normal noise.
    """
    init = op.root if init is None else np.asarray(init, dtype=float)
    label = (purpose, op.name, nm.shape, format(float(drift_coeff), ".17g"))
    all_ids = np.arange(n_chains)
    groups = [all_ids[i : i + _CHAIN_GROUP] for i in range(0, n_chains, _CHAIN_GROUP)]

    def work(ids):
        return _run_group(
            op, nm, drift_coeff, noise_coeff, ids, burn_in, thin,
            samples_per_chain, seed, label, init,
        )

    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, groups))
    else:
        results = [work(ids) for ids in groups]

    samples = np.concatenate([r[0] for r in results], axis=0)
    states = np.concatenate([r[1] for r in results], axis=0)
    alive = np.concatenate([r[2] for r in results], axis=0)
    return RawEnsemble(
        samples=samples[alive],
        final_states=states[alive],
        chain_ids=all_ids[alive],
        n_chains=n_chains,
        n_diverged=int((~alive).sum()),
    )


def run_ensemble(
    cfg: ValidatedConfig,
    alpha: float,
    scaling: Optional[PowerScaling] = None,
    *,
    threads: int = 1,
    purpose: str = "simulate",
) -> ChainEnsemble:
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
    burn_in = default_burn_in(alpha) if cfg.burn_in == "auto" else cfg.burn_in
    thin = default_thin(alpha) if cfg.thin == "auto" else cfg.thin
    raw = run_chains(
        cfg.op,
        cfg.noise,
        drift_coeff=alpha,
        noise_coeff=alpha,
        n_chains=cfg.n_chains,
        burn_in=burn_in,
        thin=thin,
        samples_per_chain=cfg.samples_per_chain,
        seed=cfg.seed,
        purpose=purpose,
        threads=threads,
    )
    if raw.n_diverged > _MAX_DIVERGED_FRACTION * cfg.n_chains:
        raise NumericalError(
            f"unstable configuration: {raw.n_diverged}/{cfg.n_chains} chains diverged"
        )
    g = scaling(alpha)
    return ChainEnsemble(
        alpha=alpha,
        scaling=scaling,
        samples=(raw.samples - cfg.op.root) / g,
        final_states=raw.final_states,
        chain_ids=raw.chain_ids,
        n_diverged=raw.n_diverged,
        drift_name=cfg.op.name,
        noise_shape=cfg.noise.shape,
    )


def snapshot_scaled(
    op: DriftOperator,
    nm: NoiseModel,
    alpha: float,
    scaling: PowerScaling,
    steps: tuple,
    *,
    n_chains: int,
    seed: int,
    init_scaled: float = 0.0,
    purpose: str = "snapshot",
) -> dict:
    """Distribution snapshots of Y_k across chains at the requested steps k.

    Used to verify exact finite-k laws; the chains start from
    X0 = x* + g(alpha) * init_scaled instead of the stationary-run default.
    """
    steps = tuple(sorted(int(k) for k in steps))
    g = scaling(alpha)
    init = op.root + g * init_scaled
    label = (purpose, op.name, nm.shape, format(float(alpha), ".17g"))
    gens = [seed_rng(seed, stream_id(*label, c)) for c in range(n_chains)]
    x = np.tile(init, (n_chains, 1))
    snaps = {}
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in steps:
            span = k - done
            while span > 0:
                block = min(_STEP_BLOCK, span)
                noise = np.stack([sample_block(nm, g_, block) for g_ in gens], axis=1)
                for s in range(block):
                    x = x + alpha * (op.fn(x) + noise[s])
                span -= block
            done = k
            snaps[k] = (x - op.root) / g
    return snaps
