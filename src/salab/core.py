"""Shared vocabulary: RNG streams, scaling functions, experiment configuration.

Conventions used throughout the package:

* state vectors are 1-D float64 arrays of length d >= 1,
* square matrices are (d, d) float64 arrays,
* every random draw comes from an explicitly seeded counter-based stream,
  so that a fixed (seed, stream) pair reproduces the same bytes on disk
  regardless of scheduling or thread count.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Any

import numpy as np

try:
    # hashlib's own blake2b: `import hashlib` would also load OpenSSL's libcrypto
    from _blake2 import blake2b
except ImportError:  # a Python built without _blake2
    from hashlib import blake2b

_MASK64 = (1 << 64) - 1

#: numerical tolerance for "the drift vanishes at the root"
ROOT_TOL = 1e-12


class ConfigError(ValueError):
    """A configuration failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def philox_key(seed: int, stream: int = 0) -> tuple:
    """The Philox key of stream `stream` of `seed`: both taken modulo 2^64."""
    return int(seed) & _MASK64, int(stream) & _MASK64


def seed_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent reproducible stream keyed by (seed, stream).

    Uses the counter-based Philox generator, so distinct stream ids give
    statistically independent sequences and the same pair always yields the
    identical sequence, independent of how work is scheduled.
    """
    key = np.array(philox_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_id(*labels: Any) -> int:
    """Stable 64-bit stream id derived from a tuple of printable labels."""
    return _id(blake2b(repr(labels).encode("utf-8"), digest_size=8))


def stream_ids(labels: tuple, lasts) -> list:
    """[stream_id(*labels, last) for last in lasts], hashing labels once.

    repr((*labels, last)) is repr((*labels, 0)) up to its final "0)",
    then repr(last) and ")", so the hash of that common prefix is copied
    for each last.
    """
    if not labels:
        raise ValueError("stream_ids needs at least one label before the last")
    prefix = blake2b(repr((*labels, 0))[:-2].encode("utf-8"), digest_size=8)
    ids = []
    for last in lasts:
        h = prefix.copy()
        h.update(f"{last!r})".encode("utf-8"))
        ids.append(_id(h))
    return ids


def _id(digest) -> int:
    return int.from_bytes(digest.digest(), "little")


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------

def _as_float_array(x, name: str) -> np.ndarray:
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numeric, got {x!r}") from None


def as_vector(x, name: str = "vector") -> np.ndarray:
    arr = np.atleast_1d(_as_float_array(x, name))
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigError(f"{name} must be a 1-D array of length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must have finite entries")
    return arr


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    arr = np.atleast_2d(_as_float_array(m, name))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{name} must be square")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must have finite entries")
    return arr


def require_spd(m, name: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness, returning the symmetrized matrix."""
    arr = as_square_matrix(m, name)
    if not np.allclose(arr, arr.T, atol=1e-12 * max(1.0, float(np.abs(arr).max()))):
        raise ConfigError(f"{name} not symmetric")
    arr = 0.5 * (arr + arr.T)
    eigs = np.linalg.eigvalsh(arr)
    if eigs.min() <= 1e-14 * max(1.0, eigs.max()):
        raise ConfigError(f"{name} not positive definite")
    return arr


# ---------------------------------------------------------------------------
# scaling functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerScaling:
    """Power-law normalization g(alpha) = alpha**exponent.

    Exponents in (0, 1) guarantee both g(alpha) -> 0 and alpha/g(alpha) -> 0
    as alpha -> 0; exponent 1.0 is representable only so that it can be
    examined and rejected by the scaling search.
    """

    exponent: float

    def __post_init__(self):
        if not (0.0 < self.exponent <= 1.0):
            raise ConfigError("scaling exponent must lie in (0, 1]")

    def __call__(self, alpha: float) -> float:
        return float(alpha) ** self.exponent


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Raw experiment description, as read from a config file."""

    drift: str = "grad_quadratic"
    drift_params: dict = field(default_factory=dict)
    noise_shape: str = "gaussian"
    noise_sigma: Any = ((1.0,),)
    alphas: tuple = (0.01,)
    scaling: Any = "auto"          # exponent in (0, 1] or "auto"
    n_chains: int = 64
    burn_in: Any = "auto"          # steps, or "auto" -> ceil(10 / alpha)
    thin: Any = "auto"             # steps between records, or "auto" -> ceil(1 / alpha)
    samples_per_chain: int = 4096
    seed: int = 0
    out_dir: str = "out"
    alpha_max: Any = None          # stability threshold override


@dataclass(frozen=True)
class ValidatedConfig:
    """Resolved, immutable configuration; safe to share across threads."""

    op: Any                        # drift.DriftOperator
    noise: Any                     # noise.NoiseModel
    alphas: tuple
    scaling: Any                   # PowerScaling or "auto"
    n_chains: int
    burn_in: Any
    thin: Any
    samples_per_chain: int
    seed: int
    out_dir: str
    alpha_max: float


def resolve_schedule(alpha: float, burn_in="auto", thin="auto") -> tuple:
    """(burn_in, thin) in steps, with "auto" replaced by the defaults for alpha.

    A unit linear-restoring drift mixes in about 1/alpha steps, so "auto"
    burns in ceil(10 / alpha) steps and records every ceil(1 / alpha).
    """
    return (
        ceil(10.0 / alpha) if burn_in == "auto" else burn_in,
        ceil(1.0 / alpha) if thin == "auto" else thin,
    )


#: integer fields of ExperimentConfig and their least allowed value
_COUNT_KEYS = (
    ("n_chains", 1),
    ("burn_in", 0),
    ("thin", 1),
    ("samples_per_chain", 1),
    ("seed", None),
)


#: the largest signed 64-bit integer: the bound on the kernel's step counts
#: and on the bytes of one ensemble's records
_INT64_MAX = 2**63 - 1


def _size_errors(alphas, counts: dict, d: int) -> list:
    """What of the chains' schedules, "auto" resolved at each alpha, and of
    their records does not fit in a signed 64-bit count.

    A run counts to step burn_in + (samples_per_chain + 1) * thin, one
    record's stride past the last record.
    """
    errors, spc = [], counts["samples_per_chain"]
    for alpha in alphas:
        try:
            burn_in, thin = resolve_schedule(alpha, counts["burn_in"], counts["thin"])
            fits = burn_in + (spc + 1) * thin <= _INT64_MAX
        except OverflowError:       # "auto" at an alpha so small that 10 / alpha is inf
            fits = False
        if not fits:
            errors.append(f"alpha {alpha:g}: burn_in + (samples_per_chain + 1) * thin is "
                          f"more than 2^63 - 1 steps (burn_in = {counts['burn_in']}, "
                          f"thin = {counts['thin']})")
    if counts["n_chains"] * spc * d * 8 > _INT64_MAX:
        errors.append("n_chains * samples_per_chain * d * 8 is more than 2^63 - 1 bytes "
                      "of records")
    return errors


def _as_int(value) -> int:
    """An integer field's value; fractions, bools and text are errors, never truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def validate_config(cfg: ExperimentConfig) -> ValidatedConfig:
    """Check every invariant and resolve drift/noise identifiers.

    Raises ConfigError carrying the full list of problems found.
    """
    from . import drift as drift_mod
    from . import noise as noise_mod

    errors = []
    op = None
    try:
        op = drift_mod.from_config(cfg.drift, cfg.drift_params)
    except (ConfigError, KeyError, ValueError) as exc:
        errors.append(f"drift: {exc}")

    nm = None
    try:
        nm = noise_mod.make_noise(cfg.noise_shape, cfg.noise_sigma)
    except ConfigError as exc:
        errors.append(str(exc))

    if op is not None and nm is not None and nm.dim != op.dim:
        errors.append(
            f"noise dimension {nm.dim} does not match drift dimension {op.dim}"
        )

    alphas = ()
    try:
        alphas = tuple(float(a) for a in as_vector(cfg.alphas, "alphas"))
    except ConfigError as exc:
        errors.extend(exc.errors)
    if any(a <= 0 for a in alphas):
        errors.append("alpha must be positive")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        errors.append("alpha list must be strictly decreasing")

    alpha_max = None if op is None else op.stability_limit
    if cfg.alpha_max is not None:
        try:
            alpha_max = float(cfg.alpha_max)
        except (TypeError, ValueError):
            alpha_max = np.nan
        if not 0 < alpha_max < np.inf:
            errors.append(f"alpha_max must be finite and positive, got {cfg.alpha_max!r}")
            alpha_max = None
    if alpha_max is not None and all(a > 0 for a in alphas):
        too_big = [a for a in alphas if a > alpha_max]
        if too_big:
            errors.append(
                f"alpha {max(too_big):g} above stability threshold {alpha_max:g}"
            )

    scaling = cfg.scaling
    if scaling != "auto":
        try:
            scaling = PowerScaling(float(scaling))
        except (TypeError, ValueError, ConfigError) as exc:
            errors.append(f"scaling: {exc}")

    counts = {}
    for name, minimum in _COUNT_KEYS:
        value = getattr(cfg, name)
        if name in ("burn_in", "thin") and isinstance(value, str) and value == "auto":
            counts[name] = value
            continue
        try:
            counts[name] = _as_int(value)
        except ValueError:
            errors.append(f"{name} must be an integer, got {value!r}")
            continue
        if minimum is not None and counts[name] < minimum:
            errors.append(f"{name} must be >= {minimum}")
    # philox_key takes a seed modulo 2^64, so one outside would alias another
    if not 0 <= counts.get("seed", 0) <= _MASK64:
        errors.append(f"seed must be in [0, 2^64 - 1], got {counts['seed']}")
    if counts.get("n_chains") == counts.get("samples_per_chain") == 1:
        errors.append("n_chains * samples_per_chain must be >= 2: the moments of the "
                      "records need at least 2")

    if not errors:
        errors = _size_errors(alphas, counts, op.dim)
    if errors:
        raise ConfigError(errors)

    return ValidatedConfig(
        op=op,
        noise=nm,
        alphas=alphas,
        scaling=scaling,
        **counts,
        out_dir=str(cfg.out_dir),
        alpha_max=float(alpha_max),
    )


# ---------------------------------------------------------------------------
# config file format: flat `key = value` lines, `#` comments, UTF-8 (BOM or not)
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "drift": str,
    "noise.shape": str,
    "scaling": None,
    "n_chains": None,
    "burn_in": None,
    "thin": None,
    "samples_per_chain": None,
    "seed": None,
    "out_dir": str,
    "alpha_max": float,
}


def _parse_value(text: str):
    """Parse a config value: literal (number/list/nested list) or bare string."""
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    if "," in text:
        # bare comma list such as `0.1, 0.01`
        try:
            return ast.literal_eval(f"[{text}]")
        except (ValueError, SyntaxError):
            pass
    return text


def parse_config_file(path) -> ExperimentConfig:
    """Read a `key = value` config file into an ExperimentConfig."""
    cfg = ExperimentConfig()
    errors = []
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    given = {}          # key -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in given:
            errors.append(f"line {lineno}: key {key!r} already given on line {given[key]}")
            continue
        given[key] = lineno
        parsed = _parse_value(value)
        if key == "alphas":
            try:
                cfg.alphas = tuple(as_vector(parsed, "alphas"))
            except ConfigError as exc:
                errors.append(f"line {lineno}: {exc}")
        elif key == "noise.sigma":
            cfg.noise_sigma = parsed
        elif key.startswith("drift."):
            cfg.drift_params[key[len("drift."):]] = parsed
        elif key in _SCALAR_KEYS:
            attr = key.replace("noise.shape", "noise_shape").replace(".", "_")
            caster = _SCALAR_KEYS[key]
            try:
                cfg.__setattr__(attr, caster(parsed) if caster else parsed)
            except (TypeError, ValueError):
                errors.append(f"line {lineno}: bad value for {key}: {value.strip()!r}")
        else:
            errors.append(f"line {lineno}: unknown key {key!r}")
    if errors:
        raise ConfigError(errors)
    return cfg
