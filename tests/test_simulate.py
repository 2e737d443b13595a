import threading
import tracemalloc
from dataclasses import replace
from math import ceil

import numpy as np
import pytest

import salab._step as step
import salab.simulate as sim
from salab.core import (
    ExperimentConfig,
    NumericalError,
    PowerScaling,
    seed_rng,
    stream_id,
    stream_ids,
    validate_config,
)
from salab.drift import grad_quadratic, linear, quartic
from salab.noise import make_noise
from salab.simulate import run_chains, run_ensemble
from salab.stats import batch_means_se, summarize


def quadratic_config(alpha, *, shape="gaussian", n_chains=64, spc=512,
                     burn_in="auto", thin="auto", seed=0):
    cfg = ExperimentConfig(
        drift="grad_quadratic",
        noise_shape=shape,
        noise_sigma=[[1.0]],
        alphas=(alpha,),
        scaling=0.5,
        n_chains=n_chains,
        burn_in=burn_in,
        thin=thin,
        samples_per_chain=spc,
        seed=seed,
    )
    return validate_config(cfg)


def chain_rng(op, nm, drift_coeff, c, seed, purpose="simulate"):
    """A fresh copy of the stream run_chains gives chain c."""
    label = (purpose, op.name, nm.shape, format(float(drift_coeff), ".17g"))
    return seed_rng(seed, stream_id(*label, c))


@pytest.fixture(params=["compiled", "numpy"])
def body(request, monkeypatch):
    """Run the kernel's drifts on the named body: the C kernel or the numpy loop."""
    if request.param == "numpy":
        monkeypatch.setattr(step, "load", lambda: None)
    elif step.load() is None:
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    raw = run_chains(quartic(), make_noise("rademacher", [[1.0]]), 0.01, 0.01, n_chains=1,
                     burn_in=0, thin=1, samples_per_chain=1, seed=0)
    assert raw.kernel_isa == (None if request.param == "numpy" else step.load().isa)
    return request.param


def one_step(op, nm, alpha, x0, seed, noise_coeff=None):
    """X_1 of chain 0 started at x0: one update alpha F(x0) + noise_coeff w,
    by default the SA update alpha (F(x0) + w)."""
    noise_coeff = alpha if noise_coeff is None else noise_coeff
    raw = run_chains(op, nm, alpha, noise_coeff, n_chains=1, burn_in=0, thin=1,
                     samples_per_chain=1, seed=seed, init=x0)
    return raw.samples[0, 0]


def spread_over_threads(monkeypatch):
    """The set of threads that name chains' streams, each held until a second one starts.

    Both bodies call stream_ids once per group.  Groups of a few chains
    finish in microseconds on the compiled kernel, so one worker could
    otherwise run them all before another starts.
    """
    workers, second = set(), threading.Event()

    def stream_ids_noting_thread(*args):
        workers.add(threading.get_ident())
        if len(workers) >= 2:
            second.set()
        elif not second.wait(timeout=10):
            second.set()          # no second worker: fail on the count, not here
        return stream_ids(*args)

    monkeypatch.setattr(sim, "stream_ids", stream_ids_noting_thread)
    return workers


def assert_thread_and_group_invariance(cfg, monkeypatch, sigma=None):
    """The same bytes for one wide group, groups of 7, 2 and 1 chains, and
    groups of 5 spread over four threads, on whichever body runs cfg's drift.

    sigma is the noise covariance, [[1.0]] by default.
    """
    alpha = 0.05
    cfg = validate_config(replace(cfg, noise_sigma=sigma or [[1.0]], alphas=(alpha,),
                                  n_chains=24, burn_in=700, thin=9, samples_per_chain=64,
                                  seed=5))
    wide = run_ensemble(cfg, alpha).samples.tobytes()
    for width in (7, 2, 1):
        monkeypatch.setattr(sim, "_CHAIN_GROUP", width)
        assert run_ensemble(cfg, alpha).samples.tobytes() == wide, width
    monkeypatch.setattr(sim, "_CHAIN_GROUP", 5)
    workers = spread_over_threads(monkeypatch)
    multi = run_ensemble(cfg, alpha, threads=4)
    assert len(workers) >= 2 and threading.get_ident() not in workers
    assert multi.samples.tobytes() == wide


#: 2-d and 3-d affine coefficients whose products and sums round, with the
#: noise covariances that go with them
ROUNDING_A = [[-1.3, 0.7], [0.2, -2.1]]
ROUNDING_B = [0.1, -0.3]
ROUNDING_H = [[0.9, 0.2], [0.2, 0.7]]
ROUNDING_A3 = [[-1.3, 0.7, 0.1], [0.2, -2.1, 0.3], [-0.4, 0.6, -1.7]]
ROUNDING_B3 = [0.1, -0.3, 0.7]
SIGMA = {2: [[1.0, 0.3], [0.3, 0.5]],
         3: [[1.0, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.8]]}


class TestStepChain:
    # noise_coeff = 0: the drift step alone
    def test_noiseless_linear(self):
        op = linear([[-1.0]])
        nm = make_noise("gaussian", [[1.0]])
        assert one_step(op, nm, 0.1, [1.0], 0, noise_coeff=0.0) == pytest.approx([0.9])

    def test_noiseless_cubic(self):
        nm = make_noise("gaussian", [[1.0]])
        assert one_step(quartic(), nm, 0.1, [2.0], 0, noise_coeff=0.0) == pytest.approx([1.2])

    def test_pure_noise_step(self):
        # F(0) = 0, so the update is exactly alpha * w
        op = linear([[-1.0]])
        nm = make_noise("gaussian", [[1.0]])
        w = chain_rng(op, nm, 0.1, 0, 4).standard_normal((1, 1))[0, 0]
        assert one_step(op, nm, 0.1, [0.0], 4)[0] == pytest.approx(0.1 * w)


class TestRunEnsemble:
    def test_noiseless_from_root_stays_at_root(self):
        # gaussian draws at noise_coeff = 0 leave the drift alone, which
        # vanishes at the root
        ens = run_chains(grad_quadratic(), make_noise("gaussian", [[1.0]]), 0.01, 0.0,
                         n_chains=4, burn_in=1000, thin=100, samples_per_chain=16, seed=0)
        assert np.all(ens.samples == 0.0)

    def test_stationary_variance_matches_ar1(self):
        # exact stationary variance of the scaled iterate is 1/(2 - alpha)
        alpha = 0.01
        cfg = quadratic_config(alpha, n_chains=64, spc=512, seed=1)
        ens = run_ensemble(cfg, alpha)
        flat = ens.flat[:, 0]
        target = 1.0 / (2.0 - alpha)
        se = batch_means_se((flat - flat.mean()) ** 2)
        assert abs(flat.var(ddof=1) - target) <= 3 * se

    def test_stationary_mean_is_zero(self):
        alpha = 0.01
        cfg = quadratic_config(alpha, seed=2)
        ens = run_ensemble(cfg, alpha)
        flat = ens.flat[:, 0]
        assert abs(flat.mean()) <= 3 * batch_means_se(flat)

    def test_lemma_bound_on_second_moment(self):
        # E||Y||^2 <= trace(Sigma) / (2 sigma - L^2 alpha) for a sigma-strongly
        # convex, L-smooth objective
        alpha = 0.1
        hessian = [[1.0, 0.0], [0.0, 2.0]]
        cfg = validate_config(
            ExperimentConfig(
                drift="grad_quadratic",
                drift_params={"hessian": hessian},
                noise_sigma=np.eye(2).tolist(),
                alphas=(alpha,), scaling=0.5, n_chains=64,
                samples_per_chain=256, seed=3, alpha_max=0.25,
            )
        )
        ens = run_ensemble(cfg, alpha)
        eigs = np.linalg.eigvalsh(hessian)
        sigma, big_l = eigs.min(), eigs.max()
        bound = 2.0 / (2 * sigma - big_l**2 * alpha)
        z = (ens.flat**2).sum(axis=1)
        assert z.mean() <= bound + 4 * batch_means_se(z)

    def test_unstable_configuration_raises(self):
        cfg = validate_config(
            ExperimentConfig(
                drift="quartic", alphas=(0.25,), scaling=0.25, n_chains=16,
                burn_in=0, thin=1, samples_per_chain=2048, seed=4,
                noise_sigma=[[64.0]],
            )
        )
        with pytest.raises(NumericalError, match="unstable configuration"):
            run_ensemble(cfg, 0.25)

    def test_in_place_scaling_keeps_the_bytes(self):
        # b != 0, so the root is not 0, and a non-diagonal Sigma
        alpha = 0.05
        cfg = validate_config(ExperimentConfig(
            drift="linear", drift_params={"a": ROUNDING_A, "b": ROUNDING_B},
            noise_sigma=SIGMA[2], alphas=(alpha,), scaling=0.5, n_chains=16,
            samples_per_chain=64, seed=8))
        assert np.all(cfg.op.root != 0.0)
        burn_in, thin = sim.resolve_schedule(alpha)
        raw = run_chains(cfg.op, cfg.noise, alpha, alpha, n_chains=16, burn_in=burn_in,
                         thin=thin, samples_per_chain=64, seed=8)
        want = (raw.samples - cfg.op.root) / cfg.scaling(alpha)
        assert run_ensemble(cfg, alpha).samples.tobytes() == want.tobytes()

    def test_holds_one_samples_array(self):
        if step.load() is None:
            pytest.skip("no C compiler: the numpy body also holds a block of noise")
        alpha = 0.05
        cfg = validate_config(ExperimentConfig(
            drift="linear", drift_params={"a": ROUNDING_A, "b": ROUNDING_B},
            noise_sigma=SIGMA[2], alphas=(alpha,), scaling=0.5, n_chains=512,
            samples_per_chain=512, seed=9))
        tracemalloc.start()
        try:
            ens = run_ensemble(cfg, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.samples.nbytes == 512 * 512 * 2 * 8
        assert peak <= ens.samples.nbytes + 2**20

    @pytest.mark.parametrize(
        "op, shape, sigma, n_chains",
        [(quartic(), "rademacher", [[0.5]], 256),
         (linear(ROUNDING_A, ROUNDING_B), "gaussian", SIGMA[2], 64)],
        ids=["sign-d1", "gaussian-d2"])
    def test_numpy_body_holds_one_block_and_one_window(self, op, shape, sigma, n_chains,
                                                       monkeypatch):
        # a full 4096-step block: packed words for d = 1 sign noise, drawn
        # values otherwise, and one step-major window of 64 steps
        monkeypatch.setattr(step, "load", lambda: None)
        nm, d = make_noise(shape, sigma), op.dim
        packed = shape == "rademacher" and d == 1
        block = n_chains * (64 if packed else sim._STEP_BLOCK * d) * 8
        window = 64 * n_chains * d * 8
        tracemalloc.start()
        try:
            ens = run_chains(op, nm, 0.01, 0.02, n_chains=n_chains, burn_in=0, thin=100,
                             samples_per_chain=64, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.samples.nbytes == n_chains * 64 * d * 8
        assert peak <= block + window + ens.samples.nbytes + 2**20

    def test_thread_count_invariance(self, monkeypatch):
        # four groups of at most 5 chains, so threads=4 runs them on workers
        alpha = 0.05
        cfg = quadratic_config(alpha, n_chains=16, spc=64, seed=5)
        single = run_ensemble(cfg, alpha, threads=1)
        monkeypatch.setattr(sim, "_CHAIN_GROUP", 5)
        workers = spread_over_threads(monkeypatch)
        multi = run_ensemble(cfg, alpha, threads=4)
        assert len(workers) >= 2 and threading.get_ident() not in workers
        assert single.samples.tobytes() == multi.samples.tobytes()

    def test_group_width_invariance(self, monkeypatch):
        alpha = 0.05
        cfg = quadratic_config(alpha, n_chains=24, spc=64, seed=6)
        wide = run_ensemble(cfg, alpha)
        monkeypatch.setattr(sim, "_CHAIN_GROUP", 7)
        narrow = run_ensemble(cfg, alpha)
        assert np.array_equal(wide.samples, narrow.samples)

    @pytest.mark.parametrize("shape", ["rademacher", "gaussian"])
    def test_quartic_thread_and_group_invariance(self, shape, body, monkeypatch):
        assert_thread_and_group_invariance(
            ExperimentConfig(drift="quartic", noise_shape=shape, scaling=0.25),
            monkeypatch)

    @pytest.mark.parametrize("shape", ["rademacher", "gaussian", "uniform"])
    @pytest.mark.parametrize("drift, params", [("linear", {"a": [[-1.5]], "b": [0.7]}),
                                               ("grad_quadratic", {"hessian": [[0.8]]})],
                             ids=["linear", "grad_quadratic"])
    def test_affine_thread_and_group_invariance(self, drift, params, shape, body,
                                                monkeypatch):
        assert_thread_and_group_invariance(
            ExperimentConfig(drift=drift, drift_params=params, noise_shape=shape,
                             scaling=0.5),
            monkeypatch)

    @pytest.mark.parametrize("shape", ["rademacher", "gaussian", "uniform"])
    @pytest.mark.parametrize("drift, params",
                             [("linear", {"a": ROUNDING_A, "b": ROUNDING_B}),
                              ("grad_quadratic", {"hessian": ROUNDING_H})],
                             ids=["linear", "grad_quadratic"])
    def test_affine_d2_thread_and_group_invariance(self, drift, params, shape, body,
                                                   monkeypatch):
        # products that round, so a sum whose order hangs on the row count shows
        assert_thread_and_group_invariance(
            ExperimentConfig(drift=drift, drift_params=params, noise_shape=shape,
                             scaling=0.5),
            monkeypatch, sigma=SIGMA[2])

    @pytest.mark.parametrize("shape", ["gaussian", "rademacher", "uniform"])
    def test_noise_shape_universality(self, shape):
        # same Sigma, same alpha: stationary covariances agree within 6 SE
        alpha = 0.005
        cfg = quadratic_config(alpha, shape=shape, n_chains=64, spc=256, seed=7)
        flat = run_ensemble(cfg, alpha).flat[:, 0]
        target = 1.0 / (2.0 - alpha)
        se = batch_means_se((flat - flat.mean()) ** 2)
        assert abs(flat.var(ddof=1) - target) <= 6 * se


class TestFiniteKOracle:
    def test_transient_law_matches_closed_form(self):
        # for F(x) = -x with standard normal noise started from y0,
        # Y_k ~ N((1-a)^k y0, (1 - (1-a)^(2k)) / (2-a))
        alpha, y0 = 0.01, 3.0
        op, nm = grad_quadratic(), make_noise("gaussian", [[1.0]])
        g = PowerScaling(0.5)(alpha)
        raw = run_chains(
            op, nm, alpha, alpha, n_chains=20000, burn_in=0, thin=10,
            samples_per_chain=100, seed=11, purpose="snapshot", init=op.root + g * y0,
        )
        assert raw.n_diverged == 0
        for k in (10, 100, 1000):
            y = (raw.samples[:, k // 10 - 1, 0] - op.root[0]) / g
            mean_k = (1 - alpha) ** k * y0
            var_k = (1 - (1 - alpha) ** (2 * k)) / (2 - alpha)
            n = y.size
            assert abs(y.mean() - mean_k) <= 4 * np.sqrt(var_k / n)
            assert abs(y.var(ddof=1) - var_k) <= 4 * var_k * np.sqrt(2.0 / n)


class TestSummarize:
    def _records(self, values):
        return np.asarray(values, dtype=float).reshape(-1, 1)

    def test_two_point_sample(self):
        mom = summarize(self._records([1.0, -1.0]))
        assert mom.mean[0] == pytest.approx(0.0)
        assert mom.cov[0, 0] == pytest.approx(2.0)  # n-1 divisor
        assert mom.second_moment_trace == pytest.approx(1.0)

    def test_gaussian_draws(self):
        draws = seed_rng(8, 0).normal(scale=np.sqrt(0.5), size=1_000_000)
        mom = summarize(self._records(draws))
        assert abs(mom.cov[0, 0] - 0.5) < 0.005

    def test_trace_bound_for_unit_quadratic(self):
        alpha = 0.01
        cfg = quadratic_config(alpha, seed=9)
        mom = summarize(run_ensemble(cfg, alpha).flat)
        assert mom.second_moment_trace <= 1.0 + 0.05  # trace(Sigma)/sigma + 0.05

    def test_empty_rejected(self):
        with pytest.raises(NumericalError, match="at least 2 samples"):
            summarize(self._records([1.0]))


class TestDivergenceHandling:
    def test_diverged_chains_are_dropped_and_counted(self):
        # huge stepsize on the cubic drift explodes immediately from any
        # nonzero state; count survivors via the raw engine
        op, nm = quartic(), make_noise("gaussian", [[1.0]])
        raw = run_chains(
            op, nm, drift_coeff=10.0, noise_coeff=10.0, n_chains=8,
            burn_in=0, thin=1, samples_per_chain=64, seed=10,
        )
        assert raw.n_diverged == 8
        assert raw.samples.shape[0] == 0


def reference_noise(nm, rng, n):
    """n noise vectors drawn the way the engine's stream contract says.

    Sign draw i of a block is bit i % 64 of raw word i // 64, mapped bit by
    bit; gaussian and uniform draws are the generator's own (n, d) blocks.
    Each vector is L z summed in plain Python floats, in order of k:
    (z_0 l_i0 + z_1 l_i1) + ...
    """
    d = nm.dim
    if nm.shape == "rademacher":
        words = rng.integers(0, 1 << 64, size=ceil(n * d / 64), dtype=np.uint64)
        z = np.empty((n, d))
        for s in range(n):
            for j in range(d):
                i = s * d + j
                z[s, j] = 1.0 if (int(words[i // 64]) >> (i % 64)) & 1 else -1.0
    elif nm.shape == "gaussian":
        z = rng.standard_normal((n, d))
    else:
        z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, d))
    chol = nm.cholesky.tolist()
    w = np.empty((n, d))
    for s, zs in enumerate(z.tolist()):
        for i in range(d):
            acc = zs[0] * chol[i][0]
            for k in range(1, d):
                acc = acc + zs[k] * chol[i][k]
            w[s, i] = acc
    return w


def reference_chain(op, nm, drift_coeff, noise_coeff, c, *, burn_in, thin,
                    samples_per_chain, seed, purpose="simulate", init=None):
    """Chain c of run_chains, stepped alone, one step at a time."""
    rng = chain_rng(op, nm, drift_coeff, c, seed, purpose)
    total = burn_in + samples_per_chain * thin
    x = (op.root if init is None else np.asarray(init, dtype=float)).copy()[None, :]
    records = []
    k = 0
    while k < total:
        block = min(sim._STEP_BLOCK, total - k)
        noise = reference_noise(nm, rng, block)
        for s in range(block):
            x = x + op.fn(x) * drift_coeff
            x = x + noise_coeff * noise[s]
            k += 1
            if k > burn_in and (k - burn_in) % thin == 0:
                records.append(x[0].copy())
    return np.array(records)


def assert_chains_match_reference(op, nm, n_chains, chains, noise_coeff=0.02, **sizes):
    """The given chains of one run_chains call, at drift_coeff 0.01 and
    noise_coeff, equal reference_chain bit for bit."""
    raw = run_chains(op, nm, 0.01, noise_coeff, n_chains=n_chains, **sizes)
    assert raw.n_diverged == 0
    for c in chains:
        records = reference_chain(op, nm, 0.01, noise_coeff, c, **sizes)
        assert raw.samples[c].tobytes() == records.tobytes(), c


def assert_diverging_chains_agree(op, nm, drift_coeff, noise_coeff, steps, monkeypatch):
    """Some but not all of 100 chains diverge, alike on both bodies."""
    if step.load() is None:
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    sizes = dict(n_chains=100, burn_in=0, thin=1, samples_per_chain=steps, seed=4)
    compiled = run_chains(op, nm, drift_coeff, noise_coeff, **sizes)
    monkeypatch.setattr(step, "load", lambda: None)
    numpy_body = run_chains(op, nm, drift_coeff, noise_coeff, **sizes)
    assert 0 < compiled.n_diverged < 100
    assert compiled.n_diverged == numpy_body.n_diverged
    assert np.array_equal(compiled.chain_ids, numpy_body.chain_ids)
    assert compiled.samples.tobytes() == numpy_body.samples.tobytes()


#: chains per tile of the compiled kernel (TILE in _step.c)
KERNEL_TILE = 64

#: a full kernel tile and a partial one, and a chain on both sides of the edge
EDGE_CHAINS = KERNEL_TILE + 5
EDGE_CHAIN_IDS = (0, KERNEL_TILE - 1, KERNEL_TILE, EDGE_CHAINS - 1)

#: at the numpy body's window and block edges: burn-in ends 4 steps into the
#: second 4096-step block, mid-window; thin is not a multiple of 64; and the
#: total, 4100 + 20 * 37 = 4840 steps, is not either, so the last 64-step
#: window holds 40 steps
EDGE_SIZES = dict(burn_in=4100, thin=37, samples_per_chain=20)

#: one block shorter than 4096 steps: 150 + 30 * 7 = 360, so five full
#: windows and one of 40 steps
SHORT_SIZES = dict(burn_in=150, thin=7, samples_per_chain=30)


class TestEngineMatchesReference:
    @pytest.mark.parametrize(
        "op, shape, sigma, burn_in, thin, spc",
        [
            # crosses four 4096-step blocks; thin is not a multiple of 64
            (quartic(), "rademacher", [[0.5]], 16000, 37, 20),
            (linear([[-1.0, 0.5], [0.0, -2.0]]), "rademacher",
             [[1.0, 0.3], [0.3, 0.5]], 4000, 13, 20),
            (grad_quadratic(), "gaussian", [[2.0]], 4000, 13, 20),
            (linear([[-1.0, 0.5], [0.0, -2.0]]), "gaussian",
             [[1.0, 0.3], [0.3, 0.5]], 4000, 13, 20),
            (quartic(), "uniform", [[1.5]], 4000, 13, 20),
        ],
        ids=["sign-d1", "sign-d2", "gaussian-d1", "gaussian-d2", "uniform-d1"],
    )
    def test_each_chain_is_bit_identical(self, op, shape, sigma, burn_in, thin, spc):
        assert_chains_match_reference(op, make_noise(shape, sigma), 3, range(3),
                                      burn_in=burn_in, thin=thin, samples_per_chain=spc,
                                      seed=12)

    @pytest.mark.parametrize(
        "shape, sigma, burn_in, thin, spc",
        [
            # burn-in ends 6 steps into the fifth block, mid-word; the
            # total, 33,560 steps, ends 24 steps into a window
            ("rademacher", [[0.5]], 16390, 101, 170),
            ("gaussian", [[1.0]], 4100, 13, 20),
            ("uniform", [[1.5]], 4100, 13, 20),
        ],
        ids=["sign", "gaussian", "uniform"],
    )
    def test_quartic_chains_on_both_bodies(self, shape, sigma, burn_in, thin, spc, body):
        assert_chains_match_reference(
            quartic(), make_noise(shape, sigma), EDGE_CHAINS, EDGE_CHAIN_IDS,
            burn_in=burn_in, thin=thin, samples_per_chain=spc, seed=14)

    @pytest.mark.parametrize("op", [linear([[-1.5]], [0.7]), grad_quadratic([[2.5]])],
                             ids=["linear", "grad_quadratic"])
    @pytest.mark.parametrize(
        "shape, sigma, blocks, noise_coeff",
        [
            ("gaussian", [[1.3]], "long", 0.02),
            ("gaussian", [[1.3]], "short", 0.02),
            ("uniform", [[0.8]], "long", 0.02),
            ("uniform", [[0.8]], "short", 0.02),
            ("gaussian", [[1.3]], "short", 0.0),
            ("rademacher", [[0.5]], "long", 0.02),
        ],
        ids=["gaussian-long", "gaussian-short", "uniform-long", "uniform-short",
             "noiseless", "sign"],
    )
    def test_affine_chains_on_both_bodies(self, op, shape, sigma, blocks, noise_coeff, body):
        # Chains start off the root, so the noiseless ones (noise_coeff 0)
        # move too.  Long blocks cross the numpy body's window and block
        # edges; short ones run one block shorter than a full one.
        sizes = EDGE_SIZES if blocks == "long" else SHORT_SIZES
        assert_chains_match_reference(op, make_noise(shape, sigma), EDGE_CHAINS,
                                      EDGE_CHAIN_IDS, noise_coeff, seed=15, init=[3.0],
                                      **sizes)

    # about an eighth (gaussian) and a quarter (sign) of the chains diverge
    @pytest.mark.parametrize("shape, sigma", [("gaussian", [[30.0]]),
                                              ("rademacher", [[150.0]])])
    def test_diverging_quartic_chains_agree_on_both_bodies(self, shape, sigma, monkeypatch):
        assert_diverging_chains_agree(quartic(), make_noise(shape, sigma), 0.1, 0.2, 300,
                                      monkeypatch)

    # X <- -2 X + 3 (0.5 + w) grows like 2^k: 61 to 78 of the 100 chains
    # pass 1e308 and overflow within 1024 steps
    @pytest.mark.parametrize("shape", ["gaussian", "uniform", "rademacher"])
    def test_diverging_linear_chains_agree_on_both_bodies(self, shape, monkeypatch):
        assert_diverging_chains_agree(linear([[-1.0]], [0.5]), make_noise(shape, [[1.0]]),
                                      3.0, 3.0, 1024, monkeypatch)

    @pytest.mark.parametrize("op", [linear(ROUNDING_A, ROUNDING_B), grad_quadratic(ROUNDING_H),
                                    linear(ROUNDING_A3, ROUNDING_B3)],
                             ids=["linear-d2", "grad_quadratic-d2", "linear-d3"])
    @pytest.mark.parametrize("shape, blocks, noise_coeff",
                             [("gaussian", "long", 0.02), ("gaussian", "short", 0.02),
                              ("uniform", "short", 0.02), ("gaussian", "short", 0.0),
                              ("rademacher", "long", 0.02)],
                             ids=["gaussian-long", "gaussian-short", "uniform-short",
                                  "noiseless", "sign"])
    def test_rounding_affine_chains_on_both_bodies(self, op, shape, blocks, noise_coeff, body):
        # Coefficients whose products round, started off the root, with
        # the long and short blocks and the noise_coeff 0 case of
        # test_affine_chains_on_both_bodies
        sizes = EDGE_SIZES if blocks == "long" else SHORT_SIZES
        assert_chains_match_reference(op, make_noise(shape, SIGMA[op.dim]), EDGE_CHAINS,
                                      EDGE_CHAIN_IDS, noise_coeff, seed=16,
                                      init=op.root + 3.0, **sizes)

    def test_wide_affine_chains_on_worker_threads(self, monkeypatch):
        # d = 1100: the kernel's tile of states and drift values lives on the
        # stack of each worker thread, linear in d; a d x d copy would not fit
        if step.load() is None:
            pytest.skip("no C compiler: the compiled kernel cannot be built")
        d = 1100
        # triangular, so the Hurwitz check is cheap; its products still round
        a = np.triu(seed_rng(3, 0).standard_normal((d, d)), 1) / d - 1.3 * np.eye(d)
        op, nm = linear(a, np.full(d, 0.1)), make_noise("gaussian", np.eye(d))
        monkeypatch.setattr(sim, "_CHAIN_GROUP", 5)
        sizes = dict(n_chains=10, burn_in=0, thin=1, samples_per_chain=2, seed=17, threads=2)
        compiled = run_chains(op, nm, 0.01, 0.02, **sizes)
        monkeypatch.setattr(step, "load", lambda: None)
        numpy_body = run_chains(op, nm, 0.01, 0.02, **sizes)
        assert compiled.n_diverged == 0
        assert compiled.samples.tobytes() == numpy_body.samples.tobytes()

    # X <- (I + 3A) X + 3 (b + w), whose iteration matrix has the eigenvalue
    # -2.11: 62 to 76 of the 100 chains pass 1e308 and overflow within 950 steps
    @pytest.mark.parametrize("shape", ["gaussian", "uniform", "rademacher"])
    def test_diverging_d2_linear_chains_agree_on_both_bodies(self, shape, monkeypatch):
        assert_diverging_chains_agree(linear([[-0.9, 0.3], [0.2, -0.6]], ROUNDING_B),
                                      make_noise(shape, SIGMA[2]), 3.0, 3.0, 950,
                                      monkeypatch)

    @pytest.mark.parametrize("seed", [-3, 2**64 + 5], ids=["negative", "past-2^64"])
    @pytest.mark.parametrize("op, shape", [(quartic(), "rademacher"),
                                           (linear(ROUNDING_A, ROUNDING_B), "gaussian")],
                             ids=["sign-d1", "gaussian-d2"])
    def test_seeds_are_keyed_modulo_2_64_on_both_bodies(self, op, shape, seed, monkeypatch):
        if step.load() is None:
            pytest.skip("no C compiler: the compiled kernel cannot be built")
        nm = make_noise(shape, SIGMA.get(op.dim, [[1.0]]))
        sizes = dict(n_chains=KERNEL_TILE + 3, burn_in=200, thin=7, samples_per_chain=6)
        compiled = run_chains(op, nm, 0.01, 0.02, seed=seed, **sizes).samples.tobytes()
        assert run_chains(op, nm, 0.01, 0.02, seed=seed % 2**64, **sizes).samples.tobytes() \
            == compiled
        monkeypatch.setattr(step, "load", lambda: None)
        assert run_chains(op, nm, 0.01, 0.02, seed=seed, **sizes).samples.tobytes() == compiled
