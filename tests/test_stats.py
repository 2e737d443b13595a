import tracemalloc

import numpy as np
import pytest
import scipy.signal
import scipy.special
import scipy.stats

import salab.stats as stats
from salab.core import NumericalError, seed_rng
from salab.stats import (
    _BLOCK,
    _dot,
    _pairwise_sum,
    batch_means_se,
    cf_residual,
    default_t_grid,
    effective_sample_size,
    estimate_density,
    fit_line,
    gaussian_gof,
    log_density_fit,
    sample_moments,
    summarize,
)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fixed_order_moments_and_line_fit_match_numpy(d):
    rng = seed_rng(2, d)
    samples = 3.0 + rng.standard_normal((4096, d)) @ rng.standard_normal((d, d))
    mean, cov = sample_moments(samples)
    assert mean.tobytes() == samples.mean(axis=0).tobytes()
    np.testing.assert_allclose(cov, np.atleast_2d(np.cov(samples, rowvar=False)),
                               rtol=1e-12, atol=0)
    x = np.linspace(0.0, 3.0, 200) ** 4
    for y in samples[:200].T:
        np.testing.assert_allclose(fit_line(x, y - 0.5 * x), np.polyfit(x, y - 0.5 * x, 1),
                                   rtol=1e-12, atol=0)


def wide_range(rng, shape):
    """Draws over many binades, whose sum depends on the order of its terms."""
    return rng.standard_normal(shape) * np.exp(4.0 * rng.standard_normal(shape))


def traced_peak(f, *args):
    """The peak of the memory that f(*args) allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100_003,
                               262_143, 262_144])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_pairwise_sum_is_numpys_reduction(n, layout):
    data = wide_range(seed_rng(2, n), (n, 3))
    x = np.ascontiguousarray(data[:, 0]) if layout == "contiguous" else data[:, 1]
    assert _pairwise_sum(n, lambda lo, hi: np.add.reduce(x[lo:hi])) == np.add.reduce(x)
    # an array-valued leaf sums several trees over the same ranges, in order
    ranges = []

    def leaf(lo, hi):
        ranges.append((lo, hi))
        return np.array([np.add.reduce(x[lo:hi]), np.add.reduce(data[lo:hi, 2])])

    both = _pairwise_sum(n, leaf)
    assert both.tobytes() == np.array([np.add.reduce(x), np.add.reduce(data[:, 2])]).tobytes()
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == n and max(hi - lo for lo, hi in ranges) <= _BLOCK


@pytest.mark.parametrize("n", [2, 1000, _BLOCK + 1, 100_003])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_statistics_are_the_whole_array_ones(n, d):
    rng = seed_rng(2, 40 + d)
    samples = wide_range(rng, (n, d)) @ rng.standard_normal((d, d)) + 0.3
    # the whole-array formulas, one n-length temporary per step
    mean = samples.mean(axis=0)
    centred = samples.T - mean[:, None]
    cov = np.array([[np.add.reduce(centred[i] * centred[j]) / (n - 1) for j in range(d)]
                    for i in range(d)])
    assert sample_moments(samples)[1].tobytes() == cov.tobytes()
    summary = summarize(samples)
    assert summary.count == n
    assert summary.mean.tobytes() == mean.tobytes()
    assert summary.cov.tobytes() == cov.tobytes()
    assert stats.second_moment_trace(samples) == float((samples**2).sum(axis=1).mean())
    n_batches, size = stats._batch_shape(n)
    for i in range(d):
        x = samples[:, i]
        means = x[: n_batches * size].reshape(n_batches, size).mean(axis=1)
        assert summary.n_eff[i] == min(n, n * x.var(ddof=1) / (size * means.var(ddof=1)))
    if d == 1:
        assert summary.sd == samples[:, 0].std(ddof=1)
        scale = 1.7
        cdf = scipy.special.ndtr(np.sort(samples[:, 0]) / np.sqrt(scale))
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n))
        assert gaussian_gof(samples, summary, [[scale]]).ks_distance == ks


#: a few blocks of complex temporaries: what a statistic may hold beside
#: its inputs, a fraction of one n-length complex array at n = 262,144
FEW_BLOCKS = 8 * 16 * _BLOCK


class TestBatchMeans:
    def test_iid_se_matches_classic(self):
        x = seed_rng(0, 0).standard_normal(100_000)
        se = batch_means_se(x)
        assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=0.25)

    def test_iid_ess_near_n(self):
        x = seed_rng(0, 1).standard_normal(50_000)
        assert effective_sample_size(x) > 0.5 * x.size

    def test_correlated_ess_is_discounted(self):
        # AR(1) with coefficient 0.9 has ESS factor (1-r)/(1+r) ~ 0.053
        n, r = 200_000, 0.9
        eps = seed_rng(0, 2).standard_normal(n)
        x = scipy.signal.lfilter([1.0], [1.0, -r], eps)
        ess = effective_sample_size(x)
        assert ess < 0.2 * n


class TestEstimateDensity:
    def test_standard_normal_recovery(self):
        samples = seed_rng(1, 0).standard_normal(1_000_000)
        grid = np.arange(-4.0, 4.0 + 1e-9, 0.01)
        est = estimate_density(samples, grid, samples.std(ddof=1))
        assert np.abs(est.density - scipy.stats.norm.pdf(grid)).max() <= 0.01

    def test_integrates_to_one(self):
        samples = seed_rng(1, 1).standard_normal(20_000)
        grid = np.linspace(-5, 5, 601)
        est = estimate_density(samples, grid, samples.std(ddof=1))
        assert np.trapezoid(est.density, grid) == pytest.approx(1.0, abs=0.02)

    def test_constant_samples_rejected(self):
        with pytest.raises(NumericalError, match="bandwidth"):
            estimate_density(np.ones(5000), np.linspace(-1, 1, 101), 0.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(NumericalError, match="1000"):
            estimate_density(np.zeros(999), np.linspace(-1, 1, 101), 1.0)

    def test_bimodal_mixture_peaks(self):
        rng = seed_rng(1, 2)
        n = 50_000
        comp = rng.integers(0, 2, n)
        samples = np.where(comp == 0, -2.0, 2.0) + np.sqrt(0.1) * rng.standard_normal(n)
        grid = np.linspace(-4, 4, 801)
        est = estimate_density(samples, grid, samples.std(ddof=1))
        # local maxima near the component means
        for center in (-2.0, 2.0):
            window = np.abs(grid - center) < 0.5
            peak = grid[window][np.argmax(est.density[window])]
            assert abs(peak - center) < 0.2


class TestCfResidual:
    def test_zero_frequency_is_exactly_zero(self):
        samples = seed_rng(2, 0).standard_normal(1000)
        rep = cf_residual(samples, [[-1.0]], [[1.0]], t_grid=[[0.0]])
        assert rep.residual_real[0] == 0.0
        assert rep.residual_imag[0] == 0.0

    def test_limit_law_passes(self):
        # N(0, 1/2) solves the frequency-domain identity for M=-1, Sigma=1
        samples = seed_rng(2, 1).normal(scale=np.sqrt(0.5), size=200_000)
        rep = cf_residual(samples, [[-1.0]], [[1.0]])
        assert np.all(np.hypot(rep.residual_real, rep.residual_imag) <= 5 * rep.se)

    def test_misspecified_variance_closed_form(self):
        # for Y ~ N(0, v) the residual at t is t^2 (1-2v) exp(-v t^2 / 2);
        # with v = 1 and t = 1 this is -exp(-1/2)
        samples = seed_rng(2, 2).standard_normal(400_000)
        rep = cf_residual(samples, [[-1.0]], [[1.0]], t_grid=[[1.0]])
        expected = -np.exp(-0.5)
        assert abs(rep.residual_real[0] - expected) <= 4 * rep.se[0]

    def test_conjugate_symmetry_exact(self):
        samples = seed_rng(2, 3).standard_normal(5000)
        plus = cf_residual(samples, [[-1.0]], [[1.0]], t_grid=[[0.7]])
        minus = cf_residual(samples, [[-1.0]], [[1.0]], t_grid=[[-0.7]])
        assert plus.residual_real[0] == minus.residual_real[0]
        assert plus.residual_imag[0] == -minus.residual_imag[0]

    def test_single_vector_sample_is_not_transposed(self):
        # one 3-d sample, not three scalar ones: M and Sigma are 1 x 1
        with pytest.raises(NumericalError, match="dimension"):
            cf_residual(np.array([[0.3, -0.2, 0.5]]), [[-1.0]], [[1.0]])

    def test_one_sample_is_too_few(self):
        with pytest.raises(NumericalError, match="at least 2 samples"):
            cf_residual(np.array([[0.3, -0.2]]), -np.eye(2), np.eye(2))

    @pytest.mark.parametrize("n", [2, 1001, 8191, 8193, 3 * 8192 + 37, 100_003])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_change_no_bit(self, d, n):
        # the whole-array formula, one n-length temporary per step
        rng = seed_rng(2, 5 + d)
        samples = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        m = -2.0 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
        root = rng.standard_normal((d, d))
        sigma = root @ root.T + np.eye(d)
        rep = cf_residual(samples, m, sigma)
        t_grid = default_t_grid(d)
        want = np.empty((3, len(t_grid)))
        for j, t in enumerate(t_grid):
            quad = float(_dot(t, _dot(sigma, t)))
            linear = _dot(samples, _dot(m.T, t))
            phase = _dot(samples, t)
            b = 0.0 - 2.0 * linear
            # (quad + i b)(cos + i sin), with no fused multiply-add
            re = quad * np.cos(phase) - b * np.sin(phase)
            im = quad * np.sin(phase) + b * np.cos(phase)
            want[:, j] = (re.mean(), im.mean(),
                          np.hypot(batch_means_se(re), batch_means_se(im)))
        got = np.array([rep.residual_real, rep.residual_imag, rep.se])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def skewed_case(d, n=5000):
        """Samples, M and Sigma with every entry off the diagonal set."""
        rng = seed_rng(2, 20 + d)
        samples = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + 0.3
        m = -2.0 * np.eye(d) + 0.3 * rng.standard_normal((d, d))
        root = rng.standard_normal((d, d))
        return samples, m, root @ root.T + np.eye(d)

    @staticmethod
    def probe_grid(name, d):
        """A t grid with repeated and negated probes, in various orders."""
        t = seed_rng(2, 30 + d).standard_normal(d)
        half = np.zeros(d)
        half[0] = 0.5
        flipped = half.copy()
        flipped[0] = -0.5        # [-0.5, +0.0, ...] is not -[0.5, 0.0, ...]
        return {
            "default": default_t_grid(d),
            "negated": -default_t_grid(d),
            "repeated": np.array([t, t, -t, t, -t]),
            "signed_zero": np.array([half, flipped, -half]),
            "zero": np.array([np.zeros(d), -np.zeros(d), np.zeros(d)]),
        }[name]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("grid", ["default", "negated", "repeated", "signed_zero", "zero"])
    def test_a_probes_row_does_not_depend_on_the_rest_of_the_grid(self, d, grid):
        samples, m, sigma = self.skewed_case(d)
        t_grid = self.probe_grid(grid, d)
        rep = cf_residual(samples, m, sigma, t_grid=t_grid)
        alone = [cf_residual(samples, m, sigma, t_grid=[row]) for row in t_grid]
        for got, name in ((rep.residual_real, "residual_real"),
                          (rep.residual_imag, "residual_imag"), (rep.se, "se")):
            want = np.concatenate([getattr(r, name) for r in alone])
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("d, probes", [(1, 4), (2, 6), (3, 12)])
    def test_each_probe_of_the_default_grid_takes_one_pass(self, monkeypatch, d, probes):
        samples, m, sigma = self.skewed_case(d, n=1000)
        passes = []
        dot = stats._dot
        # each probe projects every sample block on t and on M't
        monkeypatch.setattr(stats, "_dot",
                            lambda x, v: passes.append(len(x) == 1000) or dot(x, v))
        rep = cf_residual(samples, m, sigma)
        assert len(rep.t_grid) == probes and sum(passes) == 2 * probes

    def test_fixed_grid_sees_a_wrong_cross_covariance(self):
        # N(0, [[0.5, 0.3], [0.3, 0.5]]) has the marginals of the limit law
        # N(0, I/2) of M = -I, Sigma = I, and the wrong correlation: at t the
        # residual is (|t|^2 - 2 t'Ct) exp(-t'Ct / 2), zero on the axes only
        cov = np.array([[0.5, 0.3], [0.3, 0.5]])
        samples = seed_rng(2, 40).standard_normal((100_000, 2)) @ np.linalg.cholesky(cov).T
        rep = cf_residual(samples, -np.eye(2), np.eye(2))
        z = np.hypot(rep.residual_real, rep.residual_imag) / rep.se
        axes = np.count_nonzero(rep.t_grid, axis=1) == 1
        assert axes.sum() == 4 and np.all(z[axes] <= 5.0)
        assert np.max(z[~axes]) > 10.0

    def test_memory_is_a_few_blocks_and_one_batch(self):
        n = 262_144
        samples = seed_rng(2, 4).standard_normal((n, 2))
        peak = traced_peak(cf_residual, samples, [[-1.0, 0.5], [0.0, -2.0]], np.eye(2))
        # block-sized buffers and one batch of the summand for the SEs
        assert peak <= FEW_BLOCKS + 16 * n // stats.N_BATCHES

    def test_default_grid_shapes(self):
        assert default_t_grid(1).shape == (4, 1)
        assert default_t_grid(3).shape == (12, 3)


class TestGaussianGof:
    def test_self_consistent_draws_pass(self):
        samples = seed_rng(3, 0).normal(scale=np.sqrt(0.5), size=100_000)
        rep = gaussian_gof(samples, summarize(samples), [[0.5]])
        assert rep.passed

    def test_wrong_variance_fails(self):
        samples = seed_rng(3, 1).standard_normal(100_000)
        rep = gaussian_gof(samples, summarize(samples), [[0.5]])
        assert not rep.passed
        assert rep.cov_rel_err == pytest.approx(1.0, abs=0.05)

    def test_multivariate_draws_pass(self):
        sigma = np.array([[0.5, 0.1], [0.1, 0.25]])
        chol = np.linalg.cholesky(sigma)
        samples = seed_rng(3, 2).standard_normal((100_000, 2)) @ chol.T
        rep = gaussian_gof(samples, summarize(samples), sigma)
        assert rep.passed
        assert np.isnan(rep.ks_distance)

    def test_single_vector_sample_is_not_transposed(self):
        # one 3-d sample, not three scalar ones: too few to summarize
        with pytest.raises(NumericalError, match="at least 2 samples"):
            summarize(np.array([[0.3, -0.2, 0.5]]))
        # and 3-d samples do not meet a 1 x 1 Sigma_Y
        samples = np.array([[0.3, -0.2, 0.5], [0.1, 0.2, -0.4]])
        with pytest.raises(NumericalError, match="dimension"):
            gaussian_gof(samples, summarize(samples), [[1.0]])

    def test_one_sample_is_too_few(self):
        with pytest.raises(NumericalError, match="at least 2 samples"):
            summarize(np.array([[0.3, -0.2]]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_memory_is_a_few_blocks_and_the_sorted_copy(self, d):
        n = 262_144
        samples = seed_rng(3, 3).standard_normal((n, d))
        assert traced_peak(summarize, samples) <= FEW_BLOCKS
        peak = traced_peak(gaussian_gof, samples, summarize(samples), np.eye(d))
        # the KS test at d = 1 sorts one copy of the samples
        assert peak <= FEW_BLOCKS + (8 * n if d == 1 else 0)

    def test_pass_rate_over_repetitions(self):
        passes = 0
        for rep_idx in range(50):
            samples = seed_rng(3, 100 + rep_idx).normal(
                scale=np.sqrt(0.5), size=20_000
            )
            passes += gaussian_gof(samples, summarize(samples), [[0.5]]).passed
        assert passes >= 45  # >= 90 percent


class TestLogDensityFit:
    def test_exact_gaussian_log_density_is_linear_in_y2(self):
        v = 0.5
        grid = np.linspace(-3, 3, 401)
        samples = seed_rng(4, 0).normal(scale=np.sqrt(v), size=500_000)
        est_like = estimate_density(samples, grid, samples.std(ddof=1))
        fit = log_density_fit(est_like, q=2)
        assert fit.r_squared >= 0.999
        assert fit.slope == pytest.approx(-1.0 / (2 * v), rel=0.02)

    def test_rejects_bad_exponent(self):
        grid = np.linspace(-3, 3, 101)
        samples = seed_rng(4, 1).standard_normal(5000)
        est = estimate_density(samples, grid, samples.std(ddof=1))
        with pytest.raises(NumericalError):
            log_density_fit(est, q=3)

    def test_too_few_points_rejected(self):
        samples = seed_rng(4, 2).standard_normal(5000)
        est = estimate_density(samples, np.linspace(-3, 3, 9), samples.std(ddof=1))
        with pytest.raises(NumericalError, match="10"):
            log_density_fit(est, q=2)
