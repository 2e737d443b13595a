import re
from pathlib import Path

import numpy as np
import pytest

import salab._step as step
from salab.core import ConfigError, seed_rng
from salab.noise import SHAPES, _unit_variance_block, make_noise, sample_block, sign_words

ROOT = Path(__file__).resolve().parents[1]

SQRT6 = np.sqrt(6.0)


class TestConstruction:
    def test_cholesky_reconstructs_sigma(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        nm = make_noise("gaussian", sigma)
        assert np.abs(nm.cholesky @ nm.cholesky.T - sigma).max() < 1e-12

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ConfigError, match="not positive definite"):
            make_noise("gaussian", [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_unknown_shape(self):
        # every shape has a positive definite Sigma: no Sigma = 0 shape either
        for shape, sigma in (("levy", [[1.0]]), ("noiseless", [[0.0]])):
            with pytest.raises(ConfigError, match=f"unknown noise shape '{shape}'"):
                make_noise(shape, sigma)


def test_the_shape_list_is_written_once():
    # the kernel's list, the names and order of its C enum, and README's
    assert step.SHAPES == SHAPES
    source = (ROOT / "src" / "salab" / "_step.c").read_text()
    enums = [[name.strip() for name in body.split(",")]
             for body in re.findall(r"enum\s*\{([^}]*)\}", source)]
    assert [s.upper() for s in SHAPES] in enums
    assert sum("GAUSSIAN" in names for names in enums) == 1
    (listed,) = re.findall(r"^noise\.shape = \w+ +# (.*)$",
                           (ROOT / "README.md").read_text(), flags=re.M)
    assert listed.split(" | ") == list(SHAPES)


class TestMoments:
    def test_gaussian_mean_and_variance(self):
        nm = make_noise("gaussian", [[1.0]])
        draws = sample_block(nm, seed_rng(1, 0), 1_000_000)[:, 0]
        assert abs(draws.mean()) < 4e-3          # 4 / sqrt(1e6)
        assert abs(draws.var(ddof=1) - 1.0) < 0.01

    def test_rademacher_support(self):
        nm = make_noise("rademacher", [[1.0]])
        draws = sample_block(nm, seed_rng(2, 0), 10_000)[:, 0]
        assert set(np.unique(draws)) == {-1.0, 1.0}

    def test_uniform_range_under_scaling(self):
        nm = make_noise("uniform", [[2.0, 0.0], [0.0, 2.0]])
        draws = sample_block(nm, seed_rng(3, 0), 100_000)
        assert draws.min() >= -SQRT6 - 1e-12
        assert draws.max() <= SQRT6 + 1e-12

    @pytest.mark.parametrize("shape", ["gaussian", "uniform", "rademacher"])
    def test_covariance_matches_sigma(self, shape):
        sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
        nm = make_noise(shape, sigma)
        n = 1_000_000
        draws = sample_block(nm, seed_rng(4, hash(shape) & 0xFFFF), n)
        cov = np.cov(draws, rowvar=False, ddof=1)
        # entrywise 5 standard errors, SE ~ sqrt((s_ii s_jj + s_ij^2)/n)
        se = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / np.sqrt(n)
        assert np.all(np.abs(cov - sigma) <= 5 * se)

    def test_single_draw_shape(self):
        nm = make_noise("gaussian", np.eye(3))
        assert sample_block(nm, seed_rng(5, 0), 1).shape == (1, 3)


class TestUniversality:
    def test_predicted_covariance_identical_across_shapes(self):
        # the prediction consumes only Sigma, so it cannot depend on shape
        from salab.drift import grad_quadratic
        from salab.lyapunov import predict_stationary

        op = grad_quadratic()
        solutions = [
            predict_stationary(op, make_noise(shape, [[1.0]])).sigma_y
            for shape in ("gaussian", "uniform", "rademacher")
        ]
        for s in solutions[1:]:
            assert np.array_equal(s, solutions[0])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 16384])
def test_sign_words_are_the_full_range_integers(n):
    # raw words equal integers(0, 2^64) and leave the stream where it would
    old, new = seed_rng(21, 5), seed_rng(21, 5)
    expected = old.integers(0, 1 << 64, size=(n + 63) // 64, dtype=np.uint64)
    words = sign_words(new, n)
    assert words.dtype == np.uint64 and words.tobytes() == expected.tobytes()
    assert new.standard_normal(7).tobytes() == old.standard_normal(7).tobytes()
    assert new.integers(0, 1 << 64, size=3, dtype=np.uint64).tobytes() == \
        old.integers(0, 1 << 64, size=3, dtype=np.uint64).tobytes()


@pytest.mark.parametrize("shape", ["gaussian", "uniform", "rademacher"])
def test_scalar_draws_equal_the_cholesky_product(shape):
    # at d = 1 the draws are scaled in place; the bits are those of z @ L^T
    nm = make_noise(shape, [[2.7]])
    z = _unit_variance_block(shape, seed_rng(22, 3), 4096, 1)
    expected = z @ nm.cholesky.T
    assert sample_block(nm, seed_rng(22, 3), 4096).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", ["gaussian", "uniform"])
@pytest.mark.parametrize("sigma", [[[1.0, 0.3], [0.3, 0.5]],
                                   [[1.0, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.8]]],
                         ids=["d2", "d3"])
def test_rows_do_not_depend_on_the_block_height(shape, sigma):
    # L z is summed in one fixed order, so a row has the same bits whether
    # it is drawn in blocks of 1, 3 or 4096 rows; a BLAS product's differ
    # in about a third of the rows here.  Gaussian and uniform streams are
    # continuous, so the blocks of one generator hold the same z.
    nm = make_noise(shape, sigma)
    full = sample_block(nm, seed_rng(23, 4), 4096)
    for n in (1, 3):
        rng = seed_rng(23, 4)
        rows = np.concatenate([sample_block(nm, rng, n) for _ in range(4096 // n)])
        assert rows.tobytes() == full[: len(rows)].tobytes(), n
