import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salab.core import (
    ConfigError,
    ExperimentConfig,
    PowerScaling,
    parse_config_file,
    seed_rng,
    stream_id,
    stream_ids,
    validate_config,
)


class TestSeedRng:
    def test_same_seed_same_stream_identical(self):
        a = seed_rng(7, 0).standard_normal(1000)
        b = seed_rng(7, 0).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = seed_rng(7, 0).standard_normal(1000)
        b = seed_rng(7, 1).standard_normal(1000)
        assert not np.array_equal(a, b)

    def test_streams_empirically_uncorrelated(self):
        # Monte-Carlo bound 3/sqrt(n) with headroom
        n = 100_000
        a = seed_rng(7, 0).standard_normal(n)
        b = seed_rng(7, 1).standard_normal(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.02

    def test_stream_id_stable(self):
        assert stream_id("ens", 0.5, 3) == stream_id("ens", 0.5, 3)
        assert stream_id("ens", 0.5, 3) != stream_id("ens", 0.5, 4)

    @pytest.mark.parametrize("labels", [("simulate", "linear", "gaussian", "0.005"),
                                        ("t-grid",), (0.5, None, (1, "a"))])
    def test_stream_ids_are_the_per_chain_ones(self, labels):
        lasts = [0, 1, 7, 4095, 4096, 2**63, -3, "x", 0.25, (2, 3)]
        assert stream_ids(labels, lasts) == [stream_id(*labels, last) for last in lasts]
        assert stream_ids(labels, []) == []

    @pytest.mark.parametrize("labels", [("simulate", "linear", "gaussian", "0.005"),
                                        ("t-grid", 2), (0.5, None, (1, "a"))])
    def test_stream_ids_are_hashlibs_blake2b(self, labels):
        # every stream is keyed by these ids, so the blake2b salab takes
        # from _blake2 must give hashlib's values
        def expected(*labels):
            digest = hashlib.blake2b(repr(labels).encode("utf-8"), digest_size=8).digest()
            return int.from_bytes(digest, "little")

        lasts = [0, 4096, 2**63, "x"]
        assert stream_id(*labels) == expected(*labels)
        assert stream_ids(labels, lasts) == [expected(*labels, last) for last in lasts]

    def test_stream_ids_need_a_label_before_the_last(self):
        with pytest.raises(ValueError, match="at least one label"):
            stream_ids((), [0])


class TestPowerScaling:
    def test_rejects_bad_exponent(self):
        with pytest.raises(ConfigError):
            PowerScaling(0.0)
        with pytest.raises(ConfigError):
            PowerScaling(1.5)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_condition_limits_monotone(self, p):
        # both g(alpha) and alpha/g(alpha) must decrease along a decreasing
        # alpha list when p is in (0, 1)
        g = PowerScaling(p)
        alphas = np.array([0.1, 0.01, 0.001, 0.0001])
        gs = np.array([g(a) for a in alphas])
        ratios = alphas / gs
        assert np.all(np.diff(gs) < 0)
        assert np.all(np.diff(ratios) < 0)


class TestValidateConfig:
    def test_valid_quadratic_config(self):
        cfg = ExperimentConfig(alphas=(0.1, 0.01), scaling=0.5)
        validated = validate_config(cfg)
        assert validated.op.name == "grad_quadratic"
        assert validated.alphas == (0.1, 0.01)

    def test_negative_alpha(self):
        cfg = ExperimentConfig(alphas=(-0.1,))
        with pytest.raises(ConfigError, match="alpha must be positive"):
            validate_config(cfg)

    def test_indefinite_sigma(self):
        # eigenvalues 3 and -1
        cfg = ExperimentConfig(noise_sigma=[[1, 2], [2, 1]])
        with pytest.raises(ConfigError, match="not positive definite"):
            validate_config(cfg)

    def test_unknown_drift(self):
        cfg = ExperimentConfig(drift="warp")
        with pytest.raises(ConfigError, match="unknown drift id"):
            validate_config(cfg)

    def test_alpha_above_threshold(self):
        cfg = ExperimentConfig(alphas=(0.5, 0.01))
        with pytest.raises(ConfigError, match="stability threshold"):
            validate_config(cfg)

    def test_threshold_is_inclusive(self):
        # grad_quadratic with unit hessian defaults to a 0.1 threshold,
        # and alpha = 0.1 itself must be admitted
        cfg = ExperimentConfig(alphas=(0.1, 0.01), scaling=0.5)
        assert validate_config(cfg).alpha_max == pytest.approx(0.1)

    def test_increasing_alphas_rejected(self):
        cfg = ExperimentConfig(alphas=(0.01, 0.1))
        with pytest.raises(ConfigError, match="strictly decreasing"):
            validate_config(cfg)

    @pytest.mark.parametrize("fields, message", [
        ({"alphas": ((0.1,), (0.01,))}, "alphas must be a 1-D array"),
        ({"alphas": (float("nan"),)}, "alphas must have finite entries"),
        ({"alpha_max": "abc"}, "alpha_max must be finite and positive"),
        # a non-finite threshold would turn the stability check off
        ({"alphas": (5.0,), "alpha_max": float("nan")}, "alpha_max must be finite"),
        ({"alphas": (5.0,), "alpha_max": float("inf")}, "alpha_max must be finite"),
        ({"alpha_max": 0.0}, "alpha_max must be finite and positive"),
    ], ids=["alphas-nested", "alphas-nan", "alpha-max-text", "alpha-max-nan",
            "alpha-max-inf", "alpha-max-zero"])
    def test_malformed_stepsizes_raise_config_error(self, fields, message):
        cfg = ExperimentConfig(scaling=0.5, **fields)
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

    def test_unknown_drift_and_noise_shape_both_reported(self):
        cfg = ExperimentConfig(drift="warp", noise_shape="pink")
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        text = "; ".join(err.value.errors)
        assert "unknown drift id 'warp'" in text and "unknown noise shape 'pink'" in text

    def test_error_list_collects_everything(self):
        cfg = ExperimentConfig(
            drift="warp", alphas=(-1.0,), noise_sigma=[[1, 2], [2, 1]], n_chains=0
        )
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert len(err.value.errors) >= 3


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            """
            # comment
            drift = linear
            drift.a = [[-1.0, 2.0], [0.0, -3.0]]
            drift.b = [1.0, 0.0]
            noise.shape = uniform
            noise.sigma = [[2.0, 0.0], [0.0, 2.0]]
            alphas = 0.05, 0.005
            scaling = 0.5
            n_chains = 8
            seed = 42
            out_dir = results
            """
        )
        cfg = parse_config_file(path)
        validated = validate_config(cfg)
        assert validated.op.name == "linear"
        assert validated.noise.shape == "uniform"
        assert validated.seed == 42
        assert validated.alphas == (0.05, 0.005)

    def test_byte_order_mark_is_not_read_as_part_of_a_key(self, tmp_path):
        # editors such as Notepad start a UTF-8 file with the bytes EF BB BF
        text = b"drift = grad_quadratic\nalphas = 0.05, 0.005\nseed = 3\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert parse_config_file(marked) == parse_config_file(plain)
        assert parse_config_file(marked).drift == "grad_quadratic"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("velocity = 11\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_repeated_key(self, tmp_path):
        # the last value used to win silently
        path = tmp_path / "exp.cfg"
        path.write_text("drift = linear\ndrift.a = [[-1.0]]\n\ndrift.a = [[-2.0]]\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert err.value.errors == ["line 4: key 'drift.a' already given on line 2"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("drift grad_quadratic\n")
        with pytest.raises(ConfigError, match="expected"):
            parse_config_file(path)
