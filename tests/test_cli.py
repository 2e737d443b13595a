import dataclasses
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from math import ceil
from pathlib import Path

import numpy as np
import pytest

import salab._step as step
import salab.cli as cli
import salab.figures as figures
import salab.sde as sde
import salab.simulate as sim
import salab.stats as stats
from salab.cli import _write_csv, main
from salab.figures import FIGURE_SPECS, FigureSpec
from salab.simulate import Ensemble, run_ensemble
from salab.stats import effective_sample_size

QUAD_CFG = """
drift = grad_quadratic
drift.hessian = [[1.0]]
noise.shape = gaussian
noise.sigma = [[1.0]]
alphas = 0.1, 0.01
scaling = 0.5
n_chains = 8
samples_per_chain = 32
seed = 7
"""


TANH_CFG = """
drift = contractive_tanh
drift.gain = 0.9
noise.sigma = [[1.0]]
alphas = 0.1
scaling = 0.5
"""


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted(Path(directory).glob("*.csv"))
    }


class TestWriteCsv:
    # values are written as repr(float(v)) for floats and str(v) otherwise
    EDGE_FLOATS = (1e16, 1e-5, -0.0, 5e-324, 1.7976931348623157e308)

    def test_value_bytes(self, tmp_path):
        values = [*self.EDGE_FLOATS, *map(np.float64, self.EDGE_FLOATS),
                  np.int64(-7), True, np.bool_(False)]
        path = tmp_path / "values.csv"
        _write_csv(path, ["value"], [[v] for v in values])
        floats = ["1e+16", "1e-05", "-0.0", "5e-324", "1.7976931348623157e+308"]
        lines = ["value", *floats, *floats, "-7", "True", "False"]
        assert lines[1:] == [
            repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
            for v in values
        ]
        assert path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()


class TestWriteSamples:
    # values the compiled formatter leaves out, which Python writes
    OUTSIDE = (float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 1e-5)

    @pytest.fixture(params=["compiled", "python"])
    def writer(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(step, "load", lambda: None)
        elif step.load() is None:
            pytest.skip("the compiled library is not loaded")
        return request.param

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("block", ["small", "large"])
    def test_bytes_equal_the_row_writer(self, tmp_path, monkeypatch, writer, d, block):
        # chain 2 diverged and was dropped, which leaves a gap in the ids
        n_records = 4
        values = np.random.default_rng(d).normal(size=(5, n_records, d))
        flat = values.reshape(-1)
        # out-of-range values in the first and last rows, in two rows in a
        # row and mid-block, beside -0.0 and 0.1 + 0.2, which both writers print
        for at, v in zip((0, d * 5, d * 6, d * 9 + d - 1, d * 13, flat.size - 1), self.OUTSIDE):
            flat[at] = v
        flat[d * 2], flat[-2] = -0.0, 0.1 + 0.2
        ens = Ensemble(samples=values, chain_ids=np.array([0, 1, 3, 4, 5]), n_chains=6,
                       n_diverged=1, burn_in=7, thin=3)
        if block == "small":
            # three rows per Python write; room for one or two rows at a
            # time in the compiled formatter's buffer
            monkeypatch.setattr(cli, "_SAMPLE_ROWS", 3)
            monkeypatch.setattr(cli, "_FORMAT_BYTES", 140)
        cli._write_samples(tmp_path / "bulk.csv", ens)
        steps = [7 + (r + 1) * 3 for r in range(n_records)]
        rows = ([c, step, *y] for c, chain in zip(ens.chain_ids.tolist(), values.tolist())
                for step, y in zip(steps, chain))
        _write_csv(tmp_path / "rows.csv", ["chain", "step", *(f"y_{i + 1}" for i in range(d))],
                   rows)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_compiled_writer_holds_one_buffer(self, tmp_path):
        # about 4 MB of rows, with rows the compiled formatter does not
        # print in every 1 MB buffer: the text is never copied around them
        if step.load() is None:
            pytest.skip("the compiled library is not loaded")
        values = np.random.default_rng(5).normal(size=(100, 1000, 2))
        values.reshape(-1)[::20_011] = np.nan
        ens = Ensemble(samples=values, chain_ids=np.arange(100), n_chains=100,
                       n_diverged=0, burn_in=0, thin=1)
        tracemalloc.start()
        try:
            cli._write_samples(tmp_path / "samples.csv", ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "samples.csv").stat().st_size > 3 * cli._FORMAT_BYTES
        assert peak < 2 * cli._FORMAT_BYTES, peak


class TestSimulateCommand:
    def test_writes_samples_moments_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "samples_0.1.csv", "samples_0.01.csv",
            "moments_0.1.csv", "moments_0.01.csv", "manifest.json",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == sorted(n for n in names if n != "manifest.json")
        runtime = manifest["runtime"]
        assert set(runtime) == {"python", "numpy", "nproc", "threads", "openblas_num_threads",
                                "kernel_isa"}
        assert runtime["threads"] == 1 and runtime["numpy"] == np.__version__
        assert runtime["openblas_num_threads"] == os.environ["OPENBLAS_NUM_THREADS"]
        header, first, second = (out / "samples_0.1.csv").read_text().splitlines()[:3]
        assert header == "chain,step,y_1"
        # auto burn-in ceil(10 / 0.1) = 100, auto thin ceil(1 / 0.1) = 10
        assert [first.split(",")[:2], second.split(",")[:2]] == [["0", "110"], ["0", "120"]]

    def test_manifest_records_each_ensemble(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        ensembles = manifest["ensembles"]
        assert set(ensembles) == {"0.1", "0.01"}
        assert set(manifest["durations"]) == {"total_s", "alpha_0.1_s", "alpha_0.01_s",
                                              "samples_0.1_s", "samples_0.01_s"}
        for tag in ("0.1", "0.01"):
            assert 0 < manifest["durations"][f"samples_{tag}_s"] < \
                manifest["durations"][f"alpha_{tag}_s"]
        for tag, alpha in (("0.1", 0.1), ("0.01", 0.01)):
            rec = ensembles[tag]
            assert set(rec) == {"n_chains", "n_diverged", "chain_steps", "chain_steps_per_s",
                                "n_eff"}
            assert rec["n_chains"] == 8 and rec["n_diverged"] == 0
            # n_chains (burn_in + samples_per_chain thin), auto burn-in and thin
            assert rec["chain_steps"] == 8 * (ceil(10 / alpha) + 32 * ceil(1 / alpha))
            assert rec["chain_steps_per_s"] > 0
            # the batch-means ESS of the records written, per coordinate
            y = np.loadtxt(out / f"samples_{tag}.csv", delimiter=",", skiprows=1)[:, 2]
            assert rec["n_eff"] == [effective_sample_size(y)]
        # and none of it reaches a CSV
        for path in out.glob("*.csv"):
            assert "chain_steps" not in path.read_text()

    def test_manifest_names_the_body_that_stepped_the_chains(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        kernel = step.load()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert manifest["engine"] == ("numpy" if kernel is None else "compiled")
        assert manifest["runtime"]["kernel_isa"] == (kernel and kernel.isa)
        # run_chains handed a copy of the op whose fn is wrapped, as a tracer
        # does: the kernel does not know that fn, so the numpy body steps it
        run_chains, calls = sim.run_chains, []

        def run_chains_with_wrapped_fn(op, *args, **kwargs):
            copy = dataclasses.replace(op)
            object.__setattr__(copy, "fn", lambda x: calls.append(1) or op.fn(x))
            return run_chains(copy, *args, **kwargs)

        monkeypatch.setattr(sim, "run_chains", run_chains_with_wrapped_fn)
        out = tmp_path / "wrapped"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(calls) == 100 + 32 * 10 + 1000 + 32 * 100
        assert manifest["engine"] == "numpy" and manifest["runtime"]["kernel_isa"] is None
        assert read_bytes(out) == read_bytes(tmp_path / "plain")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "drift = warp\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "unknown drift id" in capsys.readouterr().err

    def test_custom_drift_exits_2(self, tmp_path, capsys):
        # a config cannot name a drift registered in another process
        cfg = write_cfg(tmp_path, QUAD_CFG.replace("drift = grad_quadratic", "drift = custom")
                        .replace("drift.hessian = [[1.0]]", "drift.custom_id = foo"))
        assert main(["simulate", "--config", cfg]) == 2
        assert "unknown drift id 'custom'" in capsys.readouterr().err

    def test_non_integer_burn_in_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CFG + "burn_in = abc\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "burn_in must be an integer" in capsys.readouterr().err

    def test_fractional_n_chains_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CFG.replace("n_chains = 8", "n_chains = 2.7"))
        assert main(["simulate", "--config", cfg]) == 2
        assert "n_chains must be an integer, got 2.7" in capsys.readouterr().err

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--threads", "0", "--dry-run"])
        assert exc.value.code == 2
        assert "--threads: expected an integer >= 1" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        body = """
        drift = quartic
        noise.sigma = [[64.0]]
        alphas = 0.25
        scaling = 0.25
        n_chains = 16
        burn_in = 0
        thin = 1
        samples_per_chain = 512
        alpha_max = 0.3
        """
        cfg = write_cfg(tmp_path, body)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert "unstable" in capsys.readouterr().err

    def test_dry_run_writes_nothing(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        out = tmp_path / "dry"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--dry-run"]) == 0
        assert not out.exists()

    def test_missing_config_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/exp.cfg"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("drift = grad_quadratic  # \u00bd\n".encode("latin-1"))
        assert main(["simulate", "--config", str(cfg), "--dry-run"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b"drift = grad_quadratic\n# caf\xe9\n",
        QUAD_CFG.replace("alphas = 0.1, 0.01", "alphas = abc").encode(),
        QUAD_CFG.replace("alphas = 0.1, 0.01", "alphas = [[0.1]]").encode(),
        QUAD_CFG.replace("noise.sigma = [[1.0]]", 'noise.sigma = "abc"').encode(),
        # nan would turn the stability check off: alpha = 5.0 is 50x grad_quadratic's limit
        QUAD_CFG.replace("alphas = 0.1, 0.01", "alphas = 5.0\nalpha_max = nan").encode(),
        TANH_CFG.replace("drift.gain = 0.9", "drift.gain = [0.5]").encode(),
        TANH_CFG.replace("drift.gain = 0.9", 'drift.gain = {"a": 1}').encode(),
        TANH_CFG.replace("drift.gain = 0.9", "drift.weights = [1.0, 2.0, 3.0]").encode(),
        # L^2 = 1e400 overflows: the stability limit is 0, below every alpha
        QUAD_CFG.replace("[[1.0]]", "[[1e200]]", 1).encode(),
    ], ids=["not-utf8", "alphas-text", "alphas-nested", "sigma-text", "alpha-max-nan",
            "gain-list", "gain-dict", "weights-unknown", "hessian-huge"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(body)
        assert main(["simulate", "--config", str(cfg), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["samples_0.1.csv", "moments_0.1.csv", "manifest.json"])
    def test_a_file_it_cannot_write_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "sim"
        (out / name).mkdir(parents=True)
        cfg = write_cfg(tmp_path, QUAD_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot write {out / name}: Is a directory\n")

    def test_stepsizes_sharing_a_file_tag_exit_2(self, tmp_path, capsys):
        # both would write samples_0.00123457.csv, the second over the first
        cfg = write_cfg(tmp_path, QUAD_CFG.replace("alphas = 0.1, 0.01",
                                                   "alphas = 0.0012345678, 0.0012345671"))
        out = tmp_path / "sim"
        for dry_run in ([], ["--dry-run"]):
            assert main(["simulate", "--config", cfg, "--out", str(out), *dry_run]) == 2
            assert capsys.readouterr().err == (
                "config error: alphas 0.0012345678 and 0.0012345671 share the file tag "
                "'0.00123457'\n")
            assert not out.exists()

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        # the last value used to win: predict wrote sigma_y_1_1 = 0.25
        body = "drift = linear\ndrift.a = [[-1.0]]\ndrift.a = [[-2.0]]\nnoise.sigma = [[1.0]]\n"
        out = tmp_path / "pred"
        assert main(["predict", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: line 3: key 'drift.a' already given on line 2\n")
        assert not out.exists()


def size_cfg(**changes) -> str:
    """A 1-d gaussian config, with changes to its counts, as config lines."""
    keys = {"drift": "grad_quadratic", "noise.sigma": "[[1.0]]", "alphas": 0.01,
            "scaling": "auto", "n_chains": 4, "samples_per_chain": 300, **changes}
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def schedule_error(alpha, burn_in="auto", thin="auto") -> str:
    return (f"config error: alpha {alpha}: burn_in + (samples_per_chain + 1) * thin is "
            f"more than 2^63 - 1 steps (burn_in = {burn_in}, thin = {thin})\n")


RECORDS_ERROR = ("config error: n_chains * samples_per_chain * d * 8 is more than 2^63 - 1 "
                 "bytes of records\n")

#: changes to size_cfg() that count past 2^63 - 1, and the error each gives.
#: ctypes passed the kernel's counts modulo 2^64: a thin of 2^64 + 1 ran as
#: 1, and ceil(10 / 1e-300) and ceil(1 / 1e-300) as 0
SIZE_CASES = {
    "thin-2^64+1": (dict(thin=2**64 + 1), schedule_error("0.01", thin=2**64 + 1)),
    "burn-in-2^64+5": (dict(burn_in=2**64 + 5), schedule_error("0.01", burn_in=2**64 + 5)),
    # burn_in + 300 thin fits; the step one stride past the last record does not
    "one-stride-past": (dict(burn_in=2**63 - 1 - 300, thin=1),
                        schedule_error("0.01", burn_in=2**63 - 1 - 300, thin=1)),
    "auto-at-1e-300": (dict(alphas=1e-300), schedule_error("1e-300")),
    # 10 / alpha is inf, which ceil cannot round
    "auto-at-5e-324": (dict(alphas=5e-324), schedule_error("4.94066e-324")),
    "n-chains-1e30": (dict(n_chains=1e30), RECORDS_ERROR),
    "records-one-chain-past": (dict(n_chains=(2**63 - 1) // 2400 + 1), RECORDS_ERROR),
}


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize("case", SIZE_CASES)
def test_counts_past_64_bits_exit_2_before_simulating(tmp_path, capsys, command, case):
    changes, message = SIZE_CASES[case]
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, size_cfg(**changes))
    for dry_run in (["--dry-run"], []):
        assert main([command, "--config", cfg, "--out", str(out), *dry_run]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "predict", "find-scaling", "test",
                                     "pipeline", "em-compare"])
def test_one_record_exits_2_before_simulating(tmp_path, capsys, command):
    # one chain with one record has no covariance: simulate wrote its
    # samples and then exited 3, and em-compare wrote nan covariances
    body = size_cfg(n_chains=1, samples_per_chain=1).replace(
        "drift = grad_quadratic\nnoise.sigma = [[1.0]]",
        "drift = linear\ndrift.a = [[-1.0, 0.5], [0.0, -2.0]]\n"
        "noise.sigma = [[1.0, 0.0], [0.0, 1.0]]")
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, body)
    for dry_run in (["--dry-run"], []):
        assert main([command, "--config", cfg, "--out", str(out), *dry_run]) == 2
        assert capsys.readouterr().err == (
            "config error: n_chains * samples_per_chain must be >= 2: the moments of the "
            "records need at least 2\n")
        assert not out.exists()


SEED_ERROR = "config error: seed must be in [0, 2^64 - 1], got {}\n"


@pytest.mark.parametrize("seed", [2**64, -1], ids=["2^64", "negative"])
@pytest.mark.parametrize("command, given", [("simulate", "flag"), ("simulate", "key"),
                                            ("em-compare", "key"), ("figure", "flag")])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, seed, command, given):
    # philox_key takes a seed modulo 2^64: --seed 2^64 wrote seed 0's samples
    if command == "figure":
        argv = ["figure", "fig3"]
    else:
        body = size_cfg(seed=seed if given == "key" else 0)
        argv = [command, "--config", write_cfg(tmp_path, body)]
    if given == "flag":
        argv += ["--seed", str(seed)]
    out = tmp_path / "run"
    for dry_run in (["--dry-run"], []):
        assert main([*argv, "--out", str(out), *dry_run]) == 2
        assert capsys.readouterr().err == SEED_ERROR.format(seed)
        assert not out.exists()


def test_the_seed_bounds_are_exact(tmp_path):
    cfg = write_cfg(tmp_path, size_cfg())
    for seed, code in ((0, 0), (2**64 - 1, 0), (-1, 2), (2**64, 2)):
        for argv in (["simulate", "--config", cfg], ["figure", "fig3"]):
            assert main([*argv, "--seed", str(seed), "--dry-run"]) == code, (argv, seed)


def test_the_64_bit_bounds_are_exact(tmp_path):
    # the largest counts that fit pass, and those one past them do not; a
    # chain holds 300 records of 8 bytes
    for fits, past in ((dict(burn_in=2**63 - 1 - 301, thin=1), "one-stride-past"),
                       (dict(n_chains=(2**63 - 1) // 2400), "records-one-chain-past")):
        for changes, code in ((fits, 0), (SIZE_CASES[past][0], 2)):
            cfg = write_cfg(tmp_path, size_cfg(**changes))
            assert main(["simulate", "--config", cfg, "--dry-run"]) == code, changes


class TestPredictCommand:
    def test_prediction_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        out = tmp_path / "pred"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "prediction.csv").read_text()
        assert "sigma_y_1_1,0.5" in text


class TestFindScalingCommand:
    def test_report_footer(self, tmp_path):
        body = QUAD_CFG.replace("grad_quadratic", "quartic").replace(
            "drift.hessian = [[1.0]]", ""
        ).replace("scaling = 0.5", "scaling = auto").replace(
            "alphas = 0.1, 0.01", "alphas = 0.01"
        )
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "scal"
        assert main(["find-scaling", "--config", cfg, "--out", str(out)]) == 0
        last = (out / "scaling_report.csv").read_text().splitlines()[-1]
        assert last.startswith("p_star") and "0.25" in last


class TestFigureCommand:
    def test_unknown_name_exits_2(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_name_among_several_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figure", "fig5", "fig99", "--out", str(out)]) == 2
        assert "unknown figure name 'fig99'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_repeated_name_exits_2(self, tmp_path, capsys, dry_run):
        out = tmp_path / "figs"
        assert main(["figure", "fig3", "fig5", "fig3", "--out", str(out), *dry_run]) == 2
        captured = capsys.readouterr()
        assert "figure 'fig3' named more than once" in captured.err
        assert captured.out == "" and not out.exists()

    def test_all_dry_run_names_every_figure(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figure", "all", "--out", str(out), "--dry-run"]) == 0
        printed = [line.split()[1].rstrip(":")
                   for line in capsys.readouterr().out.splitlines()]
        assert printed == sorted(FIGURE_SPECS)
        assert not out.exists()

    def test_config_is_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig5", "--config", cfg, "--dry-run"])
        assert exc.value.code == 2

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["figure", "fig5", "--out", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_several_names_match_single_runs(self, tmp_path):
        both = tmp_path / "both"
        assert main(["figure", "fig5", "fig12", "--out", str(both), "--seed", "1"]) == 0
        assert sorted(p.name for p in both.iterdir()) == ["fig12", "fig5"]
        for name in ("fig5", "fig12"):
            single = tmp_path / name
            assert main(["figure", name, "--out", str(single), "--seed", "1"]) == 0
            assert (both / name / "manifest.json").exists()
            assert read_bytes(both / name) == read_bytes(single)
            assert len(read_bytes(single)) == 2

    def test_manifests_record_every_ensemble_cached_ones_included(self, tmp_path,
                                                                  monkeypatch):
        # two cheap quartic figures: "wide"'s ladder holds "one"'s stepsize
        monkeypatch.setitem(FIGURE_SPECS, "wide", FigureSpec("wide", "quartic", 0.25,
                                                             (1e-1, 1e-2, 1e-3)))
        monkeypatch.setitem(FIGURE_SPECS, "one", FigureSpec("one", "quartic", 0.25, (1e-2,)))
        out = tmp_path / "figs"
        assert main(["figure", "wide", "one", "--out", str(out), "--seed", "1"]) == 0
        wide, one = (json.loads((out / name / "manifest.json").read_text())["ensembles"]
                     for name in ("wide", "one"))
        assert set(wide) == {"0.1", "0.01", "0.001"} and set(one) == {"0.01"}
        # the figure rule's sizes at alpha = 1e-3, as in fig3
        assert wide["0.001"]["n_chains"] == 1024
        assert wide["0.001"]["chain_steps"] == 1024 * (173926 + 16 * 17393)
        # the cached ensemble keeps the speed of the run that made it
        assert one["0.01"] == wide["0.01"] and one["0.01"]["chain_steps_per_s"] > 0
        assert all(len(rec["n_eff"]) == 1 for rec in wide.values())

    def test_fit_figure_outputs(self, tmp_path):
        out = tmp_path / "f5"
        assert main(["figure", "fig5", "--out", str(out), "--seed", "1"]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"density_0.001.csv", "logfit.csv", "manifest.json"}
        q, *rest = (out / "logfit.csv").read_text().splitlines()[1].split(",")
        assert q == "2"


    def test_fig3_bytes_are_equal_on_both_bodies(self, tmp_path, monkeypatch):
        if step.load() is None:
            pytest.skip("no C compiler: the compiled kernel cannot be built")
        outs = {}
        for body in ("compiled", "numpy"):
            if body == "numpy":
                monkeypatch.setattr(step, "load", lambda: None)
            outs[body] = tmp_path / body
            assert main(["figure", "fig3", "--out", str(outs[body]), "--seed", "2"]) == 0
            manifest = json.loads((outs[body] / "manifest.json").read_text())
            assert manifest["engine"] == body
            isa = manifest["runtime"]["kernel_isa"]
            assert isa == (step.load().isa if body == "compiled" else None)
        assert read_bytes(outs["compiled"]) == read_bytes(outs["numpy"])


class TestPipelineCommand:
    def test_quartic_pipeline_has_no_prediction(self, tmp_path):
        body = """
        drift = quartic
        noise.sigma = [[1.0]]
        alphas = 0.01
        scaling = auto
        n_chains = 16
        samples_per_chain = 128
        seed = 3
        """
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "pipe"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "prediction.csv" not in names
        assert {"scaling_report.csv", "logfit.csv", "density_0.01.csv"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("no Gaussian prediction" in n for n in manifest["notes"])
        assert set(manifest["durations"]) == {"total_s"}

    def test_quadratic_pipeline_predicts_and_tests(self, tmp_path):
        body = """
        drift = grad_quadratic
        noise.sigma = [[1.0]]
        alphas = 0.01
        scaling = auto
        n_chains = 64
        samples_per_chain = 256
        seed = 3
        """
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "pipe2"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"prediction.csv", "gof.csv", "cf_residual.csv"} <= names
        gof = (out / "gof.csv").read_text()
        assert "passed,True" in gof
        rows = np.loadtxt(out / "density_0.01.csv", delimiter=",", skiprows=1)
        assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(1.0, abs=0.02)

    def test_exp_square_pipeline_quarter_prediction(self, tmp_path):
        # effective local drift is -2y, so the predicted variance is
        # 1/(2*2) = 0.25 even though the raw drift is strongly nonlinear
        body = """
        drift = exp_square
        noise.sigma = [[1.0]]
        alphas = 0.005
        scaling = auto
        n_chains = 64
        samples_per_chain = 256
        seed = 3
        """
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "pipe3"
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
        assert "sigma_y_1_1,0.25" in (out / "prediction.csv").read_text()
        assert "passed,True" in (out / "gof.csv").read_text()

    @pytest.mark.parametrize("command, scaling", [("test", "0.5"), ("pipeline", "auto")])
    def test_manifest_records_each_ensemble(self, tmp_path, command, scaling):
        # 32 chains x 32 records: the density estimate needs 1000 samples
        body = QUAD_CFG.replace("scaling = 0.5", f"scaling = {scaling}")
        cfg = write_cfg(tmp_path, body.replace("n_chains = 8", "n_chains = 32"))
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        ensembles = manifest["ensembles"]
        assert set(ensembles) == {"0.1", "0.01"}
        for tag, alpha in (("0.1", 0.1), ("0.01", 0.01)):
            rec = ensembles[tag]
            assert rec["n_chains"] == 32 and rec["n_diverged"] == 0
            assert rec["chain_steps"] == 32 * (ceil(10 / alpha) + 32 * ceil(1 / alpha))
            assert rec["chain_steps_per_s"] > 0
            assert len(rec["n_eff"]) == 1 and 0 < rec["n_eff"][0] <= 32 * 32
        # the statistics' timings, and none of them in a CSV
        durations = manifest["durations"]
        assert set(durations) == {"total_s", "gof_s", "cf_residual_s"}
        for key in ("gof_s", "cf_residual_s"):
            assert 0 < durations[key] < durations["total_s"]
        for path in out.glob("*.csv"):
            assert "_s," not in path.read_text()

    def test_pipeline_requires_auto_scaling(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_CFG)
        assert main(["pipeline", "--config", cfg]) == 2
        assert "requires scaling = auto" in capsys.readouterr().err

    @pytest.mark.parametrize("command, scaling", [("test", "0.5"), ("pipeline", "auto")])
    def test_too_few_samples_for_a_density_exit_2_before_simulating(self, tmp_path, capsys,
                                                                    command, scaling):
        body = QUAD_CFG.replace("scaling = 0.5", f"scaling = {scaling}")
        body = body.replace("samples_per_chain = 32", "samples_per_chain = 100")
        out = tmp_path / command
        # 4 chains x 100 records: a 1-d density estimate needs 1000 samples
        cfg = write_cfg(tmp_path, body.replace("n_chains = 8", "n_chains = 4"))
        for dry_run in ([], ["--dry-run"]):
            assert main([command, "--config", cfg, "--out", str(out), *dry_run]) == 2
            assert capsys.readouterr().err == (
                "config error: n_chains x samples_per_chain = 400: a 1-d test estimates "
                "the density, which needs at least 1000 samples\n")
            assert not out.exists()
        # 10 x 100 is enough
        cfg = write_cfg(tmp_path, body.replace("n_chains = 8", "n_chains = 10"))
        assert main([command, "--config", cfg, "--out", str(out), "--dry-run"]) == 0

    @pytest.mark.parametrize("command", ["predict", "test", "pipeline", "simulate",
                                         "em-compare", "find-scaling"])
    @pytest.mark.parametrize("body", [
        "drift = linear\ndrift.a = [[-1.0, 0.0], [0.0, -1.0]]\n"
        "noise.sigma = [[0.0, 0.0], [0.0, 0.0]]\n",
        "drift = grad_quadratic\ndrift.hessian = [[1.0]]\nnoise.sigma = [[0.0]]\n",
    ], ids=["linear-2d", "quadratic-1d"])
    def test_noiseless_noise_exits_2_before_simulating(self, tmp_path, capsys, command, body):
        # every noise shape has a positive definite Sigma, so Sigma = 0 has
        # no shape: validation rejects it before any chain runs
        body += ("noise.shape = noiseless\nalphas = 0.1\nscaling = auto\n"
                 "n_chains = 32\nsamples_per_chain = 32\n")
        out = tmp_path / command
        for dry_run in ([], ["--dry-run"]):
            assert main([command, "--config", write_cfg(tmp_path, body), "--out", str(out),
                         *dry_run]) == 2
            assert capsys.readouterr().err == "config error: unknown noise shape 'noiseless'\n"
            assert not out.exists()


class TestEmCompareCommand:
    def test_em_compare_csv(self, tmp_path):
        body = """
        drift = grad_quadratic
        noise.sigma = [[1.0]]
        alphas = 0.05
        scaling = 0.5
        n_chains = 32
        samples_per_chain = 128
        seed = 5
        """
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "em"
        assert main(["em-compare", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "em_compare.csv").read_text()
        assert "rel_err" in text and "sa_cov_1_1" in text
        # both sides' chains: 32 x (auto burn-in 200 + 128 records x auto thin 20)
        ensembles = json.loads((out / "manifest.json").read_text())["ensembles"]
        assert set(ensembles) == {"0.05", "em_0.05"}
        for rec in ensembles.values():
            assert rec["n_chains"] == 32 and rec["n_diverged"] == 0
            assert rec["chain_steps"] == 32 * (200 + 128 * 20)
            assert rec["chain_steps_per_s"] > 0
            assert len(rec["n_eff"]) == 1 and 0 < rec["n_eff"][0] <= 32 * 128

    @pytest.mark.parametrize("noise", [
        "noise.shape = uniform\nnoise.sigma = [[1.0]]",
        "noise.shape = gaussian\nnoise.sigma = [[4.0]]",
    ], ids=["uniform", "scaled-sigma"])
    def test_noise_other_than_standard_gaussian_exits_2(self, tmp_path, capsys, noise):
        body = f"drift = grad_quadratic\n{noise}\nalphas = 0.05\nscaling = 0.5\n"
        cfg = write_cfg(tmp_path, body)
        assert main(["em-compare", "--config", cfg, "--out", str(tmp_path / "em")]) == 2
        err = capsys.readouterr().err
        assert "noise.shape" in err and "noise.sigma" in err
        assert not (tmp_path / "em").exists()

    def test_alphas_not_run_are_noted(self, tmp_path):
        body = """
        drift = grad_quadratic
        noise.sigma = [[1.0]]
        alphas = 0.05, 0.01, 0.005
        scaling = 0.5
        n_chains = 8
        samples_per_chain = 16
        seed = 5
        """
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "em"
        assert main(["em-compare", "--config", cfg, "--out", str(out)]) == 0
        assert "alpha,0.05" in (out / "em_compare.csv").read_text()
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert notes == ["em-compare runs the first alpha only; not run: 0.01, 0.005"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_salab_process(args, openblas=None, coretype=None, numpy_disabled=None, **kwargs):
    """A fresh interpreter on ./src, with OPENBLAS_NUM_THREADS,
    OPENBLAS_CORETYPE (the CPU kernel OpenBLAS runs) and
    NPY_DISABLE_CPU_FEATURES (the SIMD levels numpy may not dispatch to)
    unset or set."""
    blas = {"OPENBLAS_NUM_THREADS": openblas, "OPENBLAS_CORETYPE": coretype,
            "NPY_DISABLE_CPU_FEATURES": numpy_disabled}
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update({k: v for k, v in blas.items() if v is not None})
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**env, "PYTHONPATH": SRC}, timeout=120, **kwargs)


@pytest.mark.parametrize("a", ["-1e200", "-1e308"])
def test_overflowing_linear_stability_limit_exits_2_without_warning(tmp_path, a):
    # |l|^2 overflows at -1e200, and 2|Re l| too at -1e308 (inf / inf)
    cfg = write_cfg(tmp_path, f"drift = linear\ndrift.a = [[{a}]]\nnoise.sigma = [[1.0]]\n"
                              "alphas = 0.01\nscaling = 0.5\n")
    out = run_salab_process(["-m", "salab", "predict", "--config", cfg, "--dry-run"])
    assert out.returncode == 2
    assert out.stderr == "config error: alpha 0.01 above stability threshold 0\n"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_importing_salab_runs_blas_on_one_thread_unless_set(preset, expected):
    code = "import salab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = run_salab_process(["-c", code], openblas=preset, check=True)
    assert out.stdout.strip() == expected


# 16,384 records each: enough rows that OpenBLAS splits a dot product or a
# gemv across two threads
BLAS_CONFIGS = {
    "linear2d": """
    drift = linear
    drift.a = [[-1.0, 1.0], [0.0, -2.0]]
    noise.shape = gaussian
    noise.sigma = [[1.0, 0.0], [0.0, 1.0]]
    """,
    "quadratic1d": """
    drift = grad_quadratic
    drift.hessian = [[1.0]]
    noise.shape = gaussian
    noise.sigma = [[1.0]]
    """,
}
BLAS_SIZES = """
alphas = 0.05
scaling = auto
n_chains = 64
thin = 5
samples_per_chain = 256
seed = 13
"""


def blas_run_csvs(tmp_path, openblas=None, coretype=None) -> dict:
    """The CSV bytes of two pipelines and of `figure fig3`, keyed run/name."""
    runs = {name: ["pipeline", "--config", write_cfg(tmp_path, body + BLAS_SIZES, name)]
            for name, body in BLAS_CONFIGS.items()}
    runs["fig3"] = ["figure", "fig3"]
    csvs = {}
    for name, args in runs.items():
        out = tmp_path / f"{name}-out"
        run_salab_process(["-m", "salab", *args, "--out", str(out)], openblas=openblas,
                          coretype=coretype, check=True)
        csvs.update({f"{name}/{k}": v for k, v in read_bytes(out).items()})
    return csvs


@pytest.fixture(scope="module")
def blas_reference_csvs(tmp_path_factory):
    """The CSVs with OpenBLAS's own choice of CPU kernel and salab's one thread."""
    return blas_run_csvs(tmp_path_factory.mktemp("blas-reference"))


@pytest.mark.parametrize("openblas", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path, blas_reference_csvs,
                                                      coretype, openblas):
    # covariances, cf-residual projections and line fits sum in salab's own
    # order, so neither the CPU kernel nor the thread count changes a byte
    csvs = blas_run_csvs(tmp_path, openblas, coretype)
    assert {"linear2d/cf_residual.csv", "quadratic1d/gof.csv", "fig3/logfit.csv"} <= set(csvs)
    assert csvs == blas_reference_csvs


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="names x86 SIMD levels")
def test_pipeline_bytes_do_not_depend_on_numpys_simd_level(tmp_path):
    # numpy's complex multiply fuses with FMA from X86_V3 up; the cf
    # residual forms its summands in real arithmetic, rounding each step
    cfg = write_cfg(tmp_path, BLAS_CONFIGS["linear2d"] + BLAS_SIZES)
    csvs = []
    for disabled in (None, "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        out = tmp_path / f"out-{len(csvs)}"
        run_salab_process(["-m", "salab", "pipeline", "--config", cfg, "--out", str(out)],
                          numpy_disabled=disabled, check=True)
        csvs.append(read_bytes(out))
    assert "cf_residual.csv" in csvs[0]
    assert csvs[0] == csvs[1]


def test_an_ensemble_too_large_to_allocate_exits_3(tmp_path):
    # 8e16 bytes of chain ids: more than any address space, so the
    # allocation fails at once whatever the memory overcommit policy; its
    # 2.6e18 bytes of records are fewer than the 2^63 that validation rejects
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("n_chains = 8", "n_chains = 10000000000000000"))
    out = run_salab_process(["-m", "salab", "simulate", "--config", cfg,
                             "--out", str(tmp_path / "run")])
    assert out.returncode == 3
    assert out.stderr.startswith("numerical failure: Unable to allocate")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "test"])
def test_a_failed_run_removes_only_the_empty_directories_it_made(tmp_path, command):
    cfg = write_cfg(tmp_path, QUAD_CFG.replace("n_chains = 8", "n_chains = 10000000000000000"))
    kept = tmp_path / "kept"
    kept.mkdir()
    # a new nested --out, an existing empty one and a new one inside it
    for out in (tmp_path / "a" / "b", kept, kept / "c"):
        res = run_salab_process(["-m", "salab", command, "--config", cfg, "--out", str(out)])
        assert res.returncode == 3, res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "kept"]
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("command, body", [
    ("test", QUAD_CFG.replace("n_chains = 8", "n_chains = 32")),
    ("pipeline", QUAD_CFG.replace("n_chains = 8", "n_chains = 32")
                         .replace("scaling = 0.5", "scaling = auto")),
    ("predict", QUAD_CFG),
    ("simulate", "drift = linear\ndrift.a = [[-1.0, 0.0], [0.0, -1.0]]\n"
                 "noise.sigma = [[1.0, 0.0], [0.0, 1.0]]\nalphas = 0.1\nscaling = 0.5\n"
                 "n_chains = 4\nsamples_per_chain = 8\n"),
], ids=["test-1d", "pipeline-1d", "predict-1d", "simulate-2d"])
def test_manifest_records_scipy_only_when_the_run_loaded_it(tmp_path, command, body):
    # no command loads scipy, the 1-d KS test included, so no manifest names it
    cfg, out = write_cfg(tmp_path, body), tmp_path / "run"
    code = ("import sys\nfrom salab.cli import main\ncode = main(sys.argv[1:])\n"
            "print(code, any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    res = run_salab_process(["-c", code, command, "--config", cfg, "--out", str(out)],
                            check=True)
    assert res.stdout.split()[-2:] == ["0", "False"]
    assert "scipy" not in json.loads((out / "manifest.json").read_text())["runtime"]


@pytest.mark.parametrize("command, body", [
    ("simulate", "drift = quartic\nnoise.shape = rademacher\nnoise.sigma = [[1.0]]\n"
                 "alphas = 0.01\nscaling = 0.25\nn_chains = 8\nsamples_per_chain = 16\n"),
    ("pipeline", "drift = linear\ndrift.a = [[-1.0, 0.5], [0.0, -2.0]]\n"
                 "noise.sigma = [[1.0, 0.0], [0.0, 1.0]]\nalphas = 0.01\nscaling = auto\n"
                 "n_chains = 8\nsamples_per_chain = 16\n"),
], ids=["simulate-quartic", "pipeline-2d"])
def test_compiled_run_loads_neither_numpy_random_nor_openssl(tmp_path, command, body):
    # on a warm cache the kernel's draws are checked against the digest of
    # numpy's kept beside it, so no Generator is made and no hashlib loaded;
    # the cf residual's probes are fixed, so a 2-d pipeline makes none either
    if step.load() is None:
        pytest.skip("the compiled library is not loaded")
    cfg = write_cfg(tmp_path, body)
    code = ("import sys\nfrom salab.cli import main\ncode = main(sys.argv[1:])\n"
            "print(code, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)")
    for run in ("first", "warm"):
        out = tmp_path / run
        res = run_salab_process(["-c", code, command, "--config", cfg, "--out", str(out)],
                                check=True)
    assert res.stdout.split()[-3:] == ["0", "False", "False"]
    assert json.loads((out / "manifest.json").read_text())["engine"] == "compiled"


def test_manifest_records_the_process_peak_rss(tmp_path):
    cfg, out = write_cfg(tmp_path, QUAD_CFG), tmp_path / "run"
    # a forked child's ru_maxrss starts at its parent's peak, so the run is
    # started from a small interpreter, whose peak is below the run's own
    spawn = ("import os, subprocess, sys; "
             "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "_, status, usage = os.wait4(proc.pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    res = subprocess.run([sys.executable, "-c", spawn, sys.executable, "-m", "salab",
                          "simulate", "--config", cfg, "--out", str(out)],
                         env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    returncode, maxrss_kb = map(int, res.stdout.split())
    assert returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    if not Path("/proc/self/status").exists():
        assert "peak_rss_mb" not in manifest
        return
    # VmHWM and the exit-time ru_maxrss count resident pages a little
    # differently, so either may read tens of kB above the other
    assert 0 < manifest["peak_rss_mb"]
    assert abs(manifest["peak_rss_mb"] - maxrss_kb / 1024) <= 1.0


def test_manifest_leaves_out_the_peak_rss_it_cannot_read(tmp_path, monkeypatch):
    def no_proc(path, *args, **kwargs):
        if str(path) == "/proc/self/status":
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_cfg(tmp_path, QUAD_CFG), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "peak_rss_mb" not in manifest and "runtime" in manifest


@pytest.mark.parametrize("command", ["simulate", "test"])
def test_each_command_holds_one_ensemble_at_a_time(tmp_path, monkeypatch, command):
    held, alive = [], []

    def tracked(*args, **kwargs):
        # earlier stepsizes' samples still referenced when the next is run
        alive.append(sum(ref() is not None for ref in held))
        ens = run_ensemble(*args, **kwargs)
        held.append(weakref.ref(ens.samples))
        return ens

    monkeypatch.setattr(cli, "run_ensemble", tracked)
    body = QUAD_CFG.replace("alphas = 0.1, 0.01", "alphas = 0.1, 0.05, 0.01")
    cfg = write_cfg(tmp_path, body.replace("n_chains = 8", "n_chains = 32"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert alive == [0, 0, 0]


LINEAR_2D_CFG = ("drift = linear\ndrift.a = [[-1.0, 0.5], [0.0, -2.0]]\n"
                 "noise.sigma = [[1.0, 0.0], [0.0, 1.0]]\nalphas = 0.1, 0.01\n"
                 "scaling = auto\nn_chains = 8\nsamples_per_chain = 16\n")


@pytest.mark.parametrize("argv, body", [
    (["simulate"], QUAD_CFG),
    (["test"], QUAD_CFG.replace("n_chains = 8", "n_chains = 32")),
    (["pipeline"], LINEAR_2D_CFG),
    (["em-compare"], QUAD_CFG.replace("alphas = 0.1, 0.01", "alphas = 0.1")),
    (["figure", "wide", "one"], None),
], ids=["simulate", "test-1d", "pipeline-2d", "em-compare", "figures"])
def test_each_command_summarizes_each_judged_array_once(tmp_path, monkeypatch, argv, body):
    # every moment, spread and n_eff a command writes or judges comes from
    # one stats.summarize call per array: one per manifest ensemble entry
    made = []

    def counted(samples):
        made.append(stats.summarize(samples))
        return made[-1]

    for module in (cli, figures, sde):
        monkeypatch.setattr(module, "summarize", counted)
    # two cheap quartic figures sharing one raw ensemble, each scaling it
    monkeypatch.setitem(FIGURE_SPECS, "wide", FigureSpec("wide", "quartic", 0.5,
                                                         (1e-1, 1e-2, 1e-3)))
    monkeypatch.setitem(FIGURE_SPECS, "one", FigureSpec("one", "quartic", 0.25, (1e-2,)))
    out = tmp_path / "run"
    config = [] if body is None else ["--config", write_cfg(tmp_path, body)]
    assert main([*argv, *config, "--out", str(out)]) == 0
    manifests = [out / "manifest.json"] if body else sorted(out.glob("*/manifest.json"))
    recorded = [rec["n_eff"] for path in manifests
                for rec in json.loads(path.read_text())["ensembles"].values()]
    assert len(made) == len(recorded) == (4 if body is None else 2)
    assert sorted(list(s.n_eff) for s in made) == sorted(recorded)


def test_importing_the_cli_loads_no_scipy():
    # scipy costs more than a second of start-up; only the statistics load it
    code = "import sys, salab.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    out = run_salab_process(["-c", code], check=True)
    assert out.stdout.strip() == "False"


def test_importing_the_cli_loads_no_openssl():
    # hashlib's import loads OpenSSL's libcrypto, a few MB salab never uses
    code = "import sys, salab.cli; print('_hashlib' in sys.modules)"
    out = run_salab_process(["-c", code], check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_workloads_record_the_chain_steps_they_are_scored_by(tmp_path, monkeypatch):
    # perfbench divides each workload's chain-steps, worked out by hand in
    # perfbench/workloads.py, by the run's CPU time: the manifest must agree
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    assert {w.chain_steps for w in WORKLOADS.values()} == {463_067_136, 27_340_800,
                                                           34_406_400}
    for name, w in WORKLOADS.items():
        out = tmp_path / name
        assert main(w.argv(tmp_path, out, seed=3, threads=2)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sum(rec["chain_steps"] for rec in manifest["ensembles"].values()) \
            == w.chain_steps, name
