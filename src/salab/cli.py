"""Command-line orchestration: parse config, dispatch subcommands, persist CSVs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All data
files are CSV (UTF-8, comma delimiter, headers in row 1) and byte-identical
across reruns with the same seed; the JSON manifest additionally records
wall-clock durations, the runtime (versions, CPUs, thread counts) and the
process's peak resident size, the intentionally non-reproducible items.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
import time
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    NumericalError,
    PowerScaling,
    parse_config_file,
    validate_config,
)
from .drift import check_hurwitz
from .figures import FIGURE_SPECS, FigureResult, _figure_config, run_figure
from .lyapunov import predict_stationary
from .scaling import find_scaling_exponent
from .sde import em_vs_sa_compare
from .simulate import run_ensemble
from .stats import (
    MIN_DENSITY_SAMPLES,
    cf_residual,
    density_grid,
    estimate_density,
    gaussian_gof,
    log_density_fit,
    log_fit_exponents,
    summarize,
)


def _write_csv(path: Path, header, rows) -> None:
    """Header plus rows as UTF-8 CSV.

    csv.writer formats each value with str(), which for float and
    np.float64 is the shortest round-trip repr, so no value is reformatted
    here.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# rows of samples_<alpha>.csv formatted into one string per write by Python
_SAMPLE_ROWS = 1 << 15

# bytes of samples_<alpha>.csv the compiled formatter prints per call
_FORMAT_BYTES = 1 << 20


def _sample_lines(chain_ids, steps, flat, rows) -> list:
    """The lines of samples_<alpha>.csv rows `rows`, as a list of str.

    Row r is record r % spc of chain chain_ids[r // spc], taken at step
    steps[r % spc], with values flat[r].  These are the bytes `_write_csv`
    writes for `[c, step, *y]` rows: its str() of a float is repr(), no
    number is ever quoted, and each line ends in "\\r\\n".
    """
    spc, d = len(steps), flat.shape[1]
    prefixes = [f"{c},{step}," for c, step in zip(chain_ids[rows // spc].tolist(),
                                                   steps[rows % spc].tolist())]
    ys = map(repr, flat[rows].ravel().tolist())
    return [p + y + "\r\n" for p, y in zip(prefixes, map(",".join, zip(*[ys] * d)))]


def _write_samples(path: Path, ens) -> None:
    """samples_<alpha>.csv: a `chain,step,y_1..y_d` row per chain and record.

    The compiled library prints the rows into a buffer of _FORMAT_BYTES
    without the GIL.  It stops at a row it cannot print (a value it does
    not format), which `_sample_lines` then writes.  When the library is
    not loaded, `_sample_lines` writes every row, _SAMPLE_ROWS at a time,
    so memory stays bounded.
    """
    n_records, d = ens.samples.shape[1:]
    steps = ens.burn_in + ens.thin * np.arange(1, n_records + 1, dtype=np.int64)
    ids = np.ascontiguousarray(ens.chain_ids, np.int64)
    samples = np.ascontiguousarray(ens.samples, np.float64)
    flat = samples.reshape(-1, d)
    header = ["chain", "step"] + [f"y_{i + 1}" for i in range(d)]
    from . import _step

    kernel = _step.load()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if kernel is None:
            for lo in range(0, len(flat), _SAMPLE_ROWS):
                rows = np.arange(lo, min(lo + _SAMPLE_ROWS, len(flat)))
                fh.write("".join(_sample_lines(ids, steps, flat, rows)).encode())
            return
        buf, row = np.empty(_FORMAT_BYTES, np.uint8), 0
        while row < len(flat):
            row, used = kernel.format_samples(ids, steps, samples, row, buf)
            if used:
                fh.write(buf.data[:used])
            else:
                # a row the library does not print
                (line,) = _sample_lines(ids, steps, flat, np.array([row]))
                fh.write(line.encode())
                row += 1


def _write_file(path: Path, write) -> None:
    """write(path), with an OSError from writing it a ConfigError that names path."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


class _Manifest:
    """Makes out_dir, then collects the files and durations of one subcommand run.

    Leaving its with block writes manifest.json, or, if the run failed,
    removes each directory it made that is still empty, never another.  A
    file it cannot write is a ConfigError.
    """

    def __init__(self, command: str, out_dir, seed, config_snapshot,
                 threads: int):
        self.command = command
        self.out_dir = Path(out_dir)
        # the directories mkdir makes, deepest first
        self._made = list(takewhile(lambda p: not p.exists(),
                                    (self.out_dir, *self.out_dir.parents)))
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir}: {exc}")
        self.seed = seed
        self.config = config_snapshot
        self.threads = threads
        self.files = []
        self.durations = {}
        self.notes = []
        self.ensembles = {}       # per alpha tag: its chains and their speed
        self.kernel_isas = set()  # Ensemble.kernel_isa of each recorded ensemble
        self._t0 = time.perf_counter()

    def __enter__(self) -> "_Manifest":
        return self

    def write(self, name: str, write) -> None:
        """Write out_dir's file name with write(path), and list it."""
        _write_file(self.out_dir / name, write)
        self.files.append(name)

    def add_ensemble(self, tag: str, ens, summary) -> None:
        """Record an ensemble's chain counts, chain-steps, speed, body and n_eff."""
        chain_steps = ens.n_chains * (ens.burn_in + ens.samples.shape[1] * ens.thin)
        self.ensembles[tag] = {
            "n_chains": ens.n_chains,
            "n_diverged": ens.n_diverged,
            "chain_steps": chain_steps,
            "chain_steps_per_s": chain_steps / ens.seconds,
            "n_eff": summary.n_eff,
        }
        self.kernel_isas.add(ens.kernel_isa)

    def note(self, text: str) -> None:
        self.notes.append(text)
        print(text)

    def emit(self, header, rows, name: str) -> None:
        self.write(name, lambda path: _write_csv(path, header, rows))

    def __exit__(self, failure, exc, tb) -> None:
        if failure is not None:
            for path in self._made:
                try:
                    path.rmdir()
                except OSError:     # not empty, so neither are its parents
                    break
            return
        self.durations["total_s"] = time.perf_counter() - self._t0
        # the body of the recorded chains: "numpy" if it stepped any of them
        isas = self.kernel_isas
        engine = ("numpy" if None in isas else "compiled") if isas else None
        kernel_isa = next(iter(isas)) if len(isas) == 1 else None
        payload = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "files": sorted(self.files),
            "notes": self.notes,
            "engine": engine,
            "durations": self.durations,
            "runtime": _runtime(self.threads, kernel_isa),
        }
        if self.ensembles:
            payload["ensembles"] = self.ensembles
        peak = _peak_rss_mb()
        if peak is not None:
            payload["peak_rss_mb"] = peak
        text = json.dumps(payload, indent=2, default=str)
        _write_file(self.out_dir / "manifest.json",
                    lambda path: path.write_text(text, encoding="utf-8"))


def _runtime(threads: int, kernel_isa) -> dict:
    """What a run's speed depends on and its bytes do not: kept out of the CSVs.

    kernel_isa is the compiled kernel's clone that stepped the run's chains,
    or None.
    """
    affinity = getattr(os, "sched_getaffinity", None)   # not on macOS or Windows
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "threads": threads,
        # set to "1" by importing salab unless the caller set it first
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_isa": kernel_isa,
    }


def _peak_rss_mb():
    """This process's peak resident size so far in MB (VmHWM), or None where
    /proc/self/status does not exist.

    Not getrusage's ru_maxrss, which a forked child starts at its parent's
    peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0     # given in kB
    except OSError:
        pass
    return None


def _alpha_tag(alpha: float) -> str:
    return format(float(alpha), "g")


def _resolve_scaling(validated):
    """Config scaling, or the discovered exponent when set to auto."""
    if isinstance(validated.scaling, PowerScaling):
        return validated.scaling
    return PowerScaling(find_scaling_exponent(validated.op).exponent)


def _matrix_rows(prefix: str, m: np.ndarray):
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            yield (f"{prefix}_{i + 1}_{j + 1}", m[i, j])


def _emit_prediction(validated, manifest):
    """Solve the Lyapunov prediction and write prediction.csv; returns the solution."""
    sol = predict_stationary(validated.op, validated.noise)
    rows = list(_matrix_rows("sigma_y", sol.sigma_y))
    rows += [("residual_norm", sol.residual_norm),
             ("min_eigenvalue", sol.min_eigenvalue),
             ("method", sol.method)]
    manifest.emit(["quantity", "value"], rows, "prediction.csv")
    return sol


def _emit_logfit(fits, manifest):
    """Write logfit.csv from a {q: FitReport} mapping, one row per q."""
    rows = [
        [q, fit.slope, fit.intercept, fit.r_squared, fit.n_points]
        for q, fit in sorted(fits.items())
    ]
    manifest.emit(["q", "slope", "intercept", "r_squared", "n_points"], rows,
                  "logfit.csv")


def _emit_density(est, alpha, manifest):
    """Write density_<alpha>.csv from a density estimate, one row per grid point."""
    manifest.emit(["y", "p_hat"], zip(est.grid, est.density),
                  f"density_{_alpha_tag(alpha)}.csv")


def _emit_figure(result: FigureResult, manifest: _Manifest) -> None:
    """Record a figure's ensembles and write its density, trend-check and log-fit CSVs."""
    for alpha in result.alphas:
        manifest.add_ensemble(_alpha_tag(alpha), result.ensembles[alpha],
                              result.summaries[alpha])
        _emit_density(result.densities[alpha], alpha, manifest)
    if result.trend is not None:
        t = result.trend
        rows = [("diff_small", t.diff_small), ("diff_large", t.diff_large),
                ("diff_ok", t.diff_ok),
                ("sigma_log10_ratio", t.sigma_log10_ratio),
                ("sigma_ok", t.sigma_ok), ("passed", t.passed)]
        manifest.emit(["quantity", "value"], rows, "trend_check.csv")
        manifest.note(f"{result.name}: convergence trend "
                      f"{'PASS' if t.passed else 'FAIL'}")
    if result.fits:
        _emit_logfit(result.fits, manifest)


def _emit_scaling_report(op, manifest):
    """Run the scaling search and write scaling_report.csv; returns the report."""
    report = find_scaling_exponent(op)
    rows = [*report.evidence, ["p_star", "", "", report.exponent, "chosen"]]
    manifest.emit(["p", "probe", "alpha", "magnitude", "classification"], rows,
                  "scaling_report.csv")
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _config_command(name: str, dry_run: str, checks=()):
    """Make body(validated, manifest, threads) the handler of subcommand `name`.

    Each check(validated) of checks, in order, may reject the config first.
    Then --dry-run prints dry_run with {n_alphas}, the number of stepsizes,
    and writes nothing; otherwise body runs and the manifest is written.
    """
    def decorate(body):
        def handler(args) -> int:
            if not args.config:
                raise ConfigError("this subcommand requires --config")
            cfg = parse_config_file(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out is not None:
                cfg.out_dir = args.out
            validated = validate_config(cfg)
            # files of two stepsizes must not share a name; as the alphas
            # decrease and rounding is monotone, only neighbours can
            for a, b in zip(validated.alphas, validated.alphas[1:]):
                if _alpha_tag(a) == _alpha_tag(b):
                    raise ConfigError(f"alphas {a!r} and {b!r} share the file tag "
                                      f"{_alpha_tag(a)!r}")
            for check in checks:
                check(validated)
            if args.dry_run:
                print(dry_run.format(n_alphas=len(validated.alphas)))
                return 0
            with _Manifest(name, validated.out_dir, validated.seed,
                           dataclasses.asdict(cfg), args.threads) as manifest:
                body(validated, manifest, args.threads)
            return 0
        return handler
    return decorate


@_config_command("simulate", "simulate: {n_alphas} stepsize(s), no files written")
def _cmd_simulate(validated, manifest, threads) -> None:
    scaling = _resolve_scaling(validated)
    for alpha in validated.alphas:
        ens = None      # one ensemble at a time: free the last before the next
        t0 = time.perf_counter()
        ens = run_ensemble(validated, alpha, scaling, threads=threads)
        tag = _alpha_tag(alpha)
        summary = summarize(ens.flat)
        manifest.add_ensemble(tag, ens, summary)
        t1 = time.perf_counter()
        manifest.write(f"samples_{tag}.csv", lambda path: _write_samples(path, ens))
        manifest.durations[f"samples_{tag}_s"] = time.perf_counter() - t1
        mrows = [("alpha", alpha), ("n_samples", summary.count),
                 ("n_diverged", ens.n_diverged),
                 ("second_moment_trace", summary.second_moment_trace)]
        mrows += [(f"mean_{i + 1}", v) for i, v in enumerate(summary.mean)]
        mrows += list(_matrix_rows("cov", summary.cov))
        manifest.emit(["quantity", "value"], mrows, f"moments_{tag}.csv")
        manifest.durations[f"alpha_{tag}_s"] = time.perf_counter() - t0


@_config_command("predict", "predict: would write prediction.csv")
def _cmd_predict(validated, manifest, threads) -> None:
    _emit_prediction(validated, manifest)


@_config_command("find-scaling", "find-scaling: would write scaling_report.csv")
def _cmd_find_scaling(validated, manifest, threads) -> None:
    _emit_scaling_report(validated.op, manifest)


def _run_tests_for(validated, manifest, scaling, threads) -> None:
    """Shared verification body for the `test` and `pipeline` subcommands.

    Densities are emitted per stepsize; the distributional checks run at the
    smallest one, where the asymptotic claims are sharpest.
    """
    for alpha in validated.alphas:
        # one ensemble at a time: free the last before the next; only the
        # last one's ensemble, summary and density are read below
        ens = est = None
        ens = run_ensemble(validated, alpha, scaling, threads=threads)
        summary = summarize(ens.flat)
        manifest.add_ensemble(_alpha_tag(alpha), ens, summary)
        if validated.op.dim == 1:
            est = estimate_density(ens.flat, density_grid(summary.sd), summary.sd)
            _emit_density(est, alpha, manifest)
    smallest = validated.alphas[-1]

    m = validated.op.jacobian
    if check_hurwitz(m).hurwitz and abs(scaling.exponent - 0.5) < 1e-9:
        sol = _emit_prediction(validated, manifest)

        t0 = time.perf_counter()
        gof = gaussian_gof(ens.flat, summary, sol.sigma_y)
        manifest.durations["gof_s"] = time.perf_counter() - t0
        rows = [("alpha", smallest), ("ks_distance", gof.ks_distance),
                ("ks_threshold", gof.ks_threshold),
                ("cov_rel_err", gof.cov_rel_err),
                ("cov_threshold", gof.cov_threshold),
                ("n_eff", gof.n_eff), ("passed", gof.passed)]
        rows += [(f"mean_z_{i + 1}", z) for i, z in enumerate(gof.mean_z)]
        manifest.emit(["quantity", "value"], rows, "gof.csv")

        t0 = time.perf_counter()
        cf = cf_residual(ens.flat, m, validated.noise.sigma)
        manifest.durations["cf_residual_s"] = time.perf_counter() - t0
        d = validated.op.dim
        header = [f"t_{i + 1}" for i in range(d)] + ["re", "im", "se"]
        rows = [
            [*t, re, im, se]
            for t, re, im, se in zip(cf.t_grid, cf.residual_real,
                                     cf.residual_imag, cf.se)
        ]
        manifest.emit(header, rows, "cf_residual.csv")
    else:
        manifest.note("no Gaussian prediction available for this drift/scaling")

    if validated.op.dim == 1:
        _emit_logfit({q: log_density_fit(est, q) for q in log_fit_exponents(scaling.exponent)},
                     manifest)


def _require_density_samples(validated) -> None:
    """Reject a 1-d config with fewer samples than its density estimate needs.

    Diverged chains can still leave a run short of them, which is a
    numerical failure (exit 3) found only after simulating.
    """
    count = validated.n_chains * validated.samples_per_chain
    if validated.op.dim == 1 and count < MIN_DENSITY_SAMPLES:
        raise ConfigError(
            f"n_chains x samples_per_chain = {count}: a 1-d test estimates the "
            f"density, which needs at least {MIN_DENSITY_SAMPLES} samples"
        )


@_config_command("test", "test: would simulate and write verification CSVs",
                 checks=(_require_density_samples,))
def _cmd_test(validated, manifest, threads) -> None:
    scaling = _resolve_scaling(validated)
    _run_tests_for(validated, manifest, scaling, threads)


def _require_auto_scaling(validated) -> None:
    if validated.scaling != "auto":
        raise ConfigError("pipeline requires scaling = auto")


@_config_command("pipeline", "pipeline: would run find-scaling, simulate, predict, test",
                 checks=(_require_auto_scaling, _require_density_samples))
def _cmd_pipeline(validated, manifest, threads) -> None:
    report = _emit_scaling_report(validated.op, manifest)
    scaling = PowerScaling(report.exponent)
    _run_tests_for(validated, manifest, scaling, threads)


def _require_identity_noise(validated) -> None:
    nm = validated.noise
    if nm.shape != "gaussian" or not np.array_equal(nm.sigma, np.eye(nm.dim)):
        raise ConfigError(
            "em-compare drives both chains with the SDE's identity diffusion: "
            "it needs noise.shape = gaussian and noise.sigma = the identity"
        )


@_config_command("em-compare", "em-compare: would write em_compare.csv",
                 checks=(_require_identity_noise,))
def _cmd_em_compare(validated, manifest, threads) -> None:
    alpha, *not_run = validated.alphas
    if not_run:
        manifest.note("em-compare runs the first alpha only; not run: "
                      + ", ".join(map(_alpha_tag, not_run)))
    scaling = _resolve_scaling(validated)
    result = em_vs_sa_compare(validated, alpha, scaling, threads=threads)
    manifest.add_ensemble(_alpha_tag(alpha), result.sa, result.sa_summary)
    manifest.add_ensemble(f"em_{_alpha_tag(alpha)}", result.em, result.em_summary)
    rows = [("alpha", alpha), ("exponent", scaling.exponent),
            ("rel_err", result.rel_err)]
    rows += list(_matrix_rows("sa_cov", result.sa_summary.cov))
    rows += list(_matrix_rows("em_cov", result.em_summary.cov))
    manifest.emit(["quantity", "value"], rows, "em_compare.csv")


def _cmd_figure(args) -> int:
    """Run the named figures on one shared ensemble cache.

    One name writes into --out; several write one directory per figure,
    --out/<name>, each with its own manifest.
    """
    names = sorted(FIGURE_SPECS) if args.figures == ["all"] else args.figures
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"figure {', '.join(map(repr, repeated))} named more than once")
    unknown = [name for name in names if name not in FIGURE_SPECS]
    if unknown:
        raise ConfigError(
            f"unknown figure name {', '.join(map(repr, unknown))}; choose from "
            f"{', '.join(sorted(FIGURE_SPECS))}, or all"
        )
    seed = args.seed if args.seed is not None else 0
    if args.dry_run:
        for name in names:
            spec = FIGURE_SPECS[name]
            for alpha in spec.alphas:       # validate each config, the seed included
                _figure_config(spec.drift, alpha, seed)
            print(f"figure {name}: would simulate and write density CSVs")
        return 0
    root = Path(args.out or "out")
    cache = {}
    for name in names:
        spec = FIGURE_SPECS[name]
        with _Manifest(
            f"figure {name}",
            root if len(names) == 1 else root / name,
            seed,
            {"figure": name, "drift": spec.drift, "exponent": spec.exponent,
             "alphas": list(spec.alphas)},
            args.threads,
        ) as manifest:
            _emit_figure(run_figure(name, seed=seed, threads=args.threads, cache=cache),
                         manifest)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salab",
        description="Stationary-distribution laboratory for constant-stepsize "
                    "stochastic approximation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=_positive_int, default=1, help="worker threads")
        p.add_argument("--dry-run", action="store_true",
                       help="validate without side effects")

    for name, fn, desc in [
        ("simulate", _cmd_simulate, "run chain ensembles across the alpha list"),
        ("predict", _cmd_predict, "solve the Lyapunov prediction"),
        ("find-scaling", _cmd_find_scaling, "search for the scaling exponent"),
        ("test", _cmd_test, "simulate and statistically verify the prediction"),
        ("em-compare", _cmd_em_compare,
         "compare SA against Euler-Maruyama at dt = alpha"),
        ("pipeline", _cmd_pipeline,
         "find-scaling, simulate, predict and test, chained"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", help="path to a key = value config file")
        common(p)
        p.set_defaults(handler=fn)

    p = sub.add_parser("figure", help="reproduce named figures' data")
    p.add_argument("figures", nargs="+", metavar="figure",
                   help=f"one or more of {', '.join(sorted(FIGURE_SPECS))}, or all")
    common(p)
    p.set_defaults(handler=_cmd_figure)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:
        # numpy names the allocation that failed; a bare MemoryError is empty
        print(f"numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
