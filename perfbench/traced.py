"""In-process traced run of one workload: per-layer spans and counts.

Spans are recorded from the benchmark's side, around the calls into each
salab module (a layer is a module).  salab.cli, salab.figures and salab.sde
bind their imports by name, so a function is wrapped in the namespace that
looks it up: every salab function imported into those three modules, plus
run_chains, sample_block and seed_rng in salab.simulate, where run_ensemble
and the engine look them up.  The drift is traced by handing run_chains a
copy of its operator whose fn is wrapped.  Private helpers are not wrapped,
so the sign path's packed noise generation counts as simulate self time.

The workload runs twice in this process with the same command line:
untraced, then traced.  Both must exit 0, pass the output gate and write
byte-identical CSVs; the wall-time ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
from workloads import Workload, csv_digest

CALL_SITES = ("salab.cli", "salab.figures", "salab.sde")

#: fresh interpreters timed for setup.import_s
IMPORT_REPEATS = 3


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('salab.')}.{fn.__name__}"


def _traced_run_chains(tr: tracing.Tracer, run_chains):
    """run_chains with its drift traced and its work counted."""
    span = tr.wrap("simulate.run_chains", run_chains)
    sig = inspect.signature(run_chains)

    @functools.wraps(run_chains)
    def call(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        op = dataclasses.replace(a["op"])
        # set after replace(), whose root check would count as a drift call
        object.__setattr__(op, "fn", tr.wrap("drift.fn", a["op"].fn))
        a["op"] = op
        steps = a["burn_in"] + a["samples_per_chain"] * a["thin"]
        cpu0, t0 = time.process_time(), time.perf_counter()
        raw = span(*bound.args, **bound.kwargs)
        tr.count("simulate.wall_s", time.perf_counter() - t0)
        tr.count("simulate.busy_s", time.process_time() - cpu0)
        tr.count("simulate.steps", steps)
        tr.count("simulate.chain_steps", steps * a["n_chains"])
        tr.count("simulate.chains", raw.n_chains)
        tr.count("simulate.kept", raw.chain_ids.size)
        return raw

    return call


def _traced_sample_block(tr: tracing.Tracer, sample_block):
    span = tr.wrap("noise.sample_block", sample_block)

    @functools.wraps(sample_block)
    def call(nm, rng, n):
        tr.count("noise.draws", n * nm.dim)
        return span(nm, rng, n)

    return call


def install(tr: tracing.Tracer) -> list:
    """Wrap every call site; returns (module, name, original) to restore."""
    import salab.simulate

    patches = []

    def patch(mod, name, make):
        orig = getattr(mod, name)
        patches.append((mod, name, orig))
        setattr(mod, name, make(orig))

    def span(fn):
        return tr.wrap(_span_name(fn), fn)

    run_chains = functools.partial(_traced_run_chains, tr)
    for modname in CALL_SITES:
        mod = sys.modules[modname]
        for name, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__.startswith("salab.")
                    and fn.__module__ != modname):
                patch(mod, name, run_chains if name == "run_chains" else span)
    patch(salab.simulate, "run_chains", run_chains)
    patch(salab.simulate, "sample_block", functools.partial(_traced_sample_block, tr))
    patch(salab.simulate, "seed_rng", span)
    return patches


def _import_seconds(env: dict, cwd: Path, ledger, remaining_s) -> float:
    """Median time of `import salab.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import salab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(IMPORT_REPEATS):
        try:
            res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                                 capture_output=True, text=True, timeout=remaining_s())
        except subprocess.TimeoutExpired:
            ledger.record(f"import probe {i}", ["killed: the run's time was up"])
            continue
        ok = res.returncode == 0
        ledger.record(f"import probe {i}",
                      [] if ok else [f"exit {res.returncode}: {res.stderr[-300:]}"])
        if ok:
            times.append(float(res.stdout.split()[-1]))
    return statistics.median(times) if times else 0.0


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when the layer did no work on this workload."""
    return a / b if b else 0.0


def _layer_table(tr: tracing.Tracer, wall: float, overhead: float) -> str:
    lines = [f"{'span':34} {'calls':>10} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    merged = tr.merged()
    for name, s in sorted(merged.items(), key=lambda kv: -kv[1].self_s):
        lines.append(f"{name:34} {s.calls:>10} {s.total_s:>10.4f} {s.self_s:>10.4f} "
                     f"{100 * s.self_s / wall:>6.1f}")
    lines.append("per thread (worker spans are not subtracted from MainThread):")
    for rec in tr.threads:
        self_sum = sum(s.self_s for s in rec.stats.values())
        lines.append(f"  {rec.name:32} root spans {rec.root_s:.4f} s, "
                     f"self times sum {self_sum:.4f} s")
    lines.append(f"traced wall {wall:.4f} s, trace.overhead_frac {overhead:.4f}")
    return "\n".join(lines)


def run(w: Workload, seed: int, threads: int, work: Path, ledger, src: Path,
        env: dict, remaining_s) -> dict:
    """Trace one run of `w`; `remaining_s()` is the time left for the run."""
    ledger.record("tracer self-test", tracing.self_test())
    import_s = _import_seconds(env, src.parent, ledger, remaining_s)

    sys.path.insert(0, str(src))
    import salab
    import salab.cli

    if Path(salab.__file__).resolve().parent != (src / "salab").resolve():
        raise SystemExit(f"imported salab from {salab.__file__}, not from {src}")

    def invoke(label: str, main) -> tuple:
        out = work / label
        argv = w.argv(work, out, seed, threads)
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception:  # a crash of the program is a failed operation
                rc = traceback.format_exc(limit=-3)
            wall = time.perf_counter() - t0
        problems = w.check(out) if rc == 0 else [f"exit {rc}: {captured.getvalue()[-300:]}"]
        return out, wall, problems

    out_u, wall_u, problems = invoke("untraced", salab.cli.main)
    ledger.record("untraced in-process run", problems)

    tr = tracing.Tracer()
    patches = install(tr)
    try:
        out_t, wall_t, problems = invoke("traced", tr.wrap("cli.main", salab.cli.main))
    finally:
        for mod, name, orig in reversed(patches):
            setattr(mod, name, orig)

    stats, counts = tr.merged(), tr.counts()
    if csv_digest(out_t) != csv_digest(out_u):
        problems.append("traced CSVs differ from the untraced run's")
    problems += tr.problems()
    main_self = sum(s.self_s for rec in tr.threads if rec.name == "MainThread"
                    for s in rec.stats.values())
    if not abs(main_self - wall_t) <= 0.05 * wall_t:
        problems.append(f"MainThread self times sum to {main_self:.4f} s, "
                        f"traced wall is {wall_t:.4f} s")
    if counts["simulate.chain_steps"] != w.chain_steps:
        problems.append(f"run_chains did {counts['simulate.chain_steps']} chain-steps, "
                        f"the workload's sizes give {w.chain_steps}")
    ledger.record("traced in-process run", problems)

    csvs = sorted(out_t.glob("*.csv"))
    rows_written = sum(p.read_bytes().count(b"\n") - 1 for p in csvs)
    bytes_written = sum(p.stat().st_size for p in csvs)
    overhead = wall_t / wall_u - 1.0
    print(_layer_table(tr, wall_t, overhead))
    (work / "trace.json").write_text(json.dumps({
        "wall_untraced_s": wall_u,
        "wall_traced_s": wall_t,
        "threads": [{"name": rec.name, "root_s": rec.root_s,
                     "spans": {n: dataclasses.asdict(s) for n, s in rec.stats.items()},
                     "counts": dict(rec.counts)} for rec in tr.threads],
    }, indent=2), encoding="utf-8")
    shutil.rmtree(out_u, ignore_errors=True)
    shutil.rmtree(out_t, ignore_errors=True)

    rc_self = stats["simulate.run_chains"].self_s
    drift = stats["drift.fn"]
    noise = stats["noise.sample_block"]
    seed_rng = stats["core.seed_rng"]
    values = {
        "simulate.run_chains.self_s": (rc_self, "s"),
        "simulate.us_per_step": (1e6 * _ratio(rc_self, counts["simulate.steps"]), "us"),
        "simulate.ns_per_chain_step": (1e9 * _ratio(rc_self, counts["simulate.chain_steps"]),
                                       "ns"),
        "simulate.kept_frac": (_ratio(counts["simulate.kept"], counts["simulate.chains"]),
                               "ratio"),
        "simulate.busy_per_wall": (_ratio(counts["simulate.busy_s"], counts["simulate.wall_s"]),
                                   "ratio"),
        "drift.fn.calls": (drift.calls, "count"),
        "drift.fn.s": (drift.total_s, "s"),
        "drift.fn.us_per_call": (1e6 * _ratio(drift.total_s, drift.calls), "us"),
        "noise.sample_block.calls": (noise.calls, "count"),
        "noise.sample_block.s": (noise.total_s, "s"),
        "noise.draws": (counts["noise.draws"], "count"),
        "noise.ns_per_draw": (1e9 * _ratio(noise.total_s, counts["noise.draws"]), "ns"),
        "core.seed_rng.calls": (seed_rng.calls, "count"),
        "core.seed_rng.s": (seed_rng.total_s, "s"),
        "core.parse_config_file.s": (stats["core.parse_config_file"].total_s, "s"),
        "core.validate_config.s": (stats["core.validate_config"].total_s, "s"),
        "setup.import_s": (import_s, "s"),
        "stats.estimate_density.s": (stats["stats.estimate_density"].total_s, "s"),
        "stats.log_density_fit.s": (stats["stats.log_density_fit"].total_s, "s"),
        "stats.gaussian_gof.s": (stats["stats.gaussian_gof"].total_s, "s"),
        "stats.cf_residual.s": (stats["stats.cf_residual"].total_s, "s"),
        "lyapunov.predict_stationary.s": (stats["lyapunov.predict_stationary"].total_s, "s"),
        "scaling.find_scaling_exponent.s": (stats["scaling.find_scaling_exponent"].total_s,
                                            "s"),
        "figures.run_figure.self_s": (stats["figures.run_figure"].self_s, "s"),
        "cli.main.self_s": (stats["cli.main"].self_s, "s"),
        "cli.rows_written": (rows_written, "count"),
        "cli.bytes_written": (bytes_written, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
