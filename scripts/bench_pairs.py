#!/usr/bin/env python3
"""Alternating pairs of the benchmark's salab commands on two source trees.

    python3 scripts/bench_pairs.py PARENT_SRC CHANGE_SRC --out BENCH_18.json \\
        [--pairs 10] [--seed 9000] [--workload NAME ...]

PARENT_SRC and CHANGE_SRC are source checkouts, each with src/salab.
Before any run, `python -m compileall -q` writes the bytecode of each
side's src/salab, so no run compiles a module from source, even where
PYTHONDONTWRITEBYTECODE is set: compiling would add a module's compile
time to CPU and peak RSS, so a change that only shortens a module would
move them.  The commands and configs are those of this checkout's
perfbench/workloads.py, with perfbench's `--threads min(2, nproc)`;
nothing else of perfbench is used.  For each workload, pair i runs its
salab command at seed --seed + i once on each side, parent first in even
pairs and change first in odd ones, each run a fresh child of this
process.  One untimed run per side comes first, so the compiled kernel is
built before any timed run.

Per run it records the CPU seconds (user + system), the peak RSS from
os.wait4, and from its manifest.json the engine, the kernel_isa (the
compiled kernel's clone; None on the numpy body, and on a tree whose
manifest does not record it) and manifest_peak_rss_mb, the run's own
VmHWM: a forked child's ru_maxrss starts at this process's high-water
mark, which puts a floor under it, and VmHWM has no such floor.  The numpy body writes the
compiled kernel's bytes, so a kernel that failed to build or load would
time a different program unseen: a run whose engine is not "compiled", or
a pair whose two runs name different engines, is listed as a problem.

A forked child starts with this process's own high-water mark in
ru_maxrss, so this process never loads a CSV whole: files are compared in
chunks, and each workload's output gate runs in a subprocess of its own.
The CSVs of the two runs of a pair are compared by name and content, and
every one that differs is listed.

Prints a line per run and each side's median and quartiles per metric,
and writes the whole record to --out as JSON.  Exits 1 when a run failed,
a gate found a problem or a CSV differed, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS  # noqa: E402

SIDES = ("parent", "change")

#: metrics of a run, each lower-is-better
METRICS = ("cpu_s", "peak_rss_mb", "manifest_peak_rss_mb")

#: worker threads of every run, as perfbench/run.py sets them
THREADS = min(2, len(os.sched_getaffinity(0)))

#: checks one output directory with a workload's gate; prints a JSON list
_GATE = ("import json, sys; from pathlib import Path; from workloads import WORKLOADS; "
         "print(json.dumps(WORKLOADS[sys.argv[1]].check(Path(sys.argv[2]))))")


def tree_hash(src: Path) -> str:
    """sha256 over the names and bytes of every file under src/salab."""
    h = hashlib.sha256()
    for path in sorted((src / "src" / "salab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run(src: Path, argv: list, log: Path) -> dict:
    """`python -m salab argv` on src/src to exit: CPU seconds and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "salab", *argv], cwd=src, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def gate(name: str, out: Path) -> list:
    """The workload's output gate, run in a subprocess of its own."""
    res = subprocess.run([sys.executable, "-c", _GATE, name, str(out)], cwd=PERFBENCH,
                         capture_output=True, text=True)
    if res.returncode != 0:
        return [f"gate crashed: {' | '.join(res.stderr.strip().splitlines()[-3:])}"]
    return json.loads(res.stdout)


def differing_csvs(a: Path, b: Path) -> list:
    """Names of the CSVs that either run lacks or whose bytes differ."""
    names = sorted({p.name for d in (a, b) for p in d.glob("*.csv")})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and filecmp.cmp(a / n, b / n, shallow=False))]


def _fmt(value, spec: str = ".4g") -> str:
    return "-" if value is None else format(value, spec)


def summary(values: list) -> dict:
    values = [v for v in values if v is not None]     # a failed run has no manifest
    if not values:
        return {"median": None, "q1": None, "q3": None, "runs": []}
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def run_pairs(name: str, srcs: dict, seeds: list, work: Path) -> dict:
    w = WORKLOADS[name]
    runs = {side: [] for side in SIDES}
    problems, differing = [], {}

    def one(side: str, seed: int, tag: str):
        out, log = work / f"{name}-{side}-{tag}", work / f"{name}-{side}-{tag}.log"
        rec = run(srcs[side], w.argv(work, out, seed, THREADS), log)
        label = f"{side} seed {seed}{' (warm-up)' if tag == 'warm' else ''}"
        if rec["returncode"] != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            problems.append(f"{label}: exit {rec['returncode']}: {' | '.join(tail)}")
        else:
            problems.extend(f"{label}: {p}" for p in gate(name, out))
            manifest = json.loads((out / "manifest.json").read_text())
            rec["engine"] = manifest["engine"]
            rec["kernel_isa"] = manifest["runtime"].get("kernel_isa")
            rec["manifest_peak_rss_mb"] = manifest.get("peak_rss_mb")
            if rec["engine"] != "compiled":
                problems.append(f"{label}: engine {rec['engine']}, not compiled")
        return rec, out

    for side in SIDES:                       # untimed: fills the caches
        shutil.rmtree(one(side, seeds[0], "warm")[1], ignore_errors=True)
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        outs = {}
        for side in order:
            rec, outs[side] = one(side, seed, str(seed))
            runs[side].append(rec)
            print(f"{name} seed {seed} {side:6s} cpu_s {rec['cpu_s']:.3f} "
                  f"peak_rss_mb {rec['peak_rss_mb']:.2f} manifest_peak_rss_mb "
                  f"{_fmt(rec.get('manifest_peak_rss_mb'), '.2f')} engine {rec.get('engine')} "
                  f"kernel_isa {rec.get('kernel_isa')}",
                  flush=True)
        engines = {side: runs[side][-1].get("engine") for side in SIDES}
        if engines["parent"] != engines["change"]:
            problems.append(f"seed {seed}: engines differ: {engines}")
        diff = differing_csvs(outs["parent"], outs["change"])
        if diff:
            differing[str(seed)] = diff
        for out in outs.values():
            shutil.rmtree(out, ignore_errors=True)

    record = {"command": list(w.args) + ["--threads", str(THREADS)], "seeds": seeds,
              "problems": problems, "identical_csvs": len(seeds) - len(differing),
              "differing_csvs": differing,
              "engines": {side: [r.get("engine") for r in runs[side]] for side in SIDES},
              "kernel_isa": {side: [r.get("kernel_isa") for r in runs[side]] for side in SIDES}}
    record["change_wins"] = {
        m: sum(p.get(m) is not None and c.get(m) is not None and c[m] < p[m]
               for p, c in zip(runs["parent"], runs["change"]))
        for m in METRICS}
    for side in SIDES:
        record[side] = {m: summary([r.get(m) for r in runs[side]])
                        for m in METRICS + ("wall_s",)}
    for m in METRICS:
        p, c = record["parent"][m], record["change"][m]
        print(f"{name} {m}: parent {_fmt(p['median'])} [{_fmt(p['q1'])}, {_fmt(p['q3'])}] "
              f"change {_fmt(c['median'])} [{_fmt(c['q1'])}, {_fmt(c['q3'])}], "
              f"change lower in {record['change_wins'][m]}/{len(seeds)}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's source checkout")
    parser.add_argument("change", type=Path, help="the change's source checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=9000, help="the first pair's seed")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default all")
    args = parser.parse_args(argv)
    srcs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, src in srcs.items():
        if not (src / "src" / "salab").is_dir():
            parser.error(f"{side} {src} holds no src/salab")
    seeds = list(range(args.seed, args.seed + args.pairs))
    for src in srcs.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "src" / "salab")],
                       check=True)

    record = {
        "about": "Alternating parent/change runs of each workload's salab command, one seed "
                 "per pair; cpu_s and peak_rss_mb from os.wait4 (ru_maxrss starts at this "
                 "process's own peak); manifest_peak_rss_mb is the peak_rss_mb of each "
                 "run's manifest.json, the run's own VmHWM; engines and kernel_isa are each "
                 "run's manifest engine and runtime kernel_isa; change_wins counts the pairs "
                 "where the change read lower.",
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "platform": platform.platform()},
        "sides": {side: {"src": str(given), "src_sha256": tree_hash(srcs[side])}
                  for side, given in (("parent", args.parent), ("change", args.change))},
        "pairs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        for name in args.workload or sorted(WORKLOADS):
            record["pairs"][name] = run_pairs(name, srcs, seeds, Path(tmp))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = any(r["problems"] or r["differing_csvs"] for r in record["pairs"].values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
