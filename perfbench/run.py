"""salab benchmark: run one CLI workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fig3_quartic --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; salab is imported from ./src, never
from an installed copy.  Load model: a closed loop, one `salab` invocation
at a time from this process, each a fresh child started when the previous
one has exited, all with `--threads min(2, nproc)` and `--seed <seed>`.

--trace 0 measures the end-to-end metrics with tracing off:
  cpu_s                  median user + system CPU seconds of the workload
                         command, from os.wait4
  setup_s                median CPU seconds of the same command with --dry-run
  chain_steps_per_cpu_s  the workload's fixed chain-step count / cpu_s
  peak_rss_mb            median ru_maxrss of the child, from os.wait4
Times are CPU seconds, not wall seconds, because on a shared virtual
machine the host steals CPU from the guest for minutes at a time, and wall
time follows the steal (README.md gives the figures).  Every invocation's
wall time and the machine's steal share during it are still recorded, in
invocations.json and on stdout.

The workload runs at least twice, and again while the run can still end
within --seconds (by wall time); every run's CSVs must hash identically and
pass the workload's output gate.

--trace 1 runs the workload in-process twice, untraced and then with spans
around every salab call site (see traced.py), and prints the per-layer
metrics.  README.md maps each metric to the end-to-end one it should move.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
a fuller record, with the environment, goes to
.perfbench_out/<workload>-seed<seed>-trace<trace>/result.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, csv_digest

ROOT = Path(__file__).resolve().parent.parent

#: fresh --dry-run processes timed per run for setup_s; the median also
#: discards the first one's bytecode compilation on a new checkout
SETUP_REPEATS = 3

#: a run must end within 180 s: children still running this long after
#: start are killed and count as failed; an in-process traced run that is
#: still going a little later ends the process
DEADLINE = time.monotonic() + 165.0


def remaining_s() -> float:
    return max(0.0, DEADLINE - time.monotonic())


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_ticks():
    """(all, steal) CPU ticks of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7]


@dataclasses.dataclass(frozen=True)
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float           # user + system time of the child
    peak_rss_mb: float
    steal_frac: float      # share of the machine's CPU time stolen meanwhile


def spawn(argv: list, log: Path) -> Invocation:
    """Run `python -m salab argv` to exit; wall and CPU time, peak RSS, steal.

    A watchdog kills the child when the run's time is up.  The child is
    waited for without being reaped first, so the watchdog cannot signal a
    pid that has already been freed.
    """
    ticks0 = cpu_ticks()
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "salab", *argv], cwd=ROOT,
                                env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
    lock, exited = threading.Lock(), threading.Event()

    def kill():
        with lock:
            if not exited.is_set():
                os.kill(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(remaining_s(), kill)
    watchdog.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - t0
    with lock:
        exited.set()
    watchdog.cancel()
    watchdog.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    ticks1 = cpu_ticks()
    steal = 0.0
    if ticks0 and ticks1 and ticks1[0] > ticks0[0]:
        steal = (ticks1[1] - ticks0[1]) / (ticks1[0] - ticks0[0])
    return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, steal)


def log_tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list = []
        self.failed = 0

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def end_to_end(w: Workload, seed: int, seconds: float, threads: int, work: Path,
               ledger: Ledger) -> dict:
    """Time setup, then the workload in a closed loop for about `seconds`.

    The workload runs at least twice, and again only while the run can still
    end within `seconds`, so a run on a slowed machine does not overrun;
    once the run's time is up, nothing more is started.
    """
    dry = w.argv(work, work / "dry", seed, threads, dry_run=True)
    setup = []
    for i in range(SETUP_REPEATS):
        log = work / f"dry{i}.log"
        inv = spawn(dry, log)
        ledger.record(f"dry-run {i}", [] if inv.returncode == 0 else
                      [f"exit {inv.returncode}: {log_tail(log)}"])
        setup.append(inv)

    runs, digest = [], None
    start = time.perf_counter()
    while not runs or (remaining_s() > 0 and (
            len(runs) < 2
            or time.perf_counter() - start + statistics.median(r.wall_s for r in runs)
            <= seconds)):
        i = len(runs)
        out, log = work / f"run{i}", work / f"run{i}.log"
        inv = spawn(w.argv(work, out, seed, threads), log)
        runs.append(inv)
        if inv.returncode != 0:
            problems = [f"exit {inv.returncode}: {log_tail(log)}"]
        else:
            d = csv_digest(out)
            if digest is None:
                digest = d
                problems = w.check(out)
                if problems:
                    digest = "gate failed"
            else:
                problems = [] if d == digest else ["CSVs differ from the first run of this seed"]
        ledger.record(f"run {i}", problems)
        shutil.rmtree(out, ignore_errors=True)

    (work / "invocations.json").write_text(json.dumps(
        {"setup": [dataclasses.asdict(r) for r in setup],
         "runs": [dataclasses.asdict(r) for r in runs]}, indent=2), encoding="utf-8")
    print(f"{w.name}: {len(runs)} runs, cpu_s/wall_s/steal "
          + " ".join(f"{r.cpu_s:.3f}/{r.wall_s:.3f}/{r.steal_frac:.2f}" for r in runs)
          + "; setup cpu_s/wall_s " + " ".join(f"{r.cpu_s:.3f}/{r.wall_s:.3f}" for r in setup))
    cpu = statistics.median(r.cpu_s for r in runs)
    return {
        "cpu_s": {"value": cpu, "unit": "s"},
        "setup_s": {"value": statistics.median(r.cpu_s for r in setup), "unit": "s"},
        "chain_steps_per_cpu_s": {"value": w.chain_steps / cpu, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs),
                        "unit": "MB"},
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(seed: int, threads: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "salab" / "__init__.py").is_file():
        print(f"no salab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    threads = min(2, len(os.sched_getaffinity(0)))
    env = environment(args.seed, threads)
    print("env " + json.dumps(env))
    work = ROOT / ".perfbench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ledger = Ledger()
    if args.trace:
        import traced

        def overrun():
            print("traced run overran its time; giving up", file=sys.stderr)
            os._exit(3)

        guard = threading.Timer(remaining_s() + 10.0, overrun)
        guard.daemon = True
        guard.start()
        metrics = traced.run(w, args.seed, threads, work, ledger, ROOT / "src", child_env(),
                             remaining_s)
        guard.cancel()
    else:
        metrics = end_to_end(w, args.seed, args.seconds, threads, work, ledger)
    for p in ledger.problems:
        print(f"FAIL {p}")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {"workload": w.name, "trace": args.trace, "env": env,
              "problems": ledger.problems, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
