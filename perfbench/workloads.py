"""The benchmark's three salab CLI workloads: fixed sizes, inputs and gates.

Sizes are fixed here and never read back from the program: the chain-step
count of each workload is the sum over its `run_chains` calls of
n_chains * (burn_in + samples_per_chain * thin), worked out by hand from
the config below (auto burn-in is ceil(10 / alpha), auto thin ceil(1 / alpha);
fig3 uses the quartic figure rule for alpha = 1e-3).  README.md says why
each workload is here.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


def csv_digest(out: Path) -> str:
    """One hash over every CSV a run wrote, by name and content.

    Reruns with one seed must match: that is the byte-identity contract.
    """
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _quantities(path: Path) -> dict:
    """A two-column `quantity,value` CSV as a dict of strings."""
    return {row[0]: row[1] for row in _read_rows(path)[1:]}


def _gate_fig3(out: Path) -> list:
    r2 = {int(row[0]): float(row[3]) for row in _read_rows(out / "logfit.csv")[1:]}
    problems = []
    if not r2[4] >= 0.95:
        problems.append(f"logfit r2(q=4) = {r2[4]!r} < 0.95")
    if not r2[4] > r2[2]:
        problems.append(f"logfit r2(q=4) = {r2[4]!r} <= r2(q=2) = {r2[2]!r}")
    return problems


def _gate_pipeline(out: Path) -> list:
    problems = []
    chosen = [row for row in _read_rows(out / "scaling_report.csv") if row[0] == "p_star"]
    if len(chosen) != 1 or not abs(float(chosen[0][3]) - 0.5) <= 1e-3:
        problems.append(f"scaling_report p_star rows {chosen}, expected 0.5")
    passed = _quantities(out / "gof.csv")["passed"]
    if passed != "True":
        problems.append(f"gof.csv passed = {passed}")
    return problems


_WIDE_ALPHA = 0.01


def _gate_simulate_wide(out: Path) -> list:
    """No divergence, and cov_1_1 within 4 batch-means SEs of 1/(2 - alpha).

    Chains are independent, so each chain's 32 records form one batch; the
    SE is that of the pooled mean squared deviation, which is the variance
    the program reports.
    """
    mom = _quantities(out / f"moments_{_WIDE_ALPHA:g}.csv")
    problems = []
    if int(mom["n_diverged"]) != 0:
        problems.append(f"n_diverged = {mom['n_diverged']}")
    by_chain = {}
    for row in _read_rows(out / f"samples_{_WIDE_ALPHA:g}.csv")[1:]:
        by_chain.setdefault(row[0], []).append(float(row[2]))
    mean = math.fsum(v for ys in by_chain.values() for v in ys) / sum(
        len(ys) for ys in by_chain.values())
    batches = [math.fsum((v - mean) ** 2 for v in ys) / len(ys) for ys in by_chain.values()]
    se = statistics.stdev(batches) / math.sqrt(len(batches))
    cov = float(mom["cov_1_1"])
    target = 1.0 / (2.0 - _WIDE_ALPHA)
    if not abs(cov - target) <= 4.0 * se:
        problems.append(f"cov_1_1 = {cov!r} is {abs(cov - target) / se:.2f} SE "
                        f"from 1/(2 - alpha) = {target!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple                   # salab argv before the common flags
    config: Optional[str]         # config file text, or None
    chain_steps: int              # fixed by the sizes above, never measured
    gate: Callable[[Path], list]  # output directory -> problems found

    def argv(self, work: Path, out: Path, seed: int, threads: int,
             dry_run: bool = False) -> list:
        """The salab command line; writes the config file into `work`."""
        argv = list(self.args)
        if self.config is not None:
            cfg = work / f"{self.name}.cfg"
            cfg.write_text(self.config, encoding="utf-8")
            argv += ["--config", str(cfg)]
        argv += ["--seed", str(seed), "--out", str(out), "--threads", str(threads)]
        return argv + ["--dry-run"] if dry_run else argv

    def check(self, out: Path) -> list:
        """Run the output gate; a missing or malformed file is a problem too."""
        try:
            return self.gate(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"cannot check outputs: {type(exc).__name__}: {exc}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig3_quartic",
            args=("figure", "fig3"),
            config=None,
            # alpha = 1e-3, tau = 2.2 alpha^-1.5: 1024 chains,
            # burn_in 173926 + 16 records * thin 17393 = 452214 steps
            chain_steps=1024 * (173926 + 16 * 17393),
            gate=_gate_fig3,
        ),
        Workload(
            name="pipeline_linear2d",
            args=("pipeline",),
            config="\n".join([
                "drift = linear",
                "drift.a = [[-1.0, 1.0], [0.0, -2.0]]",
                "drift.b = [0.0, 0.0]",
                "noise.shape = gaussian",
                "noise.sigma = [[1.0, 0.0], [0.0, 1.0]]",
                "alphas = 0.05, 0.005",
                "scaling = auto",
                "n_chains = 512",
                "thin = 50",
                "samples_per_chain = 512",
                "",
            ]),
            # burn_in 200 (alpha 0.05) and 2000 (alpha 0.005), each + 512 * 50
            chain_steps=512 * ((200 + 512 * 50) + (2000 + 512 * 50)),
            gate=_gate_pipeline,
        ),
        Workload(
            name="simulate_wide",
            args=("simulate",),
            config="\n".join([
                "drift = grad_quadratic",
                "noise.shape = gaussian",
                "noise.sigma = [[1.0]]",
                f"alphas = {_WIDE_ALPHA}",
                "scaling = 0.5",
                "n_chains = 8192",
                "samples_per_chain = 32",
                "",
            ]),
            # auto burn_in 1000 + 32 records * auto thin 100 = 4200 steps
            chain_steps=8192 * (1000 + 32 * 100),
            gate=_gate_simulate_wide,
        ),
    )
}
