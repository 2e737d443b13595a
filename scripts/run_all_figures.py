#!/usr/bin/env python3
"""Reproduce every built-in figure's data in one go.

The three quartic figures share their stepsize ladder, so the raw ensembles
are simulated once and rescaled per figure.  Expect a few minutes: the
alpha = 1e-4 quartic chain needs ~1e7 steps per chain to mix.

Usage:
    python scripts/run_all_figures.py [--out figures_out] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

from salab.cli import _alpha_tag, _write_csv
from salab.figures import FIGURE_SPECS, run_figure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures_out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache = {}
    for name in sorted(FIGURE_SPECS):
        t0 = time.perf_counter()
        result = run_figure(name, seed=args.seed, cache=cache)
        fig_dir = out / name
        fig_dir.mkdir(exist_ok=True)
        for alpha, est in result.densities.items():
            _write_csv(fig_dir / f"density_{_alpha_tag(alpha)}.csv", ["y", "p_hat"],
                       zip(est.grid, est.density))
        status = ""
        if result.trend is not None:
            status = f"trend {'PASS' if result.trend.passed else 'FAIL'}"
        if result.fits:
            status += " " + " ".join(
                f"r2(q={q})={fit.r_squared:.4f}" for q, fit in sorted(result.fits.items())
            )
        print(f"{name:6s} exponent {result.exponent:<5g} "
              f"[{time.perf_counter() - t0:6.1f}s] {status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
