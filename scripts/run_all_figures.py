#!/usr/bin/env python3
"""Reproduce every built-in figure's data in one go.

The three quartic figures share their stepsize ladder, so the raw ensembles
are simulated once and rescaled per figure.  Each figure's directory gets
the files `salab figure <name>` writes: density CSVs, trend_check.csv or
logfit.csv, and manifest.json.  Expect a few minutes: the alpha = 1e-4
quartic chain needs ~1e7 steps per chain to mix.

Usage:
    python scripts/run_all_figures.py [--out figures_out] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

from salab.cli import emit_figure, figure_manifest
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
        fig_dir = out / name
        fig_dir.mkdir(exist_ok=True)
        manifest = figure_manifest(name, fig_dir, args.seed)
        result = run_figure(name, seed=args.seed, cache=cache)
        emit_figure(result, manifest)
        manifest.finish()
        fits = " ".join(
            f"r2(q={q})={fit.r_squared:.4f}" for q, fit in sorted(result.fits.items())
        )
        print(f"{name:6s} exponent {result.exponent:<5g} "
              f"[{time.perf_counter() - t0:6.1f}s] {fits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
