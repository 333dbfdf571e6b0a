#!/usr/bin/env python3
"""Phase sweep of the scaled balanced random network.

Sweeps inhibition dominance g against external drive eta on the 2083-neuron
configuration with the shared 200-sample Poisson pool, classifies the firing
regime of every cell and writes the grid as CSV.
"""

import argparse
import sys
import time
from pathlib import Path

from wafersim.pipeline import phase_sweep, scaled_brunel_config


def parse_values(text):
    return [float(v) for v in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g", type=parse_values, default=[2, 3, 4, 5, 6, 8])
    ap.add_argument("--eta", type=parse_values, default=[0.5, 0.9, 1.0, 2.0, 4.0])
    ap.add_argument("--duration", type=float, default=2000.0,
                    help="biological time per cell in ms")
    ap.add_argument("--window-start", type=float, default=500.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parallel", type=int, default=4)
    ap.add_argument("--out", type=Path, default=Path("sweep.csv"))
    args = ap.parse_args()

    config = scaled_brunel_config(seed=args.seed, duration=args.duration)
    config.analysis = {"window_start": args.window_start}
    start = time.monotonic()
    grid = phase_sweep(config, args.g, args.eta, parallel=args.parallel)
    wall = time.monotonic() - start
    args.out.write_text(grid.to_csv())
    print(grid.to_csv())
    print(f"# {len(args.g) * len(args.eta)} cells in {wall:.0f}s -> {args.out}")
    return 1 if grid.partial else 0


if __name__ == "__main__":
    sys.exit(main())
