#!/usr/bin/env python3
"""Scaled cortical microcircuit end to end.

Builds the eight-population model, adapts it to the hardware (downscales it
to 7713 neurons with linear weight compensation and replaces its Poisson
input by a leak shift), maps it onto the wafer with synapse-loss accounting
and simulates it.  Prints per-population rates and the
mapping loss summary; all artifacts land in the output directory.
"""

import argparse
import json
import sys
from pathlib import Path

from wafersim.analysis import mean_rates
from wafersim.pipeline import run_pipeline, scaled_microcircuit_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=10_000.0,
                    help="biological time in ms")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, default=Path("microcircuit_out"))
    args = ap.parse_args()

    config = scaled_microcircuit_config(seed=args.seed, duration=args.duration)
    result = run_pipeline(config, args.out_dir)
    window = (min(1000.0, args.duration / 2), args.duration)
    rates = mean_rates(result.record, window).per_population_mean
    print(f"window {window[0]:.0f}-{window[1]:.0f} ms")
    for pid in sorted(rates):
        print(f"  {pid:5s} {rates[pid]:7.2f} Hz")
    mapping = json.loads(result.artifacts["mapping_report"].read_text())
    print(f"synapses realized {mapping['total_realized']} "
          f"(loss {mapping['loss_fraction']:.2%})")
    print(f"artifacts in {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
