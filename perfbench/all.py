#!/usr/bin/env python3
"""Run every workload of the benchmark and print one table of its metrics.

    python3 perfbench/all.py --seed 0 --seconds 30 --trace 0

Run it from the repository root.  Each workload runs in its own process
(``perfbench/run.py``), one after another, so that each reports its own
peak memory.  Exits 1 if any run fails or reports a failed output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    results, ok = {}, True
    for w in bench["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w['name']}: run.py exited with {proc.returncode}")
            ok = False
            continue
        results[w["name"]] = json.loads(lines[-1])
        ok = ok and results[w["name"]]["correct"]

    key = "per_layer" if args.trace else "end_to_end"
    names = list(results)
    print(f"\n{'metric':<44} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
    for m in bench[key]:
        values = " ".join(f"{results[n]['metrics'][m['name']]['value']:>14.6g}"
                          for n in names)
        print(f"{m['name']:<44} {m['unit']:<6} {values}")
    print(f"{'checks passed':<51} " + " ".join(
        f"{r['attempted'] - r['failed']:>9}/{r['attempted']:<4}"
        for r in results.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
