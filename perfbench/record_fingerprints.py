#!/usr/bin/env python3
"""Record the baseline fingerprints that run.py compares against.

    python3 perfbench/record_fingerprints.py 0 1 2 3

Run it from the repository root.  For each seed given it runs one untraced
repetition of every workload and stores the
fingerprint (deliveries, spikes, edges, lost synapses and a hash of the spike
times and ids) in perfbench/fingerprints.json, keeping the other entries.  A change
that should leave the simulated statistics alone keeps matching the stored
fingerprints; record them again only when a change is meant to alter them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

run.import_wafersim()

from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds: list[int]) -> int:
    path = run.HERE / "fingerprints.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="fingerprints-", dir=work))
    try:
        for seed in seeds:
            for name, wl in WORKLOADS.items():
                rep = wl.rep(wl.prepare(seed), tmp / f"{name}-{seed}", NullTracer())
                if rep.failures:
                    print(f"{name} seed {seed}: checks failed: {rep.failures}")
                    return 1
                table.setdefault(name, {})[str(seed)] = rep.fingerprint
                print(f"{name} seed {seed}: {rep.fingerprint}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="+")
    sys.exit(main(ap.parse_args().seeds))
