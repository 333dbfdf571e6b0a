#!/usr/bin/env python3
"""A/B the benchmark: this checkout against a git ref, in alternating pairs.

    python3 scripts/ab_pairs.py REF --workload analyze_10s --seeds 11-20
    python3 scripts/ab_pairs.py REF --workload brunel_ai,microcircuit --seeds 11-20

Exports both sides with ``git archive`` into sibling directories of one
temporary directory: "ref" is REF, "change" this checkout's tracked files
with their uncommitted edits (a ``git stash create`` commit, or HEAD when
nothing is edited).  So the two trees differ only in their code: neither
holds a ``__pycache__`` or a ``.perfbench_work`` from earlier runs, and both
sit at the same path depth.  Runs the unchanged ``perfbench/run.py --trace
0`` of each tree from that tree's root, once per seed on each side, for the
``run_seconds`` that ``BENCHMARK.json`` fixes.  ``--workload`` takes one
workload or a comma-separated list; each pair runs every listed workload in
turn.  The side that runs first alternates from pair to pair.
Prints each run's end-to-end metrics as it ends, and after each pair of
runs whether their ``fingerprint <key> = <value>`` lines agree
("fingerprints identical", or the keys that differ).  At the end it prints,
per workload, how many pairs had identical fingerprints, then per metric
both sides' median and quartiles, the pairs the change won, and two
verdicts:

- claim: whether a claimed gain holds.  Over at least 10 pairs, the change
  wins at least 9 in 10 and its median beats REF's by more than REF's
  interquartile range, and the change has no more failed repetitions than
  REF.
- regression: "regressed" when the change's median is worse than REF's by
  more than the metric's ``bound`` (a fraction of REF's median);
  otherwise "unresolved" when REF's interquartile range exceeds the bound
  and not every change run beats every REF run; otherwise "within bound".

Whether a metric is better higher or lower, and its bound, come from
``BENCHMARK.json``.  Everything runs locally; nothing is fetched.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = re.compile(r"^fingerprint (\S+) = (\S+)", re.MULTILINE)


def parse_seeds(text: str) -> list[int]:
    """'11-20' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(ref: str, dest: Path) -> None:
    """Write the files of ``ref`` into ``dest``."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        sys.exit(f"ab_pairs: git archive {ref} failed")


def worktree_ref() -> str:
    """A commit of this checkout's tracked files as they stand, uncommitted
    edits included; the working tree and the index stay as they are."""
    stash = subprocess.run(["git", "-C", str(ROOT), "stash", "create"],
                           capture_output=True, text=True, check=True)
    return stash.stdout.strip() or "HEAD"


def run(tree: Path, workload: str, seed: int,
        seconds: float) -> tuple[dict, dict[str, str]]:
    """The result object that ``perfbench/run.py`` prints last, and the
    run's fingerprint as {key: value}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"ab_pairs: run in {tree} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), dict(FINGERPRINT.findall(proc.stdout))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, better: str, bound: float, ref: list[float],
            new: list[float], failed: dict[str, int]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(ref, new))
    (r1, rm, r3), (n1, nm, n3) = quartiles(ref), quartiles(new)
    gap = sign * (nm - rm)
    if len(ref) < 10:
        claim = "needs 10 pairs"
    elif failed["change"] > failed["ref"]:
        claim = "fails"
    elif wins >= math.ceil(0.9 * len(ref)) and gap > r3 - r1:
        claim = "holds"
    else:
        claim = "fails"
    scale = abs(rm) or 1.0
    if -gap / scale > bound:
        regression = "regressed"
    elif (r3 - r1) / scale > bound and not all(
            sign * (b - a) > 0 for a in ref for b in new):
        regression = "unresolved"
    else:
        regression = "within bound"
    return (f"{name:<14} ref {rm:<10.4g} [{r1:.4g}, {r3:.4g}]  "
            f"change {nm:<10.4g} [{n1:.4g}, {n3:.4g}]  "
            f"ratio {nm / rm if rm else math.nan:<6.3f} "
            f"wins {wins}/{len(ref)}  claim {claim}  "
            f"regression {regression} (bound {bound:g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", required=True, type=lambda s: s.split(","),
                    help="a workload, or a comma-separated list of them")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="'11-20' or '1,3,5'")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {side: {name: [] for name in better}
                  for side in ("ref", "change")} for w in args.workload}
    failed = {w: {"ref": 0, "change": 0} for w in args.workload}
    identical = dict.fromkeys(args.workload, 0)
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("ref", "change")}
        for side, ref in (("ref", args.ref), ("change", worktree_ref())):
            trees[side].mkdir()
            export(ref, trees[side])
        for i, seed in enumerate(args.seeds):
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for workload in args.workload:
                prints = {}
                for side in order:
                    result, prints[side] = run(trees[side], workload, seed,
                                               bench["run_seconds"])
                    failed[workload][side] += result["failed"]
                    metrics = {k: m["value"]
                               for k, m in result["metrics"].items()}
                    for name in better:
                        values[workload][side][name].append(metrics[name])
                    print(f"pair {i} seed {seed} {workload} {side:<6} "
                          f"correct={result['correct']} " + " ".join(
                              f"{k}={v:.6g}" for k, v in metrics.items()),
                          flush=True)
                differ = sorted(
                    k for k in prints["ref"].keys() | prints["change"]
                    if prints["ref"].get(k) != prints["change"].get(k))
                identical[workload] += not differ
                print(f"pair {i} seed {seed} {workload} fingerprints " + (
                    f"differ: {', '.join(differ)}" if differ else "identical"),
                    flush=True)
    for workload in args.workload:
        print(f"\n{workload}, {len(args.seeds)} pairs against {args.ref}; "
              f"failed repetitions: ref {failed[workload]['ref']}, "
              f"change {failed[workload]['change']}; fingerprints identical "
              f"in {identical[workload]} of {len(args.seeds)} pairs")
        for name, direction in better.items():
            print(summary(name, direction, bound[name],
                          values[workload]["ref"][name],
                          values[workload]["change"][name], failed[workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
