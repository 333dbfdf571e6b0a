#!/usr/bin/env python3
"""wafersim benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload brunel_ai --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports wafersim from ``./src`` and
fails without printing a result when that is missing.  Workloads:
brunel_ai, microcircuit, step_overhead, analyze_10s (see README.md).

The workload is repeated, one repetition after another in this process,
until the next repetition would overrun ``--seconds`` (at least
``MIN_REPS`` repetitions).  Every repetition's outputs are checked.

``--trace 0`` times each repetition from outside and reports the end-to-end
metrics as medians over repetitions.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics: per span name the
median over traced repetitions of its summed seconds, the counts, and the
tracing overhead (traced minus untraced median wall time).  The metrics
reported, with their units, are the ones ``BENCHMARK.json`` lists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from tracing import NullTracer, Tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
MIN_REPS = 3

# spans inside the program, such as the engine's phases, are not measured yet
UNMEASURED = ["engine.drive", "engine.integration", "engine.threshold",
              "engine.delivery", "engine.recording"]


def import_wafersim():
    """Put ./src first on the path; exit with an error if wafersim is not there."""
    src = ROOT / "src"
    if not (src / "wafersim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/wafersim under {ROOT}; "
                 f"run from the repository root")
    sys.path.insert(0, str(src))
    import wafersim
    if Path(wafersim.__file__).resolve().parent != (src / "wafersim").resolve():
        sys.exit(f"perfbench: imported wafersim from {wafersim.__file__}, "
                 f"not from {src}")


def git_sha() -> str:
    """HEAD of ./.git read from its files; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def repeat(workload, inputs, seconds, trace, work):
    """[(rep, tracer, traced)] until the next repetition would overrun."""
    done, costs = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(done) % 2 == 1
        tr = Tracer() if traced else NullTracer()
        out_dir = work / f"rep{len(done)}"
        t0 = time.perf_counter()
        rep = workload.rep(inputs, out_dir, tr)
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        costs.append(time.perf_counter() - t0)
        done.append((rep, tr, traced))
        enough = len(done) >= (2 if trace else MIN_REPS)
        if enough and not (trace and len(done) % 2) and \
                time.perf_counter() - start + median(costs) > seconds:
            return done


def check_repeats(workload_name, seed, done) -> None:
    """Flag repetitions whose fingerprint differs from the first (they ran
    the same input) or whose traced wall time the top-level spans do not
    cover within 5%; print how the fingerprint compares with the baseline,
    which is informational only."""
    first = done[0][0].fingerprint
    for i, (rep, tr, traced) in enumerate(done):
        if rep.fingerprint != first:
            rep.failures.append("fingerprint differs from repetition 0")
        if traced and tr.coverage() < 0.95:
            rep.failures.append(
                f"top-level spans cover {tr.coverage():.1%} "
                f"of the traced wall time")
    path = HERE / "fingerprints.json"
    baseline = json.loads(path.read_text()).get(workload_name, {}).get(str(seed))
    if baseline is None:
        print(f"fingerprint: no baseline for seed {seed}")
    for key, value in first.items():
        verdict = "" if baseline is None else (
            "  matches baseline" if baseline.get(key) == value
            else f"  DIFFERS from baseline {baseline.get(key)}")
        print(f"fingerprint {key} = {value}{verdict}")


def end_to_end(reps, attempted, failed) -> dict:
    return {
        "wall_s": median(r.wall_s for r in reps),
        "setup_s": median(r.setup_s for r in reps),
        "events_per_s": median(r.events / r.main_s for r in reps),
        "us_per_step": median(r.main_s / r.steps * 1e6 for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def layer_value(name: str, rep, tr) -> float:
    """One traced repetition's value of a per-layer metric: a count the
    workload reported, a tracemalloc peak (``<span>_peak_mb``), a few derived
    values, or else the summed seconds of the spans ``name`` less ``_s``
    names.  Spans a workload does not call read 0."""
    totals = tr.totals()
    if name in rep.counts:
        return rep.counts[name]
    if name.endswith("_peak_mb"):
        return tr.peak_mb.get(name[:-len("_peak_mb")], 0.0)
    if name == "engine.build_s":  # simulate minus its step loop
        return totals.get("engine.simulate", 0.0) - rep.counts["engine.loop_s"]
    if name == "trace.wall_s":
        return rep.wall_s
    if name == "trace.coverage":
        return tr.coverage()
    if name.endswith("_s"):
        return totals.get(name[:-len("_s")], 0.0)
    return 0  # a count this workload does not have


def per_layer(done, names) -> dict:
    traced = [(rep, tr) for rep, tr, t in done if t]
    untraced_wall = median(rep.wall_s for rep, _, t in done if not t)
    out = {name: median(layer_value(name, rep, tr) for rep, tr in traced)
           for name in names if name != "trace.overhead_s"}
    out["trace.overhead_s"] = median(rep.wall_s for rep, _ in traced) - untraced_wall
    return out


def print_reference(name, events_per_s) -> None:
    from wafersim.bench import reference_table
    print("events_per_s next to the published systems:")
    print(reference_table().render_text())
    print(f"{'wafersim (' + name + ')':<21} {events_per_s / 1e9:<35.6g} (not measured)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_wafersim()
    from workloads import WORKLOADS, PipelineWorkload
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env)}")

    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed)
        done = repeat(workload, inputs, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # not empty: another run is using it
            pass

    check_repeats(workload.name, args.seed, done)
    for i, (rep, tr, traced) in enumerate(done):
        status = "ok" if not rep.failures else "FAILED: " + "; ".join(rep.failures)
        cover = f", span coverage {tr.coverage():.4f}" if traced else ""
        print(f"rep {i}{' traced' if traced else ''}: wall {rep.wall_s:.4f} s, "
              f"setup {rep.setup_s:.4f} s, main {rep.main_s:.4f} s, "
              f"events {rep.events}{cover}, checks {status}")
    regimes = sorted({rep.regime for rep, _, _ in done if rep.regime})
    if regimes:
        print(f"regime label (recorded, not checked): {', '.join(regimes)}")
    attempted = len(done)
    failed = sum(1 for rep, _, _ in done if rep.failures)

    if args.trace:
        values = per_layer(done, units)
        print(f"spans inside the program, not measured: {', '.join(UNMEASURED)}")
    else:
        values = end_to_end([rep for rep, _, _ in done], attempted, failed)
        if isinstance(workload, PipelineWorkload):
            print_reference(workload.name, values["events_per_s"])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
