#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run it from the repository root.  It runs one repetition of each workload
(step_overhead and analyze_10s shortened; the pipeline workloads at their
benchmark length, which their statistics checks need), requires every check
to pass, then corrupts each result in one way and requires the check that
guards it to fail.  Exits 0 when every check behaved as required, 1 otherwise.
"""

from __future__ import annotations

import functools
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import run

run.import_wafersim()

from wafersim.engine import load_spikes_binary, simulate  # noqa: E402
from wafersim.network import load_spec, save_spec  # noqa: E402

import workloads as w  # noqa: E402
from tracing import NullTracer, Span, Tracer  # noqa: E402

results: list[tuple[bool, str]] = []


def expect(name: str, failures: list[str], should_fail: bool) -> None:
    ok = bool(failures) == should_fail
    detail = "; ".join(failures) if failures else "no failure"
    results.append((ok, name))
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def pipeline_cases(tmp: Path) -> None:
    nt = NullTracer()
    for name in ("microcircuit", "brunel_ai"):
        wl = w.WORKLOADS[name]
        out = tmp / name
        rep = wl.rep(wl.prepare(0), out, nt)
        expect(f"{name}: unmodified run passes", rep.failures, False)
        record = load_spikes_binary(out / "spikes.bin")

        def again(label):
            failures, *_ = w.check_pipeline_outputs(out, record, nt, wl.stat_checks)
            expect(f"{name}: {label}", failures, True)

        analysis_path = out / "analysis.json"
        pristine = analysis_path.read_text()
        doc = json.loads(pristine)
        if name == "microcircuit":
            doc["per_population_mean_rate_hz"]["L5E"] = 60.5
            analysis_path.write_text(json.dumps(doc))
            again("a population rate above 60 Hz fails the rate band")
        else:
            doc["cv_isi_mean"] = 0.69
            analysis_path.write_text(json.dumps(doc))
            again("CV of ISI 0.69 fails the [0.7, 1.3] band")
        analysis_path.write_text(pristine)

        (mapping_path,) = out.glob("mapping_*_*.json")
        pristine = mapping_path.read_text()
        doc = json.loads(pristine)
        pid = max(doc["lost"], key=lambda k: (doc["lost"][k], doc["realized"][k]))
        if doc["lost"][pid]:
            doc["lost"][pid] -= 1
        else:
            doc["realized"][pid] -= 1
        mapping_path.write_text(json.dumps(doc))
        again(f"one synapse of {pid} left uncounted breaks conservation")
        mapping_path.write_text(pristine)

        mapped = load_spec(out / "mapped.json")
        e = mapped.edges[pid]
        mapped.edges[pid] = type(e)(e.src[1:], e.tgt[1:], e.weight[1:], e.delay[1:])
        save_spec(mapped, out / "mapped.json")
        again("one realized synapse missing from the mapped spec")


def traced_pipeline_case(tmp: Path) -> None:
    """A traced repetition runs run_pipeline itself: its spans nest as the
    program's calls do, cover the traced wall time and leave no wrapper
    behind."""
    wl = w.WORKLOADS["microcircuit"]
    tr = Tracer()
    rep = wl.rep(wl.prepare(0), tmp / "traced", tr)
    failures = list(rep.failures)
    parents = {s.name: tr.spans[s.parent].name
               for s in tr.spans if s.parent is not None}
    for child, parent in (("adaptation.downscale", "adaptation.adapt_pipeline"),
                          ("mapping.route", "mapping.map_network"),
                          ("engine.simulate", "pipeline.run_pipeline")):
        if parents.get(child) != parent:
            failures.append(f"span {child} under {parents.get(child)}, "
                            f"not {parent}")
    if tr.coverage() < 0.95:
        failures.append(f"coverage {tr.coverage():.3f}")
    left = [a for m, attrs in w.PIPELINE_CALLS.items() for a in attrs
            if isinstance(getattr(m, a), functools.partial)]
    if left:
        failures.append(f"wrappers left in place: {left}")
    expect("microcircuit: traced run traces run_pipeline's own calls",
           failures, False)


def step_cases() -> None:
    wl = w.StepOverhead("step_overhead", 200.0)
    spec, cfg = wl.prepare(0)
    rep = wl.rep((spec, cfg), Path("unused"), NullTracer())
    expect("step_overhead: unmodified run passes", rep.failures, False)
    record = simulate(spec, cfg)
    dropped = np.delete(np.arange(len(record.times)), len(record.times) // 2)
    expect("step_overhead: one dropped spike breaks the periodic ISIs",
           w.check_regular_lif(replace(record, times=record.times[dropped],
                                       ids=record.ids[dropped]), w.STEP_NEURON),
           True)
    expect("step_overhead: a rate 10% off the closed form fails",
           w.check_regular_lif(replace(record, times=record.times * 1.1),
                               w.STEP_NEURON), True)


def analyze_cases(tmp: Path) -> None:
    wl = w.Analyze("analyze_10s", 2000.0)
    record = wl.prepare(0)
    rep = wl.rep(record, tmp / "analyze", NullTracer())
    expect("analyze_10s: unmodified run passes", rep.failures, False)
    good, _, _ = wl.chain(record, tmp / "analyze", NullTracer())
    keep = np.ones(len(good.loaded.times), bool)
    keep[len(keep) // 2] = False
    loaded = replace(good.loaded, times=good.loaded.times[keep],
                     ids=good.loaded.ids[keep])
    expect("analyze_10s: one spike dropped in the round trip",
           w.check_analysis(replace(good, loaded=loaded), wl.bin_ms), True)
    rates = replace(good.rates, per_population_mean={
        k: v * (1 + 1e-8) if k == "L4E" else v
        for k, v in good.rates.per_population_mean.items()})
    expect("analyze_10s: a rate off by 1e-8 relative",
           w.check_analysis(replace(good, rates=rates), wl.bin_ms), True)
    first = min(good.cv.per_neuron)
    cv = replace(good.cv, per_neuron={
        **good.cv.per_neuron, first: good.cv.per_neuron[first] * (1 + 1e-8)})
    expect("analyze_10s: one neuron's CV off by 1e-8 relative",
           w.check_analysis(replace(good, cv=cv), wl.bin_ms), True)
    expect("analyze_10s: synchrony off by 1e-8 relative",
           w.check_analysis(replace(good, sync=good.sync * (1 + 1e-8)), wl.bin_ms),
           True)


def run_level_cases() -> None:
    fp = {"engine.spikes": 3, "spikes_hash": "a"}
    reps = [w.Rep(1.0, 0.1, 0.9, 10, 5, {}, dict(fp)) for _ in range(2)]
    reps[1].fingerprint["spikes_hash"] = "b"
    run.check_repeats("none", 0, [(r, NullTracer(), False) for r in reps])
    expect("run: a repetition whose fingerprint differs is flagged",
           reps[1].failures, True)
    tr = Tracer()
    tr.spans = [Span("root", 0.0, 1.0, None), Span("child", 0.0, 0.9, 0)]
    rep = w.Rep(1.0, 0.1, 0.9, 10, 5, {}, dict(fp))
    run.check_repeats("none", 0, [(rep, tr, True)])
    expect("run: top-level spans covering 90% of the traced wall are flagged",
           rep.failures, True)


def main() -> int:
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        step_cases()
        analyze_cases(tmp)
        run_level_cases()
        pipeline_cases(tmp)
        traced_pipeline_case(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [name for ok, name in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test cases behaved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
