"""The benchmark's workloads.

A workload makes its inputs from the workload seed (``prepare``, untimed) and
runs one repetition (``rep``): the timed part, then the checks on what that
repetition wrote or returned.  With a ``NullTracer`` the timed part is the
program's own entry point; with a ``Tracer`` every call into a layer's public
functions becomes a span.

The pipeline workloads build the network with pipeline seed 0, the network
that test_04, test_05 and test_09 pin, and hand the workload seed to the
simulation, where it seeds the Poisson drive.  Network seeds are not varied:
on some of them the scaled microcircuit settles into a high-activity state
(network seed 3 of 0-19 puts L5E at about 71 Hz, outside the rate check's
[0.1, 60] Hz band), and the cost per step moves with the network's activity.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from wafersim import adaptation, mapping, pipeline
from wafersim.analysis import (
    RegimeThresholds,
    classify_regime,
    cv_isi,
    mean_rates,
    rate_distribution,
    synchrony,
)
from wafersim.engine import (
    SimulationConfig,
    SpikeRecord,
    load_spikes_binary,
    save_spikes_binary,
    save_spikes_csv,
    simulate,
)
from wafersim.mapping import load_mapping
from wafersim.network import NetworkSpec, NeuronParameters, Population, load_spec
from wafersim.pipeline import (
    PipelineConfig,
    run_pipeline,
    scaled_brunel_config,
    scaled_microcircuit_config,
)

import reference

NETWORK_SEED = 0


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float  # host seconds of the timed part
    setup_s: float  # host seconds outside the main phase
    main_s: float  # engine loop, or the analysis chain of analyze_10s
    steps: int  # dt steps covered by the main phase
    events: int  # work items of the main phase (see each workload)
    counts: dict  # per-layer counts and timings that are not spans
    fingerprint: dict
    failures: list = field(default_factory=list)
    regime: Optional[str] = None


def spikes_hash(record: SpikeRecord) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(record.times, "<f8").tobytes())
    h.update(np.ascontiguousarray(record.ids, "<u4").tobytes())
    return h.hexdigest()


def fingerprint(record: SpikeRecord, edges: int, lost: int) -> dict:
    return {
        "engine.deliveries": int(record.deliveries),
        "engine.spikes": int(record.spike_count()),
        "network.edges": int(edges),
        "mapping.lost": int(lost),
        "spikes_hash": spikes_hash(record),
    }


def engine_counts(record: SpikeRecord, out_dir: Path) -> dict:
    csv = out_dir / "spikes.csv"
    return {
        "engine.loop_s": record.wall_time,
        "engine.steps": int(round(record.duration / record.dt)),
        "engine.deliveries": int(record.deliveries),
        "engine.spikes": int(record.spike_count()),
        "engine.csv_bytes": csv.stat().st_size if csv.exists() else 0,
    }


# --- run_pipeline workloads ---------------------------------------------------

# The public functions run_pipeline reaches, by the module whose names they
# are looked up by; a traced repetition records a span for each call.
PIPELINE_CALLS = {
    pipeline: [
        "build_model", "validate_network", "save_spec", "adapt_pipeline",
        "ensure_sampled", "capacity_report", "mapping_relevant_hash",
        "load_mapping", "map_network", "save_mapping", "mapping_report",
        "apply_loss", "simulate", "save_spikes_csv", "save_spikes_binary",
        "mean_rates", "rate_distribution", "cv_isi", "synchrony",
        "classify_regime", "throughput_metrics",
    ],
    adaptation: [
        "downscale", "scale_weights_linear", "substitute_poisson_pool",
        "replace_input_with_leak_shift", "convert_current_to_conductance",
        "clamp_time_constants", "apply_parameter_variation",
    ],
    mapping: ["place", "route"],
}
SPAN_NAMES = {"build_model": "models.build"}  # pipeline.build_model builds models
PEAK_SPANS = ("analysis.cv_isi", "analysis.synchrony")


def brunel_checks(analysis: dict) -> list[str]:
    cv = analysis.get("cv_isi_mean", float("nan"))
    if 0.7 <= cv <= 1.3:
        return []
    return [f"CV of ISI {cv:.3f} outside [0.7, 1.3]"]


def microcircuit_checks(analysis: dict) -> list[str]:
    rates = analysis["per_population_mean_rate_hz"]
    return [f"population {pid} rate {r:.3f} Hz outside [0.1, 60]"
            for pid, r in sorted(rates.items()) if not 0.1 <= r <= 60.0]


def check_pipeline_outputs(out_dir: Path, record: SpikeRecord, tr,
                           stat_checks: Callable[[dict], list[str]]):
    """(failures, counts, fingerprint, regime) from what a pipeline run wrote."""
    failures = []
    (mapping_path,) = out_dir.glob("mapping_*_*.json")
    result = tr.call("mapping.load_mapping", load_mapping, mapping_path)
    mapped = tr.call("network.load_spec", load_spec, out_dir / "mapped.json")
    for pid, req in result.requested.items():
        if req != result.realized[pid] + result.lost[pid]:
            failures.append(
                f"projection {pid}: requested {req} != realized "
                f"{result.realized[pid]} + lost {result.lost[pid]}")
    realized = sum(result.realized.values())
    requested = sum(result.requested.values())
    lost = sum(result.lost.values())
    n_mapped = sum(len(e) for e in mapped.edges.values())
    if n_mapped != realized:
        failures.append(f"mapped spec holds {n_mapped} edges, mapping "
                        f"realized {realized}")
    analysis = json.loads((out_dir / "analysis.json").read_text())
    failures += stat_checks(analysis)
    edges = n_mapped + sum(len(e) for e in mapped.stim_edges.values())
    counts = {
        **engine_counts(record, out_dir),
        "network.edges": edges,
        "mapping.requested": requested,
        "mapping.realized": realized,
        "mapping.lost": lost,
        "mapping.realized_frac": realized / requested if requested else 0.0,
    }
    return failures, counts, fingerprint(record, edges, lost), analysis.get("regime")


@dataclass
class PipelineWorkload:
    name: str
    make_config: Callable[[float], PipelineConfig]
    duration_ms: float
    window_start_ms: float
    stat_checks: Callable[[dict], list[str]]

    def prepare(self, seed: int) -> PipelineConfig:
        cfg = self.make_config(self.duration_ms)
        cfg.seed = NETWORK_SEED
        cfg.simulation["seed"] = seed
        cfg.analysis = {"window_start": self.window_start_ms}
        return cfg

    def rep(self, cfg: PipelineConfig, out_dir: Path, tr) -> Rep:
        with tr.patched(PIPELINE_CALLS, SPAN_NAMES, PEAK_SPANS), \
                tr.span("pipeline.run_pipeline"):
            t0 = time.perf_counter()
            record = run_pipeline(cfg, out_dir).record
            wall = time.perf_counter() - t0
        with tr.span("perfbench.check"):
            failures, counts, fp, regime = check_pipeline_outputs(
                out_dir, record, tr, self.stat_checks)
        tr.measure_peaks()
        steps = counts["engine.steps"]
        return Rep(wall, wall - record.wall_time, record.wall_time, steps,
                   record.deliveries, counts, fp, failures, regime)


# --- step_overhead --------------------------------------------------------------


STEP_NEURON = NeuronParameters(tau_m=10.0, c_m=0.25, i_offset=0.75)


def check_regular_lif(record: SpikeRecord, neuron: NeuronParameters) -> list[str]:
    """The test_01 neuron: rate within 5% of the closed form at dt=0.1, and,
    being deterministic and reset to the same state, equal ISIs."""
    t = record.times
    if len(t) < 3:
        return [f"only {len(t)} spikes"]
    exact = reference.lif_rate(neuron.i_offset, neuron.tau_m, neuron.tau_ref,
                               neuron.c_m, neuron.v_rest, neuron.v_reset,
                               neuron.v_thresh)
    rate = 1000.0 * (len(t) - 1) / (t[-1] - t[0])
    failures = []
    if abs(rate - exact) / exact >= 0.05:
        failures.append(f"rate {rate:.3f} Hz vs closed form {exact:.3f} Hz "
                        f"(tol 5%)")
    isi = np.diff(t)
    if isi.max() - isi.min() > record.dt / 2:
        failures.append(f"ISIs range {isi.min():.3f}-{isi.max():.3f} ms; "
                        f"a constant-current neuron fires periodically")
    return failures


@dataclass
class StepOverhead:
    name: str
    duration_ms: float

    def prepare(self, seed: int):
        spec = NetworkSpec(populations=[Population("n", 1, STEP_NEURON)],
                           projections=[])
        return spec, SimulationConfig(dt=0.1, duration=self.duration_ms, seed=seed)

    def rep(self, inputs, out_dir: Path, tr) -> Rep:
        spec, cfg = inputs
        with tr.span("perfbench.step_overhead"):
            t0 = time.perf_counter()
            record = tr.call("engine.simulate", simulate, spec, cfg)
            wall = time.perf_counter() - t0
        counts = engine_counts(record, out_dir)
        steps = counts["engine.steps"]
        # no synapses: the events of this workload are neuron updates
        return Rep(wall, wall - record.wall_time, record.wall_time, steps,
                   steps * spec.n_neurons(), counts, fingerprint(record, 0, 0),
                   check_regular_lif(record, STEP_NEURON))


# --- analyze_10s ----------------------------------------------------------------

# Population slices of the scaled microcircuit and its rates (Hz) measured on
# network seed 0 over 200-1000 ms of simulated time.
MICRO_SLICES = {
    "L23E": (0, 2067), "L23I": (2067, 2650), "L4E": (2650, 4840),
    "L4I": (4840, 5388), "L5E": (5388, 5873), "L5I": (5873, 5979),
    "L6E": (5979, 7418), "L6I": (7418, 7713),
}
MICRO_RATES_HZ = {
    "L23E": 10.14, "L23I": 22.12, "L4E": 16.97, "L4I": 26.56,
    "L5E": 34.54, "L5I": 30.50, "L6E": 4.41, "L6I": 22.67,
}


def poisson_record(seed: int, duration_ms: float, dt: float = 0.1) -> SpikeRecord:
    """Poisson spikes on the dt grid, at most one per neuron and step, for
    the scaled microcircuit's populations at their rates."""
    rng = np.random.default_rng(seed)
    n_steps = int(round(duration_ms / dt))
    n = max(b for _, b in MICRO_SLICES.values())
    keys = []
    for pid, (a, b) in MICRO_SLICES.items():
        counts = rng.poisson(MICRO_RATES_HZ[pid] * duration_ms * 1e-3, size=b - a)
        ids = np.repeat(np.arange(a, b, dtype=np.int64), counts)
        keys.append(ids * n_steps + rng.integers(0, n_steps, size=len(ids)))
    keys = np.unique(np.concatenate(keys))
    ids, steps = keys // n_steps, keys % n_steps
    times = (steps + 1) * dt
    order = np.lexsort((ids, times))
    return SpikeRecord(
        times=times[order], ids=ids[order].astype(np.uint32), n_neurons=n,
        duration=duration_ms, dt=dt, deliveries=0, wall_time=0.0,
        population_slices=dict(MICRO_SLICES))


@dataclass
class Analysis:
    """What one analyze_10s repetition produced."""

    original: SpikeRecord
    loaded: SpikeRecord
    window: tuple
    rates: object
    cv: object
    sync: float
    regime: str


def check_analysis(a: Analysis, bin_ms: float) -> list[str]:
    """Binary round trip is identical; rates, CV and synchrony match the
    plain-numpy reference within 1e-9 relative."""
    failures = []
    o, r = a.original, a.loaded
    if not (np.array_equal(o.times, r.times) and np.array_equal(o.ids, r.ids)
            and o.n_neurons == r.n_neurons and o.duration == r.duration
            and o.dt == r.dt and o.deliveries == r.deliveries
            and o.population_slices == r.population_slices
            and r.recorded_neurons is None):
        failures.append("binary round trip changed the spike record")
    ref_rates = reference.population_rates(o.times, o.ids, o.n_neurons,
                                           o.population_slices, a.window)
    for pid, want in ref_rates.items():
        got = a.rates.per_population_mean.get(pid, float("nan"))
        if not reference.rel_diff(got, want) <= 1e-9:
            failures.append(f"rate {pid}: {got!r} vs reference {want!r}")
    neurons, cvs, excluded = reference.cv_isi(o.times, o.ids, o.n_neurons,
                                              a.window)
    got_neurons = np.fromiter(sorted(a.cv.per_neuron), np.int64)
    got_cvs = np.array([a.cv.per_neuron[k] for k in got_neurons.tolist()])
    if not np.array_equal(got_neurons, neurons) or a.cv.excluded != excluded:
        failures.append("CV of ISI: neuron set or excluded count differs "
                        "from the reference")
    elif not np.all(np.abs(got_cvs - cvs) <= 1e-9 * np.abs(cvs)) or \
            not reference.rel_diff(a.cv.mean(), float(np.mean(cvs))) <= 1e-9:
        failures.append("CV of ISI differs from the reference by more than 1e-9")
    want = reference.synchrony(o.times, o.ids, o.n_neurons, a.window, bin_ms)
    if not reference.rel_diff(a.sync, want) <= 1e-9:
        failures.append(f"synchrony {a.sync!r} vs reference {want!r}")
    return failures


EXTRA_LOADS = 4  # set-up samples per repetition beyond the timed load


@dataclass
class Analyze:
    name: str
    duration_ms: float
    bin_ms: float = 2.0

    def prepare(self, seed: int) -> SpikeRecord:
        return poisson_record(seed, self.duration_ms)

    def chain(self, record: SpikeRecord, out_dir: Path, tr):
        """The timed chain: (result, wall seconds, load_spikes_binary seconds)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        window = (min(1000.0, record.duration / 2), record.duration)
        with tr.span("perfbench.analyze_10s"):
            t0 = time.perf_counter()
            path = tr.call("engine.save_spikes_binary", save_spikes_binary,
                           record, out_dir / "spikes.bin")
            t1 = time.perf_counter()
            loaded = tr.call("engine.load_spikes_binary", load_spikes_binary, path)
            t2 = time.perf_counter()
            rates = tr.call("analysis.mean_rates", mean_rates, loaded, window)
            for pid in loaded.population_slices:
                tr.call("analysis.rate_distribution", rate_distribution,
                        loaded, pid, window, bins=20)
            cv = tr.call_peak("analysis.cv_isi", cv_isi, loaded, window)
            sync = tr.call_peak("analysis.synchrony", synchrony, loaded, window,
                                self.bin_ms)
            regime = tr.call("analysis.classify_regime", classify_regime,
                             rates, cv, sync, RegimeThresholds())
            tr.call("engine.save_spikes_csv", save_spikes_csv, loaded,
                    out_dir / "spikes.csv")
            wall = time.perf_counter() - t0
        return (Analysis(record, loaded, window, rates, cv, sync, regime),
                wall, t2 - t1)

    def rep(self, record: SpikeRecord, out_dir: Path, tr) -> Rep:
        result, wall, load_s = self.chain(record, out_dir, tr)
        with tr.span("perfbench.check"):
            failures = check_analysis(result, self.bin_ms)
        tr.measure_peaks()
        # set-up is one load of a few ms; more samples steady its median
        loads = [load_s]
        for _ in range(EXTRA_LOADS):
            t0 = time.perf_counter()
            load_spikes_binary(out_dir / "spikes.bin")
            loads.append(time.perf_counter() - t0)
        counts = {**engine_counts(result.loaded, out_dir),
                  "engine.loop_s": 0.0, "engine.steps": 0}
        steps = int(round(record.duration / record.dt))
        # the events of this workload are the spikes analysed
        return Rep(wall, float(np.median(loads)), wall, steps,
                   result.loaded.spike_count(), counts,
                   fingerprint(result.loaded, 0, 0), failures, result.regime)


def _brunel(duration: float) -> PipelineConfig:
    return scaled_brunel_config(g=6.0, eta=4.0, duration=duration, topology={})


def _microcircuit(duration: float) -> PipelineConfig:
    return scaled_microcircuit_config(duration=duration)


WORKLOADS = {
    w.name: w for w in (
        PipelineWorkload("brunel_ai", _brunel, 1000.0, 100.0, brunel_checks),
        PipelineWorkload("microcircuit", _microcircuit, 400.0, 200.0,
                         microcircuit_checks),
        StepOverhead("step_overhead", 20_000.0),
        Analyze("analyze_10s", 10_000.0),
    )
}
