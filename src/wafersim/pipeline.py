"""End-to-end pipeline: build -> adapt -> map (cached) -> simulate -> analyze.

Stage outputs are written to an output directory; the mapping stage is
content-addressed by the structure hash of the adapted network and the
topology hash, so reruns and weight/input-only changes reuse the cached
mapping.  Network translation is required only once per structure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from .adaptation import AdaptationConfig, AdaptationReport, adapt_pipeline
from .analysis import (
    RegimeThresholds,
    classify_regime,
    cv_isi,
    mean_rates,
    rate_distribution,
    synchrony,
)
from .bench import throughput_metrics
from .engine import (
    SimulationConfig,
    SpikeRecord,
    save_membrane_csv,
    save_spikes_binary,
    save_spikes_csv,
    simulate,
)
from .hardware import CapacityError, WaferTopology, capacity_report
from .mapping import (
    MappingResult,
    apply_loss,
    load_mapping,
    map_network,
    mapping_report,
    save_mapping,
)
from .models import (
    BrunelParams,
    MicrocircuitParams,
    build_brunel,
    build_microcircuit,
)
from .network import (
    NetworkSpec,
    NeuronParameters,
    WafersimError,
    ensure_sampled,
    from_fields,
    mapping_relevant_hash,
    save_spec,
    validate_network,
)


class ValidationFailure(WafersimError):
    pass


class StageFailure(WafersimError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    model: dict
    adaptation: dict = field(default_factory=dict)
    topology: Optional[dict] = None  # None disables mapping
    simulation: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineConfig":
        return from_fields(cls, json.loads(Path(path).read_text()), "config")

    def to_dict(self) -> dict:
        return asdict(self)


def brunel_params(params: dict) -> BrunelParams:
    """The ``BrunelParams`` of a config's ``model.params``; its ``neuron``
    section becomes ``NeuronParameters``."""
    params = dict(params)
    if "neuron" in params:
        params["neuron"] = from_fields(NeuronParameters, params["neuron"],
                                       "neuron")
    return from_fields(BrunelParams, params, "brunel")


def build_model(model: dict, seed: int) -> NetworkSpec:
    name = model.get("name")
    params = model.get("params", {})
    if name == "brunel":
        return build_brunel(brunel_params(params), seed=seed)
    if name == "microcircuit":
        return build_microcircuit(
            from_fields(MicrocircuitParams, params, "microcircuit"), seed=seed)
    raise WafersimError(f"unknown model '{name}'")


@dataclass
class PipelineResult:
    out_dir: Path
    artifacts: dict
    mapping_cached: bool
    record: object = None
    throughput: object = None


def scaled_brunel_config(g: float = 6.0, eta: float = 4.0, seed: int = 0,
                         duration: float = 2000.0,
                         topology: Optional[dict] = None) -> PipelineConfig:
    """Balanced-random-network benchmark scaled to 2083 neurons with the
    200-sample external pool; expected internal synapse count is near 690k."""
    return PipelineConfig(
        model={"name": "brunel", "params": {"g": g, "eta": eta}},
        adaptation={
            "neuron_scale": 2083 / 12400,
            "indegree_scale": 0.2673,
            "poisson_pool": {"pool_size": 2083, "samples_per_target": 200},
        },
        topology=topology,
        simulation={"duration": duration},
        seed=seed,
    )


def scaled_microcircuit_config(seed: int = 0, duration: float = 10000.0,
                               topology: Optional[dict] = None) -> PipelineConfig:
    """Cortical microcircuit scaled to 7713 neurons; the in-degree scale is
    chosen so the post-mapping synapse count lands near 2.374 million."""
    if topology is None:
        topology = {}
    return PipelineConfig(
        model={"name": "microcircuit", "params": {}},
        adaptation={
            "neuron_scale": 7712 / 77169,
            "indegree_scale": 0.09,
            "leak_shift_input": True,
        },
        topology=topology,
        simulation={"duration": duration},
        seed=seed,
    )


# the keys of an analysis config section, with their types
_ANALYSIS_KEYS = {"window_start": float, "window_end": float, "bins": int,
                  "synchrony_bin_ms": float}


def analysis_settings(analysis_cfg: dict) -> dict:
    """The keys that an ``analysis`` config section sets, with typed values.
    ``window_start`` and ``window_end`` are in ms, ``bins`` counts the bins
    of each rate histogram and ``synchrony_bin_ms`` is the synchrony bin;
    any other key raises ``WafersimError``."""
    unknown = set(analysis_cfg) - _ANALYSIS_KEYS.keys()
    if unknown:
        raise WafersimError(f"unknown analysis fields: {sorted(unknown)}")
    return {k: _ANALYSIS_KEYS[k](v) for k, v in analysis_cfg.items()}


def write_analysis(record: SpikeRecord, analysis_cfg: dict, out_dir: Path,
                   window_start: Optional[float] = None) -> tuple[dict, dict]:
    """The analyze stage: write ``rates.csv``, ``rate_histograms.csv`` and
    ``analysis.json`` for ``record`` into ``out_dir``.

    ``analysis_cfg`` is checked by ``analysis_settings``; a ``window_start``
    argument overrides the config.  CV, synchrony and the regime are added
    to the summary only with at least 2 recorded neurons and a window of at
    least 20 ms.  Returns the summary and the written artifacts by name.
    """
    settings = analysis_settings(analysis_cfg)
    if window_start is None:
        window_start = settings.get("window_start",
                                    min(1000.0, record.duration / 2))
    window = (float(window_start),
              settings.get("window_end", float(record.duration)))
    rates = mean_rates(record, window)
    lines = ["population,mean_rate_hz"]
    for pid, rate in rates.per_population_mean.items():
        lines.append(f"{pid},{rate:.6f}")
    (out_dir / "rates.csv").write_text("\n".join(lines) + "\n")
    hist_lines = ["population,bin_lo_hz,bin_hi_hz,count"]
    bins = settings.get("bins", 20)
    for pid in record.population_slices:
        try:
            hist = rate_distribution(record, pid, window, bins=bins)
        except WafersimError:
            continue
        for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
            hist_lines.append(f"{pid},{lo:.4f},{hi:.4f},{c}")
    (out_dir / "rate_histograms.csv").write_text("\n".join(hist_lines) + "\n")
    summary = {
        "window": list(window),
        "per_population_mean_rate_hz": rates.per_population_mean,
    }
    if len(rates.recorded_neurons) >= 2 and (window[1] - window[0]) >= 20.0:
        cv = cv_isi(record, window)
        sync = synchrony(record, window,
                         settings.get("synchrony_bin_ms", 2.0))
        summary["cv_isi_mean"] = cv.mean()
        summary["synchrony"] = sync
        summary["regime"] = classify_regime(rates, cv, sync, RegimeThresholds())
    (out_dir / "analysis.json").write_text(json.dumps(summary, indent=2))
    return summary, {"rates": out_dir / "rates.csv",
                     "histograms": out_dir / "rate_histograms.csv",
                     "analysis": out_dir / "analysis.json"}


def adapt_stage(spec: NetworkSpec, adapt_cfg: AdaptationConfig, out_dir: Path
                ) -> tuple[NetworkSpec, AdaptationReport, dict]:
    """The adapt stage: adapt and sample ``spec``, then write ``adapted.json``
    and ``adaptation_report.json``/``.txt`` into ``out_dir``.  Returns the
    adapted spec, the report and the written artifacts by name."""
    adapted, report = adapt_pipeline(spec, adapt_cfg)
    ensure_sampled(adapted)
    artifacts = {"adapted": save_spec(adapted, out_dir / "adapted.json"),
                 "adaptation_report": out_dir / "adaptation_report.json"}
    artifacts["adaptation_report"].write_text(
        json.dumps(report.to_dict(), indent=2))
    (out_dir / "adaptation_report.txt").write_text(report.render_text())
    return adapted, report, artifacts


def map_stage(spec: NetworkSpec, topology: WaferTopology, out_dir: Path
              ) -> tuple[NetworkSpec, MappingResult, bool, dict]:
    """The map stage: check capacity, place and route ``spec`` and remove
    the lost synapses.  Writes ``capacity_report.json`` (raising
    ``CapacityError`` if the network does not fit), the cache entry
    ``mapping_<structure hash>_<topology hash>.json`` (reused if it loads,
    remapped and overwritten if not), ``mapping_report.json`` and
    ``mapped.json``.  Returns the mapped spec, the mapping, whether it came
    from the cache, and the written artifacts by name."""
    cap = capacity_report(topology, spec)
    artifacts = {"capacity_report": out_dir / "capacity_report.json"}
    artifacts["capacity_report"].write_text(json.dumps(cap.to_dict(), indent=2))
    if not cap.feasible:
        raise CapacityError(
            "network does not fit the wafer: " + "; ".join(cap.notes))
    cache_key = f"{mapping_relevant_hash(spec)}_{topology.content_hash()}"
    cache_path = out_dir / f"mapping_{cache_key}.json"
    result = None
    if cache_path.exists():
        try:
            result = load_mapping(cache_path)
        except WafersimError:
            pass  # an entry that does not load is a miss: remap
    cached = result is not None
    if not cached:
        result = map_network(spec, topology)
        save_mapping(result, cache_path)
    artifacts["mapping"] = cache_path
    artifacts["mapping_report"] = out_dir / "mapping_report.json"
    artifacts["mapping_report"].write_text(
        json.dumps(mapping_report(result, topology), indent=2))
    mapped = apply_loss(spec, result)
    artifacts["mapped_spec"] = save_spec(mapped, out_dir / "mapped.json")
    return mapped, result, cached, artifacts


def simulate_stage(spec: NetworkSpec, sim_cfg: SimulationConfig, out_dir: Path
                   ) -> tuple[SpikeRecord, dict]:
    """The simulate stage: simulate ``spec`` and write ``spikes.csv``,
    ``spikes.bin`` and, when the config sets probes, ``membrane.csv``.
    Returns the spike record and the written artifacts by name."""
    record = simulate(spec, sim_cfg)
    artifacts = {
        "spikes_csv": save_spikes_csv(record, out_dir / "spikes.csv"),
        "spikes_bin": save_spikes_binary(record, out_dir / "spikes.bin"),
    }
    if record.probes:
        artifacts["membrane"] = save_membrane_csv(record, out_dir / "membrane.csv")
    return record, artifacts


def run_pipeline(config: Union[PipelineConfig, str, Path, dict],
                 out_dir: Union[str, Path]) -> PipelineResult:
    """Execute all stages, writing intermediate files; idempotent reruns
    reuse the cached mapping when structure and topology hashes match."""
    if isinstance(config, (str, Path)):
        config = PipelineConfig.from_file(config)
    elif isinstance(config, dict):
        config = from_fields(PipelineConfig, config, "config")
    analysis_settings(config.analysis)  # a bad key fails before any work
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    try:
        spec = build_model(config.model, config.seed)
    except Exception as exc:
        raise StageFailure("build", exc)
    report = validate_network(spec)
    if not report.ok:
        raise ValidationFailure("; ".join(report.findings))
    artifacts["spec"] = save_spec(spec, out_dir / "spec.json")

    try:
        adapted, _, paths = adapt_stage(spec, AdaptationConfig.from_dict(
            {"seed": config.seed, **config.adaptation}), out_dir)
    except Exception as exc:
        raise StageFailure("adapt", exc)
    artifacts.update(paths)

    mapping_cached = False
    run_spec = adapted
    if config.topology is not None:
        try:
            run_spec, _, mapping_cached, paths = map_stage(
                adapted, WaferTopology.from_dict(config.topology), out_dir)
        except Exception as exc:
            raise StageFailure("map", exc)
        artifacts.update(paths)

    try:
        record, paths = simulate_stage(run_spec, from_fields(
            SimulationConfig, {"seed": config.seed, **config.simulation},
            "simulation"), out_dir)
    except Exception as exc:
        raise StageFailure("simulate", exc)
    artifacts.update(paths)

    try:
        artifacts.update(write_analysis(record, config.analysis, out_dir)[1])
    except Exception as exc:
        raise StageFailure("analyze", exc)

    throughput = throughput_metrics(record)
    (out_dir / "throughput.json").write_text(
        json.dumps(throughput.to_dict(), indent=2))
    (out_dir / "throughput.txt").write_text(throughput.render_text() + "\n")
    artifacts["throughput"] = out_dir / "throughput.json"
    return PipelineResult(out_dir, artifacts, mapping_cached,
                          record=record, throughput=throughput)
