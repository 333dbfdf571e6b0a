"""End-to-end pipeline: build -> adapt -> map (cached) -> simulate -> analyze,
and the (g, eta) phase sweep, whose cells run the same stages unmapped.

Stage outputs are written to an output directory; the mapping stage is
content-addressed by the structure hash of the adapted network and the
topology hash, so reruns and weight/input-only changes reuse the cached
mapping.  Network translation is required only once per structure.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from .adaptation import AdaptationConfig, AdaptationReport, adapt_pipeline
from .analysis import (
    AnalysisConfig,
    classify_regime,
    cv_isi,
    mean_rates,
    rate_distribution,
    synchrony,
)
from .bench import ThroughputReport, throughput_metrics
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


@contextmanager
def _stage(name: str):
    """Raise what fails in the block as the ``StageFailure`` of ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageFailure(name, exc)


@dataclass
class ModelConfig:
    """The ``model`` section of a pipeline config."""
    name: Optional[str] = None  # "brunel" | "microcircuit"
    params: dict = field(default_factory=dict)  # the fields of its params


_MODEL_PARAMS = {"brunel": BrunelParams, "microcircuit": MicrocircuitParams}


@dataclass
class Sections:
    """The typed sections of a ``PipelineConfig``."""
    model: Union[BrunelParams, MicrocircuitParams, None]  # None: none named
    adaptation: AdaptationConfig
    topology: Optional[WaferTopology]  # None disables mapping
    simulation: SimulationConfig
    analysis: AnalysisConfig


@dataclass
class PipelineConfig:
    model: dict
    adaptation: dict = field(default_factory=dict)
    topology: Optional[dict] = None  # None disables mapping
    simulation: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def sections(self) -> Sections:
        """Every section typed by ``from_fields`` and checked, so that a bad
        one fails before any work; ``seed`` is the default seed of the
        adaptation and simulation sections.  A bad section raises the
        ``StageFailure`` of the stage that reads it."""
        with _stage("build"):
            model = from_fields(ModelConfig, self.model, "model")
            cls = _MODEL_PARAMS.get(model.name)
            if cls is None and (model.name is not None or model.params):
                raise WafersimError(f"unknown model {model.name!r}: name one "
                                    f"of {sorted(_MODEL_PARAMS)}")
            params = cls and from_fields(cls, model.params, "model.params")
            if params:
                params.check()
        with _stage("adapt"):
            adaptation = from_fields(AdaptationConfig, {
                "seed": self.seed, **self.adaptation}, "adaptation")
            adaptation.check()
        with _stage("map"):
            topology = None if self.topology is None else \
                WaferTopology.from_dict(self.topology)
        with _stage("simulate"):
            simulation = from_fields(SimulationConfig, {
                "seed": self.seed, **self.simulation}, "simulation")
            simulation.check()
        with _stage("analyze"):
            analysis = from_fields(AnalysisConfig, self.analysis, "analysis")
            analysis.check()
        return Sections(params, adaptation, topology, simulation, analysis)


def build_model(params: Union[BrunelParams, MicrocircuitParams, None],
                seed: int) -> NetworkSpec:
    """The network of ``Sections.model``."""
    if isinstance(params, BrunelParams):
        return build_brunel(params, seed=seed)
    if isinstance(params, MicrocircuitParams):
        return build_microcircuit(params, seed=seed)
    raise WafersimError("no model given: the model section names none")


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
    return PipelineConfig(
        model={"name": "microcircuit", "params": {}},
        adaptation={
            "neuron_scale": 7712 / 77169,
            "indegree_scale": 0.09,
            "leak_shift_input": True,
        },
        topology={} if topology is None else topology,
        simulation={"duration": duration},
        seed=seed,
    )


def summarize(record: SpikeRecord, analysis: AnalysisConfig) -> dict:
    """The analysis summary of ``record``: the window, the mean rate of each
    population and, with at least 2 recorded neurons and a window of at
    least the 10 bins that ``synchrony`` needs, the mean CV of ISI, the
    synchrony index and the firing regime."""
    start, end = analysis.window_start, analysis.window_end
    if start is None:
        start = min(1000.0, record.duration / 2)
    window = (float(start), float(record.duration if end is None else end))
    rates = mean_rates(record, window)
    summary = {
        "window": list(window),
        "per_population_mean_rate_hz": rates.per_population_mean,
    }
    n_bins = int((window[1] - window[0]) / analysis.synchrony_bin_ms)
    if len(rates.recorded_neurons) >= 2 and n_bins >= 10:
        cv = cv_isi(record, window)
        sync = synchrony(record, window, analysis.synchrony_bin_ms)
        summary["cv_isi_mean"] = cv.mean()
        summary["synchrony"] = sync
        summary["regime"] = classify_regime(rates, cv, sync)
    return summary


def write_analysis(record: SpikeRecord, analysis: AnalysisConfig,
                   out_dir: Path) -> tuple[dict, dict]:
    """The analyze stage: write ``rates.csv``, ``rate_histograms.csv`` and
    ``analysis.json`` (the ``summarize`` summary) for ``record`` into
    ``out_dir``.  Returns the summary and the written artifacts by name."""
    summary = summarize(record, analysis)
    window = tuple(summary["window"])
    lines = ["population,mean_rate_hz"]
    for pid, rate in summary["per_population_mean_rate_hz"].items():
        lines.append(f"{pid},{rate:.6f}")
    (out_dir / "rates.csv").write_text("\n".join(lines) + "\n")
    hist_lines = ["population,bin_lo_hz,bin_hi_hz,count"]
    for pid in record.population_slices:
        try:
            hist = rate_distribution(record, pid, window, bins=analysis.bins)
        except WafersimError:
            continue
        for lo, hi, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
            hist_lines.append(f"{pid},{lo:.4f},{hi:.4f},{c}")
    (out_dir / "rate_histograms.csv").write_text("\n".join(hist_lines) + "\n")
    (out_dir / "analysis.json").write_text(json.dumps(summary, indent=2))
    return summary, {"rates": out_dir / "rates.csv",
                     "histograms": out_dir / "rate_histograms.csv",
                     "analysis": out_dir / "analysis.json"}


def build_stage(params: Union[BrunelParams, MicrocircuitParams, None],
                seed: int, out_dir: Path) -> tuple[NetworkSpec, dict]:
    """The build stage: build the network of ``params`` with ``seed``,
    validate it (raising ``ValidationFailure``) and write it, unsampled, as
    ``spec.json`` into ``out_dir``.  Returns the spec and the written
    artifacts by name."""
    spec = build_model(params, seed)
    report = validate_network(spec)
    if not report.ok:
        raise ValidationFailure("validation failed: "
                                + "; ".join(report.findings))
    return spec, {"spec": save_spec(spec, out_dir / "spec.json")}


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
    spec_hash = mapping_relevant_hash(spec)
    cache_key = f"{spec_hash}_{topology.content_hash()}"
    cache_path = out_dir / f"mapping_{cache_key}.json"
    result = None
    if cache_path.exists():
        try:
            result = load_mapping(cache_path)
        except WafersimError:
            pass  # an entry that does not load is a miss: remap
    cached = result is not None
    if not cached:
        result = map_network(spec, topology, spec_hash)
        save_mapping(result, cache_path)
    artifacts["mapping"] = cache_path
    artifacts["mapping_report"] = out_dir / "mapping_report.json"
    artifacts["mapping_report"].write_text(
        json.dumps(mapping_report(result), indent=2))
    mapped = apply_loss(spec, result, spec_hash)
    artifacts["mapped_spec"] = save_spec(mapped, out_dir / "mapped.json")
    return mapped, result, cached, artifacts


def simulate_stage(spec: NetworkSpec, sim_cfg: SimulationConfig, out_dir: Path
                   ) -> tuple[SpikeRecord, ThroughputReport, dict]:
    """The simulate stage: simulate ``spec`` and write ``spikes.csv``,
    ``spikes.bin``, the run's wall time and events per second as
    ``throughput.json``/``.txt`` and, when the config sets probes,
    ``membrane.csv``.  Returns the spike record, its throughput and the
    written artifacts by name."""
    record = simulate(spec, sim_cfg)
    throughput = throughput_metrics(record)
    artifacts = {
        "spikes_csv": save_spikes_csv(record, out_dir / "spikes.csv"),
        "spikes_bin": save_spikes_binary(record, out_dir / "spikes.bin"),
        "throughput": out_dir / "throughput.json",
    }
    artifacts["throughput"].write_text(
        json.dumps(throughput.to_dict(), indent=2))
    (out_dir / "throughput.txt").write_text(throughput.render_text() + "\n")
    if record.probes:
        artifacts["membrane"] = save_membrane_csv(record, out_dir / "membrane.csv")
    return record, throughput, artifacts


def run_pipeline(config: Union[PipelineConfig, str, Path, dict],
                 out_dir: Union[str, Path]) -> PipelineResult:
    """Execute all stages, writing intermediate files; idempotent reruns
    reuse the cached mapping when structure and topology hashes match."""
    if not isinstance(config, PipelineConfig):
        config = _read_config(config)[0]
    sections = config.sections()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}

    with _stage("build"):
        spec, paths = build_stage(sections.model, config.seed, out_dir)
    artifacts.update(paths)

    with _stage("adapt"):
        run_spec, _, paths = adapt_stage(spec, sections.adaptation, out_dir)
    artifacts.update(paths)

    mapping_cached = False
    if sections.topology is not None:
        # rebinding run_spec drops the adapted spec: only the mapped one
        # is simulated
        with _stage("map"):
            run_spec, _, mapping_cached, paths = map_stage(
                run_spec, sections.topology, out_dir)
        artifacts.update(paths)

    with _stage("simulate"):
        record, throughput, paths = simulate_stage(
            run_spec, sections.simulation, out_dir)
    artifacts.update(paths)

    with _stage("analyze"):
        artifacts.update(write_analysis(record, sections.analysis, out_dir)[1])
    return PipelineResult(out_dir, artifacts, mapping_cached,
                          record=record, throughput=throughput)


# --- phase sweep --------------------------------------------------------------


@dataclass
class SweepConfig:
    """The ``sweep`` section of a config document: the grid's axes."""
    g: list[float] = field(default_factory=lambda: [2, 3, 4, 5, 6, 8])
    eta: list[float] = field(default_factory=lambda: [0.5, 0.9, 1, 2, 4])


def _read_config(doc: Union[str, Path, dict], seed: int = 0
                 ) -> tuple[PipelineConfig, SweepConfig]:
    """The pipeline config and the ``sweep`` section of a config document,
    given as a dict or as the path of a JSON file.  A document that sets no
    ``seed`` gets ``seed``, and one that names no model an empty ``model``."""
    if isinstance(doc, (str, Path)):
        doc = json.loads(Path(doc).read_text())
    if not isinstance(doc, dict):
        raise WafersimError(f"config is a {type(doc).__name__}, not an object")
    doc = {"model": {}, "seed": seed, **doc}
    sweep = from_fields(SweepConfig, doc.pop("sweep", {}), "sweep")
    return from_fields(PipelineConfig, doc, "config"), sweep


@dataclass
class SweepCell:
    g: float
    eta: float
    mean_rate_exc: float
    mean_rate_inh: float
    cv: float
    synchrony: float
    regime: str
    error: Optional[str] = None


@dataclass
class SweepGrid:
    g_values: list[float]
    eta_values: list[float]
    cells: dict[tuple[float, float], SweepCell]
    partial: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["g", "eta", "mean_rate_exc", "mean_rate_inh",
                         "cv", "synchrony", "regime"])
        for g in self.g_values:
            for eta in self.eta_values:
                c = self.cells.get((g, eta))
                if c is None or c.error:
                    writer.writerow([g, eta, "", "", "", "", "failed"])
                else:
                    writer.writerow([
                        c.g, c.eta, f"{c.mean_rate_exc:.4f}",
                        f"{c.mean_rate_inh:.4f}", f"{c.cv:.4f}",
                        f"{c.synchrony:.4f}", c.regime,
                    ])
        return buf.getvalue()


def _sweep_sections(config: PipelineConfig) -> Sections:
    """``config.sections()``, refusing what a sweep cell cannot run:
    another model than brunel, a topology (no cell is mapped) and
    ``analysis.bins`` (no cell writes rate histograms)."""
    name = config.model.get("name")
    if name != "brunel":
        raise WafersimError(f"sweep runs brunel, not {name!r}")
    if config.topology is not None:
        raise WafersimError("sweep refuses a topology: it maps no cell")
    if "bins" in config.analysis:
        raise WafersimError("sweep refuses analysis field 'bins': its cells "
                            "write no rate histograms")
    return config.sections()


def run_sweep_cell(config: PipelineConfig, g: float, eta: float) -> SweepCell:
    """The (g, eta) cell of ``config``: ``run_pipeline``'s build, adapt,
    simulate and ``summarize`` with ``g`` and ``eta`` replaced, writing no
    files.  A summary without a regime raises ``WafersimError``."""
    sections = _sweep_sections(config)
    spec = build_model(replace(sections.model, g=g, eta=eta), config.seed)
    adapted, _ = adapt_pipeline(spec, sections.adaptation)
    summary = summarize(simulate(adapted, sections.simulation),
                        sections.analysis)
    if "regime" not in summary:
        raise WafersimError("no regime: the analysis window spans fewer than "
                            "10 synchrony bins or under 2 neurons are recorded")
    rates = summary["per_population_mean_rate_hz"]
    return SweepCell(g, eta, rates.get("exc", 0.0), rates.get("inh", 0.0),
                     summary["cv_isi_mean"], summary["synchrony"],
                     summary["regime"])


def _sweep_worker(args) -> tuple[tuple[float, float], SweepCell]:
    config, g, eta = args
    try:
        return (g, eta), run_sweep_cell(config, g, eta)
    except Exception as exc:  # per-cell failures mark the grid partial
        return (g, eta), SweepCell(g, eta, 0, 0, float("nan"), float("nan"),
                                   "failed", error=str(exc))


def phase_sweep(config: PipelineConfig, g_values: list[float],
                eta_values: list[float], parallel: int = 1) -> SweepGrid:
    """Sweep the (g, eta) grid of ``config``'s Brunel network; ``config``
    and each cell's params are checked before any cell starts, and cells
    are independent jobs."""
    if not g_values or not eta_values:
        raise WafersimError("g and eta lists must be nonempty")
    model = _sweep_sections(config).model
    jobs = [(config, g, eta) for g in g_values for eta in eta_values]
    for _, g, eta in jobs:
        try:
            replace(model, g=g, eta=eta).check()
        except ValueError as exc:
            raise WafersimError(f"sweep cell g={g}, eta={eta}: {exc}") from None
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = dict(pool.map(_sweep_worker, jobs))
    else:
        results = dict(map(_sweep_worker, jobs))
    partial = any(c.error for c in results.values())
    return SweepGrid(list(g_values), list(eta_values), results, partial=partial)
