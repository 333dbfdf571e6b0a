"""Desk-scale software reproduction of a wafer-scale neuromorphic pipeline:
network description, hardware adaptation, placement and routing, clock-driven
LIF simulation, spike statistics, and throughput benchmarking."""

from .adaptation import AdaptationConfig, AdaptationReport, adapt_pipeline
from .analysis import (
    AnalysisConfig,
    RegimeThresholds,
    classify_regime,
    cv_isi,
    mean_rates,
    rate_distribution,
    synchrony,
)
from .bench import ReferenceTable, ThroughputReport, reference_table, throughput_metrics
from .engine import (
    SimulationConfig,
    SpikeRecord,
    biological_speedup,
    poisson_source,
    readout_subset,
    simulate,
)
from .hardware import WaferTopology, capacity_report, circuits_needed
from .mapping import MappingResult, apply_loss, map_network, mapping_report
from .models import (
    BrunelParams,
    MicrocircuitParams,
    build_brunel,
    build_microcircuit,
    nu_thres,
)
from .network import (
    EdgeList,
    NetworkSpec,
    NeuronParameters,
    Population,
    Projection,
    StimulusSpec,
    WafersimError,
    load_spec,
    sample_connectivity,
    save_spec,
    validate_network,
)
from .pipeline import (
    PipelineConfig,
    phase_sweep,
    run_pipeline,
    scaled_brunel_config,
    scaled_microcircuit_config,
)

__version__ = "0.1.0"
