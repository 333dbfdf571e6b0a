"""Command-line entry point.

Subcommands: build, adapt, map, simulate, analyze, sweep, bench, wafer report.
Exit codes: 0 success, 2 validation failure, 3 capacity/mapping infeasibility,
4 simulation diagnostic failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import SimulationDiagnosticError, load_spikes_binary
from .hardware import (
    CapacityError,
    InfeasibleFanInError,
    WaferTopology,
    capacity_report,
)
from .mapping import MappingMismatchError, PlacementOverflowError
from .network import WafersimError, ensure_sampled, from_fields, load_spec
from .pipeline import (
    PipelineConfig,
    StageFailure,
    SweepConfig,
    adapt_stage,
    build_stage,
    map_stage,
    phase_sweep,
    run_pipeline,
    scaled_brunel_config,
    simulate_stage,
    write_analysis,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_DIAGNOSTIC = 4


def _load_config(args, **options) -> tuple[PipelineConfig, SweepConfig]:
    """The ``--config`` document: its pipeline config and its ``sweep``
    section.  The seed is the document's ``seed`` if it sets one and
    ``--seed`` otherwise.  ``options`` maps a section to the keys that
    command-line options set in it; an option that is ``None`` is unset."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(doc, dict):
        raise WafersimError(f"config {args.config} is not a JSON object")
    sweep = from_fields(SweepConfig, doc.pop("sweep", {}), "sweep")
    config = from_fields(PipelineConfig,
                         {"model": {}, "seed": args.seed, **doc}, "config")
    for section, keys in options.items():
        setattr(config, section, {**getattr(config, section), **{
            k: v for k, v in keys.items() if v is not None}})
    return config, sweep


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args) -> int:
    config, _ = _load_config(args, model={"name": args.model})
    spec, artifacts = build_stage(config.sections().model, config.seed,
                                  _out_dir(args))
    print(f"wrote {artifacts['spec']} ({spec.n_neurons()} neurons, "
          f"{spec.expected_total_synapses():.0f} expected synapses)")
    return EXIT_OK


def cmd_adapt(args) -> int:
    adaptation = _load_config(args)[0].sections().adaptation
    spec = load_spec(args.spec)
    _, report, artifacts = adapt_stage(spec, adaptation, _out_dir(args))
    print(report.render_text())
    print(f"wrote {artifacts['adapted']}")
    return EXIT_OK


def cmd_map(args) -> int:
    topology = _load_config(args)[0].sections().topology or WaferTopology()
    spec = ensure_sampled(load_spec(args.spec))
    _, result, cached, _ = map_stage(spec, topology, _out_dir(args))
    realized = sum(result.realized.values())
    print(f"mapped: {realized} of {result.total_requested()} synapses "
          f"realized (loss {result.loss_fraction():.4f})"
          + (" [cached mapping]" if cached else ""))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, _ = _load_config(args, simulation={"duration": args.duration,
                                               "dt": args.dt})
    simulation = config.sections().simulation
    spec = ensure_sampled(load_spec(args.spec))
    record, _, _ = simulate_stage(spec, simulation, _out_dir(args))
    print(f"{record.spike_count()} spikes, {record.deliveries} deliveries, "
          f"{record.wall_time:.3f} s wall")
    return EXIT_OK


def cmd_analyze(args) -> int:
    config, _ = _load_config(args, analysis={"window_start": args.window_start})
    analysis = config.sections().analysis
    record = load_spikes_binary(args.spikes)
    summary, _ = write_analysis(record, analysis, _out_dir(args))
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, sweep = _load_config(args)
    config.model = {"name": "brunel", **config.model}
    g_values = [float(v) for v in (args.g.split(",") if args.g else sweep.g)]
    eta_values = [float(v) for v in (
        args.eta.split(",") if args.eta else sweep.eta)]
    grid = phase_sweep(config, g_values, eta_values, parallel=args.threads)
    out = _out_dir(args)
    (out / "sweep.csv").write_text(grid.to_csv())
    print(grid.to_csv(), end="")
    if grid.partial:
        print("warning: some cells failed; grid is partial", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.config:
        config, _ = _load_config(args, simulation={"duration": args.duration})
    else:
        config = scaled_brunel_config(seed=args.seed, duration=(
            2000.0 if args.duration is None else args.duration))
    # run_pipeline checks config.sections() before it makes the directory
    result = run_pipeline(config, args.out_dir)
    print(result.throughput.render_text())
    return EXIT_OK


def cmd_wafer_report(args) -> int:
    topology = _load_config(args)[0].sections().topology or WaferTopology()
    doc = {
        "topology": topology.to_dict(),
        "n_asics": topology.n_asics,
        "total_circuits": topology.total_circuits,
        "max_fan_in": topology.max_fan_in,
        "content_hash": topology.content_hash(),
    }
    if args.spec:
        spec = ensure_sampled(load_spec(args.spec))
        doc["capacity"] = capacity_report(topology, spec).to_dict()
    out = _out_dir(args)
    (out / "wafer_report.json").write_text(json.dumps(doc, indent=2))
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    common.add_argument("--config", default=None,
                        help="JSON config document with per-stage sections")

    parser = argparse.ArgumentParser(prog="wafersim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common],
                       help="build a network model specification")
    p.add_argument("model", nargs="?", choices=["brunel", "microcircuit"])
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("adapt", parents=[common],
                       help="run the hardware adaptation pipeline on a spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("map", parents=[common],
                       help="place and route a spec onto the wafer")
    p.add_argument("spec")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("simulate", parents=[common], help="simulate a spec")
    p.add_argument("spec")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", parents=[common],
                       help="compute statistics over a spike record")
    p.add_argument("spikes", help="binary spike record file")
    p.add_argument("--window-start", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", parents=[common],
                       help="run a (g, eta) phase sweep")
    p.add_argument("--g", default=None, help="comma-separated g values")
    p.add_argument("--eta", default=None, help="comma-separated eta values")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the grid cells")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", parents=[common],
                       help="run the throughput benchmark pipeline")
    p.add_argument("--duration", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("wafer", parents=[common], help="wafer model commands")
    wafer_sub = p.add_subparsers(dest="wafer_command", required=True)
    w = wafer_sub.add_parser("report", parents=[common],
                             help="report wafer aggregates and capacity")
    w.add_argument("--spec", default=None)
    w.set_defaults(func=cmd_wafer_report)

    return parser


def _classify_exit(exc: Exception) -> int:
    if isinstance(exc, StageFailure):
        return _classify_exit(exc.cause)
    if isinstance(exc, SimulationDiagnosticError):
        return EXIT_DIAGNOSTIC
    if isinstance(exc, (CapacityError, InfeasibleFanInError,
                        PlacementOverflowError, MappingMismatchError)):
        return EXIT_CAPACITY
    return EXIT_VALIDATION


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WafersimError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _classify_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
