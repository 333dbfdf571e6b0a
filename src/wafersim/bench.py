"""Throughput metrics and the embedded performance/energy reference table.

Energy is never measured here; the reference energy values are carried as
static comparison data (the wafer system's figure assumes worst-case 2 kW
power for the entire system).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .engine import SpikeRecord, biological_speedup
from .network import WafersimError


@dataclass(frozen=True)
class ReferenceRow:
    system: str
    performance_e9_events_per_s: float
    energy_uj_per_event: float
    energy_is_upper_bound: bool = False
    estimated: bool = False


@dataclass(frozen=True)
class ReferenceTable:
    rows: tuple[ReferenceRow, ...]

    def render_text(self) -> str:
        lines = [
            "Simulator             Performance (1e9 synaptic event/s)  Energy (uJ/synaptic event)",
        ]
        for r in self.rows:
            name = r.system + ("*" if r.estimated else "")
            energy = ("<" if r.energy_is_upper_bound else "") + f"{r.energy_uj_per_event:g}"
            lines.append(f"{name:<21} {r.performance_e9_events_per_s:<35g} {energy}")
        lines.append("* estimated from the reported speedup factor")
        return "\n".join(lines)


_REFERENCE_ROWS = (
    ReferenceRow("BrainScaleS-1", 162.0, 0.012, energy_is_upper_bound=True),
    ReferenceRow("NeuroAIx-Framework", 19.0, 0.048, estimated=True),
    ReferenceRow("CsNN", 3.8, 0.783, estimated=True),
    ReferenceRow("NEST", 1.8, 0.48, estimated=True),
    ReferenceRow("SpiNNaker", 0.9, 0.6),
)


def reference_table() -> ReferenceTable:
    """The five embedded comparison rows, verbatim."""
    return ReferenceTable(_REFERENCE_ROWS)


@dataclass
class ThroughputReport:
    events_per_second: float
    speedup: float
    wall_time: float  # s
    deliveries: int
    bio_duration_ms: float
    reference: ReferenceTable = field(default_factory=reference_table)

    def render_text(self) -> str:
        lines = [
            "throughput report",
            "=" * 17,
            f"synaptic deliveries : {self.deliveries}",
            f"wall time           : {self.wall_time:.3f} s",
            f"events per second   : {self.events_per_second:.3e}",
            f"biological time     : {self.bio_duration_ms:.1f} ms",
            f"biological speedup  : {self.speedup:.3e}",
            "",
            self.reference.render_text(),
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {**asdict(self),
                "reference": [asdict(r) for r in self.reference.rows]}


def throughput_metrics(record: SpikeRecord) -> ThroughputReport:
    """Synaptic events per wall-clock second plus the reference comparison."""
    if record.wall_time <= 0:
        raise WafersimError("record has zero wall time")
    return ThroughputReport(
        events_per_second=record.deliveries / record.wall_time,
        speedup=biological_speedup(record.duration, record.wall_time),
        wall_time=record.wall_time,
        deliveries=record.deliveries,
        bio_duration_ms=record.duration,
    )
