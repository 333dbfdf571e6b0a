"""Parametric model of the wafer substrate's discrete resources.

The wafer is a grid of ASICs; each ASIC carries a fixed number of neuron
circuits, each circuit a fixed synaptic fan-in.  Circuits on one ASIC can be
merged to raise the fan-in of a combined neuron.  Routing resources are
modeled as a per-grid-edge lane count.  Defaults are aggregate-consistent
stand-ins (384 * 512 = 196,608 circuits, 224 * 64 = 14,336 max fan-in); the
per-ASIC splits are modeling choices and fully config-overridable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .network import (
    NetworkSpec,
    WafersimError,
    from_fields,
    in_degree_array,
    json_digest,
)


class InfeasibleFanInError(WafersimError):
    pass


class CapacityError(WafersimError):
    pass


class PlacementOverflowError(WafersimError):
    pass


@dataclass
class WaferTopology:
    rows: int = 16
    cols: int = 24
    available: Optional[np.ndarray] = None  # bool mask (rows, cols); None = all
    circuits_per_asic: int = 512
    fanin_per_circuit: int = 224
    max_merge: int = 64
    route_capacity: int = 320  # lanes per grid edge

    def __post_init__(self):
        if min(self.rows, self.cols, self.circuits_per_asic,
               self.fanin_per_circuit, self.max_merge) <= 0:
            raise WafersimError("topology capacities must be positive")
        if self.route_capacity < 0:
            raise WafersimError("route_capacity must be >= 0")
        if self.available is None:
            self.available = np.ones((self.rows, self.cols), dtype=bool)
        else:
            self.available = np.asarray(self.available, dtype=bool)
            if self.available.shape != (self.rows, self.cols):
                raise WafersimError("availability mask shape mismatch")

    @property
    def n_asics(self) -> int:
        return int(self.available.sum())

    @property
    def total_circuits(self) -> int:
        return self.n_asics * self.circuits_per_asic

    @property
    def max_fan_in(self) -> int:
        return self.fanin_per_circuit * self.max_merge

    def asic_coords(self) -> list[tuple[int, int]]:
        """Available ASICs in row-major order."""
        rr, cc = np.nonzero(self.available)
        return list(zip(rr.tolist(), cc.tolist()))

    def to_dict(self) -> dict:
        return {**asdict(self), "available": self.available.astype(int).tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "WaferTopology":
        doc = dict(doc)
        mask = doc.get("available")
        if mask is not None:
            # booleans, or the 0/1 that to_dict writes; nothing else
            if not isinstance(mask, list) or not all(
                    isinstance(row, list) and all(
                        type(v) in (bool, int) and v in (0, 1) for v in row)
                    for row in mask):
                raise WafersimError(f"topology.available must be rows of "
                                    f"booleans or 0/1, got {mask!r}")
            doc["available"] = np.asarray(mask, dtype=bool)
        return from_fields(cls, doc, "topology")

    def content_hash(self) -> str:
        return json_digest(self.to_dict())


def circuits_needed(fan_in, topology: WaferTopology):
    """Circuits that must be merged to accommodate ``fan_in`` synapses; for
    an array of fan-ins, the count per entry."""
    fan_in = np.asarray(fan_in, dtype=np.int64)
    if np.any(fan_in < 0):
        raise WafersimError("fan_in must be >= 0")
    n = np.maximum(1, -(-fan_in // topology.fanin_per_circuit))
    if np.any(n > topology.max_merge):
        raise InfeasibleFanInError(
            f"fan-in {fan_in.max()} needs {n.max()} circuits > max_merge "
            f"{topology.max_merge}"
        )
    return n


def pack_circuits(circuits: np.ndarray, topology: WaferTopology
                  ) -> Optional[np.ndarray]:
    """Pack one population, which starts on a fresh ASIC: neurons in index
    order fill an ASIC until the next neuron's circuits do not fit, and that
    neuron opens the next ASIC.  Returns the index of the first neuron on
    each ASIC used, or None if a neuron needs more circuits than an ASIC has."""
    ends = np.cumsum(circuits)
    starts = []
    i = 0
    while i < len(ends):
        base = ends[i - 1] if i else 0
        j = int(np.searchsorted(ends, base + topology.circuits_per_asic,
                                side="right"))
        if j == i:
            return None
        starts.append(i)
        i = j
    return np.asarray(starts, dtype=np.int64)


def pack_populations(spec: NetworkSpec, circuits: np.ndarray,
                     topology: WaferTopology) -> tuple[np.ndarray, dict[str, range]]:
    """The placement rule of the capacity check and the mapper: the
    populations in declaration order, each packed by ``pack_circuits`` from
    a fresh ASIC, where neuron i merges ``circuits[i]`` circuits.  Returns
    the ASIC of each neuron and the ASICs of each population, numbered from
    0 in placement order and not bounded by the wafer's ASIC count.  Raises
    ``PlacementOverflowError`` if a neuron needs more circuits than an ASIC
    has."""
    neuron_asic = np.empty(len(circuits), dtype=np.int64)
    pop_asics = {}
    offsets = spec.population_offsets()
    first = 0  # the population's first ASIC
    for pop in spec.populations:
        o = offsets[pop.pid]
        starts = pack_circuits(circuits[o:o + pop.size], topology)
        if starts is None:
            raise PlacementOverflowError(
                f"population {pop.pid} has an unplaceable neuron")
        stop = first + len(starts)
        neuron_asic[o:o + pop.size] = np.repeat(
            np.arange(first, stop), np.diff(starts, append=pop.size))
        pop_asics[pop.pid] = range(first, stop)
        first = stop
    return neuron_asic, pop_asics


@dataclass
class CapacityReport:
    feasible: bool
    n_neurons: int
    required_circuits: int
    required_asics: Optional[int]
    available_circuits: int
    available_asics: int
    max_fan_in_requested: int
    max_fan_in_supported: int
    realizable_synapse_bound: int
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))


def capacity_report(topology: WaferTopology, spec: NetworkSpec) -> CapacityReport:
    """Feasibility summary: circuits and ASICs required vs available.

    Accounts for circuit merging per neuron fan-in and for per-population
    packing fragmentation (``pack_populations``, as the mapper places), so
    ``feasible`` guarantees the mapper can place all neurons.  Does not
    route.
    """
    notes = []
    degrees = in_degree_array(spec)
    max_fan_in = int(degrees.max()) if len(degrees) else 0
    feasible = True
    if max_fan_in > topology.max_fan_in:
        feasible = False
        notes.append(
            f"max fan-in {max_fan_in} exceeds supported {topology.max_fan_in}"
        )
        required_circuits = 0
        required_asics = None
    else:
        per_neuron = circuits_needed(degrees, topology)
        required_circuits = int(per_neuron.sum())
        try:
            _, pop_asics = pack_populations(spec, per_neuron, topology)
            required_asics = sum(map(len, pop_asics.values()))
        except PlacementOverflowError as exc:
            feasible = False
            notes.append(str(exc))
            required_asics = None
        if required_asics is not None and required_asics > topology.n_asics:
            feasible = False
            notes.append(
                f"requires {required_asics} ASICs, only {topology.n_asics} available"
            )
    realizable_bound = min(
        int(degrees.sum()),
        topology.total_circuits * topology.fanin_per_circuit,
    )
    return CapacityReport(
        feasible=feasible,
        n_neurons=spec.n_neurons(),
        required_circuits=required_circuits,
        required_asics=required_asics,
        available_circuits=topology.total_circuits,
        available_asics=topology.n_asics,
        max_fan_in_requested=max_fan_in,
        max_fan_in_supported=topology.max_fan_in,
        realizable_synapse_bound=realizable_bound,
        notes=notes,
    )
