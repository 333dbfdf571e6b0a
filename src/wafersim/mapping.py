"""Compiler stage: place combined neurons onto ASICs and route projections
under per-grid-edge lane capacities, accounting synapse loss.

Routing granularity is a shared route per (source ASIC, target ASIC) pair;
every pair follows a fixed X-then-Y Manhattan path and pairs are admitted in
a fixed priority order: a pair is realized iff on every grid edge of its path
fewer than ``route_capacity`` pairs of equal or higher priority use that edge.
This admission rule is provably monotone in route_capacity (greedy shortest
path search with lane filtering is not, which breaks the loss-monotonicity
contract).  Loss is all-or-nothing per (source ASIC, target ASIC, projection)
group.  Paths may pass over ASICs that are masked out for placement; only
placement is restricted by the availability mask.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .hardware import (
    PlacementOverflowError,
    WaferTopology,
    circuits_needed,
    pack_populations,
)
from .network import (
    NetworkSpec,
    WafersimError,
    copy_spec,
    ensure_sampled,
    in_degree_array,
    mapping_relevant_hash,
)


class MappingMismatchError(WafersimError):
    pass


@dataclass
class Placement:
    neuron_asic: np.ndarray  # global neuron index -> ASIC index (asic_coords order)
    neuron_circuits: np.ndarray  # circuits merged per neuron
    asic_used: np.ndarray  # used circuits per ASIC
    population_asics: dict[str, list[int]]  # cluster extents per population

    def n_neurons(self) -> int:
        return len(self.neuron_asic)


@dataclass
class MappingResult:
    placement: Placement
    requested: dict[str, int]  # projection id -> requested synapse count
    realized: dict[str, int]
    lost: dict[str, int]
    admitted_pairs: set  # (src ASIC, tgt ASIC) pairs with a routed lane path
    lost_pairs: set
    lane_utilization: dict  # grid edge ((r,c),(r,c)) -> lanes used
    spec_hash: str
    topology_hash: str

    def total_requested(self) -> int:
        return sum(self.requested.values())

    def total_lost(self) -> int:
        return sum(self.lost.values())

    def loss_fraction(self) -> float:
        req = self.total_requested()
        return self.total_lost() / req if req else 0.0


def place(spec: NetworkSpec, topology: WaferTopology) -> Placement:
    """Greedy contiguous placement by ``pack_populations``: populations in
    declaration order, each from a fresh ASIC; each neuron merges
    circuits_needed(fan-in) circuits on its home ASIC."""
    ensure_sampled(spec)
    degrees = in_degree_array(spec)
    # packed with fan-ins capped at max_fan_in, so that a network that does
    # not fit raises PlacementOverflowError even if a fan-in is also too large
    circuits = circuits_needed(np.minimum(degrees, topology.max_fan_in), topology)
    neuron_asic, pop_asics = pack_populations(spec, circuits, topology)
    for pid, asics in pop_asics.items():
        if asics.stop > topology.n_asics:
            raise PlacementOverflowError(
                f"ran out of ASICs placing population {pid}")
    asic_used = np.zeros(topology.n_asics, dtype=np.int64)
    np.add.at(asic_used, neuron_asic, circuits)
    circuits_needed(degrees, topology)  # InfeasibleFanInError past max_fan_in
    return Placement(neuron_asic, circuits, asic_used,
                     {pid: list(asics) for pid, asics in pop_asics.items()})


def _manhattan_path(a: tuple[int, int], b: tuple[int, int]
                    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Grid edges of the X-then-Y (column-first) path from a to b."""
    (r0, c0), (r1, c1) = a, b
    edges = []
    step = 1 if c1 > c0 else -1
    for c in range(c0, c1, step):
        edges.append(_norm_edge((r0, c), (r0, c + step)))
    step = 1 if r1 > r0 else -1
    for r in range(r0, r1, step):
        edges.append(_norm_edge((r, c1), (r + step, c1)))
    return edges


def _norm_edge(u, v):
    return (u, v) if u <= v else (v, u)


def _asic_pairs(placement: Placement, offsets: dict[str, int], pr, e
                ) -> np.ndarray:
    """The (source ASIC, target ASIC) pair of each edge ``e`` of projection
    ``pr``, as the key ``source * n_asics + target``."""
    sa = placement.neuron_asic[offsets[pr.source] + e.src]
    ta = placement.neuron_asic[offsets[pr.target] + e.tgt]
    return sa * len(placement.asic_used) + ta


def route(spec: NetworkSpec, placement: Placement, topology: WaferTopology,
          spec_hash: Optional[str] = None) -> MappingResult:
    """Allocate shared (source ASIC -> target ASIC) routes and account loss.
    ``spec_hash`` is ``mapping_relevant_hash(spec)`` if the caller has it."""
    ensure_sampled(spec)
    offsets = spec.population_offsets()
    coords = topology.asic_coords()
    n_asics = len(placement.asic_used)
    # demand per projection: its (src asic, tgt asic) keys and synapse counts
    requested, demand = {}, {}
    for pr in spec.projections:
        e = spec.edges[pr.pid]
        requested[pr.pid] = len(e)
        demand[pr.pid] = np.unique(_asic_pairs(placement, offsets, pr, e),
                                   return_counts=True)
    # routed[key]: the pair's synapses are realized (intra-ASIC: always)
    keys = np.unique(np.concatenate(
        [np.empty(0, np.int64)] + [k for k, _ in demand.values()]))
    routed = np.eye(n_asics, dtype=bool).ravel()
    edge_seen, utilization = {}, {}
    admitted, lost_pairs = set(), set()
    for key in keys[keys // n_asics != keys % n_asics].tolist():
        pair = divmod(key, n_asics)
        path = _manhattan_path(coords[pair[0]], coords[pair[1]])
        ok = all(edge_seen.get(ge, 0) < topology.route_capacity for ge in path)
        for ge in path:
            edge_seen[ge] = edge_seen.get(ge, 0) + 1
        if ok:
            admitted.add(pair)
            routed[key] = True
            for ge in path:
                utilization[ge] = utilization.get(ge, 0) + 1
        else:
            lost_pairs.add(pair)
    realized = {pid: int(c[routed[k]].sum()) for pid, (k, c) in demand.items()}
    lost = {pid: int(c[~routed[k]].sum()) for pid, (k, c) in demand.items()}
    return MappingResult(
        placement=placement,
        requested=requested,
        realized=realized,
        lost=lost,
        admitted_pairs=admitted,
        lost_pairs=lost_pairs,
        lane_utilization=utilization,
        spec_hash=spec_hash or mapping_relevant_hash(spec),
        topology_hash=topology.content_hash(),
    )


def map_network(spec: NetworkSpec, topology: WaferTopology,
                spec_hash: Optional[str] = None) -> MappingResult:
    """place + route in one call."""
    return route(spec, place(spec, topology), topology, spec_hash)


def apply_loss(spec: NetworkSpec, result: MappingResult,
               spec_hash: Optional[str] = None) -> NetworkSpec:
    """Remove the lost edges; the returned spec is what the simulator runs.
    A ``result`` mapped for a spec of another ``mapping_relevant_hash``
    raises ``MappingMismatchError``; ``spec_hash`` is that hash of ``spec``
    if the caller has it.  The edge lists that lose no edge share their
    arrays with ``spec``'s."""
    if result.spec_hash != (spec_hash or mapping_relevant_hash(spec)):
        raise MappingMismatchError("mapping result was computed for a different spec")
    out = copy_spec(spec)
    if not result.lost_pairs:
        return out
    offsets = out.population_offsets()
    n_asics = len(result.placement.asic_used)
    lost = np.zeros(n_asics * n_asics, dtype=bool)  # by _asic_pairs key
    lost[[a * n_asics + b for a, b in result.lost_pairs]] = True
    for pr in out.projections:
        e = out.edges[pr.pid]
        if not len(e) or result.lost[pr.pid] == 0:
            continue
        keep = ~lost[_asic_pairs(result.placement, offsets, pr, e)]
        out.edges[pr.pid] = type(e)(
            e.src[keep], e.tgt[keep], e.weight[keep], e.delay[keep])
    return out


def mapping_report(result: MappingResult) -> dict:
    """Machine-readable report: per-ASIC neuron counts (shading data), cluster
    extents per population, lane utilization per grid edge, per-projection
    loss fractions.  No image rendering."""
    neuron_counts = np.bincount(result.placement.neuron_asic,
                                minlength=len(result.placement.asic_used))
    per_projection = {}
    for pid in result.requested:
        req = result.requested[pid]
        per_projection[pid] = {
            "requested": req,
            "realized": result.realized[pid],
            "lost": result.lost[pid],
            "loss_fraction": result.lost[pid] / req if req else 0.0,
        }
    return {
        "per_asic_neuron_counts": neuron_counts.tolist(),
        "per_asic_used_circuits": result.placement.asic_used.tolist(),
        "population_clusters": {
            pid: asics for pid, asics in result.placement.population_asics.items()
        },
        "lane_utilization": [
            {"from": list(u), "to": list(v), "lanes": n}
            for (u, v), n in sorted(result.lane_utilization.items())
        ],
        "per_projection": per_projection,
        "total_requested": result.total_requested(),
        "total_realized": sum(result.realized.values()),
        "total_lost": result.total_lost(),
        "loss_fraction": result.loss_fraction(),
        "spec_hash": result.spec_hash,
        "topology_hash": result.topology_hash,
    }


# --- serialization ------------------------------------------------------------


def save_mapping(result: MappingResult, path: Union[str, Path]) -> Path:
    path = Path(path)
    doc = {
        "placement": {
            "neuron_asic": result.placement.neuron_asic.tolist(),
            "neuron_circuits": result.placement.neuron_circuits.tolist(),
            "asic_used": result.placement.asic_used.tolist(),
            "population_asics": result.placement.population_asics,
        },
        "requested": result.requested,
        "realized": result.realized,
        "lost": result.lost,
        "admitted_pairs": sorted(map(list, result.admitted_pairs)),
        "lost_pairs": sorted(map(list, result.lost_pairs)),
        "lane_utilization": [
            [list(u), list(v), n] for (u, v), n in sorted(result.lane_utilization.items())
        ],
        "spec_hash": result.spec_hash,
        "topology_hash": result.topology_hash,
    }
    # write a temp file beside the target and rename it over the target, so
    # that a crash mid-write never leaves a truncated mapping under its name
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_mapping(path: Union[str, Path]) -> MappingResult:
    """Read a mapping written by ``save_mapping``; a file that is not valid
    JSON or lacks a field raises ``WafersimError`` (a missing or unreadable
    file raises ``OSError``).  Keys it does not read, such as the ``seed``
    that older entries hold, are ignored."""
    try:
        doc = json.loads(Path(path).read_text())
        pl = doc["placement"]
        placement = Placement(
            neuron_asic=np.asarray(pl["neuron_asic"], dtype=np.int64),
            neuron_circuits=np.asarray(pl["neuron_circuits"], dtype=np.int64),
            asic_used=np.asarray(pl["asic_used"], dtype=np.int64),
            population_asics=pl["population_asics"],
        )
        return MappingResult(
            placement=placement,
            requested=doc["requested"],
            realized=doc["realized"],
            lost=doc["lost"],
            admitted_pairs={tuple(p) for p in doc["admitted_pairs"]},
            lost_pairs={tuple(p) for p in doc["lost_pairs"]},
            lane_utilization={
                (tuple(u), tuple(v)): n for u, v, n in doc["lane_utilization"]
            },
            spec_hash=doc["spec_hash"],
            topology_hash=doc["topology_hash"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise WafersimError(f"corrupt mapping file {path}: {exc!r}") from None
