"""Compiler stage: place combined neurons onto ASICs and route projections
under per-grid-edge lane capacities, accounting synapse loss.

Routing granularity is a shared route per (source ASIC, target ASIC) pair,
keyed ``source * n_asics + target``, along a fixed X-then-Y Manhattan path.
The grid edge from (r, c) to (r, c+1) has the id ``2*(r*cols + c)``, the
one to (r+1, c) that id plus 1.  A pair's rank on an edge is the number of
pairs of smaller key whose path uses it, and a pair is realized iff every
rank on its path is below ``route_capacity``, so a rejected pair still
counts against its path.  Ranks do not depend on capacity, so loss is
monotone in it (greedy shortest path search with lane filtering is not).
Loss is all-or-nothing per (source ASIC, target ASIC, projection) group.
Paths may pass over ASICs that are masked out for placement; only placement
is restricted by the availability mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    _atomic_write,
    copy_spec,
    ensure_sampled,
    in_degree_array,
    _typed,
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


@dataclass
class MappingResult:
    placement: Placement
    requested: dict[str, int]  # projection id -> requested synapse count
    realized: dict[str, int]
    lost: dict[str, int]
    admitted_pairs: np.ndarray  # sorted keys of the routed inter-ASIC pairs
    lost_pairs: np.ndarray  # sorted keys of the rejected ones
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
    n_asics, cols = len(placement.asic_used), topology.cols
    # demand per projection: its (src asic, tgt asic) keys and synapse counts
    requested, demand = {}, {}
    for pr in spec.projections:
        e = spec.edges[pr.pid]
        requested[pr.pid] = len(e)
        demand[pr.pid] = np.unique(_asic_pairs(placement, offsets, pr, e),
                                   return_counts=True)
    keys = np.unique(np.concatenate(
        [np.empty(0, np.int64)] + [k for k, _ in demand.values()]))
    keys = keys[keys // n_asics != keys % n_asics]  # inter-ASIC, key order
    # (pair index, edge id) of each grid edge on the paths: all row runs
    # (even ids) in pair order, then all column runs (odd ids), so that each
    # edge lists its pairs in key order
    rc = np.array(topology.asic_coords(), dtype=np.int64).reshape(-1, 2)
    (r0, c0), (r1, c1) = rc[keys // n_asics].T, rc[keys % n_asics].T
    start = np.concatenate([2 * (r0 * cols + np.minimum(c0, c1)),
                            2 * (np.minimum(r0, r1) * cols + c1) + 1])
    length = np.concatenate([np.abs(c1 - c0), np.abs(r1 - r0)])
    run = np.repeat(np.arange(2 * len(keys)), length)
    step = np.arange(len(run)) - np.repeat(np.cumsum(length) - length, length)
    edge = start[run] + np.where(run < len(keys), 2, 2 * cols) * step
    pair = np.tile(np.arange(len(keys)), 2)[run]
    # a pair's rank on an edge: the earlier pairs on it (the sort is stable)
    order = np.argsort(edge, kind="stable")
    by_edge = edge[order]
    rank = np.arange(len(order)) - np.searchsorted(by_edge, by_edge)
    admitted = np.ones(len(keys), dtype=bool)
    admitted[pair[order[rank >= topology.route_capacity]]] = False
    # routed[key]: the pair's synapses are realized (intra-ASIC: always)
    routed = np.eye(n_asics, dtype=bool).ravel()
    routed[keys[admitted]] = True
    lanes = np.bincount(edge[admitted[pair]],
                        minlength=2 * topology.rows * cols)
    used = np.flatnonzero(lanes)  # edge id 2*(r*cols + c) + down
    row, col = np.divmod(used // 2, cols)
    realized = {pid: int(c[routed[k]].sum()) for pid, (k, c) in demand.items()}
    lost = {pid: int(c[~routed[k]].sum()) for pid, (k, c) in demand.items()}
    return MappingResult(
        placement=placement,
        requested=requested,
        realized=realized,
        lost=lost,
        admitted_pairs=keys[admitted],
        lost_pairs=keys[~admitted],
        lane_utilization={((r, c), (r + d, c + 1 - d)): n for r, c, d, n in zip(
            row.tolist(), col.tolist(), (used % 2).tolist(),
            lanes[used].tolist())},
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
    if not len(result.lost_pairs):
        return out
    offsets = out.population_offsets()
    n_asics = len(result.placement.asic_used)
    lost = np.zeros(n_asics * n_asics, dtype=bool)  # by _asic_pairs key
    lost[result.lost_pairs] = True
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


# the annotation of each field of a mapping file and of its placement
_FIELDS = {
    "requested": dict[str, int], "realized": dict[str, int],
    "lost": dict[str, int], "admitted_pairs": list[tuple[int, int]],
    "lost_pairs": list[tuple[int, int]],
    "lane_utilization": list[tuple[tuple[int, int], tuple[int, int], int]],
    "spec_hash": str, "topology_hash": str,
}
_PLACEMENT_FIELDS = {
    "neuron_asic": list[int], "neuron_circuits": list[int],
    "asic_used": list[int], "population_asics": dict[str, list[int]],
}


def _asics(values, n_asics: int, what: str) -> np.ndarray:
    """``values`` as an int64 array; an entry outside ``[0, n_asics)``
    raises ``WafersimError``."""
    a = np.array(values, np.int64)
    if a.size and not 0 <= a.min() <= a.max() < n_asics:
        raise WafersimError(f"{what} holds an ASIC index outside "
                            f"[0, {n_asics})")
    return a


def _pair_keys(pairs, n_asics: int, what: str) -> np.ndarray:
    """The sorted keys of ``[source ASIC, target ASIC]`` pairs."""
    a, b = _asics(pairs, n_asics, what).reshape(-1, 2).T
    return np.sort(a * n_asics + b)


def save_mapping(result: MappingResult, path: Union[str, Path]) -> Path:
    n = len(result.placement.asic_used)
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
        # a pair key as its [source ASIC, target ASIC] list
        "admitted_pairs": [divmod(k, n) for k in result.admitted_pairs.tolist()],
        "lost_pairs": [divmod(k, n) for k in result.lost_pairs.tolist()],
        "lane_utilization": [
            [list(u), list(v), n] for (u, v), n in sorted(result.lane_utilization.items())
        ],
        "spec_hash": result.spec_hash,
        "topology_hash": result.topology_hash,
    }
    return _atomic_write(path, [json.dumps(doc, sort_keys=True)])


def load_mapping(path: Union[str, Path]) -> MappingResult:
    """Read a mapping written by ``save_mapping``.  A file that is not valid
    JSON, lacks a field, holds a value of the wrong type or an ASIC index
    outside the wafer raises ``WafersimError`` (a missing or unreadable file
    raises ``OSError``).  Keys it does not read, such as the ``seed`` that
    older entries hold, are ignored."""
    what = f"corrupt mapping file {path}:"
    try:
        doc = json.loads(Path(path).read_text())
        pl = {k: _typed(tp, doc["placement"][k], f"{what} placement.{k}")
              for k, tp in _PLACEMENT_FIELDS.items()}
        f = {k: _typed(tp, doc[k], f"{what} {k}") for k, tp in _FIELDS.items()}
        n_asics = len(pl["asic_used"])
        return MappingResult(
            placement=Placement(
                neuron_asic=_asics(pl["neuron_asic"], n_asics,
                                   f"{what} placement.neuron_asic"),
                neuron_circuits=np.array(pl["neuron_circuits"], np.int64),
                asic_used=np.array(pl["asic_used"], np.int64),
                population_asics=pl["population_asics"]),
            admitted_pairs=_pair_keys(f.pop("admitted_pairs"), n_asics,
                                      f"{what} admitted_pairs"),
            lost_pairs=_pair_keys(f.pop("lost_pairs"), n_asics,
                                  f"{what} lost_pairs"),
            lane_utilization={(u, v): n
                              for u, v, n in f.pop("lane_utilization")},
            **f)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise WafersimError(f"{what} {exc!r}") from None
