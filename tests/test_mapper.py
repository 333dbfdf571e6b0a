import hashlib
import json

import numpy as np
import pytest

from oracles import next_fit_placement, sequential_route, spec_content_hash
from wafersim.adaptation import adapt_pipeline
from wafersim.hardware import WaferTopology
from wafersim.mapping import (
    MappingMismatchError,
    PlacementOverflowError,
    apply_loss,
    load_mapping,
    map_network,
    mapping_report,
    place,
    route,
    save_mapping,
)
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import (
    FixedProbability,
    NetworkSpec,
    NeuronParameters,
    Population,
    Projection,
    Sign,
    SynapseKind,
    WafersimError,
    ensure_sampled,
    in_degree_array,
)
from wafersim.pipeline import (
    build_model,
    scaled_brunel_config,
    scaled_microcircuit_config,
)
from wafersim.rngtools import stream


def random_spec(rng):
    n_pops = int(rng.integers(1, 4))
    pops, projs = [], []
    for i in range(n_pops):
        pops.append(Population(
            f"p{i}", int(rng.integers(5, 60)), NeuronParameters(),
            Sign.EXCITATORY if rng.random() < 0.7 else Sign.INHIBITORY))
    for i in range(n_pops):
        for j in range(n_pops):
            if rng.random() < 0.7:
                projs.append(Projection(
                    f"p{i}->p{j}", f"p{i}", f"p{j}",
                    FixedProbability(float(rng.uniform(0.05, 0.6))),
                    0.05, 1.5, SynapseKind.CURRENT_EXP))
    spec = NetworkSpec(populations=pops, projections=projs, stimuli=[],
                       seed=int(rng.integers(0, 2**31)))
    return ensure_sampled(spec)


def small_topology(rng=None, capacity=None):
    if rng is None:
        return WaferTopology(rows=3, cols=3, circuits_per_asic=16,
                             fanin_per_circuit=8, max_merge=8,
                             route_capacity=capacity or 4)
    return WaferTopology(
        rows=int(rng.integers(2, 5)), cols=int(rng.integers(2, 5)),
        circuits_per_asic=int(rng.integers(8, 40)),
        fanin_per_circuit=int(rng.integers(8, 64)), max_merge=8,
        route_capacity=capacity if capacity is not None
        else int(rng.integers(0, 8)))


class TestPlacement:
    def test_contiguous_clusters(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=500), seed=2))
        topo = WaferTopology()
        placement = place(spec, topo)
        offsets = spec.population_offsets()
        for pop in spec.populations:
            o = offsets[pop.pid]
            asics = placement.neuron_asic[o:o + pop.size]
            assert np.all(np.diff(asics) >= 0)  # index order, no interleaving
        exc = set(placement.population_asics["exc"])
        inh = set(placement.population_asics["inh"])
        assert not exc & inh  # fresh ASIC per population

    def test_capacity_respected(self):
        rng = stream("test", "placement", 0)
        for _ in range(10):
            spec = random_spec(rng)
            topo = small_topology(rng)
            try:
                placement = place(spec, topo)
            except PlacementOverflowError:
                continue
            assert np.all(placement.asic_used <= topo.circuits_per_asic)

    def test_matches_next_fit_oracle(self):
        rng = stream("test", "next_fit", 0)
        checked = 0
        while checked < 30:
            spec = random_spec(rng)
            topo = small_topology(rng)
            try:
                placement = place(spec, topo)
            except PlacementOverflowError:
                continue
            circuits, asic, used, per_population = next_fit_placement(
                in_degree_array(spec).tolist(),
                [p.size for p in spec.populations],
                topo.fanin_per_circuit, topo.circuits_per_asic)
            assert placement.neuron_circuits.tolist() == circuits
            assert placement.neuron_asic.tolist() == asic
            assert placement.asic_used.tolist() == \
                used + [0] * (topo.n_asics - len(used))
            assert list(placement.population_asics.values()) == per_population
            checked += 1

    def test_overflow_errors(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=500), seed=2))
        with pytest.raises(PlacementOverflowError):
            place(spec, WaferTopology(rows=1, cols=1))


class TestRouting:
    def test_conservation_exact(self):
        rng = stream("test", "conservation", 0)
        for _ in range(50):
            spec = random_spec(rng)
            topo = small_topology(rng)
            try:
                result = map_network(spec, topo)
            except PlacementOverflowError:
                continue
            for pid in result.requested:
                assert result.realized[pid] + result.lost[pid] == \
                    result.requested[pid]
            assert result.total_requested() == spec.total_synapses()

    def test_counts_follow_routed_pairs_edge_by_edge(self):
        rng = stream("test", "edge_by_edge", 0)
        checked = 0
        while checked < 20:
            spec, topo = random_spec(rng), small_topology(rng)
            try:
                result = map_network(spec, topo)
            except PlacementOverflowError:
                continue
            asic = result.placement.neuron_asic
            n_asics = len(result.placement.asic_used)
            offsets = spec.population_offsets()
            for pr in spec.projections:
                e = spec.edges[pr.pid]
                a = asic[offsets[pr.source] + e.src]
                b = asic[offsets[pr.target] + e.tgt]
                keys = a * n_asics + b
                assert result.realized[pr.pid] == np.sum(
                    (a == b) | np.isin(keys, result.admitted_pairs))
                assert result.lost[pr.pid] == np.sum(
                    np.isin(keys, result.lost_pairs))
            assert not np.intersect1d(result.admitted_pairs,
                                      result.lost_pairs).size
            checked += 1

    def test_loss_monotone_in_capacity(self):
        rng = stream("test", "monotone", 0)
        checked = 0
        while checked < 50:
            spec = random_spec(rng)
            topo_rng_state = rng
            topo = small_topology(topo_rng_state, capacity=0)
            losses = []
            try:
                for cap in (0, 1, 2, 4, 8, 16):
                    t = WaferTopology(**{**topo.to_dict(),
                                         "route_capacity": cap,
                                         "available": None})
                    losses.append(map_network(spec, t).total_lost())
            except PlacementOverflowError:
                continue
            assert losses == sorted(losses, reverse=True)
            checked += 1

    def test_lost_pairs_shrink_with_capacity(self):
        rng = stream("test", "lost_subset", 0)
        checked = shrunk = 0
        while checked < 30:
            spec, topo = random_spec(rng), small_topology(rng, capacity=0)
            try:
                placement = place(spec, topo)
            except PlacementOverflowError:
                continue
            lost = [route(spec, placement, WaferTopology(**{
                **topo.to_dict(), "route_capacity": cap})).lost_pairs
                for cap in (0, 1, 2, 4, 8, 16)]
            for small, large in zip(lost, lost[1:]):
                assert np.isin(large, small).all()
                shrunk += len(large) < len(small)
            checked += 1
        assert shrunk >= 10

    def test_matches_sequential_oracle(self):
        rng = stream("test", "sequential_route", 0)
        checked = masked = 0
        while checked < 40:
            spec, topo = random_spec(rng), small_topology(rng)
            if rng.random() < 0.5:
                topo = WaferTopology(**{
                    **topo.to_dict(),
                    "available": rng.random((topo.rows, topo.cols)) < 0.7})
            try:
                placement = place(spec, topo)
            except PlacementOverflowError:
                continue
            result = route(spec, placement, topo)
            admitted, lost, lanes = sequential_route(
                spec, placement.neuron_asic, topo.asic_coords(),
                topo.route_capacity)
            n = topo.n_asics
            for keys, pairs in ((result.admitted_pairs, admitted),
                                (result.lost_pairs, lost)):
                assert keys.dtype == np.int64
                assert keys.tolist() == sorted(a * n + b for a, b in pairs)
            assert result.lane_utilization == lanes
            masked += not topo.available.all()
            checked += 1
        assert masked >= 10

    def test_single_asic_zero_loss(self):
        spec = random_spec(stream("test", "single", 1))
        topo = WaferTopology(rows=1, cols=1, circuits_per_asic=100_000,
                             fanin_per_circuit=1024, max_merge=64,
                             route_capacity=0)
        result = map_network(spec, topo)
        assert result.total_lost() == 0

    def test_zero_capacity_loses_all_inter_asic(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        topo = WaferTopology(route_capacity=0)
        result = map_network(spec, topo)
        # exc->inh and inh->exc cross population clusters, hence ASICs
        assert result.lost["exc->inh"] == result.requested["exc->inh"]
        assert result.lost["inh->exc"] == result.requested["inh->exc"]

    def test_deterministic(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=600), seed=5))
        topo = WaferTopology(route_capacity=2)
        a = map_network(spec, topo)
        b = map_network(spec, topo)
        assert a.realized == b.realized and a.lost == b.lost
        assert np.array_equal(a.admitted_pairs, b.admitted_pairs)
        assert np.array_equal(a.placement.neuron_asic, b.placement.neuron_asic)

    def test_lane_utilization_within_capacity(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=2083), seed=1))
        topo = WaferTopology(route_capacity=16)
        result = map_network(spec, topo)
        assert all(v <= 16 for v in result.lane_utilization.values())


class TestApplyLoss:
    def test_zero_loss_keeps_spec(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        result = map_network(spec, WaferTopology())
        assert result.total_lost() == 0
        pruned = apply_loss(spec, result)
        assert spec_content_hash(pruned) == spec_content_hash(spec)

    def test_pruned_counts_match_result(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=2083), seed=1))
        topo = WaferTopology(route_capacity=8)
        result = map_network(spec, topo)
        assert result.total_lost() > 0
        pruned = apply_loss(spec, result)
        for pr in spec.projections:
            assert len(pruned.edges[pr.pid]) == result.realized[pr.pid]

    def test_hash_mismatch_rejected(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        other = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=4))
        result = map_network(spec, WaferTopology())
        with pytest.raises(MappingMismatchError):
            apply_loss(other, result)

    def test_weight_change_does_not_invalidate(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        result = map_network(spec, WaferTopology())
        for e in spec.edges.values():
            e.weight = e.weight * 2.0
        apply_loss(spec, result)  # structure unchanged -> still valid


class TestReportAndSerialization:
    def test_report_totals(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=600), seed=5))
        topo = WaferTopology(route_capacity=2)
        result = map_network(spec, topo)
        report = mapping_report(result)
        assert report["total_requested"] == \
            report["total_realized"] + report["total_lost"]
        assert sum(report["per_asic_neuron_counts"]) == spec.n_neurons()
        json.dumps(report)  # must be serializable

    def test_save_load_roundtrip(self, tmp_path):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=600), seed=5))
        topo = WaferTopology(route_capacity=2)
        result = map_network(spec, topo)
        path = save_mapping(result, tmp_path / "m.json")
        again = load_mapping(path)
        assert again.realized == result.realized
        assert np.array_equal(again.lost_pairs, result.lost_pairs)
        assert np.array_equal(again.admitted_pairs, result.admitted_pairs)
        assert again.lane_utilization == result.lane_utilization
        assert again.spec_hash == result.spec_hash
        assert np.array_equal(again.placement.neuron_asic,
                              result.placement.neuron_asic)
        pruned_a = apply_loss(spec, result)
        pruned_b = apply_loss(spec, again)
        assert spec_content_hash(pruned_a) == spec_content_hash(pruned_b)

    def test_stale_seed_key_ignored(self, tmp_path):
        # entries written when mappings carried a seed still load
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        result = map_network(spec, WaferTopology(route_capacity=2))
        path = save_mapping(result, tmp_path / "m.json")
        doc = json.loads(path.read_text())
        assert "seed" not in doc
        doc["seed"] = 1
        path.write_text(json.dumps(doc, sort_keys=True))
        again = load_mapping(path)
        assert again.realized == result.realized and again.lost == result.lost
        assert np.array_equal(again.lost_pairs, result.lost_pairs)
        assert np.array_equal(again.placement.neuron_asic,
                              result.placement.neuron_asic)
        assert save_mapping(again, tmp_path / "again.json").read_text() == \
            json.dumps({k: v for k, v in doc.items() if k != "seed"},
                       sort_keys=True)

    def test_truncated_file_raises_wafersim_error(self, tmp_path):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=400), seed=3))
        path = save_mapping(map_network(spec, WaferTopology()),
                            tmp_path / "m.json")
        path.write_text(path.read_text()[:100])
        with pytest.raises(WafersimError, match="corrupt mapping"):
            load_mapping(path)

    @pytest.mark.parametrize("entry", [[999, 0], ["a", 0], [1], [1.5, 0]])
    def test_bad_pair_entry_raises_wafersim_error(self, tmp_path, entry):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=600), seed=5))
        path = save_mapping(map_network(spec, WaferTopology(route_capacity=2)),
                            tmp_path / "m.json")
        doc = json.loads(path.read_text())
        doc["lost_pairs"].append(entry)
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(WafersimError, match="corrupt mapping"):
            load_mapping(path)


# sha256 of the save_mapping bytes and of the mapping_report JSON, as
# map_stage writes it, of the adapted reference networks at seed 0
PINNED_MAPPINGS = {
    ("brunel", 320): (
        "507b7404df454f6306f2bab4871db0e0fc29e7e65908e8966074648a105388da",
        "7f5435a3ca8216570f1075354c9e9ebcf4bcb5df1ae192165b82738577602748"),
    ("brunel", 40): (
        "aaee2464d66019c1b026adc81b8704808b230c775f054d4406d4bea2661414fb",
        "aab5897199b374c57e5b51c29e97e34400f16d1de74b2d754453773099b3d628"),
    ("microcircuit", 320): (
        "64bf24989e3b4f333fa02810e76ffe032e6e725adf9e22640d5ed0ce43e6ff4d",
        "c0bd79545d16531438a0facd392c45e8c9bcb5c1e8ba4e3f64a9b6cbafe47a94"),
    ("microcircuit", 40): (
        "43531a86d22262bbcd2cb89c49e67c50148a54da81aa9fd667608573b260d25a",
        "abf7d1bed839271b973101155c9bc62876b74801a5182c8da5da310c7bb1dfd8"),
}


@pytest.fixture(scope="module")
def reference_specs():
    specs = {}
    for name, config in (("brunel", scaled_brunel_config(seed=0)),
                         ("microcircuit", scaled_microcircuit_config(seed=0))):
        sections = config.sections()
        spec, _ = adapt_pipeline(build_model(sections.model, config.seed),
                                 sections.adaptation)
        specs[name] = ensure_sampled(spec)
    return specs


@pytest.mark.parametrize("name,capacity", sorted(PINNED_MAPPINGS))
def test_pinned_reference_mappings(tmp_path, reference_specs, name, capacity):
    result = map_network(reference_specs[name],
                         WaferTopology(route_capacity=capacity))
    saved = save_mapping(result, tmp_path / "m.json").read_bytes()
    report = json.dumps(mapping_report(result), indent=2).encode()
    assert (hashlib.sha256(saved).hexdigest(),
            hashlib.sha256(report).hexdigest()) == \
        PINNED_MAPPINGS[name, capacity]
