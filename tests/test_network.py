import copy
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_bytes, sample_fixed_probability_dense, spec_content_hash
from wafersim import network
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import (
    EDGE_DTYPE,
    EdgeList,
    ExplicitList,
    FixedInDegree,
    FixedProbability,
    InfeasibleInDegreeError,
    NetworkSpec,
    NeuronParameters,
    Population,
    Projection,
    Sign,
    StimulusKind,
    StimulusSpec,
    SynapseKind,
    WafersimError,
    ensure_sampled,
    in_degree_array,
    load_spec,
    mapping_relevant_hash,
    sample_connectivity,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    inhibitory_channel,
    validate_network,
)


def two_pop_spec(n_exc=80, n_inh=20, p=0.1, seed=0):
    pops = [
        Population("exc", n_exc, NeuronParameters(), Sign.EXCITATORY),
        Population("inh", n_inh, NeuronParameters(), Sign.INHIBITORY),
    ]
    projs = [
        Projection("exc->inh", "exc", "inh", FixedProbability(p), 0.05, 1.5,
                   SynapseKind.CURRENT_EXP),
        Projection("inh->exc", "inh", "exc", FixedProbability(p), -0.25, 1.5,
                   SynapseKind.CURRENT_EXP),
    ]
    stimuli = [StimulusSpec("ext->exc", "exc", StimulusKind.POISSON_PER_NEURON,
                            rate=1000.0, weight=0.05, delay=1.5)]
    return NetworkSpec(populations=pops, projections=projs, stimuli=stimuli,
                       seed=seed)


def with_double_weights(spec, seed=0):
    """``spec`` with per-edge weights and delays that float32 cannot hold,
    and a pool edge list for its stimulus."""
    rng = np.random.default_rng(seed)
    for e in spec.edges.values():
        e.weight = e.weight * rng.uniform(0.5, 1.5, len(e))
        e.delay = e.delay + rng.random(len(e))
    n = spec.population("exc").size
    spec.stim_edges["ext->exc"] = EdgeList.from_arrays(
        rng.integers(0, 10, n), np.arange(n), rng.random(n), 1.5)
    return spec


def assert_edges_equal(again, spec):
    """Every edge list of ``again`` equals that of ``spec`` in value and
    dtype: uint32 endpoints, float64 weights and delays."""
    for section in ("edges", "stim_edges"):
        want = getattr(spec, section)
        got = getattr(again, section)
        assert got.keys() == want.keys()
        for key, e in want.items():
            for name, dtype in (("src", np.uint32), ("tgt", np.uint32),
                                ("weight", np.float64), ("delay", np.float64)):
                a, b = getattr(got[key], name), getattr(e, name)
                assert a.dtype == b.dtype == dtype, (key, name)
                assert np.array_equal(a, b), (key, name)


class TestSampling:
    def test_fixed_probability_count_near_expected(self):
        proj = Projection("a->b", "a", "b", FixedProbability(0.2), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        edges = sample_connectivity(proj, (500, 400), seed=1)
        expected = 0.2 * 500 * 400
        sd = np.sqrt(expected * 0.8)
        assert abs(len(edges) - expected) < 4 * sd

    def test_probability_zero_gives_no_edges(self):
        proj = Projection("a->b", "a", "b", FixedProbability(0.0), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        assert len(sample_connectivity(proj, (50, 50), seed=1)) == 0

    def test_probability_one_excludes_self_connections(self):
        proj = Projection("a->a", "a", "a", FixedProbability(1.0), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        edges = sample_connectivity(proj, (30, 30), seed=1)
        assert len(edges) == 30 * 29
        assert not np.any(edges.src == edges.tgt)

    def test_no_duplicate_pairs(self):
        proj = Projection("a->a", "a", "a", FixedProbability(0.3), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        edges = sample_connectivity(proj, (100, 100), seed=3)
        pairs = edges.src.astype(np.int64) * 100 + edges.tgt
        assert len(np.unique(pairs)) == len(pairs)

    def test_fixed_in_degree_exact(self):
        proj = Projection("a->b", "a", "b", FixedInDegree(7), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        edges = sample_connectivity(proj, (50, 20), seed=2)
        counts = np.bincount(edges.tgt, minlength=20)
        assert np.all(counts == 7)

    def test_fixed_in_degree_infeasible(self):
        proj = Projection("a->a", "a", "a", FixedInDegree(30), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        with pytest.raises(InfeasibleInDegreeError):
            sample_connectivity(proj, (30, 30), seed=2)

    def test_deterministic_for_seed(self):
        proj = Projection("a->b", "a", "b", FixedProbability(0.15), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        e1 = sample_connectivity(proj, (200, 200), seed=9)
        e2 = sample_connectivity(proj, (200, 200), seed=9)
        e3 = sample_connectivity(proj, (200, 200), seed=10)
        assert np.array_equal(e1.src, e2.src) and np.array_equal(e1.tgt, e2.tgt)
        assert not (len(e1) == len(e3)
                    and np.array_equal(e1.src, e3.src)
                    and np.array_equal(e1.tgt, e3.tgt))

    @settings(max_examples=25, deadline=None)
    @given(
        n_src=st.integers(2, 60),
        n_tgt=st.integers(2, 60),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_edges_in_bounds(self, n_src, n_tgt, p, seed):
        proj = Projection("a->b", "a", "b", FixedProbability(p), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        edges = sample_connectivity(proj, (n_src, n_tgt), seed=seed)
        if len(edges):
            assert edges.src.max() < n_src and edges.tgt.max() < n_tgt


def assert_same_edges(got, want):
    for name in ("src", "tgt", "weight", "delay"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestSamplerAgainstDenseOracle:
    """The chunked flat-mask sampler draws exactly the edges of the dense
    per-pair oracle, wherever the chunk boundaries fall."""

    # with a 100-draw chunk: pair counts below, at and +-1 around multiples
    @pytest.mark.parametrize("sizes", [(1, 37), (9, 11), (10, 10), (101, 1),
                                       (1, 199), (20, 10), (3, 67), (10, 30)])
    @pytest.mark.parametrize("recurrent", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.15, 1.0])
    def test_small_chunk(self, monkeypatch, sizes, recurrent, p):
        monkeypatch.setattr(network, "_CHUNK", 100)
        proj = Projection("a->b", "a", "b", FixedProbability(p), 0.1, 1.0,
                          SynapseKind.CURRENT_EXP)
        assert_same_edges(
            sample_connectivity(proj, sizes, seed=4, recurrent=recurrent),
            sample_fixed_probability_dense(proj, sizes, seed=4,
                                           recurrent=recurrent))

    @pytest.mark.parametrize("source,sizes", [
        ("a", (2000, 2000)),
        ("b", (1, network._CHUNK - 1)),
        ("b", (1, network._CHUNK + 1)),
    ])
    def test_module_chunk(self, source, sizes):
        proj = Projection(f"{source}->a", source, "a", FixedProbability(0.15),
                          0.1, 1.0, SynapseKind.CURRENT_EXP)
        assert_same_edges(sample_connectivity(proj, sizes, seed=7),
                          sample_fixed_probability_dense(proj, sizes, seed=7))


def mixed_spec(seed=3, kind=SynapseKind.CURRENT_EXP):
    """Recurrent and feed-forward FixedProbability projections between
    FixedInDegree and ExplicitList ones, all of synapse ``kind``."""
    pops = [Population(name, size, NeuronParameters(), sign)
            for name, size, sign in (("e", 120, Sign.EXCITATORY),
                                     ("i", 45, Sign.INHIBITORY),
                                     ("d", 7, Sign.EXCITATORY))]
    projs = [
        Projection("d->e", "d", "e", ExplicitList(), 0.1, 1.0, kind),
        Projection("e->e", "e", "e", FixedProbability(0.1), 0.05, 1.5, kind),
        Projection("e->i", "e", "i", FixedInDegree(12), 0.05, 1.5, kind),
        Projection("i->e", "i", "e", FixedProbability(0.3), -0.2, 1.5, kind),
        Projection("i->i", "i", "i", FixedProbability(1.0), -0.2, 1.5, kind),
        Projection("d->i", "d", "i", ExplicitList(), 0.1, 1.0, kind),
        Projection("e->d", "e", "d", FixedProbability(0.0), 0.05, 1.5, kind),
        Projection("i->d", "i", "d", FixedInDegree(3), -0.2, 1.5, kind),
        Projection("d->d", "d", "d", FixedProbability(0.5), 0.1, 1.0, kind),
    ]
    return NetworkSpec(populations=pops, projections=projs, stimuli=[],
                       seed=seed)


class TestEnsureSampled:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_edges_independent_of_worker_count(self, monkeypatch, workers):
        monkeypatch.setattr(network, "_WORKERS", workers)
        spec = ensure_sampled(mixed_spec())
        for pr in spec.projections:
            sizes = (spec.population(pr.source).size,
                     spec.population(pr.target).size)
            if isinstance(pr.connector, ExplicitList):
                assert len(spec.edges[pr.pid]) == 0
            elif isinstance(pr.connector, FixedProbability):
                assert_same_edges(spec.edges[pr.pid],
                                  sample_fixed_probability_dense(
                                      pr, sizes, spec.seed))
            else:
                assert_same_edges(spec.edges[pr.pid],
                                  sample_connectivity(pr, sizes, spec.seed))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_edges_keep_projection_order(self, monkeypatch, workers):
        monkeypatch.setattr(network, "_WORKERS", workers)
        spec = ensure_sampled(mixed_spec())
        assert list(spec.edges) == [pr.pid for pr in spec.projections]

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # eight workers share the chunk-buffer queue; a buffer handed to two
        # draws at once would corrupt one of the masks
        monkeypatch.setattr(network, "_WORKERS", 8)
        monkeypatch.setattr(network, "_CHUNK", 4096)
        pops = [Population(f"p{i}", 300 + 50 * i, NeuronParameters(),
                           Sign.EXCITATORY) for i in range(5)]
        projs = [Projection(f"p{a}->p{b}", f"p{a}", f"p{b}",
                            FixedProbability(0.05 * (1 + a + b)), 0.05, 1.5,
                            SynapseKind.CURRENT_EXP)
                 for a in range(5) for b in range(5)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            spec = ensure_sampled(NetworkSpec(populations=pops,
                                              projections=projs, stimuli=[],
                                              seed=5))
        finally:
            sys.setswitchinterval(switch)
        for pr in projs:
            sizes = (spec.population(pr.source).size,
                     spec.population(pr.target).size)
            assert_same_edges(spec.edges[pr.pid],
                              sample_fixed_probability_dense(pr, sizes, 5))

    def test_keeps_edges_already_sampled(self):
        spec = mixed_spec()
        given = EdgeList.from_arrays([0, 1], [2, 3], 0.05, 1.5)
        spec.edges["i->e"] = given
        ensure_sampled(spec)
        assert spec.edges["i->e"] is given
        assert list(spec.edges) == ["i->e"] + [
            pr.pid for pr in spec.projections if pr.pid != "i->e"]


class TestValidation:
    def test_valid_spec_passes(self):
        assert validate_network(two_pop_spec()).ok

    def test_unknown_population_reference(self):
        spec = two_pop_spec()
        spec.projections[0].target = "nope"
        report = validate_network(spec)
        assert not report.ok
        assert any("nope" in f for f in report.findings)

    def test_bad_neuron_parameters(self):
        spec = two_pop_spec()
        spec.populations[0].params.tau_m = -1.0
        assert not validate_network(spec).ok

    def test_negative_delay(self):
        spec = two_pop_spec()
        spec.projections[0].delay = -1.0
        assert not validate_network(spec).ok

    def test_negative_conductance_stimulus(self):
        spec = two_pop_spec()
        for pr in spec.projections:
            pr.kind = SynapseKind.CONDUCTANCE_EXP
            pr.weight = abs(pr.weight)
        assert validate_network(spec).ok
        spec.stimuli[0].weight = -0.002
        assert validate_network(spec).findings == [
            "stimulus ext->exc: negative conductance weight"]

    def test_per_neuron_override_problems(self):
        spec = two_pop_spec()
        exc = spec.populations[0]
        exc.params_per_neuron["v_thres"] = np.full(exc.size, -30.0)
        exc.params_per_neuron["tau_m"] = np.full(exc.size - 1, 20.0)
        assert validate_network(spec).findings == [
            f"population {exc.pid}: params_per_neuron['v_thres'] names no "
            f"NeuronParameters field",
            f"population {exc.pid}: params_per_neuron['tau_m'] holds "
            f"{exc.size - 1} values for {exc.size} neurons"]


class TestChannelRule:
    def test_current_mode_follows_the_weight_sign(self):
        weights = np.array([0.1, -0.1, 0.0, -0.0])
        assert inhibitory_channel(weights, False).tolist() == \
            [False, True, False, False]
        assert inhibitory_channel(-0.1, False, Sign.EXCITATORY)

    def test_conductance_mode_follows_the_source(self):
        assert inhibitory_channel(0.1, True, Sign.INHIBITORY)
        assert not inhibitory_channel(-0.1, True, Sign.EXCITATORY)
        # a stimulus has no source population
        assert not inhibitory_channel(-0.1, True)


class TestInDegree:
    def test_stats_match_bincount(self):
        spec = ensure_sampled(two_pop_spec(seed=4))
        degrees = in_degree_array(spec, include_stimuli=False)
        manual = np.zeros(spec.n_neurons(), dtype=np.int64)
        offsets = spec.population_offsets()
        for pr in spec.projections:
            e = spec.edges[pr.pid]
            np.add.at(manual, offsets[pr.target] + e.tgt, 1)
        assert np.array_equal(degrees, manual)

    def test_stimulus_pool_edges_counted(self):
        spec = ensure_sampled(two_pop_spec())
        st_spec = spec.stimuli[0]
        st_spec.kind = StimulusKind.POISSON_POOL
        st_spec.pool_size = 10
        st_spec.samples_per_target = 3
        spec.stim_edges[st_spec.sid] = EdgeList.from_arrays(
            np.zeros(spec.population("exc").size * 3, np.uint32),
            np.repeat(np.arange(spec.population("exc").size, dtype=np.uint32), 3),
            0.05, 1.5)
        with_stim = in_degree_array(spec, include_stimuli=True)
        without = in_degree_array(spec, include_stimuli=False)
        assert np.all(with_stim[:spec.population("exc").size]
                      - without[:spec.population("exc").size] == 3)


class TestSerialization:
    def test_roundtrip_unsampled(self):
        spec = two_pop_spec()
        again = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(again) == spec_to_dict(spec)

    def test_roundtrip_sampled(self, tmp_path):
        spec = with_double_weights(ensure_sampled(two_pop_spec(seed=5)))
        assert spec.total_synapses() < 100_000
        again = load_spec(save_spec(spec, tmp_path / "net.json"))
        assert_edges_equal(again, spec)
        assert spec_content_hash(again) == spec_content_hash(spec)

    @pytest.mark.parametrize("kind", list(SynapseKind))
    def test_roundtrip_connectors_pool_stimulus_and_overrides(self, tmp_path,
                                                              kind):
        spec = ensure_sampled(mixed_spec(kind=kind))
        rng = np.random.default_rng(4)
        spec.edges["d->e"] = EdgeList.from_arrays(
            rng.integers(0, 7, 30), rng.integers(0, 120, 30), 0.1, 1.0)
        spec.stimuli.append(StimulusSpec(
            "pool->e", "e", StimulusKind.POISSON_POOL, rate=8.0, weight=0.05,
            delay=1.5, pool_size=40, samples_per_target=3, pool_group="ext"))
        spec.stim_edges["pool->e"] = EdgeList.from_arrays(
            rng.integers(0, 40, 360), np.repeat(np.arange(120), 3), 0.05, 1.5)
        spec.populations[0].params_per_neuron["v_thresh"] = \
            rng.uniform(-52.0, -48.0, 120)
        again = load_spec(save_spec(spec, tmp_path / "net.json"))
        assert spec_to_dict(again) == spec_to_dict(spec)
        assert_edges_equal(again, spec)

    def test_binary_sidecar_used_for_large_edge_lists(self, tmp_path):
        spec = with_double_weights(ensure_sampled(
            two_pop_spec(n_exc=800, n_inh=400, p=0.5, seed=6)))
        assert spec.total_synapses() > 100_000
        path = save_spec(spec, tmp_path / "net.json")
        sidecar = tmp_path / "net.json.edges"
        assert sidecar.read_bytes()[:4] == b"WSE2"
        assert "edges" not in json.loads(path.read_text())
        again = load_spec(path)
        assert_edges_equal(again, spec)
        assert spec_content_hash(again) == spec_content_hash(spec)

    def test_unsampled_spec_has_empty_sidecar(self, tmp_path):
        path = save_spec(two_pop_spec(), tmp_path / "net.json")
        assert (tmp_path / "net.json.edges").read_bytes() == b"WSE2"
        again = load_spec(path)
        assert not again.edges and not again.stim_edges
        assert not again.is_sampled()

    # cut on an edge record boundary (loaded as fewer edges before), cut
    # inside an edge (a raw numpy error before), or trailing bytes
    @pytest.mark.parametrize("change", [
        lambda raw: raw[:-1000 * EDGE_DTYPE.itemsize], lambda raw: raw[:-7],
        lambda raw: raw + bytes(EDGE_DTYPE.itemsize)])
    def test_sidecar_length_checked(self, tmp_path, change):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=500), seed=0))
        path = save_spec(spec, tmp_path / "net.json")
        sidecar = tmp_path / "net.json.edges"
        raw = sidecar.read_bytes()
        assert len(raw) > 1000 * EDGE_DTYPE.itemsize
        sidecar.write_bytes(change(raw))
        with pytest.raises(WafersimError, match="edge sidecar"):
            load_spec(path)

    # Specs of the format before the float64 sidecar: none may load, and
    # above all none as an unsampled spec that ensure_sampled would redraw.
    @pytest.mark.parametrize("sampled", [False, True])
    def test_inline_edges_refused(self, tmp_path, sampled):
        spec = two_pop_spec(seed=5)
        if sampled:
            ensure_sampled(spec)
        path = save_spec(spec, tmp_path / "net.json")
        doc = json.loads(path.read_text())
        del doc["edge_sidecar"]
        doc["edges"] = {pid: {"src": e.src.tolist(), "tgt": e.tgt.tolist(),
                              "weight": e.weight.tolist(),
                              "delay": e.delay.tolist()}
                        for pid, e in spec.edges.items()}
        doc["stim_edges"] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(WafersimError, match="older format.*rebuild"):
            load_spec(path)

    def test_float32_sidecar_refused(self, tmp_path):
        spec = ensure_sampled(two_pop_spec(seed=5))
        spec.stimuli = []
        path = save_spec(spec, tmp_path / "net.json")
        doc = json.loads(path.read_text())
        f32 = np.dtype([("src", "<u4"), ("tgt", "<u4"),
                        ("weight", "<f4"), ("delay", "<f4")])
        blob = bytearray(b"WSED")
        for pid in sorted(spec.edges):
            e = spec.edges[pid]
            doc["edge_sidecar"]["index"]["edges"][pid] = {
                "offset": len(blob), "count": len(e)}
            rec = np.empty(len(e), f32)
            for name in f32.names:
                rec[name] = getattr(e, name)
            blob += rec.tobytes()
        (tmp_path / "net.json.edges").write_bytes(bytes(blob))
        path.write_text(json.dumps(doc))
        with pytest.raises(WafersimError, match="older format.*rebuild"):
            load_spec(path)

    def test_leak_shift_stimulus_fields_refused(self, tmp_path):
        path = save_spec(ensure_sampled(two_pop_spec(seed=5)),
                         tmp_path / "net.json")
        doc = json.loads(path.read_text())
        for st in doc["stimuli"]:
            st.update(delta_v=0.0, delta_i=0.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(WafersimError, match="older format.*rebuild"):
            load_spec(path)

    @pytest.mark.parametrize("change", [
        lambda text: text[:len(text) // 2],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "populations"})])
    def test_corrupt_document_raises_wafersim_error(self, tmp_path, change):
        path = save_spec(ensure_sampled(two_pop_spec(seed=5)),
                         tmp_path / "net.json")
        path.write_text(change(path.read_text()))
        with pytest.raises(WafersimError, match="corrupt network spec"):
            load_spec(path)

    def test_edge_list_bytes_roundtrip(self):
        e = EdgeList.from_arrays(
            np.array([1, 2, 3], np.uint32), np.array([4, 5, 6], np.uint32),
            np.array([0.1, -0.2, 0.3]), np.array([1.0, 1.5, 2.0]))
        again = EdgeList.from_bytes(edge_bytes(e))
        assert_edges_equal(NetworkSpec([], [], edges={"e": again}),
                           NetworkSpec([], [], edges={"e": e}))


class TestHashes:
    def test_structure_hash_ignores_weights(self):
        a = ensure_sampled(two_pop_spec(seed=7))
        b = ensure_sampled(two_pop_spec(seed=7))
        for e in b.edges.values():
            e.weight = e.weight * 3.0
        b.stimuli[0].rate *= 2.0
        assert mapping_relevant_hash(a) == mapping_relevant_hash(b)
        assert spec_content_hash(a) != spec_content_hash(b)

    def test_structure_hash_tracks_edges(self):
        a = ensure_sampled(two_pop_spec(seed=7))
        b = ensure_sampled(two_pop_spec(seed=8))
        assert mapping_relevant_hash(a) != mapping_relevant_hash(b)


# One field of a built spec.json edited each; every edit loaded before the
# spec was read through from_fields.  (path in the document, new value, the
# field that the error names)
SPEC_PROBES = {
    "connector_type_typo": (("projections", 0, "connector", "type"),
                            "fixed_probabilty", "connector.type"),
    "float_seed": (("seed",), 1.5, "spec.seed"),
    "unknown_population_field": (("populations", 0, "colour"), "red",
                                 "colour"),
    "string_weight": (("projections", 0, "weight"), "0.1", "weight"),
    "string_size": (("populations", 0, "size"), "50", "size"),
    "string_tau_m": (("populations", 0, "params", "tau_m"), "20",
                     "params.tau_m"),
    "string_p": (("projections", 0, "connector", "p"), "0.1", "connector.p"),
    "string_rate": (("stimuli", 0, "rate"), "1000", "rate"),
}


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestTypedSpecReader:
    @pytest.mark.parametrize("probe", sorted(SPEC_PROBES))
    def test_one_field_edit_refused(self, tmp_path, probe):
        path, value, field = SPEC_PROBES[probe]
        spec_path = save_spec(two_pop_spec(), tmp_path / "spec.json")
        doc = json.loads(spec_path.read_text())
        _set(doc, path, value)
        spec_path.write_text(json.dumps(doc))
        with pytest.raises(WafersimError, match="corrupt network spec") as err:
            load_spec(spec_path)
        assert field in str(err.value)

    @pytest.mark.parametrize("section,what", [("projections", "projection"),
                                              ("stimuli", "stimulus")])
    def test_duplicate_ids_fail_validation(self, section, what):
        spec = two_pop_spec()
        items = getattr(spec, section)
        items.append(copy.deepcopy(items[0]))
        assert validate_network(spec).findings == [f"duplicate {what} ids"]


def spec_documents():
    """Specs with every connector kind, either synapse kind, pooled stimuli
    in a group and per-neuron overrides, as spec_to_dict writes them."""
    connectors = st.one_of(
        st.floats(0.0, 1.0).map(FixedProbability),
        st.integers(0, 5).map(FixedInDegree), st.just(ExplicitList()))

    @st.composite
    def build(draw):
        spec = two_pop_spec(n_exc=10, n_inh=5, seed=draw(st.integers(0, 9)))
        kind = draw(st.sampled_from(list(SynapseKind)))
        for pr in spec.projections:
            pr.connector, pr.kind = draw(connectors), kind
        spec.stimuli += [
            StimulusSpec(f"pool{i}", "inh", StimulusKind.POISSON_POOL,
                         rate=draw(st.floats(0.0, 1e4)), weight=0.01,
                         pool_size=4, samples_per_target=2, pool_group="g")
            for i in range(draw(st.integers(0, 2)))]
        exc = spec.population("exc")
        if draw(st.booleans()):
            exc.params_per_neuron["v_thresh"] = np.array(draw(st.lists(
                st.floats(-60.0, -40.0), min_size=10, max_size=10)))
        return spec_to_dict(spec)
    return build()


def _leaves(doc, path=()):
    """(path, value) of every scalar leaf of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from _leaves(v, path + (k,))
        else:
            yield path + (k,), v


def _path_text(path):
    """``path`` as the reader's messages write it."""
    text = "spec"
    for parent, k in zip((None,) + path, path):
        text += f"[{k}]" if isinstance(k, int) else \
            f"[{k!r}]" if parent == "params_per_neuron" else f".{k}"
    return text


ENUM_LEAVES = {"sign", "kind", "type"}


class TestSpecDocuments:
    @settings(max_examples=30, deadline=None)
    @given(spec_documents())
    def test_round_trip_writes_back_equal(self, doc):
        assert spec_to_dict(spec_from_dict(doc)) == doc

    @settings(max_examples=10, deadline=None)
    @given(spec_documents())
    def test_any_mistyped_leaf_refused_by_path(self, doc):
        for path, value in _leaves(doc):
            for bad in ("x", True, None):
                if isinstance(bad, str) and isinstance(value, str) and \
                        path[-1] not in ENUM_LEAVES:
                    continue  # a string is a valid id
                edited = copy.deepcopy(doc)
                _set(edited, path, bad)
                with pytest.raises(WafersimError) as err:
                    spec_from_dict(edited)
                assert _path_text(path) in str(err.value), (path, bad)
