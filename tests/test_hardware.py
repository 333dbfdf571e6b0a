import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wafersim.hardware import (
    InfeasibleFanInError,
    WaferTopology,
    capacity_report,
    circuits_needed,
)
from wafersim.mapping import PlacementOverflowError, place
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import (
    FixedInDegree,
    NetworkSpec,
    NeuronParameters,
    Population,
    Projection,
    Sign,
    SynapseKind,
    WafersimError,
    ensure_sampled,
)


class TestDefaults:
    def test_published_aggregates(self):
        topo = WaferTopology()
        assert topo.n_asics == 384
        assert topo.total_circuits == 196_608
        assert topo.max_fan_in == 14_336

    def test_availability_mask(self):
        mask = np.ones((16, 24), dtype=bool)
        mask[0, :] = False
        topo = WaferTopology(available=mask)
        assert topo.n_asics == 384 - 24
        assert topo.total_circuits == 360 * 512
        assert all(r > 0 for r, c in topo.asic_coords())

    def test_config_roundtrip(self):
        topo = WaferTopology(rows=4, cols=5, route_capacity=7)
        again = WaferTopology.from_dict(topo.to_dict())
        assert again.content_hash() == topo.content_hash()

    def test_available_takes_booleans_or_0_1(self):
        mask = [[True, False], [True, True]]
        topo = WaferTopology.from_dict({"rows": 2, "cols": 2,
                                        "available": mask})
        assert topo.n_asics == 3
        again = WaferTopology.from_dict(topo.to_dict())  # written as 0/1
        assert again.content_hash() == topo.content_hash() == WaferTopology(
            rows=2, cols=2, available=np.array(mask)).content_hash()
        for bad in ([["no", 1], [1, 1]], [[2, 1], [1, 1]],
                    [[1.0, 1], [1, 1]], [1, 1], "all"):
            with pytest.raises(WafersimError, match="topology.available"):
                WaferTopology.from_dict({"rows": 2, "cols": 2,
                                         "available": bad})

    def test_unknown_field_rejected(self):
        with pytest.raises(WafersimError, match="offchip_readout_limit"):
            WaferTopology.from_dict({"offchip_readout_limit": 30})

    def test_hash_tracks_capacity(self):
        assert WaferTopology(route_capacity=5).content_hash() != \
            WaferTopology(route_capacity=6).content_hash()

    def test_invalid_topology(self):
        with pytest.raises(WafersimError):
            WaferTopology(rows=0)
        with pytest.raises(WafersimError):
            WaferTopology(available=np.ones((2, 2), dtype=bool))


class TestCircuitsNeeded:
    def test_boundaries(self):
        topo = WaferTopology()
        assert circuits_needed(0, topo) == 1
        assert circuits_needed(1, topo) == 1
        assert circuits_needed(224, topo) == 1
        assert circuits_needed(225, topo) == 2
        assert circuits_needed(14_000, topo) == 63
        assert circuits_needed(14_336, topo) == 64

    def test_over_limit_errors(self):
        topo = WaferTopology()
        with pytest.raises(InfeasibleFanInError):
            circuits_needed(14_337, topo)

    @settings(max_examples=50, deadline=None)
    @given(fan_in=st.integers(0, 14_336))
    def test_capacity_covers_fan_in(self, fan_in):
        topo = WaferTopology()
        n = circuits_needed(fan_in, topo)
        assert n * topo.fanin_per_circuit >= fan_in
        assert (n - 1) * topo.fanin_per_circuit < max(fan_in, 1)


def fixed_degree_spec(n, k):
    pops = [Population("a", n, NeuronParameters(), Sign.EXCITATORY)]
    projs = [Projection("a->a", "a", "a", FixedInDegree(k), 0.01, 1.0,
                        SynapseKind.CURRENT_EXP)]
    return NetworkSpec(populations=pops, projections=projs, stimuli=[], seed=0)


class TestCapacityReport:
    def test_scaled_brunel_feasible(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=2083), seed=1))
        report = capacity_report(WaferTopology(), spec)
        assert report.feasible
        assert report.required_circuits <= report.available_circuits

    def test_infeasible_fan_in(self):
        topo = WaferTopology(fanin_per_circuit=4, max_merge=2)
        spec = ensure_sampled(fixed_degree_spec(20, 10))
        report = capacity_report(topo, spec)
        assert not report.feasible
        assert any("fan-in" in n for n in report.notes)

    def test_too_many_neurons(self):
        topo = WaferTopology(rows=1, cols=1)
        spec = ensure_sampled(fixed_degree_spec(600, 2))
        report = capacity_report(topo, spec)
        assert not report.feasible

    def test_neuron_larger_than_an_asic(self):
        # in-degree 9 at one synapse per circuit merges 9 circuits, and an
        # ASIC has 4: the capacity check and the mapper both refuse it
        topo = WaferTopology(rows=4, cols=4, circuits_per_asic=4,
                             fanin_per_circuit=1)
        spec = ensure_sampled(fixed_degree_spec(10, 9))
        report = capacity_report(topo, spec)
        assert not report.feasible
        assert any("unplaceable neuron" in n for n in report.notes)
        with pytest.raises(PlacementOverflowError):
            place(spec, topo)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 200), k_frac=st.floats(0.0, 0.9),
           rows=st.integers(1, 4), cols=st.integers(1, 4),
           seed=st.integers(0, 1000))
    def test_feasible_implies_placeable(self, n, k_frac, rows, cols, seed):
        k = max(1, int(k_frac * (n - 1)))
        spec = fixed_degree_spec(n, k)
        spec.seed = seed
        ensure_sampled(spec)
        topo = WaferTopology(rows=rows, cols=cols, circuits_per_asic=64,
                             fanin_per_circuit=16, max_merge=8)
        report = capacity_report(topo, spec)
        if report.feasible:
            placement = place(spec, topo)  # must not raise
            assert np.all(placement.neuron_asic >= 0)
            assert np.all(placement.asic_used <= topo.circuits_per_asic)
            assert report.required_asics == placement.neuron_asic.max() + 1
            assert report.required_circuits == placement.neuron_circuits.sum()
