from dataclasses import replace

import numpy as np
import pytest

from oracles import microcircuit_scale_for_total, spec_content_hash
from wafersim.models import (
    BrunelParams,
    MicrocircuitParams,
    UndefinedThresholdError,
    build_brunel,
    build_microcircuit,
    load_microcircuit_data,
    nu_thres,
    round_half_up,
)
from wafersim.network import (
    NeuronParameters,
    ensure_sampled,
    validate_network,
)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.49) == 1
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.4) == 0


class TestNuThres:
    def test_classical_oracle_10hz(self):
        # theta = 20 mV, J = w*tau_syn/c_m = 0.1 mV per spike, K = 1000,
        # tau_m = 20 ms -> theta / (J*K*tau_m) = 0.01/ms = 10 Hz
        neuron = NeuronParameters(tau_m=20.0, tau_syn_exc=0.5, v_rest=-70.0,
                                  v_thresh=-50.0, c_m=0.25)
        assert nu_thres(neuron, 1000, 0.05) == pytest.approx(10.0)

    def test_linear_in_weight(self):
        neuron = NeuronParameters()
        assert nu_thres(neuron, 100, 0.1) == pytest.approx(
            nu_thres(neuron, 100, 0.05) / 2)

    def test_zero_in_degree_errors(self):
        with pytest.raises(UndefinedThresholdError):
            nu_thres(NeuronParameters(), 0, 0.05)

    def test_nonpositive_weight_errors(self):
        with pytest.raises(UndefinedThresholdError):
            nu_thres(NeuronParameters(), 100, 0.0)


class TestBrunel:
    def test_default_structure(self):
        spec = build_brunel(BrunelParams())
        assert [p.pid for p in spec.populations] == ["exc", "inh"]
        assert spec.population("exc").size == 9920
        assert spec.population("inh").size == 2480
        assert len(spec.projections) == 4
        assert validate_network(spec).ok

    def test_full_scale_expected_synapses(self):
        spec = build_brunel(BrunelParams(n_total=12400, p=0.1))
        # full-scale reference count, tolerant of the self-edge exclusion
        assert spec.expected_total_synapses() == pytest.approx(
            15_625_000, rel=0.02)

    def test_complete_graph_count(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=100, p=1.0)))
        assert spec.total_synapses() == 9900

    def test_inhibitory_weights_are_minus_g_times_exc(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300, g=4.5),
                                           seed=2))
        for pr in spec.projections:
            w = spec.edges[pr.pid].weight
            if pr.source == "inh":
                assert np.allclose(w, -4.5 * 0.05)
            else:
                assert np.allclose(w, 0.05)

    def test_g_zero_purely_excitatory(self):
        spec = build_brunel(BrunelParams(n_total=200, g=0.0))
        inh_projs = [pr for pr in spec.projections if pr.source == "inh"]
        assert len(inh_projs) == 2
        assert all(pr.weight == 0.0 for pr in inh_projs)

    def test_external_rate_scales_with_eta(self):
        lo = build_brunel(BrunelParams(n_total=400, eta=1.0))
        hi = build_brunel(BrunelParams(n_total=400, eta=3.0))
        assert hi.stimuli[0].rate == pytest.approx(3.0 * lo.stimuli[0].rate)

    def test_reproducible_bit_exact(self):
        a = ensure_sampled(build_brunel(BrunelParams(n_total=500), seed=11))
        b = ensure_sampled(build_brunel(BrunelParams(n_total=500), seed=11))
        assert spec_content_hash(a) == spec_content_hash(b)


class TestMicrocircuit:
    def test_full_scale_sizes(self):
        data = load_microcircuit_data()
        assert data.populations == [
            "L23E", "L23I", "L4E", "L4I", "L5E", "L5I", "L6E", "L6I"]
        assert sum(data.sizes) == 77_169
        spec = build_microcircuit(MicrocircuitParams())
        assert spec.n_neurons() == 77_169

    def test_scaled_total_near_7712(self):
        scale = microcircuit_scale_for_total(7712)
        spec = build_microcircuit(MicrocircuitParams(scale=scale))
        assert abs(spec.n_neurons() - 7712) <= 8  # rounding per population

    def test_zero_probability_map_gives_no_projections(self):
        data = load_microcircuit_data()
        data = replace(data, connection_probabilities=[[0.0] * 8
                                                       for _ in range(8)])
        spec = build_microcircuit(MicrocircuitParams(data=data))
        assert not spec.projections
        assert len(spec.stimuli) == 8

    @pytest.mark.parametrize("field", ["signs", "sizes",
                                       "connection_probabilities",
                                       "external_in_degrees"])
    def test_table_lists_run_over_populations(self, field):
        data = load_microcircuit_data()
        short = replace(data, **{field: getattr(data, field)[:7]})
        with pytest.raises(ValueError, match=field):
            MicrocircuitParams(data=short).check()

    def test_projection_expected_counts_match_map(self):
        spec = ensure_sampled(build_microcircuit(
            MicrocircuitParams(scale=0.05), seed=3))
        data = load_microcircuit_data()
        names = data.populations
        sizes = {p.pid: p.size for p in spec.populations}
        for pr in spec.projections:
            p = data.connection_probabilities[names.index(pr.target)][
                names.index(pr.source)]
            pairs = sizes[pr.source] * sizes[pr.target]
            if pr.source == pr.target:
                pairs -= sizes[pr.source]
            expected = p * pairs
            sd = np.sqrt(max(expected, 1.0))
            assert abs(len(spec.edges[pr.pid]) - expected) < 4 * sd

    def test_inhibitory_sources_have_negative_weights(self):
        spec = build_microcircuit(MicrocircuitParams(scale=0.05))
        for pr in spec.projections:
            sign = spec.population(pr.source).sign.value
            assert (pr.weight < 0) == (sign == "inhibitory")

    def test_validates(self):
        assert validate_network(build_microcircuit(
            MicrocircuitParams(scale=0.1))).ok
