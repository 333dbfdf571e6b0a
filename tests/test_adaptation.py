from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wafersim.adaptation as adaptation
from oracles import (
    dense_psp_peak_conductance,
    dense_psp_peak_current,
    is_hardware_ready,
    psp_peak_conductance_linear,
    psp_peak_current,
    spec_content_hash,
)
from wafersim.adaptation import (
    AdaptationConfig,
    AdaptationReport,
    DegenerateScaleError,
    SingularDrivingForceError,
    StepRecord,
    VariationError,
    adapt_pipeline,
    apply_parameter_variation,
    clamp_time_constants,
    convert_current_to_conductance,
    downscale,
    replace_input_with_leak_shift,
    scale_weights_linear,
    substitute_poisson_pool,
)
from wafersim.hardware import WaferTopology
from wafersim.mapping import apply_loss, map_network
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import (
    NetworkSpec,
    NeuronParameters,
    Population,
    StimulusKind,
    StimulusSpec,
    SynapseKind,
    WafersimError,
    copy_spec,
    ensure_sampled,
    in_degree_array,
)
from wafersim.psp import psp_shape_factor


def small_brunel(n=400, seed=0, **kw):
    return build_brunel(BrunelParams(n_total=n, **kw), seed=seed)


def stimulated(weight, n=50, **params):
    """``n`` unconnected neurons driven by one per-neuron 2 kHz stimulus."""
    return NetworkSpec(
        [Population("p", n, NeuronParameters(**params))], [],
        [StimulusSpec("s", "p", StimulusKind.POISSON_PER_NEURON,
                      rate=2000.0, weight=weight)])


class TestPspShape:
    @pytest.mark.parametrize("tau_m,tau_syn", [
        (20.0, 0.5), (10.0, 0.5), (20.0, 5.0), (10.0, 9.99), (5.0, 2.0),
    ])
    def test_matches_dense_oracle(self, tau_m, tau_syn):
        analytic = psp_peak_current(0.05, tau_m, tau_syn, 0.25)
        dense = dense_psp_peak_current(0.05, tau_m, tau_syn, 0.25)
        assert analytic == pytest.approx(dense, rel=2e-3)

    def test_equal_time_constants_limit(self):
        assert psp_shape_factor(10.0, 10.0) == pytest.approx(np.exp(-1))
        near = psp_shape_factor(10.0, 10.0 - 1e-7)
        assert near == pytest.approx(np.exp(-1), rel=1e-5)

    def test_monotone_in_tau_syn(self):
        factors = [psp_shape_factor(20.0, ts) for ts in (0.2, 0.5, 1.0, 3.0)]
        assert factors == sorted(factors)

    def test_invalid_time_constants(self):
        with pytest.raises(ValueError):
            psp_shape_factor(-1.0, 0.5)


class TestDownscale:
    def test_identity(self):
        spec = small_brunel()
        out, rec = downscale(spec, 1.0, 1.0, seed=1)
        assert out.n_neurons() == spec.n_neurons()
        assert rec.details.get("identity")

    def test_expected_in_degree_halved_example(self):
        # N=1000, p=0.1, both scales 0.5 -> expected in-degree 25
        spec = small_brunel(n=1000)
        out, _ = downscale(spec, 0.5, 0.5, seed=1)
        ensure_sampled(out)
        degrees = in_degree_array(out, include_stimuli=False)
        assert out.n_neurons() == 500
        assert degrees.mean() == pytest.approx(2 * 25, rel=0.1)  # exc + inh

    def test_reported_probability(self):
        spec = small_brunel(n=1000)
        out, rec = downscale(spec, 0.5, 0.25, seed=1)
        assert rec.details["connection_probabilities"]["exc->exc"] == \
            pytest.approx(0.1 * 0.25 / 0.5)

    def test_degenerate_scales_error(self):
        with pytest.raises(DegenerateScaleError):
            downscale(small_brunel(), 0.0, 0.5, seed=1)
        with pytest.raises(DegenerateScaleError):
            downscale(small_brunel(), 0.5, 1.5, seed=1)

    def test_population_scaled_to_zero_errors(self):
        with pytest.raises(DegenerateScaleError):
            downscale(small_brunel(n=100), 0.001, 0.5, seed=1)


class TestWeightCompensation:
    def test_factor_is_inverse_indegree_scale(self):
        spec = ensure_sampled(small_brunel())
        out, rec = scale_weights_linear(spec, 0.25)
        assert rec.details["weight_factor"] == pytest.approx(4.0)
        for pid in spec.edges:
            assert np.allclose(out.edges[pid].weight, 4 * spec.edges[pid].weight)

    def test_external_mean_drive_preserved(self):
        spec = small_brunel()
        out, _ = scale_weights_linear(spec, 0.25)
        for before, after in zip(spec.stimuli, out.stimuli):
            assert after.rate * after.weight == pytest.approx(
                before.rate * before.weight)

    def test_identity_at_one(self):
        spec = ensure_sampled(small_brunel())
        out, _ = scale_weights_linear(spec, 1.0)
        assert spec_content_hash(out) == spec_content_hash(spec)

    def test_zero_scale_errors(self):
        with pytest.raises(Exception):
            scale_weights_linear(small_brunel(), 0.0)


class TestPoissonPool:
    def test_edge_count_and_flux(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, rec = substitute_poisson_pool(spec, pool_size=100,
                                           samples_per_target=20, seed=3)
        total_edges = sum(len(e) for e in out.stim_edges.values())
        assert total_edges == 300 * 20
        for st_spec in out.stimuli:
            assert st_spec.kind == StimulusKind.POISSON_POOL
            before = next(s for s in spec.stimuli if s.sid == st_spec.sid)
            # mean flux per target: samples * per-source rate
            assert 20 * st_spec.rate == pytest.approx(before.rate)

    def test_samples_are_distinct_sources(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, _ = substitute_poisson_pool(spec, 100, 20, seed=3)
        for e in out.stim_edges.values():
            per_target = e.src.reshape(-1, 20)
            for row in per_target:
                assert len(set(row.tolist())) == 20

    def test_shared_pool_group_for_identical_stimuli(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, _ = substitute_poisson_pool(spec, 100, 20, seed=3)
        groups = {st.pool_group for st in out.stimuli}
        assert len(groups) == 1  # exc and inh share rate/weight/delay

    def test_oversampling_errors(self):
        with pytest.raises(Exception):
            substitute_poisson_pool(small_brunel(), 10, 20, seed=3)


class TestLeakShift:
    def test_delta_v_oracle(self):
        spec = small_brunel(n=300)
        st_exc = spec.stimuli[0]
        pop = spec.population(st_exc.target)
        expected = (st_exc.rate * 1e-3 * st_exc.weight * pop.params.tau_syn_exc
                    * pop.params.tau_m / pop.params.c_m)
        out, rec = replace_input_with_leak_shift(spec)
        assert rec.details["delta_v_per_population"]["exc"] == \
            pytest.approx(expected)
        assert out.population("exc").params.v_rest == \
            pytest.approx(pop.params.v_rest + expected)
        assert not out.stimuli

    def test_requires_current_mode(self):
        spec = ensure_sampled(small_brunel(n=300))
        conv, _ = convert_current_to_conductance(spec)
        with pytest.raises(Exception):
            replace_input_with_leak_shift(conv)


class TestConductanceConversion:
    def test_weight_division_by_driving_force(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, rec = convert_current_to_conductance(spec)
        pop = spec.population("exc")
        v_mean = 0.5 * (pop.params.v_rest + pop.params.v_thresh)
        df_exc = pop.params.e_rev_exc - v_mean
        df_inh = pop.params.e_rev_inh - v_mean
        e = out.edges["exc->exc"]
        assert np.allclose(e.weight, spec.edges["exc->exc"].weight / df_exc)
        e = out.edges["inh->exc"]
        assert np.allclose(e.weight, spec.edges["inh->exc"].weight / df_inh)
        assert all(pr.kind == SynapseKind.CONDUCTANCE_EXP
                   for pr in out.projections)

    def test_preserves_linearized_psp_peak(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, _ = convert_current_to_conductance(spec)
        pop = spec.population("exc")
        v_mean = 0.5 * (pop.params.v_rest + pop.params.v_thresh)
        before = psp_peak_current(0.05, pop.params.tau_m,
                                  pop.params.tau_syn_exc, pop.params.c_m)
        after = psp_peak_conductance_linear(
            float(out.edges["exc->exc"].weight[0]), pop.params.e_rev_exc,
            v_mean, pop.params.tau_m, pop.params.tau_syn_exc, pop.params.c_m)
        assert after == pytest.approx(before)

    def test_singular_driving_force(self):
        spec = ensure_sampled(small_brunel(n=300))
        pop = spec.population("exc")
        v_mean = pop.params.e_rev_exc
        with pytest.raises(SingularDrivingForceError):
            convert_current_to_conductance(
                spec, assumed_mean_v={"exc": v_mean, "inh": v_mean})

    # just below e_rev_inh the inh->exc driving force changes sign, just
    # above e_rev_exc the exc->exc one does
    @pytest.mark.parametrize("side", ["e_rev_inh", "e_rev_exc"])
    def test_mean_v_outside_reversal_range(self, side):
        spec = ensure_sampled(small_brunel(n=300))
        v_mean = getattr(spec.population("exc").params, side)
        v_mean += -15.0 if side == "e_rev_inh" else 15.0
        with pytest.raises(SingularDrivingForceError, match="exc"):
            convert_current_to_conductance(spec, assumed_mean_v={"exc": v_mean})

    def test_unknown_mean_v_key(self):
        spec = ensure_sampled(small_brunel(n=300))
        with pytest.raises(SingularDrivingForceError, match="nope"):
            convert_current_to_conductance(spec, assumed_mean_v={"nope": -65})

    def test_inhibitory_stimulus_raises(self):
        # in conductance mode a stimulus arrives on the excitatory channel,
        # so converting a negative one would make it depolarizing
        with pytest.raises(WafersimError, match="'s'"):
            convert_current_to_conductance(stimulated(-0.05))


class TestClampTimeConstants:
    def test_raises_tau_and_rescales_weight(self):
        spec = ensure_sampled(small_brunel(n=300))
        pop = spec.population("exc")
        factor = (psp_shape_factor(pop.params.tau_m, pop.params.tau_syn_exc)
                  / psp_shape_factor(pop.params.tau_m, 2.0))
        out, _ = clamp_time_constants(spec, 2.0)
        assert out.population("exc").params.tau_syn_exc == 2.0
        assert np.allclose(out.edges["exc->exc"].weight,
                           spec.edges["exc->exc"].weight * factor)

    def test_preserves_analytic_psp_peak(self):
        spec = ensure_sampled(small_brunel(n=300))
        pop = spec.population("exc")
        before = psp_peak_current(0.05, pop.params.tau_m,
                                  pop.params.tau_syn_exc, pop.params.c_m)
        out, _ = clamp_time_constants(spec, 2.0)
        after = psp_peak_current(float(out.edges["exc->exc"].weight[0]),
                                 pop.params.tau_m, 2.0, pop.params.c_m)
        assert after == pytest.approx(before)

    def test_inhibitory_stimulus_uses_inhibitory_factor(self):
        # the engine delivers a negative current stimulus on the inhibitory
        # channel, so its PSP peak is kept by the tau_syn_inh factor
        spec = stimulated(-0.05, tau_syn_exc=2.0, tau_syn_inh=0.5)
        pooled, _ = substitute_poisson_pool(spec, 10, 5, seed=0)
        factor = psp_shape_factor(20.0, 0.5) / psp_shape_factor(20.0, 2.0)
        for before in (spec, pooled):
            out, _ = clamp_time_constants(before, 2.0)
            assert out.stimuli[0].weight == pytest.approx(-0.05 * factor)
            assert out.stimuli[0].weight == pytest.approx(-0.01469, abs=1e-5)
        assert np.allclose(out.stim_edges["s"].weight, -0.05 * factor)

    def test_noop_when_already_above(self):
        spec = ensure_sampled(small_brunel(n=300))
        out, _ = clamp_time_constants(spec, 0.1)
        assert spec_content_hash(out) == spec_content_hash(spec)

    def test_dense_oracle_roundtrip(self):
        # conversion followed by clamping preserves the PSP peak at the
        # assumed voltage against the independent 1 us integration
        spec = ensure_sampled(small_brunel(n=300))
        pop = spec.population("exc")
        v_mean = 0.5 * (pop.params.v_rest + pop.params.v_thresh)
        before = dense_psp_peak_current(0.05, pop.params.tau_m,
                                        pop.params.tau_syn_exc, pop.params.c_m)
        conv, _ = convert_current_to_conductance(spec)
        out, _ = clamp_time_constants(conv, 2.0)
        p = out.population("exc").params
        after = dense_psp_peak_conductance(
            float(out.edges["exc->exc"].weight[0]), p.e_rev_exc, v_mean,
            p.tau_m, p.tau_syn_exc, p.c_m)
        assert after == pytest.approx(before, rel=0.02)


class TestParameterVariation:
    def test_distribution_moments(self):
        spec = small_brunel(n=2000)
        out, _ = apply_parameter_variation(spec, {"tau_m": 0.1}, seed=5)
        values = out.population("exc").params_per_neuron["tau_m"]
        assert values.mean() == pytest.approx(20.0, rel=0.02)
        assert values.std() == pytest.approx(2.0, rel=0.1)

    def test_validity_enforced(self):
        spec = small_brunel(n=2000)
        out, _ = apply_parameter_variation(
            spec, {"tau_m": 0.5, "v_reset": 0.05, "v_thresh": 0.05}, seed=5)
        for pop in out.populations:
            assert np.all(pop.params_per_neuron["tau_m"] > 0)
            assert np.all(pop.params_per_neuron["v_reset"]
                          < pop.params_per_neuron["v_thresh"])

    def test_deterministic(self):
        spec = small_brunel(n=500)
        a, _ = apply_parameter_variation(spec, {"c_m": 0.2}, seed=6)
        b, _ = apply_parameter_variation(spec, {"c_m": 0.2}, seed=6)
        c, _ = apply_parameter_variation(spec, {"c_m": 0.2}, seed=7)
        assert np.array_equal(a.population("exc").params_per_neuron["c_m"],
                              b.population("exc").params_per_neuron["c_m"])
        assert not np.array_equal(a.population("exc").params_per_neuron["c_m"],
                                  c.population("exc").params_per_neuron["c_m"])

    def test_unknown_field_errors(self):
        with pytest.raises(VariationError):
            apply_parameter_variation(small_brunel(), {"nope": 0.1}, seed=1)

    def test_redraw_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(adaptation, "_MAX_REDRAWS", 0)
        with pytest.raises(VariationError):
            apply_parameter_variation(small_brunel(n=2000), {"tau_m": 1.0},
                                      seed=1)


def mixed_stimuli():
    """A sampled Brunel network with pool stimuli, which have edge lists,
    and one per-neuron stimulus."""
    spec = ensure_sampled(small_brunel(n=300))
    pooled, _ = substitute_poisson_pool(spec, 50, 10, seed=1)
    pooled.stimuli.append(replace(spec.stimuli[0], sid="direct"))
    return pooled


STEPS = {
    "downscale": lambda s: downscale(s, 0.5, 0.5, seed=1),
    "scale_weights_linear": lambda s: scale_weights_linear(s, 0.5),
    "substitute_poisson_pool":
        lambda s: substitute_poisson_pool(s, 50, 10, seed=2),
    "replace_input_with_leak_shift": replace_input_with_leak_shift,
    "convert_current_to_conductance": convert_current_to_conductance,
    "clamp_time_constants": lambda s: clamp_time_constants(s, 2.0),
    "apply_parameter_variation":
        lambda s: apply_parameter_variation(s, {"tau_m": 0.1}, seed=1),
}


@pytest.mark.parametrize("step", list(STEPS))
def test_step_is_pure(step):
    spec = mixed_stimuli()
    before = spec_content_hash(spec)
    out, _ = STEPS[step](spec)
    assert spec_content_hash(spec) == before
    assert spec_content_hash(out) != before


class TestPipeline:
    def test_step_order_and_chained_counts(self):
        spec = small_brunel(n=600)
        cfg = AdaptationConfig(
            neuron_scale=0.5, indegree_scale=0.5,
            poisson_pool={"pool_size": 100, "samples_per_target": 20},
            conductance_conversion=True, min_tau_syn=2.0,
            variation={"tau_m": 0.05}, seed=4)
        adapted, report = adapt_pipeline(spec, cfg)
        names = [s.name for s in report.steps]
        assert names == [
            "downscale", "scale_weights_linear", "substitute_poisson_pool",
            "convert_current_to_conductance", "clamp_time_constants",
            "apply_parameter_variation",
        ]
        assert is_hardware_ready(adapted)

    def test_report_chain_enforced(self):
        report = AdaptationReport()
        report.append(StepRecord("a", 10, 8, 100.0, 50.0))
        with pytest.raises(Exception):
            report.append(StepRecord("b", 10, 8, 50.0, 50.0))

    def test_pool_and_leak_shift_exclusive(self):
        cfg = AdaptationConfig(
            poisson_pool={"pool_size": 10, "samples_per_target": 5},
            leak_shift_input=True)
        with pytest.raises(ValueError):
            cfg.check()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_deterministic_per_seed(self, seed):
        spec = small_brunel(n=200)
        cfg = AdaptationConfig(neuron_scale=0.5, indegree_scale=0.5, seed=seed)
        a, _ = adapt_pipeline(spec, cfg)
        b, _ = adapt_pipeline(spec, cfg)
        assert spec_content_hash(a) == spec_content_hash(b)


EDGE_ARRAYS = ("src", "tgt", "weight", "delay")


def shared_input():
    """A sampled 2083-neuron Brunel network with pool edges and one
    per-neuron stimulus left, so that every step has work to do."""
    spec, _ = substitute_poisson_pool(
        ensure_sampled(small_brunel(n=2083, seed=1)), 100, 20, seed=1)
    spec.stimuli.append(StimulusSpec("extra", "exc", StimulusKind.POISSON_PER_NEURON,
                                     rate=500.0, weight=0.1))
    return spec


SHARING_STEPS = {
    "downscale": lambda s: downscale(s, 0.5, 0.5, seed=1)[0],
    "scale_weights_linear": lambda s: scale_weights_linear(s, 0.5)[0],
    "substitute_poisson_pool":
        lambda s: substitute_poisson_pool(s, 100, 20, seed=2)[0],
    "replace_input_with_leak_shift":
        lambda s: replace_input_with_leak_shift(s)[0],
    "convert_current_to_conductance":
        lambda s: convert_current_to_conductance(s)[0],
    "clamp_time_constants": lambda s: clamp_time_constants(s, 5.0)[0],
    "apply_parameter_variation": lambda s: apply_parameter_variation(
        s, {"v_thresh": 0.05, "tau_m": 0.1}, seed=1)[0],
    "apply_loss": lambda s: apply_loss(
        s, map_network(s, WaferTopology(route_capacity=8))),
}


class TestSharedEdgeArrays:
    """Each step copies its input with the edge arrays shared
    (``copy_spec``), so no step may write into an edge array.  With the
    input's arrays read-only any such write raises, and the input must
    still hold its saved values afterwards."""

    @pytest.mark.parametrize("step", sorted(SHARING_STEPS))
    def test_step_leaves_input_arrays(self, step):
        spec = shared_input()
        saved = {}
        for section in ("edges", "stim_edges"):
            for key, e in getattr(spec, section).items():
                for name in EDGE_ARRAYS:
                    a = getattr(e, name)
                    a.flags.writeable = False
                    saved[section, key, name] = a.copy()
        out = SHARING_STEPS[step](spec)
        for (section, key, name), a in saved.items():
            assert np.array_equal(getattr(getattr(spec, section)[key], name), a)
        if step == "apply_loss":
            assert sum(map(len, out.edges.values())) < \
                sum(map(len, spec.edges.values()))

    def test_copy_shares_arrays_not_edge_lists(self):
        spec = shared_input()
        out = copy_spec(spec)
        for section in ("edges", "stim_edges"):
            for key, e in getattr(spec, section).items():
                copied = getattr(out, section)[key]
                assert copied is not e
                assert all(getattr(copied, name) is getattr(e, name)
                           for name in EDGE_ARRAYS)
        before = spec.edges["exc->exc"].weight
        out.edges["exc->exc"].weight = before * 2
        assert spec.edges["exc->exc"].weight is before
        assert out.populations[0] is not spec.populations[0]
