import hashlib
import json
import struct
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_psp_peak_conductance, lif_constant_current_rate
from wafersim import engine
from wafersim.adaptation import (
    convert_current_to_conductance,
    replace_input_with_leak_shift,
    substitute_poisson_pool,
)
from wafersim.engine import (
    BLOCK_CAP,
    SCAN_WIDTH,
    SimulationConfig,
    SimulationDiagnosticError,
    SpikeRecord,
    _poisson_events,
    biological_speedup,
    load_spikes_binary,
    poisson_source,
    readout_subset,
    save_membrane_csv,
    save_spikes_binary,
    save_spikes_csv,
    simulate,
)
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import (
    EdgeList,
    ExplicitList,
    FixedProbability,
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
)
from wafersim.psp import psp_peak_current
from wafersim.rngtools import stream


def single_neuron_spec(i_offset, **params):
    neuron = NeuronParameters(i_offset=i_offset, **params)
    pop = Population("n", 1, neuron, Sign.EXCITATORY)
    return NetworkSpec(populations=[pop], projections=[], stimuli=[], seed=0)


def two_neuron_spec(weight, delay, kind=SynapseKind.CURRENT_EXP,
                    driver_i=1.0, **params):
    """Neuron 0 fires regularly under constant current and feeds neuron 1."""
    driver = Population(
        "drv", 1,
        NeuronParameters(i_offset=driver_i, tau_ref=1000.0, **params),
        Sign.EXCITATORY if weight >= 0 else Sign.INHIBITORY)
    target = Population("tgt", 1, NeuronParameters(**params), Sign.EXCITATORY)
    proj = Projection("drv->tgt", "drv", "tgt", ExplicitList(), weight, delay, kind)
    spec = NetworkSpec(populations=[driver, target], projections=[proj],
                       stimuli=[], seed=0)
    spec.edges["drv->tgt"] = EdgeList.from_arrays(
        np.array([0], np.uint32), np.array([0], np.uint32), weight, delay)
    return spec


class TestConstantCurrentOracle:
    @pytest.mark.parametrize("dt,tol", [(0.01, 0.01), (0.1, 0.05)])
    def test_rate_matches_closed_form(self, dt, tol):
        neuron = NeuronParameters()
        i_const = 0.8  # nA; v_inf = -70 + 80*0.8 = -6 mV, well above threshold
        spec = single_neuron_spec(i_const)
        record = simulate(spec, SimulationConfig(dt=dt, duration=2000.0))
        rate = record.spike_count() / 2.0  # Hz over 2 s
        oracle = lif_constant_current_rate(
            i_const, neuron.tau_m, neuron.tau_ref, neuron.c_m,
            neuron.v_rest, neuron.v_reset, neuron.v_thresh)
        assert rate == pytest.approx(oracle, rel=tol)

    def test_subthreshold_never_spikes(self):
        # v_inf = -70 + 80*0.2 = -54 mV < threshold
        record = simulate(single_neuron_spec(0.2),
                          SimulationConfig(dt=0.1, duration=1000.0))
        assert record.spike_count() == 0

    def test_first_spike_time_discrete_oracle(self):
        neuron = NeuronParameters()
        i_const = 0.5
        dt = 0.1
        v_inf = neuron.v_rest + neuron.tau_m / neuron.c_m * i_const
        k = 1
        v = neuron.v_rest
        while True:
            v = v_inf + (v - v_inf) * np.exp(-dt / neuron.tau_m)
            if v >= neuron.v_thresh:
                break
            k += 1
        record = simulate(single_neuron_spec(i_const),
                          SimulationConfig(dt=dt, duration=100.0))
        assert record.times[0] == pytest.approx(k * dt)

    def test_refractory_bounds_isi(self):
        neuron = NeuronParameters(tau_ref=5.0)
        spec = single_neuron_spec(2.0, tau_ref=5.0)
        record = simulate(spec, SimulationConfig(dt=0.1, duration=1000.0))
        isi = np.diff(record.times)
        assert np.all(isi >= neuron.tau_ref + 0.1 - 1e-9)

    def test_saturation_rate_bound(self):
        # even absurd drive cannot beat 1/(tau_ref + dt)
        spec = single_neuron_spec(100.0)
        record = simulate(spec, SimulationConfig(dt=0.1, duration=1000.0))
        assert record.spike_count() <= 1000.0 / (2.0 + 0.1) + 1


class TestSynapticTransmission:
    def check_psp_peak_current_mode(self, delay):
        # driver spikes; target's peak deflection matches the analytic PSP
        neuron = NeuronParameters()
        spec = two_neuron_spec(weight=0.05, delay=delay, driver_i=0.3)
        record = simulate(spec, SimulationConfig(
            dt=0.01, duration=200.0, membrane_probes=[1]))
        peak = record.probes[1].max() - neuron.v_rest
        expected = psp_peak_current(0.05, neuron.tau_m, neuron.tau_syn_exc,
                                    neuron.c_m)
        assert peak == pytest.approx(expected, rel=0.02)
        return record

    def check_delay_respected(self, delay, driver_i=0.3):
        spec = two_neuron_spec(weight=50.0, delay=delay, driver_i=driver_i)
        record = simulate(spec, SimulationConfig(dt=0.1, duration=100.0))
        t_drv = record.times[record.ids == 0][0]
        t_tgt = record.times[record.ids == 1][0]
        # strong input: target fires within a few steps of the delivery
        assert t_drv + delay < t_tgt <= t_drv + delay + 0.5
        return t_drv

    def test_delayed_psp_peak_current_mode(self):
        self.check_psp_peak_current_mode(1.5)

    # The only recurrent delay sets the engine's block length, capped at
    # BLOCK_CAP steps: blocks of one step, of exactly the cap, and a delay
    # longer than the cap.
    @pytest.mark.parametrize("delay_steps", [1, BLOCK_CAP, BLOCK_CAP + 36])
    def test_delayed_psp_peak_at_block_edges(self, delay_steps):
        record = self.check_psp_peak_current_mode(delay_steps * 0.01)
        # the driver spike ends a block, so its delivery is scheduled from
        # the block's last step
        spike_step = round(record.times[record.ids == 0][0] / 0.01) - 1
        assert (spike_step + 1) % min(delay_steps, BLOCK_CAP) == 0

    def test_delay_respected(self):
        self.check_delay_respected(3.0)

    @pytest.mark.parametrize("delay_steps", [1, BLOCK_CAP, BLOCK_CAP + 36])
    def test_delay_respected_at_block_edges(self, delay_steps):
        self.check_delay_respected(delay_steps * 0.1)

    def test_delay_respected_driver_spike_ends_block(self):
        # blocks of 38 steps; the driver fires on step 303, the last of the
        # eighth block
        t_drv = self.check_delay_respected(3.8, driver_i=0.32)
        assert round(t_drv / 0.1) % 38 == 0

    def test_psps_start_at_delay_across_buffer_slides(self):
        # A driver firing every 29 steps feeds two subthreshold targets, over
        # 1 step and over BLOCK_CAP+36 steps.  Blocks are one step long and
        # the input buffer slides every 102 steps, 39 times in 4000 steps;
        # 29 and 102 are coprime, so the long-delay arrivals sit at every row
        # of the moved rows across the slides.  Each target trace must equal
        # the sum of one discrete PSP per driver spike, starting exactly on
        # the step the spike arrives.
        dt, w, d_steps = 0.1, 0.5, np.array([1, BLOCK_CAP + 36])
        neuron = NeuronParameters()
        driver = Population("drv", 1, NeuronParameters(i_offset=3.0),
                            Sign.EXCITATORY)
        target = Population("tgt", 2, neuron, Sign.EXCITATORY)
        proj = Projection("drv->tgt", "drv", "tgt", ExplicitList(), w, 0.1,
                          SynapseKind.CURRENT_EXP)
        spec = NetworkSpec(populations=[driver, target], projections=[proj],
                           stimuli=[], seed=0)
        spec.edges["drv->tgt"] = EdgeList.from_arrays(
            np.zeros(2, np.uint32), np.arange(2, dtype=np.uint32), w,
            d_steps * dt)
        record = simulate(spec, SimulationConfig(
            dt=dt, duration=400.0, membrane_probes=[1, 2]))
        assert not np.any(record.ids > 0)
        n_steps = len(record.probe_times)
        fired = np.round(record.times / dt).astype(np.int64) - 1
        assert np.all(np.diff(fired) == 29)
        # v_k - v_rest = decay_m*(v_(k-1) - v_rest) + gain*r_m*w*decay_s^j
        # on the j-th step after the arrival
        decay_m = np.exp(-dt / neuron.tau_m)
        gain_r = (1 - decay_m) * neuron.tau_m / neuron.c_m
        syn = w * np.exp(-dt / neuron.tau_syn_exc) ** np.arange(n_steps)
        kernel = np.empty(n_steps)
        acc = 0.0
        for j in range(n_steps):
            acc = decay_m * acc + gain_r * syn[j]
            kernel[j] = acc
        for pid, d in zip((1, 2), d_steps):
            arrivals = np.zeros(n_steps)
            arrivals[fired[fired + d < n_steps] + d] = 1.0
            want = neuron.v_rest + np.convolve(arrivals, kernel)[:n_steps]
            np.testing.assert_allclose(record.probes[pid], want, rtol=0,
                                       atol=1e-9)

    def test_delay_below_dt_rejected(self):
        spec = two_neuron_spec(weight=0.05, delay=0.05)
        with pytest.raises(WafersimError):
            simulate(spec, SimulationConfig(dt=0.1, duration=10.0))

    def test_conductance_psp_matches_dense_oracle(self):
        neuron = NeuronParameters()
        w = 0.001  # uS
        spec = two_neuron_spec(weight=w, delay=1.5, driver_i=0.3,
                               kind=SynapseKind.CONDUCTANCE_EXP)
        record = simulate(spec, SimulationConfig(
            dt=0.01, duration=200.0, membrane_probes=[1]))
        peak = record.probes[1].max() - neuron.v_rest
        expected = dense_psp_peak_conductance(
            w, neuron.e_rev_exc, neuron.v_rest, neuron.tau_m,
            neuron.tau_syn_exc, neuron.c_m)
        assert peak == pytest.approx(expected, rel=0.02)

    def test_inhibitory_conductance_hyperpolarizes(self):
        neuron = NeuronParameters()
        spec = two_neuron_spec(weight=0.001, delay=1.5, driver_i=0.3,
                               kind=SynapseKind.CONDUCTANCE_EXP)
        spec.populations[0].sign = Sign.INHIBITORY
        record = simulate(spec, SimulationConfig(
            dt=0.01, duration=100.0, membrane_probes=[1]))
        assert record.probes[1].min() < neuron.v_rest - 1e-6
        assert record.probes[1].max() <= neuron.v_rest + 1e-9


class TestDiagnostics:
    def test_non_finite_synaptic_state_named(self):
        # an infinite weight makes the target's excitatory trace infinite
        # on the step the driver's spike arrives, 30 steps after it fires
        finite = simulate(two_neuron_spec(weight=0.0, delay=3.0),
                          SimulationConfig(dt=0.1, duration=100.0))
        arrival = round(finite.times[finite.ids == 0][0] / 0.1) - 1 + 30
        with pytest.raises(SimulationDiagnosticError,
                           match=rf"syn_e in neuron 1 at step {arrival} "):
            simulate(two_neuron_spec(weight=np.inf, delay=3.0),
                     SimulationConfig(dt=0.1, duration=100.0))

    def test_non_finite_membrane_named(self):
        with pytest.raises(SimulationDiagnosticError,
                           match=r"non-finite v in neuron 0 at step 0 "):
            simulate(single_neuron_spec(np.nan),
                     SimulationConfig(dt=0.1, duration=10.0))


class TestDeliveryAccounting:
    def test_deliveries_equal_spikes_times_out_degree(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=200, eta=0.0),
                                           seed=2))
        for pop in spec.populations:
            pop.params.i_offset = 0.5  # drive without stochastic input
        spec.stimuli = []
        record = simulate(spec, SimulationConfig(dt=0.1, duration=500.0))
        out_degree = np.zeros(spec.n_neurons(), dtype=np.int64)
        offsets = spec.population_offsets()
        for pr in spec.projections:
            e = spec.edges[pr.pid]
            np.add.at(out_degree, offsets[pr.source] + e.src, 1)
        counts = np.bincount(record.ids, minlength=spec.n_neurons())
        assert record.deliveries == int((counts * out_degree).sum())

    def test_external_deliveries_counted(self):
        pop = Population("n", 50, NeuronParameters(), Sign.EXCITATORY)
        spec = NetworkSpec(
            populations=[pop], projections=[],
            stimuli=[StimulusSpec("ext->n", "n",
                                  StimulusKind.POISSON_PER_NEURON,
                                  rate=1000.0, weight=0.0, delay=1.0)],
            seed=0)
        record = simulate(spec, SimulationConfig(dt=0.1, duration=2000.0))
        expected = 50 * 1000.0 * 2.0  # neurons * rate_hz * seconds
        sd = np.sqrt(expected)
        assert abs(record.deliveries - expected) < 4 * sd


@st.composite
def edge_cases(draw):
    """(n, size, parts, fires): ``size`` sources whose edges, in a random
    order, are split into parts, and (buffer row, source) firings."""
    n, size = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    degrees = draw(st.lists(st.sampled_from([0, 1, 31, 32, 33, 101]),
                            min_size=size, max_size=size))
    src = draw(st.permutations([s for s, d in enumerate(degrees)
                                for _ in range(d)]))
    m = len(src)
    w = draw(st.lists(st.one_of(st.just(-0.0), st.floats(-1e3, 1e3)),
                      min_size=m, max_size=m))
    flat = draw(st.lists(st.integers(2 * n, 6 * n - 1), min_size=m, max_size=m))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=3)))
    bounds = [0, *cuts, m]
    parts = [(src[a:b], w[a:b], flat[a:b]) for a, b in zip(bounds, bounds[1:])]
    fires = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, size - 1)),
                          max_size=8)) if size else []
    return n, size, parts, fires


class TestEdgeTable:
    """The fixed-width edge table against a sequential reference: each edge
    of a firing source added alone, in the order of a stable sort of all
    parts' edges by source."""

    @settings(max_examples=40, deadline=None)
    @given(case=edge_cases())
    @example(case=(2, 5, [([4] * 101 + [1] * 31 + [2] * 32 + [3] * 33,
                           [-0.0, 1.5, -2.25] * 65 + [0.0, -0.0],
                           list(range(4, 12)) * 24 + [5, 6, 7, 8, 9]),
                          ([], [], [])],
                   [(0, 4), (1, 1), (0, 4), (3, 2), (3, 3), (2, 0), (0, 4)]))
    @example(case=(1, 2, [([1] * 33, [0.25] * 33, [2] * 33),
                          ([0] * 3 + [1] * 5, [-1.0] * 8, [3] * 8),
                          ([1] * 40, [0.5] * 40, [2, 3] * 20)],
                   [(2, 1), (2, 1), (1, 0)]))
    @example(case=(3, 4, [([], [], [])], [(0, 0), (4, 3)]))
    @example(case=(1, 0, [], []))
    def test_matches_sequential_reference(self, case):
        n, size, parts, fires = case
        stride, rows = 2 * n, 7  # firing rows 0-4, delays of 1-2 rows
        src = [s for p in parts for s in p[0]]
        w = [x for p in parts for x in p[1]]
        flat = [f for p in parts for f in p[2]]
        csr = sorted(range(len(src)), key=src.__getitem__)  # stable
        expected = np.zeros(rows * stride)
        for row, s in fires:
            for e in csr:
                if src[e] == s:
                    expected[row * stride + flat[e]] += w[e]
        # each part's sources given as its least source plus uint32 ids
        table = engine._edge_table(size, [
            (min(s, default=0), np.array(s, np.uint32) - min(s, default=0),
             np.array(x, np.float64), lambda f=f: np.array(f, np.int64))
            for s, x, f in parts], stride)
        r = np.array([row for row, _ in fires], np.int64)
        srcs = np.array([s for _, s in fires], np.int64)
        # in one chunk, and cut after every few gathered rows
        for chunk in (engine.SCATTER_ROWS, 1, 3):
            buf = np.zeros(rows * stride)
            with mock.patch.object(engine, "SCATTER_ROWS", chunk):
                delivered = engine._scatter(buf, r, srcs, table, stride)
            assert np.array_equal(buf.view(np.int64), expected.view(np.int64))
            assert delivered == table["degree"][srcs].sum() \
                == sum(src.count(s) for s in srcs.tolist())
            assert not np.any((buf == 0) & np.signbit(buf))
        degree = max(map(src.count, set(src)), default=0)
        assert table["F"].shape[1] == max(1, min(engine.CHUNK, degree))


def recurrence(a, x, y0):
    """Rows y_k = a[k]*y_(k-1) + x[k] from y_(-1) = y0, one step at a
    time, and the running products a[0]*...*a[k]."""
    y, p, ys, ps = y0, np.ones(x.shape[1]), [], []
    for a_k, x_k in zip(a, x):
        y = a_k * y + x_k
        p = p * a_k
        ys.append(y)
        ps.append(p)
    return np.array(ys), np.array(ps)


class TestScans:
    """The block scans against the step-by-step recurrence: bit for bit at
    ``SCAN_WIDTH`` columns or more, where the scan is that recurrence, and
    to rounding below it, where it is a Hillis-Steele scan."""

    @pytest.mark.parametrize("width", [SCAN_WIDTH - 1, SCAN_WIDTH])
    @pytest.mark.parametrize("L", [1, 8, 15, BLOCK_CAP])
    @pytest.mark.parametrize("state", [False, True], ids=["zero", "state"])
    def test_scan_powers(self, width, L, state):
        rng = np.random.default_rng([width, L, state])
        a = rng.uniform(0.8, 1.0, width)
        x = rng.uniform(0.0, 1.0, (L, width))
        y0 = rng.uniform(0.0, 1.0, width) if state else None
        expected, _ = recurrence(np.broadcast_to(a, x.shape), x,
                                 np.zeros(width) if y0 is None else y0)
        engine._scan_powers(x, engine._powers(a, L), y0)
        self.check(x, expected, width, L)

    @pytest.mark.parametrize("width", [SCAN_WIDTH - 1, SCAN_WIDTH])
    @pytest.mark.parametrize("L", [1, 8, 15, BLOCK_CAP])
    def test_scan(self, width, L):
        rng = np.random.default_rng([width, L])
        a = rng.uniform(0.8, 1.0, (L, width))
        x = rng.uniform(-1.0, 1.0, (L, width))
        expected, products = recurrence(a, x, np.zeros(width))
        engine._scan(a, x)
        self.check(x, expected, width, L)
        self.check(a, products, width, L)

    @staticmethod
    def check(got, expected, width, L):
        if width >= SCAN_WIDTH:
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())
            # the narrow path keeps the Hillis-Steele scan's own rounding
            assert L < 8 or not np.array_equal(got, expected)


class TestPoissonEvents:
    """The engine's Poisson drive: per block, one Poisson total spread
    uniformly over the (step, source) cells."""

    @pytest.mark.parametrize("mean", [0.005, 0.5, 2.0])
    def test_counts_per_cell_are_poisson(self, mean):
        rng = np.random.default_rng(1)
        steps, size, blocks = 15, 40, 1000
        counts = np.empty((blocks, steps * size))
        offsets = np.zeros(steps, np.int64)
        for b in range(blocks):
            k, j = _poisson_events(rng, mean, steps, size)
            assert np.all((0 <= k) & (k < steps) & (0 <= j) & (j < size))
            counts[b] = np.bincount(k * size + j, minlength=steps * size)
            offsets += np.bincount(k, minlength=steps)
        cells = counts.size
        assert abs(counts.mean() - mean) < 4 * np.sqrt(mean / cells)
        # the sample variance of Poisson counts has variance (m + 2m^2)/cells
        assert abs(counts.var() - mean) < 4 * np.sqrt((mean + 2 * mean ** 2)
                                                      / cells)
        assert scipy.stats.chisquare(offsets).pvalue > 1e-3

    @staticmethod
    def per_neuron_spec(n, rate):
        pop = Population("n", n, NeuronParameters(), Sign.EXCITATORY)
        return NetworkSpec(
            populations=[pop], projections=[],
            stimuli=[StimulusSpec("ext->n", "n",
                                  StimulusKind.POISSON_PER_NEURON,
                                  rate=rate, weight=0.0, delay=1.0)],
            seed=0)

    def test_short_final_block_gets_its_share(self):
        # no recurrent edges: one block of BLOCK_CAP steps, then one of 7
        n, rate, dt, n_steps = 50, 20_000.0, 0.1, BLOCK_CAP + 7
        record = simulate(self.per_neuron_spec(n, rate),
                          SimulationConfig(dt=dt, duration=n_steps * dt))
        expected = n * rate * 1e-3 * dt * n_steps
        assert abs(record.deliveries - expected) < 4 * np.sqrt(expected)

    def test_deliveries_are_events_times_out_degree(self):
        # a shared pool at two events per step and source, with out-degrees
        # 0..4; the same stream redrawn gives the events of each source
        size, rate, dt, n_steps, seed = 5, 20_000.0, 0.1, 2 * BLOCK_CAP + 9, 3
        src = np.repeat(np.arange(size), np.arange(size))
        pop = Population("n", 20, NeuronParameters(), Sign.EXCITATORY)
        spec = NetworkSpec(
            populations=[pop], projections=[],
            stimuli=[StimulusSpec("pool->n", "n", StimulusKind.POISSON_POOL,
                                  rate=rate, weight=0.0, delay=1.0,
                                  pool_size=size, samples_per_target=1)],
            seed=0)
        spec.stim_edges["pool->n"] = EdgeList.from_arrays(
            src, np.arange(len(src)), 0.0, 1.0)
        record = simulate(spec, SimulationConfig(dt=dt, duration=n_steps * dt,
                                                 seed=seed))
        rng = stream("engine", seed, "pool", "pool->n")
        events = np.zeros(size, np.int64)
        repeated = 0
        for t0 in range(0, n_steps, BLOCK_CAP):
            L = min(BLOCK_CAP, n_steps - t0)
            k, j = _poisson_events(rng, rate * 1e-3 * dt, L, size)
            events += np.bincount(j, minlength=size)
            repeated += int((np.bincount(k * size + j) > 1).sum())
        assert repeated > 0
        assert record.deliveries == int((events * np.arange(size)).sum())


class TestPoissonSource:
    def test_count_within_3_sigma(self):
        rate, duration = 200.0, 20_000.0
        expected = rate * duration * 1e-3
        for seed in range(5):
            n = len(poisson_source(rate, duration, seed))
            assert abs(n - expected) < 3 * np.sqrt(expected)

    def test_isi_distribution_ks(self):
        times = poisson_source(500.0, 60_000.0, seed=7)
        isi = np.diff(times)
        stat = scipy.stats.kstest(isi, "expon", args=(0, 1000.0 / 500.0))
        assert stat.pvalue > 0.01

    def test_thinned_count_within_3_sigma(self):
        rate, duration, dt = 100.0, 20_000.0, 0.1
        expected = rate * duration * 1e-3
        n = len(poisson_source(rate, duration, seed=3, dt=dt))
        assert abs(n - expected) < 3 * np.sqrt(expected)

    def test_deterministic_per_seed(self):
        a = poisson_source(100.0, 1000.0, seed=1)
        b = poisson_source(100.0, 1000.0, seed=1)
        c = poisson_source(100.0, 1000.0, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_thinning_guardrails(self):
        with pytest.warns(UserWarning):
            poisson_source(2000.0, 100.0, seed=1, dt=0.1)  # p = 0.2
        with pytest.raises(WafersimError):
            poisson_source(20_000.0, 100.0, seed=1, dt=0.1)  # p = 2
        with pytest.raises(WafersimError):
            poisson_source(-1.0, 100.0, seed=1)

    def test_zero_rate_empty(self):
        assert len(poisson_source(0.0, 1000.0, seed=1)) == 0


class TestDeterminism:
    def test_bit_identical_reruns(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        cfg = SimulationConfig(dt=0.1, duration=500.0, seed=9)
        a = simulate(spec, cfg)
        b = simulate(spec, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.ids, b.ids)
        assert a.deliveries == b.deliveries

    def test_seed_changes_result(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        a = simulate(spec, SimulationConfig(dt=0.1, duration=500.0, seed=9))
        b = simulate(spec, SimulationConfig(dt=0.1, duration=500.0, seed=10))
        assert not (len(a.times) == len(b.times)
                    and np.array_equal(a.times, b.times))

    def test_spikes_sorted_by_time_then_id(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        record = simulate(spec, SimulationConfig(dt=0.1, duration=500.0))
        order = np.lexsort((record.ids, record.times))
        assert np.array_equal(order, np.arange(len(order)))


def pinned_pool_spec():
    """Current-based Brunel (n=300, g=5, eta=2) driven by a shared pool."""
    spec = ensure_sampled(build_brunel(
        BrunelParams(n_total=300, g=5.0, eta=2.0), seed=0))
    spec, _ = substitute_poisson_pool(spec, 300, 40, seed=0)
    return spec


def pinned_conductance_spec():
    """Conductance network with delays of 0.8-2.0 ms, a leak shift in place
    of the per-neuron inputs and a per-neuron drive of the exc population."""
    spec = ensure_sampled(build_brunel(
        BrunelParams(n_total=250, g=4.0, eta=0.9), seed=1))
    rng = np.random.default_rng(5)
    for e in spec.edges.values():
        e.delay = rng.uniform(0.8, 2.0, len(e))
    spec, _ = replace_input_with_leak_shift(spec)
    spec, _ = convert_current_to_conductance(spec)
    spec.stimuli.append(StimulusSpec("ext->exc", "exc",
                                     StimulusKind.POISSON_PER_NEURON,
                                     rate=5000.0, weight=0.002, delay=1.3))
    return spec


class TestPinnedOutput:
    """The engine's output bits, recorded at commit fa04d10 (CSR delivery)
    and kept by every later delivery layout: a reordered or dropped
    delivery changes the spike hash, which reruns of one build cannot
    show."""

    @pytest.mark.parametrize("make,deliveries,spikes,digest", [
        (pinned_pool_spec, 2_082_511, 9284,
         "86ce84fbd33bd2f789638d31357860d9"),
        (pinned_conductance_spec, 485_587, 7408,
         "a10773c012aaf762adf0429047495705"),
    ], ids=["pool", "conductance"])
    def test_pinned(self, make, deliveries, spikes, digest):
        record = simulate(make(), SimulationConfig(dt=0.1, duration=300.0))
        assert record.deliveries == deliveries
        assert record.spike_count() == spikes
        assert hashlib.blake2b(record.times.tobytes() + record.ids.tobytes(),
                               digest_size=16).hexdigest() == digest


def burst_spec(k, sink):
    """``k`` neurons whose rest lies above threshold, so that all fire in
    the first step and then stay refractory, each reaching every one of
    ``sink`` neurons through an edge of random weight and delay (1-2 ms);
    the sink neurons, which reach no one, also get a per-neuron drive.  A
    sink neuron rests at 0 mV and never fires, so its membrane keeps the
    low bits of its input sums, which any change in their order moves."""
    burst = NeuronParameters(v_rest=-40.0, tau_ref=1000.0)
    sink_params = NeuronParameters(v_rest=0.0, v_reset=-10.0, v_thresh=1e3)
    spec = ensure_sampled(NetworkSpec(
        [Population("burst", k, burst), Population("sink", sink, sink_params)],
        [Projection("b->s", "burst", "sink", FixedProbability(1.0), 0.0, 1.0)],
        [StimulusSpec("drive", "sink", StimulusKind.POISSON_PER_NEURON,
                      rate=4000.0, weight=0.05)]))
    e = spec.edges["b->s"]
    rng = np.random.default_rng(k)
    e.weight = rng.uniform(0.0, 0.02, len(e))
    e.delay = rng.choice([1.0, 1.3, 2.0], len(e))
    return spec


class TestScatterChunks:
    """A burst is delivered in chunks of ``SCATTER_ROWS`` gathered rows:
    the output does not depend on the cut, and the scatter's memory
    follows the chunk, not the burst."""

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_cut_changes_no_bit(self, chunk, monkeypatch):
        spec = burst_spec(64, 512)
        cfg = SimulationConfig(dt=0.1, duration=15.0,
                               membrane_probes=[0, 64, 65, 300, 575])
        ref = simulate(spec, cfg)
        monkeypatch.setattr(engine, "SCATTER_ROWS", chunk)
        cut = simulate(spec, cfg)
        assert (ref.times[:64] == 0.1).all()  # the burst, in one block
        assert ref.deliveries == cut.deliveries > 64 * 512
        assert np.array_equal(ref.times, cut.times)
        assert np.array_equal(ref.ids, cut.ids)
        for pid, v in ref.probes.items():
            assert np.array_equal(v.view(np.int64), cut.probes[pid].view(np.int64))

    def test_peak_does_not_follow_burst(self):
        """The tracemalloc peak of ``run``, above the edge table built
        before it, for a burst of 16,384 table rows and one of 32,768;
        gathered whole, the second would take 8 MB more."""
        peaks = []
        for k in (256, 512):
            eng = engine._Engine(burst_spec(k, 2048),
                                 SimulationConfig(dt=0.1, duration=5.0))
            assert eng.edges["n_rows"][:k].sum() == 64 * k
            tracemalloc.start()
            try:
                record = eng.run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (record.times[:k] == 0.1).all()
        assert peaks[1] - peaks[0] < 2**20


class TestRecordingOptions:
    def test_record_population_subset(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        record = simulate(spec, SimulationConfig(
            dt=0.1, duration=300.0, record_populations=["inh"]))
        lo, hi = record.population_slices["inh"]
        assert np.all((record.ids >= lo) & (record.ids < hi))

    @pytest.mark.parametrize("probe", [-1, 300, 1.0])
    def test_probe_id_outside_network_rejected(self, probe):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        with pytest.raises(WafersimError, match="membrane probes"):
            simulate(spec, SimulationConfig(duration=10.0,
                                            membrane_probes=[probe]))

    def test_probe_limit(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        with pytest.raises(ValueError):
            simulate(spec, SimulationConfig(duration=10.0,
                                            membrane_probes=list(range(9))))

    def test_readout_subset_uniform(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=300), seed=4))
        record = simulate(spec, SimulationConfig(dt=0.1, duration=500.0))
        sub = readout_subset(record, 30, seed=1)
        assert len(sub.recorded_neurons) == 30
        assert set(np.unique(sub.ids)) <= set(sub.recorded_neurons.tolist())

    def test_readout_subset_stratified(self):
        from wafersim.hardware import WaferTopology
        from wafersim.mapping import map_network
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=2083), seed=1))
        topo = WaferTopology(circuits_per_asic=64)  # spread over many ASICs
        mapping = map_network(spec, topo)
        record = simulate(spec, SimulationConfig(dt=0.1, duration=200.0))
        sub = readout_subset(record, 30, seed=1, mapping=mapping)
        asics = mapping.placement.neuron_asic[sub.recorded_neurons]
        # round-robin over ASICs: no ASIC sampled twice before all once
        assert len(np.unique(asics)) == min(30, len(np.unique(
            mapping.placement.neuron_asic)))

    # ASICs of uneven size; a pool of all neurons or of every third one
    @pytest.mark.filterwarnings("ignore:empty readout subset")
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("n", [0, 30, 500, "all"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_readout_subset_stratified_matches_queue_oracle(self, step, n,
                                                            seed):
        rng = np.random.default_rng(seed)
        neuron_asic = np.sort(rng.integers(0, 40, 2083))
        pool = np.arange(0, 2083, step, dtype=np.uint32)
        ids = rng.integers(0, 2083, 5000).astype(np.uint32)
        record = SpikeRecord(
            times=np.sort(rng.uniform(0.0, 100.0, 5000)), ids=ids,
            n_neurons=2083, duration=100.0, dt=0.1, deliveries=0,
            wall_time=0.0, population_slices={},
            recorded_neurons=None if step == 1 else pool)
        n = len(pool) if n == "all" else n
        mapping = mock.Mock()
        mapping.placement.neuron_asic = neuron_asic
        sub = readout_subset(record, n, seed, mapping=mapping)
        want = oracles.stratified_readout(pool, neuron_asic, n, seed)
        assert np.array_equal(sub.recorded_neurons, want)
        keep = np.isin(ids, want)
        assert np.array_equal(sub.ids, ids[keep])
        assert np.array_equal(sub.times, record.times[keep])

    def test_readout_too_large_errors(self):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=100), seed=4))
        record = simulate(spec, SimulationConfig(dt=0.1, duration=100.0))
        with pytest.raises(WafersimError):
            readout_subset(record, 101, seed=1)


class TestSerialization:
    def make_record(self, **config):
        spec = ensure_sampled(build_brunel(BrunelParams(n_total=200), seed=4))
        return simulate(spec, SimulationConfig(dt=0.1, duration=300.0,
                                               **config))

    def test_binary_roundtrip(self, tmp_path):
        for probes in ([], [3, 150]):
            record = self.make_record(membrane_probes=probes)
            path = save_spikes_binary(record, tmp_path / "s.bin")
            again = load_spikes_binary(path)
            assert np.array_equal(again.times, record.times)
            assert np.array_equal(again.ids, record.ids)
            assert again.deliveries == record.deliveries
            assert again.population_slices == record.population_slices
            assert again.config == record.config
            if probes:
                assert np.array_equal(again.probe_times, record.probe_times)
            else:
                assert again.probe_times is None
            assert again.probes.keys() == record.probes.keys()
            for pid in probes:
                assert np.array_equal(again.probes[pid], record.probes[pid])
            # the loaded record saves to the same file, config hash included
            resaved = save_spikes_binary(again, tmp_path / "again.bin")
            assert resaved.read_bytes() == path.read_bytes()

    # keep the magic and part of the header, or drop the last byte, the
    # last probe value, or probe values and spikes
    @pytest.mark.parametrize("keep", [20, -1, -8, -30_000])
    def test_truncated_binary_rejected(self, tmp_path, keep):
        record = self.make_record(membrane_probes=[3])
        raw = save_spikes_binary(record, tmp_path / "s.bin").read_bytes()
        assert len(raw) > 30_000
        bad = tmp_path / "cut.bin"
        bad.write_bytes(raw[:keep])
        with pytest.raises(WafersimError):
            load_spikes_binary(bad)

    def test_csv_header_and_rows(self, tmp_path):
        record = self.make_record()
        path = save_spikes_csv(record, tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        headers = [ln for ln in lines if ln.startswith("#")]
        assert any("deliveries" in h for h in headers)
        assert "time_ms,neuron_id" in lines
        n_rows = len(lines) - len(headers) - 1
        assert n_rows == record.spike_count()

    # values off the dt grid, decimal ties at the 7th decimal (0.0000005,
    # 2.5e-7), whose binary value decides the rounding, negative and large
    # values, and the largest uint32 id
    OFF_GRID = np.concatenate([
        [0.0, 0.0000005, 2.5e-7, 0.0000015, 1.0000005, 0.1234565, -0.0000005,
         -2.5e-7, 123.4567895, 99999.9999995, 1e-12],
        np.random.default_rng(7).uniform(0.0, 1000.0, 200)])

    @pytest.mark.parametrize("chunk", [7, engine._CSV_CHUNK])
    def test_csv_rows_match_numpy_scalar_formatting(self, tmp_path,
                                                    monkeypatch, chunk):
        monkeypatch.setattr(engine, "_CSV_CHUNK", chunk)
        times = self.OFF_GRID
        ids = np.arange(len(times), dtype=np.uint32)
        ids[-1] = np.iinfo(np.uint32).max
        record = SpikeRecord(times=times, ids=ids, n_neurons=len(times),
                             duration=1000.0, dt=0.1, deliveries=0,
                             wall_time=0.0, population_slices={})
        text = save_spikes_csv(record, tmp_path / "s.csv").read_text()
        rows = text.split("time_ms,neuron_id\n")[1]
        assert rows == "".join(f"{t:.6f},{i}\n" for t, i in zip(times, ids))

    def test_membrane_csv_matches_numpy_scalar_formatting(self, tmp_path):
        values = self.OFF_GRID
        record = SpikeRecord(
            times=np.zeros(0), ids=np.zeros(0, np.uint32), n_neurons=200,
            duration=1000.0, dt=0.1, deliveries=0, wall_time=0.0,
            population_slices={}, probe_times=values,
            probes={150: values[::-1].copy(), 3: -values})
        lines = ["time_ms,v_3,v_150"]
        for k, t in enumerate(record.probe_times):
            lines.append(f"{t:.6f}," + ",".join(
                f"{record.probes[i][k]:.6f}" for i in (3, 150)))
        path = save_membrane_csv(record, tmp_path / "m.csv")
        assert path.read_text() == "\n".join(lines) + "\n"

    @staticmethod
    def rewrite_header(raw, edit):
        """``raw`` with its header replaced by ``edit(header)``."""
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = json.loads(raw[8:8 + hlen])
        edit(header)
        new = json.dumps(header, sort_keys=True).encode()
        return raw[:4] + struct.pack("<I", len(new)) + new + raw[8 + hlen:]

    def test_header_without_wall_time(self, tmp_path):
        raw = save_spikes_binary(self.make_record(), tmp_path / "s.bin"
                                 ).read_bytes()
        assert b"wall_time_s" not in raw
        assert load_spikes_binary(tmp_path / "s.bin").wall_time == 0.0
        # an older file carries the run's wall time in its header
        old = tmp_path / "old.bin"
        old.write_bytes(self.rewrite_header(
            raw, lambda h: h.update(wall_time_s=1.25)))
        assert load_spikes_binary(old).wall_time == 1.25

    def test_header_missing_key_rejected(self, tmp_path):
        raw = save_spikes_binary(self.make_record(membrane_probes=[3]),
                                 tmp_path / "s.bin").read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        # config_hash is written for readers of the file; no loader reads it
        keys = set(json.loads(raw[8:8 + hlen])) - {"config_hash"}
        assert len(keys) == 10
        for key in sorted(keys):
            bad = tmp_path / f"no_{key}.bin"
            bad.write_bytes(self.rewrite_header(raw, lambda h: h.pop(key)))
            with pytest.raises(WafersimError, match="corrupt spike record"):
                load_spikes_binary(bad)

    # one header field of the wrong type each: the loader checks types as
    # configs are checked (a bool is never a number, an int is a float)
    @pytest.mark.parametrize("field", [
        {"n_neurons": "x"}, {"config": [1]}, {"duration_ms": "1"},
        {"deliveries": 2.5}, {"population_slices": {"a": "xy"}}],
        ids=lambda field: next(iter(field)))
    def test_header_field_type_checked(self, tmp_path, field):
        raw = save_spikes_binary(self.make_record(), tmp_path / "s.bin"
                                 ).read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(self.rewrite_header(raw, lambda h: h.update(field)))
        with pytest.raises(WafersimError):
            load_spikes_binary(bad)

    def test_header_with_empty_config_loads(self, tmp_path):
        # a record built without a simulation config carries {}
        record = replace(self.make_record(), config={})
        again = load_spikes_binary(save_spikes_binary(record,
                                                      tmp_path / "s.bin"))
        assert again.config == {}
        assert np.array_equal(again.ids, record.ids)

    @pytest.mark.parametrize("ids", [[-1], [2 ** 32]])
    def test_header_recorded_id_past_uint32_rejected(self, tmp_path, ids):
        raw = save_spikes_binary(self.make_record(), tmp_path / "s.bin"
                                 ).read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(self.rewrite_header(
            raw, lambda h: h.update(recorded_neurons=ids)))
        with pytest.raises(WafersimError, match="corrupt spike record"):
            load_spikes_binary(bad)

    def test_header_recorded_id_past_n_neurons_rejected(self, tmp_path):
        record = self.make_record()
        raw = save_spikes_binary(record, tmp_path / "s.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(self.rewrite_header(raw, lambda h: h.update(
            recorded_neurons=[0, record.n_neurons])))
        with pytest.raises(WafersimError, match="corrupt spike record"):
            load_spikes_binary(bad)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(WafersimError):
            load_spikes_binary(p)


UINT32_MAX = int(np.iinfo(np.uint32).max)
ids_strategy = st.integers(0, UINT32_MAX)


def csv_record(times=(), ids=None, probe_times=None, probes=None):
    times = np.asarray(times, dtype=np.float64)
    return SpikeRecord(
        times=times,
        ids=(np.zeros(len(times), np.uint32) if ids is None
             else np.asarray(ids, np.uint32)),
        n_neurons=1, duration=1000.0, dt=0.1, deliveries=0, wall_time=0.0,
        population_slices={"n": (0, 1)},
        probe_times=None if probe_times is None
        else np.asarray(probe_times, np.float64),
        probes={} if probes is None
        else {pid: np.asarray(v, np.float64) for pid, v in probes.items()})


def write_both(record, out_dir, chunk, membrane=False):
    """(new bytes, old bytes, indices of the rows written by ``%``) of the
    spike CSV, or the membrane CSV, with ``chunk`` rows per write."""
    new_writer = save_membrane_csv if membrane else save_spikes_csv
    old_writer = (oracles.save_membrane_csv if membrane
                  else oracles.save_spikes_csv)
    slow = []
    format_row = engine._format_row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CSV_CHUNK", chunk)
        mp.setattr(engine, "_format_row",
                   lambda fmt, cols, i: slow.append(i) or format_row(fmt, cols, i))
        new = new_writer(record, out_dir / "new.csv").read_bytes()
    old = old_writer(record, out_dir / "old.csv").read_bytes()
    return new, old, slow


CHUNKS = [1, 7, engine._CSV_CHUNK]
# decimal ties at the 7th decimal: a decimal string, so the float is the
# double nearest the tie, above or below it
ties = st.integers(0, 10**12).map(
    lambda k: float(f"{k // 10**6}.{k % 10**6:06d}5"))


class TestCsvFormatter:
    """The vectorised CSV writers against the ``%`` writers they replaced,
    byte for byte."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("dt", [0.1, 0.025, 1 / 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_grid_times_take_no_slow_row(self, tmp_path_factory, dt, chunk,
                                         data):
        steps = data.draw(st.lists(st.integers(0, int(1e6 / dt)),
                                   max_size=60))
        ids = data.draw(st.lists(ids_strategy, min_size=len(steps),
                                 max_size=len(steps)))
        times = np.sort(np.asarray(steps, np.int64)) * dt
        record = csv_record(times, ids)
        new, old, slow = write_both(record, tmp_path_factory.mktemp("g"),
                                    chunk)
        assert new == old
        assert slow == []

    def test_ids_at_both_ends(self, tmp_path):
        record = csv_record([0.1, 0.2, 1e6], [0, UINT32_MAX, 9])
        new, old, slow = write_both(record, tmp_path, engine._CSV_CHUNK)
        assert new == old and slow == []
        assert new.endswith(b"0.100000,0\n0.200000,4294967295\n"
                            b"1000000.000000,9\n")

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=40),
           data=st.data())
    @example(times=[0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308,
                    -1e-9, 2.0**40 / 1e6, 2.0**52 / 1e6, -2.0**53 / 1e6],
             data=None)
    def test_any_finite_spike_times(self, tmp_path_factory, chunk, times,
                                    data):
        ids = [] if data is None else data.draw(st.lists(
            ids_strategy, min_size=len(times), max_size=len(times)))
        record = csv_record(times, ids or None)
        new, old, _ = write_both(record, tmp_path_factory.mktemp("f"), chunk)
        assert new == old

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(ties, min_size=1, max_size=30), sign=st.booleans())
    @example(values=[5e-7, 2.5e-7, 0.0000025, 0.0000035, 1.0000005,
                     0.1234565, 99999.9999995], sign=False)
    @example(values=[0.0078125, 2.0**40 / 1e6 + 0.5e-6, 2.0**52 / 1e6,
                     np.nextafter(2.0**52 / 1e6, 0)], sign=True)
    def test_decimal_ties_and_large_values(self, tmp_path_factory, chunk,
                                           values, sign):
        values = -np.asarray(values) if sign else np.asarray(values)
        new, old, _ = write_both(csv_record(values),
                                 tmp_path_factory.mktemp("t"), chunk)
        assert new == old

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_probes=st.integers(0, 3))
    def test_membrane_any_float(self, tmp_path_factory, chunk, data,
                                n_probes):
        # st.floats() draws NaN, the infinities, -0.0 and subnormals too
        n = data.draw(st.integers(0, 25))
        column = st.lists(st.floats(), min_size=n, max_size=n)
        record = csv_record(probe_times=data.draw(column), probes={
            pid: data.draw(column) for pid in (150, 3, 77)[:n_probes]})
        new, old, _ = write_both(record, tmp_path_factory.mktemp("m"), chunk,
                                 membrane=True)
        assert new == old

    def test_membrane_special_values(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-9, 5e-324, -65.0]
        record = csv_record(probe_times=np.arange(len(values)) * 0.1,
                            probes={3: values, 1: values[::-1]})
        new, old, slow = write_both(record, tmp_path, engine._CSV_CHUNK,
                                    membrane=True)
        assert new == old
        assert slow == [0, 1, 2, 5, 6, 7]  # rows with NaN or an infinity
        assert b"\n0.400000,-0.000000,0.000000\n" in new

    @pytest.mark.parametrize("membrane", [False, True])
    def test_empty_record(self, tmp_path, membrane):
        record = csv_record(probe_times=[], probes={4: []})
        new, old, _ = write_both(record, tmp_path, 7, membrane)
        assert new == old
        assert new.endswith(b"time_ms,v_4\n" if membrane
                            else b"time_ms,neuron_id\n")

    def test_membrane_without_probes(self, tmp_path):
        record = csv_record(probe_times=[0.1, 0.2], probes={})
        new, old, _ = write_both(record, tmp_path, 7, membrane=True)
        assert new == old == b"time_ms,\n0.100000,\n0.200000,\n"


class TestCsvWidestRow:
    """The widest row the membrane writer takes: ``MAX_PROBES`` probes, byte
    for byte against the ``%`` writer.  Most values take the fast path,
    ten-digit integer parts below its 2**52 / 1e6 bound among them; a few
    cells hold NaN, an infinity, a decimal tie or a value at or above the
    bound, which send their row to ``%``."""

    bound = 2.0**52 / 1e6
    fast = st.one_of(
        st.floats(-bound, bound, exclude_min=True, exclude_max=True),
        st.floats(1e9, bound, exclude_max=True),
        st.floats(-bound, -1e9, exclude_min=True))
    special = st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf]), ties,
        ties.map(lambda v: -v), st.floats(bound, 1e300),
        st.floats(-1e300, -bound))

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_max_probes(self, tmp_path_factory, chunk, data):
        n = data.draw(st.integers(1, 25))
        width = 1 + engine.MAX_PROBES
        columns = [data.draw(st.lists(self.fast, min_size=n, max_size=n))
                   for _ in range(width)]
        for row, col, value in data.draw(st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, width - 1),
                self.special), max_size=3)):
            columns[col][row] = value
        pids = data.draw(st.lists(st.integers(0, 10**6), unique=True,
                                  min_size=engine.MAX_PROBES,
                                  max_size=engine.MAX_PROBES))
        record = csv_record(probe_times=columns[0],
                            probes=dict(zip(pids, columns[1:])))
        new, old, _ = write_both(record, tmp_path_factory.mktemp("w"), chunk,
                                 membrane=True)
        assert new == old
        assert new.count(b",") == (n + 1) * engine.MAX_PROBES


class TestSpeedup:
    def test_arithmetic(self):
        assert biological_speedup(10_000.0, 1.0) == pytest.approx(10.0)
        assert biological_speedup(500.0, 2.0) == pytest.approx(0.25)
        with pytest.raises(WafersimError):
            biological_speedup(1000.0, 0.0)
