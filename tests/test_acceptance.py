"""End-to-end acceptance suite.

Each test checks one headline capability at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them as they complete).  The heavyweight runs (phase sweep, microcircuit) are
module-scoped fixtures so the suite stays within its time budget.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from oracles import (
    dense_psp_peak_conductance,
    dense_psp_peak_current,
    lif_constant_current_rate,
)
from wafersim.adaptation import (
    clamp_time_constants,
    convert_current_to_conductance,
    substitute_poisson_pool,
)
from wafersim.analysis import mean_rates
from wafersim.bench import reference_table
from wafersim.engine import (
    SimulationConfig,
    load_spikes_binary,
    poisson_source,
    readout_subset,
    simulate,
)
from wafersim.hardware import (
    InfeasibleFanInError,
    WaferTopology,
    circuits_needed,
)
from wafersim.mapping import load_mapping, map_network
from wafersim.network import (
    FixedProbability,
    NetworkSpec,
    NeuronParameters,
    Population,
    Projection,
    Sign,
    StimulusKind,
    StimulusSpec,
    ensure_sampled,
)
from wafersim.pipeline import (
    PipelineConfig,
    phase_sweep,
    run_pipeline,
    scaled_brunel_config,
    scaled_microcircuit_config,
)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:>2}. {name}: {detail}"
    print("\n" + line)
    assert ok, line


# --- shared heavyweight runs -------------------------------------------------


@pytest.fixture(scope="module")
def ai_run(tmp_path_factory):
    """Scaled balanced random network (g=6, eta=4) mapped onto the full
    wafer and simulated for 2 s."""
    out = tmp_path_factory.mktemp("ai_run")
    start = time.monotonic()
    result = run_pipeline(scaled_brunel_config(topology={}), out)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_grid():
    config = scaled_brunel_config(duration=2000.0)
    config.analysis = {"window_start": 500.0}
    start = time.monotonic()
    grid = phase_sweep(config, [2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
                       [0.5, 0.9, 1.0, 2.0, 4.0], parallel=4)
    return grid, time.monotonic() - start


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    start = time.monotonic()
    result = run_pipeline(scaled_microcircuit_config(duration=10_000.0), out)
    return result, time.monotonic() - start


# --- 1. single neuron integration accuracy ------------------------------------


def test_01_constant_current_rate():
    neuron = NeuronParameters(tau_m=10.0, c_m=0.25, i_offset=0.75)
    spec = NetworkSpec(populations=[Population("n", 1, neuron)], projections=[])
    exact = lif_constant_current_rate(
        0.75, neuron.tau_m, neuron.tau_ref, neuron.c_m,
        neuron.v_rest, neuron.v_reset, neuron.v_thresh)
    start = time.monotonic()
    errors = {}
    for dt, duration in ((0.01, 500.0), (0.1, 2000.0)):
        record = simulate(spec, SimulationConfig(dt=dt, duration=duration,
                                                 seed=0))
        t = record.times
        rate = 1000.0 * (len(t) - 1) / (t[-1] - t[0])
        errors[dt] = abs(rate - exact) / exact
    wall = time.monotonic() - start
    ok = errors[0.01] < 0.01 and errors[0.1] < 0.05 and wall < 1.0
    report(1, "constant-current LIF rate", ok,
           f"rel err {errors[0.01]:.2%} @ dt=0.01 (tol 1%), "
           f"{errors[0.1]:.2%} @ dt=0.1 (tol 5%), wall {wall:.2f}s (< 1s)")


# --- 2. hardware adaptation preserves PSP peaks --------------------------------


def test_02_conversion_clamp_preserves_psp():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        tau_m = rng.uniform(10.0, 30.0)
        tau_syn = rng.uniform(0.3, 3.0)
        c_m = rng.uniform(0.1, 0.5)
        peak_target = rng.uniform(0.05, 0.4)
        inhibitory = bool(rng.integers(2))
        params = NeuronParameters(tau_m=tau_m, tau_syn_exc=tau_syn,
                                  tau_syn_inh=tau_syn, c_m=c_m,
                                  e_rev_exc=0.0, e_rev_inh=-105.0)
        base = dense_psp_peak_current(1.0, tau_m, tau_syn, c_m,
                                      t_max=_t_max(tau_m, tau_syn))
        weight = peak_target / base * (-1.0 if inhibitory else 1.0)
        sign = Sign.INHIBITORY if inhibitory else Sign.EXCITATORY
        spec = NetworkSpec(
            populations=[Population("src", 1, params, sign=sign),
                         Population("tgt", 1, params)],
            projections=[Projection("p", "src", "tgt", FixedProbability(1.0),
                                    weight, 1.0)])
        converted, _ = convert_current_to_conductance(spec)
        clamped, _ = clamp_time_constants(converted, min_tau_syn=1.0)
        proj = clamped.projections[0]
        tgt = clamped.population("tgt").params
        tau_out = tgt.tau_syn_inh if inhibitory else tgt.tau_syn_exc
        e_rev = tgt.e_rev_inh if inhibitory else tgt.e_rev_exc
        v_mean = 0.5 * (params.v_rest + params.v_thresh)
        peak_in = abs(weight) * base
        peak_out = abs(dense_psp_peak_conductance(
            proj.weight, e_rev, v_mean, tau_m, tau_out, c_m,
            t_max=_t_max(tau_m, tau_out)))
        worst = max(worst, abs(peak_out - peak_in) / peak_in)
    wall = time.monotonic() - start
    ok = worst < 0.02 and wall < 60.0
    report(2, "conductance conversion + tau clamp PSP fidelity", ok,
           f"worst rel peak error {worst:.2%} over 100 random parameter sets "
           f"(tol 2%), wall {wall:.1f}s (< 60s)")


def _t_max(tau_m, tau_syn):
    t_star = np.log(tau_m / tau_syn) * tau_m * tau_syn / (tau_m - tau_syn)
    return 2.0 * t_star + 3.0 * tau_syn


# --- 3. Poisson statistics ------------------------------------------------------


def test_03_poisson_flux_and_source_statistics():
    scipy_stats = pytest.importorskip("scipy.stats")
    start = time.monotonic()
    n, rate, duration = 300, 1000.0, 500.0
    quiet = NeuronParameters(v_thresh=1e6)  # record deliveries only
    spec = NetworkSpec(
        populations=[Population("n", n, quiet)], projections=[],
        stimuli=[StimulusSpec("ext", "n", StimulusKind.POISSON_PER_NEURON,
                              rate=rate, weight=0.001, delay=1.0)])
    pooled, step = substitute_poisson_pool(spec, pool_size=100,
                                           samples_per_target=20, seed=7)
    st = pooled.stimuli[0]
    # design identity: per-neuron mean flux is preserved exactly
    assert st.rate * st.samples_per_target == rate
    outdeg = np.bincount(pooled.stim_edges["ext"].src, minlength=st.pool_size)
    expected = n * rate * duration / 1000.0
    var_per = expected
    var_pool = float(np.sum(st.rate * duration / 1000.0 * outdeg ** 2))
    z_per, z_pool = [], []
    for seed in range(20):
        cfg = SimulationConfig(dt=0.1, duration=duration, seed=seed)
        z_per.append((simulate(spec, cfg).deliveries - expected)
                     / np.sqrt(var_per))
        z_pool.append((simulate(pooled, cfg).deliveries - expected)
                      / np.sqrt(var_pool))
    m_per = abs(np.mean(z_per))
    m_pool = abs(np.mean(z_pool))
    bound = 3.0 / np.sqrt(20)
    # standalone source: count and KS checks
    train = poisson_source(200.0, 50_000.0, seed=11)
    count_z = abs(len(train) - 10_000) / np.sqrt(10_000)
    isi = np.diff(train)
    ks_p = scipy_stats.kstest(isi, "expon", args=(0.0, 1000.0 / 200.0)).pvalue
    wall = time.monotonic() - start
    ok = (m_per < bound and m_pool < bound and count_z < 3.0
          and ks_p > 0.01 and wall < 60.0)
    report(3, "external flux preserved by pool substitution", ok,
           f"mean z per-neuron {m_per:.2f}, pooled {m_pool:.2f} "
           f"(bound {bound:.2f}, 20 seeds); source count z {count_z:.2f} "
           f"(< 3), KS p {ks_p:.3f} (> 0.01), wall {wall:.1f}s (< 60s)")


# --- 4. balanced random network phase sweep ------------------------------------


def test_04_brunel_phase_sweep(sweep_grid):
    grid, wall = sweep_grid
    cells = grid.cells
    regimes = {c.regime for c in cells.values()}
    n_exc, t_win = 1666, 1.5  # neurons, window seconds
    monotone = True
    for eta in (1.0, 2.0, 4.0):
        rates = [cells[(g, eta)] for g in (2.0, 3.0, 4.0, 5.0, 6.0, 8.0)]
        for a, b in zip(rates, rates[1:]):
            sig_a = np.sqrt(max(a.mean_rate_exc * max(a.synchrony, 1.0), 0.0)
                            / (n_exc * t_win))
            sig_b = np.sqrt(max(b.mean_rate_exc * max(b.synchrony, 1.0), 0.0)
                            / (n_exc * t_win))
            tol = 2.0 * np.hypot(sig_a, sig_b)
            if b.mean_rate_exc > a.mean_rate_exc + tol:
                monotone = False
    ai_cv = cells[(6.0, 4.0)].cv
    ok = (not grid.partial and len(regimes) >= 2 and monotone
          and 0.7 <= ai_cv <= 1.3 and wall < 1800.0)
    report(4, "scaled 2083-neuron phase sweep", ok,
           f"{len(regimes)} regimes {sorted(regimes)}, rates monotone in g "
           f"(2 sigma): {monotone}, CV(g=6, eta=4) {ai_cv:.3f} in [0.7, 1.3], "
           f"wall {wall:.0f}s (< 1800s)")


# --- 5. scaled cortical microcircuit ---------------------------------------------


def test_05_microcircuit_rates_and_synapses(micro_run):
    result, wall = micro_run
    record = result.record
    full = mean_rates(record, (1000.0, 10_000.0)).per_population_mean
    first = mean_rates(record, (1000.0, 5500.0)).per_population_mean
    second = mean_rates(record, (5500.0, 10_000.0)).per_population_mean
    in_band = all(0.1 <= r <= 60.0 for r in full.values())
    drift = max(abs(first[p] - second[p]) / full[p] for p in full)
    mapping = json.loads(result.artifacts["mapping_report"].read_text())
    realized = mapping["total_realized"]
    syn_err = abs(realized - 2_373_933) / 2_373_933
    ok = in_band and drift < 0.20 and syn_err < 0.02 and wall < 1200.0
    rates = ", ".join(f"{p} {full[p]:.1f}" for p in sorted(full))
    report(5, "scaled microcircuit 10s run", ok,
           f"rates Hz [{rates}] all in [0.1, 60]: {in_band}; half-window "
           f"drift {drift:.1%} (< 20%); post-loss synapses {realized} "
           f"({syn_err:+.2%} of 2373933, tol 2%); wall {wall:.0f}s (< 1200s)")


# --- 6. mapper bookkeeping over random networks ----------------------------------


def test_06_mapper_conservation_and_monotonicity():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    conserved = monotone = deterministic = True
    lost_at_zero = 0
    capacities = (0, 2, 8, 32)
    for i in range(50):
        n = int(rng.integers(20, 60))
        p = float(rng.uniform(0.05, 0.3))
        spec = NetworkSpec(
            populations=[Population("n", n, NeuronParameters())],
            projections=[Projection("r", "n", "n", FixedProbability(p),
                                    0.01, 1.0)],
            seed=i)
        spec = ensure_sampled(spec)
        losses = []
        for cap in capacities:
            topo = WaferTopology(rows=2, cols=2, circuits_per_asic=16,
                                 fanin_per_circuit=32, max_merge=4,
                                 route_capacity=cap)
            res = map_network(spec, topo)
            for pid in res.requested:
                if res.requested[pid] != res.realized[pid] + res.lost[pid]:
                    conserved = False
            losses.append(res.total_lost())
            if cap == 0:
                lost_at_zero += res.total_lost()
            again = map_network(spec, topo)
            if again.realized != res.realized or again.lost != res.lost:
                deterministic = False
        if any(b > a for a, b in zip(losses, losses[1:])):
            monotone = False
    wall = time.monotonic() - start
    ok = (conserved and monotone and deterministic and lost_at_zero > 0
          and wall < 60.0)
    report(6, "mapper loss accounting on 50 random networks", ok,
           f"conservation exact: {conserved}, loss monotone in capacity "
           f"{capacities}: {monotone} ({lost_at_zero} synapses lost at "
           f"capacity 0), deterministic: {deterministic}, "
           f"wall {wall:.1f}s (< 60s)")


# --- 7. wafer aggregates ----------------------------------------------------------


def test_07_wafer_aggregates():
    topo = WaferTopology()
    total = topo.total_circuits
    max_fan = topo.max_fan_in
    need = circuits_needed(14_000, topo)
    try:
        circuits_needed(14_337, topo)
        raised = False
    except InfeasibleFanInError:
        raised = True
    ok = (total == 196_608 and max_fan == 14_336 and need == 63 and raised)
    report(7, "wafer constraint aggregates", ok,
           f"total circuits {total} (=196608), max fan-in {max_fan} "
           f"(=14336), circuits for 14000 inputs {need} (=63), "
           f"14337 rejected: {raised}")


# --- 8. reproducibility -----------------------------------------------------------


def test_08_determinism(tmp_path):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    cfg = dict(model={"name": "brunel", "params": {"n_total": 300}},
               adaptation={"neuron_scale": 1.0, "indegree_scale": 1.0},
               topology={"route_capacity": 64},
               simulation={"dt": 0.1, "duration": 400.0}, seed=3)
    a = run_pipeline(dict(cfg), tmp_path / "a")
    b = run_pipeline(dict(cfg), tmp_path / "b")
    ra = load_spikes_binary(a.artifacts["spikes_bin"])
    rb = load_spikes_binary(b.artifacts["spikes_bin"])
    spikes_equal = (np.array_equal(ra.times, rb.times)
                    and np.array_equal(ra.ids, rb.ids)
                    and ra.deliveries == rb.deliveries)
    mapping_equal = (digest(a.artifacts["mapping"])
                     == digest(b.artifacts["mapping"]))
    base = PipelineConfig(
        model={"name": "brunel", "params": {"n_total": 200}},
        simulation={"dt": 0.1, "duration": 400.0},
        analysis={"window_start": 100.0}, seed=3)
    serial = phase_sweep(base, [4.0, 6.0], [1.0, 2.0], parallel=1).to_csv()
    parallel = phase_sweep(base, [4.0, 6.0], [1.0, 2.0], parallel=4).to_csv()
    sweep_equal = hashlib.sha256(serial.encode()).hexdigest() == \
        hashlib.sha256(parallel.encode()).hexdigest()
    ok = spikes_equal and mapping_equal and sweep_equal
    report(8, "bit-identical reruns and thread independence", ok,
           f"spike files identical: {spikes_equal}, mapping identical: "
           f"{mapping_equal}, sweep serial == 4 workers: {sweep_equal}")


# --- 9. throughput and reference table ---------------------------------------------


EXPECTED_TABLE = """\
Simulator             Performance (1e9 synaptic event/s)  Energy (uJ/synaptic event)
BrainScaleS-1         162                                 <0.012
NeuroAIx-Framework*   19                                  0.048
CsNN*                 3.8                                 0.783
NEST*                 1.8                                 0.48
SpiNNaker             0.9                                 0.6
* estimated from the reported speedup factor"""


def test_09_throughput_and_reference_table(ai_run):
    result, _ = ai_run
    throughput = result.throughput
    table_ok = reference_table().render_text() == EXPECTED_TABLE
    embedded_ok = EXPECTED_TABLE in throughput.render_text()
    rate = throughput.events_per_second
    ok = rate >= 1e6 and table_ok and embedded_ok
    report(9, "event throughput and reference table", ok,
           f"{rate:.2e} synaptic events/s (>= 1e6), reference table "
           f"byte-exact: {table_ok}, embedded in report: {embedded_ok}")


# --- 10. bandwidth-limited readout ---------------------------------------------------


def test_10_stratified_readout(ai_run):
    result, _ = ai_run
    record = result.record
    mapping = load_mapping(result.artifacts["mapping"])
    window = (500.0, 2000.0)
    full = mean_rates(record, window)
    subset = readout_subset(record, 30, seed=0, mapping=mapping)
    t = subset.times
    n_spikes = int(np.count_nonzero((t >= window[0]) & (t < window[1])))
    sub_rate = n_spikes / 30 / ((window[1] - window[0]) / 1000.0)
    full_rate = float(np.mean(full.per_neuron_rates))
    se = float(np.std(full.per_neuron_rates, ddof=1)) / np.sqrt(30)
    ok = abs(sub_rate - full_rate) <= 3.0 * se
    report(10, "30-neuron stratified readout", ok,
           f"subset mean {sub_rate:.2f} Hz vs population {full_rate:.2f} Hz, "
           f"|diff| {abs(sub_rate - full_rate):.2f} <= 3 SE = {3 * se:.2f}")
