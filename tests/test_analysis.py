import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wafersim.analysis import (
    Regime,
    RegimeThresholds,
    _by_neuron,
    classify_regime,
    cv_isi,
    mean_rates,
    rate_distribution,
    synchrony,
)
from wafersim.engine import SpikeRecord, poisson_source
from wafersim.network import WafersimError
from wafersim.pipeline import PipelineConfig, phase_sweep, run_sweep_cell

from oracles import cv_isi_per_neuron, synchrony_dense


def make_record(times, ids, n_neurons, duration, slices=None):
    times = np.asarray(times, np.float64)
    ids = np.asarray(ids, np.uint32)
    order = np.lexsort((ids, times))
    return SpikeRecord(
        times=times[order], ids=ids[order], n_neurons=n_neurons,
        duration=duration, dt=0.1, deliveries=0, wall_time=1.0,
        population_slices=slices or {"all": (0, n_neurons)})


def poisson_record(n_neurons, rate, duration, seed=0):
    times, ids = [], []
    for i in range(n_neurons):
        t = poisson_source(rate, duration, seed=seed * 1000 + i)
        times.append(t)
        ids.append(np.full(len(t), i, np.uint32))
    return make_record(np.concatenate(times), np.concatenate(ids),
                       n_neurons, duration)


class TestMeanRates:
    def test_counts_over_window(self):
        record = make_record([100, 200, 300, 400, 900], [0, 0, 0, 1, 1], 2,
                             1000.0)
        summary = mean_rates(record, (0.0, 1000.0))
        assert summary.per_neuron_rates.tolist() == [3.0, 2.0]
        assert summary.per_population_mean["all"] == pytest.approx(2.5)

    def test_window_restricts(self):
        record = make_record([100, 600], [0, 0], 1, 1000.0)
        summary = mean_rates(record, (500.0, 1000.0))
        assert summary.per_neuron_rates.tolist() == [2.0]

    def test_bad_window_errors(self):
        record = make_record([100], [0], 1, 1000.0)
        with pytest.raises(WafersimError):
            mean_rates(record, (500.0, 100.0))
        with pytest.raises(WafersimError):
            mean_rates(record, (0.0, 2000.0))


class TestRateDistribution:
    def test_total_and_quartiles(self):
        rng = np.random.default_rng(1)
        n = 200
        counts = rng.poisson(10.0, size=n)
        times = np.concatenate([
            np.sort(rng.uniform(0, 1000.0, c)) for c in counts])
        ids = np.repeat(np.arange(n, dtype=np.uint32), counts)
        record = make_record(times, ids, n, 1000.0)
        hist = rate_distribution(record, "all", (0.0, 1000.0), bins=15)
        assert hist.total() == n
        q1, q2, q3 = hist.quartiles
        assert q1 <= q2 <= q3
        assert q2 == pytest.approx(np.median(counts), abs=1.0)


class TestCvIsi:
    def test_regular_train_zero(self):
        record = make_record(np.arange(10, 1000, 10.0),
                             np.zeros(99, np.uint32), 1, 1000.0)
        result = cv_isi(record)
        assert result.per_neuron[0] == pytest.approx(0.0, abs=1e-12)

    def test_poisson_near_one(self):
        record = poisson_record(20, 50.0, 20_000.0, seed=3)
        result = cv_isi(record)
        assert np.mean(list(result.per_neuron.values())) == \
            pytest.approx(1.0, abs=0.05)

    def test_sparse_neurons_excluded(self):
        record = make_record([100, 200, 100, 100, 200, 300], [0, 0, 1, 2, 2, 2],
                             4, 1000.0)
        result = cv_isi(record)
        assert set(result.per_neuron) == {2}
        assert result.excluded == 3  # two sparse spikers + one silent

    @pytest.mark.parametrize("window", [(5.0, 2.0), (0.0, 50.0)])
    def test_bad_window_errors(self, window):
        record = make_record([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0], 1, 10.0)
        with pytest.raises(WafersimError):
            cv_isi(record, window)
        with pytest.raises(WafersimError):
            mean_rates(record, window)

    def test_no_window_is_whole_record(self):
        record = make_record([1.0, 2.0, 4.0, 9.5], [0, 0, 0, 0], 1, 10.0)
        whole = cv_isi(record, (0.0, 10.0))
        assert cv_isi(record).per_neuron == whole.per_neuron


class TestSynchrony:
    def test_independent_near_one(self):
        record = poisson_record(40, 30.0, 20_000.0, seed=5)
        index = synchrony(record, (0.0, 20_000.0), bin_ms=2.0)
        assert index == pytest.approx(1.0, abs=0.25)

    def test_identical_trains_equal_n(self):
        base = poisson_source(20.0, 10_000.0, seed=9)
        n = 25
        times = np.tile(base, n)
        ids = np.repeat(np.arange(n, dtype=np.uint32), len(base))
        record = make_record(times, ids, n, 10_000.0)
        index = synchrony(record, (0.0, 10_000.0), bin_ms=2.0)
        assert index == pytest.approx(n, rel=0.01)

    def test_needs_enough_bins_and_neurons(self):
        record = poisson_record(2, 30.0, 1000.0, seed=5)
        with pytest.raises(WafersimError):
            synchrony(record, (0.0, 10.0), bin_ms=2.0)
        single = poisson_record(1, 30.0, 1000.0, seed=5)
        with pytest.raises(WafersimError):
            synchrony(single, (0.0, 1000.0), bin_ms=2.0)


DURATION = 100.0


@st.composite
def spike_records(draw):
    """Small records in generation order, not sorted: spikes on a coarse grid
    (many exact duplicates) or anywhere in [0, DURATION], and optionally a
    recorded subset that, as in ``readout_subset``, keeps only its spikes."""
    n = draw(st.integers(2, 8))
    when = st.one_of(st.integers(0, 400).map(lambda k: k * 0.25),
                     st.floats(0.0, DURATION))
    spikes = draw(st.lists(st.tuples(when, st.integers(0, n - 1)), max_size=80))
    times = np.array([t for t, _ in spikes], np.float64)
    ids = np.array([i for _, i in spikes], np.uint32)
    recorded = None
    if draw(st.booleans()):
        recorded = np.array(sorted(draw(st.sets(st.integers(0, n - 1),
                                                min_size=2))), np.uint32)
        keep = np.isin(ids, recorded)
        times, ids = times[keep], ids[keep]
    return SpikeRecord(times=times, ids=ids, n_neurons=n, duration=DURATION,
                       dt=0.1, deliveries=0, wall_time=0.0,
                       population_slices={"all": (0, n)},
                       recorded_neurons=recorded)


windows = st.tuples(st.floats(0.0, 40.0), st.floats(60.0, DURATION))


def check_cv_against_oracle(record, window):
    result = cv_isi(record, window)
    want, excluded = cv_isi_per_neuron(record.times, record.ids,
                                       len(record.neurons_recorded()), window)
    assert set(result.per_neuron) == set(want)
    assert result.excluded == excluded
    for neuron, cv in want.items():
        # near-equal ISIs leave a CV of a few ulp that depends on summation
        # order, hence the absolute floor
        assert result.per_neuron[neuron] == pytest.approx(cv, rel=1e-12,
                                                          abs=1e-13)


class TestSparseAgainstDenseOracles:
    """cv_isi and synchrony against the per-neuron mask and dense-matrix
    computations they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(spike_records(), windows)
    def test_cv_isi(self, record, window):
        check_cv_against_oracle(record, window)

    @settings(max_examples=300, deadline=None)
    @given(spike_records(), windows, st.sampled_from([0.5, 1.0, 1.7, 2.0]))
    def test_synchrony(self, record, window, bin_ms):
        got = synchrony(record, window, bin_ms)
        want = synchrony_dense(record.times, record.ids,
                               record.neurons_recorded(), record.n_neurons,
                               window, bin_ms)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_cv_isi_spike_counts_and_duplicates(self):
        # neurons 0, 1, 5, 2 and 4 have 0, 1, 2, 3 and 4 spikes in the
        # window, unsorted; neuron 3 fires three times at one instant (zero
        # ISIs, mean 0) and neuron 4 has a duplicate among its four; the
        # spikes at 5 and 95 ms fall outside the window
        times = [50, 30, 70, 40, 40, 40, 5, 95, 20, 20, 60, 80, 10, 25, 15]
        ids = [2, 1, 2, 3, 3, 3, 2, 4, 4, 4, 4, 4, 2, 5, 5]
        record = SpikeRecord(
            times=np.array(times, np.float64), ids=np.array(ids, np.uint32),
            n_neurons=6, duration=DURATION, dt=0.1, deliveries=0,
            wall_time=0.0, population_slices={"all": (0, 6)})
        window = (10.0, 90.0)
        result = cv_isi(record, window)
        assert set(result.per_neuron) == {2, 3, 4}
        assert result.per_neuron[3] == 0.0
        assert result.excluded == 3  # neurons 0, 1 and 5
        check_cv_against_oracle(record, window)


@st.composite
def unsorted_spikes(draw):
    """(times, ids) in no order: times from a coarse grid (duplicates) or any
    float, ids from a small pool below 2**20, so that (time, id) pairs
    repeat and the pool often needs a second 16-bit digit."""
    pool = draw(st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=4))
    spikes = draw(st.lists(st.tuples(
        st.one_of(st.integers(0, 4).map(float), st.floats()),
        st.sampled_from(pool)), max_size=60))
    return (np.array([t for t, _ in spikes], np.float64),
            np.array([i for _, i in spikes], np.uint32))


class TestByNeuron:
    """cv_isi's grouping permutation against the lexsort it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(unsorted_spikes())
    @example((np.zeros(0), np.zeros(0, np.uint32)))
    # equal low digits: only the second pass tells 65536 from 0
    @example((np.array([0.0, 1.0, 1.0, 0.0]),
              np.array([65536, 0, 65536, 65536], np.uint32)))
    @example((np.array([3.0, 3.0, 1.0, 3.0]),
              np.array([2**32 - 1, 7, 2**32 - 1, 2**32 - 1], np.uint32)))
    def test_equals_lexsort(self, spikes):
        times, ids = spikes
        assert np.array_equal(_by_neuron(times, ids), np.lexsort((times, ids)))

    def test_cv_isi_past_one_digit(self):
        # 70,000 neurons: ids above 65,535 take the second radix pass
        rng = np.random.default_rng(4)
        ids = rng.choice([0, 1, 65_535, 65_536, 65_537, 69_999], 400)
        times = rng.integers(0, 4000, 400) * 0.025
        record = SpikeRecord(
            times=times, ids=ids.astype(np.uint32), n_neurons=70_000,
            duration=DURATION, dt=0.025, deliveries=0, wall_time=0.0,
            population_slices={"all": (0, 70_000)})
        assert len(cv_isi(record).per_neuron) == 6
        check_cv_against_oracle(record, (0.0, DURATION))
        check_cv_against_oracle(record, (20.0, 70.0))


class TestClassifyRegime:
    def summary(self, rate):
        rates = np.array([rate])
        return type("S", (), {"overall_mean": lambda self: rate})()

    def cv(self, value):
        return type("C", (), {"mean": lambda self: value})()

    def test_all_labels_reachable(self):
        th = RegimeThresholds()
        assert classify_regime(self.summary(30.0), self.cv(0.2), 1.0, th) == \
            Regime.SR
        assert classify_regime(self.summary(30.0), self.cv(1.0), 1.0, th) == \
            Regime.AI
        assert classify_regime(self.summary(100.0), self.cv(1.0), 5.0, th) == \
            Regime.SI_FAST
        assert classify_regime(self.summary(30.0), self.cv(1.0), 5.0, th) == \
            Regime.SI_SLOW
        assert classify_regime(self.summary(300.0), self.cv(1.0), 1.0, th) == \
            Regime.SATURATED

    def test_nan_cv_counts_regular(self):
        th = RegimeThresholds()
        assert classify_regime(self.summary(30.0), self.cv(float("nan")),
                               1.0, th) == Regime.SR


def sweep_base(duration=600.0, n=300):
    return PipelineConfig(
        model={"name": "brunel", "params": {"n_total": n}},
        simulation={"dt": 0.1, "duration": duration},
        analysis={"window_start": 200.0},
        seed=3,
    )


class TestSweep:
    def test_cell_equals_direct_run(self):
        base = sweep_base()
        direct = run_sweep_cell(base, 5.0, 2.0)
        grid = phase_sweep(base, [5.0], [2.0])
        cell = grid.cells[(5.0, 2.0)]
        assert cell.mean_rate_exc == direct.mean_rate_exc
        assert cell.cv == direct.cv
        assert not grid.partial

    def test_parallel_matches_serial(self):
        base = sweep_base(duration=400.0, n=200)
        serial = phase_sweep(base, [4.0, 6.0], [2.0], parallel=1)
        par = phase_sweep(base, [4.0, 6.0], [2.0], parallel=2)
        for key in serial.cells:
            assert serial.cells[key].mean_rate_exc == \
                par.cells[key].mean_rate_exc
            assert serial.cells[key].synchrony == par.cells[key].synchrony

    def test_csv_format(self):
        base = sweep_base(duration=400.0, n=200)
        grid = phase_sweep(base, [4.0], [1.0, 2.0])
        lines = grid.to_csv().strip().splitlines()
        assert lines[0] == "g,eta,mean_rate_exc,mean_rate_inh,cv,synchrony,regime"
        assert len(lines) == 3

    def test_failed_cell_marks_partial(self):
        base = sweep_base(duration=210.0)  # window too short for synchrony
        grid = phase_sweep(base, [4.0], [2.0])
        assert grid.partial
        assert "failed" in grid.to_csv()

    def test_empty_axes_error(self):
        with pytest.raises(WafersimError):
            phase_sweep(sweep_base(), [], [1.0])
