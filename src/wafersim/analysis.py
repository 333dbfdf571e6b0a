"""Statistics over spike records: mean rates, rate distributions, ISI
irregularity, synchrony and firing-regime classification.

Warmup handling lives in the analysis window (``AnalysisConfig``), not in
the engine: the standard protocol analyzes the 9 s after a 1 s onset for
10 s runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import SpikeRecord
from .network import WafersimError


@dataclass
class AnalysisConfig:
    """The ``analysis`` section of a pipeline config."""
    window_start: Optional[float] = None  # ms; None = min(1000, duration / 2)
    window_end: Optional[float] = None  # ms; None = the end of the run
    bins: int = 20  # bins of each rate histogram
    synchrony_bin_ms: float = 2.0

    def check(self) -> None:
        if self.bins <= 0:
            raise ValueError("bins must be > 0")
        if self.synchrony_bin_ms <= 0:
            raise ValueError("synchrony_bin_ms must be > 0")
        if None not in (self.window_start, self.window_end) and \
                self.window_end <= self.window_start:
            raise ValueError("window_end must be after window_start")


@dataclass
class RateSummary:
    window: tuple[float, float]  # (start ms, end ms)
    per_population_mean: dict[str, float]  # Hz
    per_neuron_rates: np.ndarray  # Hz, over recorded neurons
    recorded_neurons: np.ndarray

    def overall_mean(self) -> float:
        return float(self.per_neuron_rates.mean()) if len(self.per_neuron_rates) else 0.0


def _window_check(record: SpikeRecord, window: tuple[float, float]) -> None:
    lo, hi = window
    if hi <= lo:
        raise WafersimError("empty analysis window")
    if lo < 0 or hi > record.duration + 1e-9:
        raise WafersimError("analysis window outside record duration")


def mean_rates(record: SpikeRecord, window: tuple[float, float]) -> RateSummary:
    """Per-neuron rate = spikes in window / window length; population mean
    over the recorded members of each population."""
    _window_check(record, window)
    lo, hi = window
    seconds = (hi - lo) * 1e-3
    neurons = record.neurons_recorded()
    in_win = (record.times >= lo) & (record.times < hi)
    counts = np.bincount(record.ids[in_win], minlength=record.n_neurons)
    rates_all = counts / seconds
    per_pop = {}
    for pid, (a, b) in record.population_slices.items():
        members = neurons[(neurons >= a) & (neurons < b)]
        per_pop[pid] = float(rates_all[members].mean()) if len(members) else 0.0
    return RateSummary(
        window=window,
        per_population_mean=per_pop,
        per_neuron_rates=rates_all[neurons],
        recorded_neurons=neurons,
    )


@dataclass
class RateHistogram:
    bin_edges: np.ndarray  # Hz
    counts: np.ndarray
    quartiles: tuple[float, float, float]  # for violin-style plotting

    def total(self) -> int:
        return int(self.counts.sum())


def rate_distribution(record: SpikeRecord, population: str,
                      window: tuple[float, float], bins: int = 20
                      ) -> RateHistogram:
    """Histogram of per-neuron rates within one population."""
    if bins <= 0:
        raise WafersimError("bins must be > 0")
    summary = mean_rates(record, window)
    a, b = record.population_slices[population]
    neurons = summary.recorded_neurons
    member = (neurons >= a) & (neurons < b)
    rates = summary.per_neuron_rates[member]
    if not len(rates):
        raise WafersimError(f"population {population} has no recorded neurons")
    counts, edges = np.histogram(rates, bins=bins)
    q1, q2, q3 = np.percentile(rates, [25, 50, 75])
    return RateHistogram(edges, counts, (float(q1), float(q2), float(q3)))


@dataclass
class CvIsiResult:
    per_neuron: dict[int, float]
    excluded: int  # neurons with < 3 spikes in the window

    def mean(self) -> float:
        vals = list(self.per_neuron.values())
        return float(np.mean(vals)) if vals else float("nan")


def _by_neuron(times: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((times, ids))``: by id, then by time,
    ties in record order.  A stable sort by time, then stable LSD radix
    passes over the 16-bit digits of the ids (none when every id is 0, one
    below 65,536, two above), each a stable ``argsort`` of ``uint16``
    digits, which numpy runs as a radix sort."""
    order = np.argsort(times, kind="stable")
    for shift in range(0, int(ids.max(initial=0)).bit_length(), 16):
        digit = (ids[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order


def cv_isi(record: SpikeRecord, window: Optional[tuple[float, float]] = None
           ) -> CvIsiResult:
    """Coefficient of variation of inter-spike intervals per neuron; neurons
    with fewer than 3 spikes are excluded and counted.  ``window=None``
    means the whole record; a given window is checked as ``mean_rates``
    checks it.

    The spikes in the window are grouped by neuron with ``_by_neuron``,
    whatever order the record is in, and summed per neuron with
    ``bincount``: the cost follows the spikes in the window.
    """
    if window is None:
        window = (0.0, record.duration)
    else:
        _window_check(record, window)
    lo, hi = window
    in_win = (record.times >= lo) & (record.times < hi)
    times, ids = record.times[in_win], record.ids[in_win]
    order = _by_neuron(times, ids)
    times, ids = times[order], ids[order]
    n_spikes = np.bincount(ids, minlength=record.n_neurons)
    n_isi = np.maximum(n_spikes - 1, 1)
    # differences of consecutive spikes, owned by the later one's neuron; a
    # difference across two neurons is zeroed so that it adds nothing
    owner, across = ids[1:], ids[1:] != ids[:-1]
    isi = np.diff(times)
    isi[across] = 0.0
    mean = np.bincount(owner, isi, minlength=len(n_spikes)) / n_isi
    isi -= mean[owner]  # in place: deviations, then their squares
    isi[across] = 0.0
    isi *= isi
    std = np.sqrt(np.bincount(owner, isi, minlength=len(n_spikes)) / n_isi)
    neurons = np.flatnonzero(n_spikes >= 3)
    m = mean[neurons]
    cv = np.divide(std[neurons], m, out=np.zeros_like(m), where=m > 0)
    per_neuron = dict(zip(neurons.tolist(), cv.tolist()))
    # recorded neurons that never spiked also count as excluded
    return CvIsiResult(per_neuron,
                       len(record.neurons_recorded()) - len(per_neuron))


def synchrony(record: SpikeRecord, window: tuple[float, float],
              bin_ms: float = 2.0) -> float:
    """Pooled-variance synchrony index on binned spike counts.

    Var(population count) / (N * mean single-neuron count variance): about 1
    for independent neurons, about N when all neurons spike in the same bins.
    """
    _window_check(record, window)
    lo, hi = window
    n_bins = int((hi - lo) / bin_ms)
    if n_bins < 10:
        raise WafersimError("window must span at least 10 bins")
    neurons = record.neurons_recorded()
    if len(neurons) < 2:
        raise WafersimError("synchrony needs at least 2 recorded neurons")
    in_win = (record.times >= lo) & (record.times < lo + n_bins * bin_ms)
    ids = record.ids[in_win].astype(np.int64)
    bins = ((record.times[in_win] - lo) / bin_ms).astype(np.int64)
    # per-neuron sums of the (neuron, bin) counts c and of c^2, from the
    # occupied bins only; both are integers, exact in float64 below 2^53
    keys, c = np.unique(ids * n_bins + bins, return_counts=True)
    s1 = np.bincount(ids, minlength=record.n_neurons)[neurons]
    s2 = np.bincount(keys // n_bins, c * c, minlength=record.n_neurons)[neurons]
    single_var = (n_bins * s2 - s1 ** 2).mean() / n_bins**2
    if single_var == 0:
        return 0.0
    pop = np.bincount(bins, minlength=n_bins).astype(np.float64)
    return float(pop.var() / (len(neurons) * single_var))


class Regime:
    SR = "SR"
    AI = "AI"
    SI_FAST = "SI-fast"
    SI_SLOW = "SI-slow"
    SATURATED = "Saturated"


@dataclass
class RegimeThresholds:
    cv_irregular: float = 0.5  # CV at/above which firing counts as irregular
    synchrony_high: float = 2.0  # synchrony index above which bins lock together
    saturation_rate: float = 250.0  # Hz, routing-bound ceiling
    si_fast_rate: float = 60.0  # Hz, splits SI into fast/slow oscillation proxies


def classify_regime(rate_summary: RateSummary, cv: CvIsiResult,
                    synchrony_index: float,
                    thresholds: Optional[RegimeThresholds] = None) -> str:
    """Map (rate, irregularity, synchrony) to a firing-regime label.

    Pure function of its inputs; thresholds are documented defaults, not
    fitted values.
    """
    th = thresholds or RegimeThresholds()
    rate = rate_summary.overall_mean()
    if rate > th.saturation_rate:
        return Regime.SATURATED
    cv_mean = cv.mean()
    irregular = bool(cv_mean >= th.cv_irregular) if cv_mean == cv_mean else False
    synchronous = synchrony_index >= th.synchrony_high
    if not irregular:
        return Regime.SR
    if not synchronous:
        return Regime.AI
    return Regime.SI_FAST if rate >= th.si_fast_rate else Regime.SI_SLOW
