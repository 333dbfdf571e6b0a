"""Plain-numpy reference statistics the benchmark checks wafersim against.

Each function computes the same quantity as its ``wafersim.analysis``
counterpart by a different route (sorting and ``bincount`` instead of
per-neuron masks or a dense neurons x bins matrix), so agreement is evidence
that both are right.  Every recorded neuron is assumed recorded, as in the
records the benchmark generates and the pipeline writes.
"""

from __future__ import annotations

import numpy as np


def population_rates(times, ids, n_neurons, slices, window) -> dict[str, float]:
    """Mean rate (Hz) per population over ``window`` (ms)."""
    lo, hi = window
    keep = (times >= lo) & (times < hi)
    counts = np.bincount(ids[keep], minlength=n_neurons)
    seconds = (hi - lo) * 1e-3
    return {pid: float(counts[a:b].sum() / ((b - a) * seconds))
            for pid, (a, b) in slices.items()}


def cv_isi(times, ids, n_neurons, window):
    """(neurons, cv per neuron, excluded count) for neurons with at least
    three spikes in ``window``; ISI std uses ddof=0."""
    lo, hi = window
    keep = (times >= lo) & (times < hi)
    t, i = times[keep], ids[keep].astype(np.int64)
    order = np.lexsort((t, i))
    t, i = t[order], i[order]
    n_spikes = np.bincount(i, minlength=n_neurons)
    same = i[1:] == i[:-1]
    isi, owner = np.diff(t)[same], i[1:][same]
    n_isi = np.bincount(owner, minlength=n_neurons)
    mean = np.bincount(owner, isi, minlength=n_neurons) / np.maximum(n_isi, 1)
    dev = isi - mean[owner]
    var = np.bincount(owner, dev * dev, minlength=n_neurons) / np.maximum(n_isi, 1)
    neurons = np.nonzero(n_spikes >= 3)[0]
    m = mean[neurons]
    cv = np.where(m > 0, np.sqrt(var[neurons]) / np.where(m > 0, m, 1.0), 0.0)
    return neurons, cv, n_neurons - len(neurons)


def synchrony(times, ids, n_neurons, window, bin_ms) -> float:
    """Pooled-variance synchrony index from sparse per-(neuron, bin) counts."""
    lo, hi = window
    n_bins = int((hi - lo) / bin_ms)
    keep = (times >= lo) & (times < lo + n_bins * bin_ms)
    bins = ((times[keep] - lo) / bin_ms).astype(np.int64)
    i = ids[keep].astype(np.int64)
    keys, c = np.unique(i * n_bins + bins, return_counts=True)
    owners = keys // n_bins
    s1 = np.bincount(owners, c, minlength=n_neurons)
    s2 = np.bincount(owners, c.astype(np.float64) ** 2, minlength=n_neurons)
    single_var = (s2 / n_bins - (s1 / n_bins) ** 2).mean()
    if single_var == 0:
        return 0.0
    pop = np.bincount(bins, minlength=n_bins).astype(np.float64)
    return float(pop.var() / (n_neurons * single_var))


def lif_rate(i_const, tau_m, tau_ref, c_m, v_rest, v_reset, v_thresh) -> float:
    """Closed-form rate (Hz) of a LIF neuron under constant current."""
    v_inf = v_rest + tau_m / c_m * i_const
    if v_inf <= v_thresh:
        return 0.0
    return 1000.0 / (tau_ref + tau_m * np.log((v_inf - v_reset) / (v_inf - v_thresh)))


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
