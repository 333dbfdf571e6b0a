"""Independent oracles used across the test suite.

The dense-time oracles integrate the subthreshold LIF equations directly
with a 1 us Euler step, sharing no code with the engine or the analytic PSP
formulas.  The analysis oracles compute CV of ISI and the synchrony index
the direct way (one mask per neuron, a dense neurons x bins matrix), sharing
no code with ``wafersim.analysis``.  The placement oracle packs neuron by
neuron, sharing no code with ``wafersim.hardware`` or ``wafersim.mapping``.
The connectivity oracle draws a FixedProbability projection as one dense
(rows x targets) uniform matrix per chunk of rows and takes its 2-D nonzero
positions, sharing only the random stream with ``wafersim.network``.
The CSV oracles are the ``%``-formatting writers that the vectorised ones
replaced, the readout oracle is the queue loop that the array form of
``readout_subset`` replaced, and the routing oracle is the pair-by-pair
admission loop that the array form of ``mapping.route`` replaced.  The last
helpers are small derived quantities and digests that only tests use.
"""

import hashlib
import json
import math

import numpy as np

from wafersim.engine import _record_header
from wafersim.models import load_microcircuit_data
from wafersim.network import EdgeList, SynapseKind, spec_to_dict
from wafersim.psp import psp_shape_factor
from wafersim.rngtools import stream


def dense_psp_peak_current(weight, tau_m, tau_syn, c_m,
                           t_max=None, dt=0.001):
    """Peak membrane deflection (mV) from rest for a single spike through a
    current-based exponential synapse, via forward Euler at ``dt`` ms."""
    if t_max is None:
        t_max = 12.0 * max(tau_m, tau_syn)
    t = np.arange(0.0, t_max, dt)
    i_syn = weight * np.exp(-t / tau_syn)
    v = 0.0
    peak = 0.0
    for i in i_syn:
        v += dt * (-v / tau_m + i / c_m)
        if abs(v) > abs(peak):
            peak = v
    return peak


def dense_psp_peak_conductance(weight, e_rev, v_rest, tau_m, tau_syn, c_m,
                               t_max=None, dt=0.001):
    """Peak deflection (mV) from rest for a conductance synapse (peak
    ``weight`` uS), including the nonlinear driving-force term."""
    if t_max is None:
        t_max = 12.0 * max(tau_m, tau_syn)
    t = np.arange(0.0, t_max, dt)
    g_syn = weight * np.exp(-t / tau_syn)
    g_leak = c_m / tau_m
    v = v_rest
    peak = 0.0
    for g in g_syn:
        dv = (-g_leak * (v - v_rest) - g * (v - e_rev)) / c_m
        v += dt * dv
        if abs(v - v_rest) > abs(peak):
            peak = v - v_rest
    return peak


def lif_constant_current_rate(i_const, tau_m, tau_ref, c_m,
                              v_rest, v_reset, v_thresh):
    """Closed-form firing rate (Hz) of a LIF neuron under constant current."""
    r_m = tau_m / c_m
    v_inf = v_rest + r_m * i_const
    if v_inf <= v_thresh:
        return 0.0
    t_isi = tau_ref + tau_m * np.log((v_inf - v_reset) / (v_inf - v_thresh))
    return 1000.0 / t_isi


def cv_isi_per_neuron(times, ids, n_neurons_recorded, window):
    """(per-neuron CV dict, excluded count) by masking the spikes of one
    neuron at a time: neurons with fewer than 3 spikes in ``window`` are
    excluded, a zero mean ISI gives CV 0, and the ISI std uses ddof=0."""
    lo, hi = window
    in_win = (times >= lo) & (times < hi)
    times, ids = times[in_win], ids[in_win]
    per_neuron = {}
    for neuron in np.unique(ids):
        t = np.sort(times[ids == neuron])
        if len(t) < 3:
            continue
        isi = np.diff(t)
        m = isi.mean()
        per_neuron[int(neuron)] = float(isi.std() / m) if m > 0 else 0.0
    return per_neuron, n_neurons_recorded - len(per_neuron)


def synchrony_dense(times, ids, neurons, n_neurons, window, bin_ms):
    """Pooled-variance synchrony index from a dense recorded-neurons x bins
    count matrix: Var(population count) / (N * mean single-neuron variance)."""
    lo, hi = window
    n_bins = int((hi - lo) / bin_ms)
    in_win = (times >= lo) & (times < lo + n_bins * bin_ms)
    bins = ((times[in_win] - lo) / bin_ms).astype(np.int64)
    row = np.full(n_neurons, -1, dtype=np.int64)
    row[neurons] = np.arange(len(neurons))
    counts = np.zeros((len(neurons), n_bins))
    np.add.at(counts, (row[ids[in_win]], bins), 1.0)
    single_var = counts.var(axis=1).mean()
    if single_var == 0:
        return 0.0
    return float(counts.sum(axis=0).var() / (len(neurons) * single_var))


def next_fit_placement(fan_ins, population_sizes, fanin_per_circuit,
                       circuits_per_asic):
    """Place neuron by neuron: a neuron merges ceil(fan-in / fan-in per
    circuit) circuits (at least one); each population opens a fresh ASIC,
    and a neuron whose circuits do not fit in what is left of the current
    ASIC opens the next one.  Returns the circuits and the ASIC of each
    neuron, the used circuits per opened ASIC and the ASICs per population."""
    circuits = [max(1, math.ceil(d / fanin_per_circuit)) for d in fan_ins]
    neuron_asic, used, per_population = [], [], []
    start = 0
    for size in population_sizes:
        free = 0
        asics = []
        for m in circuits[start:start + size]:
            if m > free:
                used.append(0)
                asics.append(len(used) - 1)
                free = circuits_per_asic
            neuron_asic.append(len(used) - 1)
            used[-1] += m
            free -= m
        per_population.append(asics)
        start += size
    return circuits, neuron_asic, used, per_population


def _manhattan_path(a, b):
    """Grid edges of the X-then-Y (column-first) path from cell a to b, each
    as its (lower, higher) pair of cells."""
    (r0, c0), (r1, c1) = a, b
    edges = []
    step = 1 if c1 > c0 else -1
    for c in range(c0, c1, step):
        edges.append(tuple(sorted([(r0, c), (r0, c + step)])))
    step = 1 if r1 > r0 else -1
    for r in range(r0, r1, step):
        edges.append(tuple(sorted([(r, c1), (r + step, c1)])))
    return edges


def sequential_route(spec, neuron_asic, coords, capacity):
    """(admitted pairs, lost pairs, lanes used per grid edge) when the
    inter-ASIC (source ASIC, target ASIC) pairs of ``spec``'s edges are
    taken one by one in sorted order: a pair is admitted iff fewer than
    ``capacity`` earlier pairs use each grid edge of its X-then-Y path, and
    each pair, admitted or not, then counts against its path.  ``coords``
    holds the grid cell of each ASIC."""
    offsets = spec.population_offsets()
    pairs = set()
    for pr in spec.projections:
        e = spec.edges[pr.pid]
        pairs.update(zip(neuron_asic[offsets[pr.source] + e.src].tolist(),
                         neuron_asic[offsets[pr.target] + e.tgt].tolist()))
    edge_seen, utilization = {}, {}
    admitted, lost = set(), set()
    for pair in sorted(p for p in pairs if p[0] != p[1]):
        path = _manhattan_path(coords[pair[0]], coords[pair[1]])
        ok = all(edge_seen.get(ge, 0) < capacity for ge in path)
        for ge in path:
            edge_seen[ge] = edge_seen.get(ge, 0) + 1
        if ok:
            admitted.add(pair)
            for ge in path:
                utilization[ge] = utilization.get(ge, 0) + 1
        else:
            lost.add(pair)
    return admitted, lost, utilization


_ROW_CHUNK = 4_000_000  # pair draws per chunk, bounds memory during sampling


def sample_fixed_probability_dense(proj, sizes, seed, recurrent=None):
    """The edges of the FixedProbability projection ``proj``: each ordered
    (src, tgt) pair drawn with probability p from the projection's stream,
    self-connections excluded for recurrent projections."""
    n_src, n_tgt = sizes
    if recurrent is None:
        recurrent = proj.source == proj.target
    rng = stream("proj", seed, proj.pid)
    p = proj.connector.p
    srcs, tgts = [], []
    rows_per_chunk = max(1, _ROW_CHUNK // max(n_tgt, 1))
    for row0 in range(0, n_src, rows_per_chunk):
        rows = min(rows_per_chunk, n_src - row0)
        mask = rng.random((rows, n_tgt)) < p
        if recurrent:
            idx = np.arange(rows)
            diag = row0 + idx
            valid = diag < n_tgt
            mask[idx[valid], diag[valid]] = False
        s, t = np.nonzero(mask)
        srcs.append((s + row0).astype(np.uint32))
        tgts.append(t.astype(np.uint32))
    src = np.concatenate(srcs) if srcs else np.empty(0, np.uint32)
    tgt = np.concatenate(tgts) if tgts else np.empty(0, np.uint32)
    return EdgeList.from_arrays(src, tgt, proj.weight, proj.delay)


def save_spikes_csv(record, path):
    """The spike CSV with each spike formatted by ``"%.6f,%d"``."""
    lines = [f"# {k}={json.dumps(v)}"
             for k, v in sorted(_record_header(record).items())]
    lines.append("time_ms,neuron_id")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
        rows = zip(record.times.tolist(), record.ids.tolist())
        f.write("".join(map("%.6f,%d\n".__mod__, rows)))
    return path


def save_membrane_csv(record, path):
    """The membrane CSV with each probe time and value formatted by
    ``"%.6f"``."""
    ids = sorted(record.probes)
    lines = ["time_ms," + ",".join(f"v_{i}" for i in ids)]
    row = "%.6f," + ",".join(["%.6f"] * len(ids))
    columns = [record.probe_times.tolist()] + \
        [record.probes[i].tolist() for i in ids]
    lines += map(row.__mod__, zip(*columns))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def stratified_readout(pool, neuron_asic, n, seed):
    """The ``n`` neurons of ``pool`` that the stratified readout picks, by
    queues: one permutation of each ASIC's neurons, in ASIC order, then
    round-robin over the queues until ``n`` are picked."""
    rng = stream("readout", seed)
    per_asic = {}
    for neuron in pool.tolist():
        per_asic.setdefault(int(neuron_asic[neuron]), []).append(neuron)
    queues = [rng.permutation(np.asarray(per_asic[a])) for a in sorted(per_asic)]
    chosen = []
    for depth in range(max(map(len, queues), default=0)):
        chosen += [int(q[depth]) for q in queues if depth < len(q)]
    return np.sort(np.asarray(chosen[:n], dtype=np.uint32))


def is_hardware_ready(spec) -> bool:
    """True when every projection is conductance-based, as on the wafer."""
    kinds = spec.synapse_kinds()
    return not kinds or kinds == {SynapseKind.CONDUCTANCE_EXP}


def microcircuit_scale_for_total(target_total, data=None) -> float:
    """The microcircuit scale that gives about ``target_total`` neurons."""
    data = data or load_microcircuit_data()
    return target_total / sum(data.sizes)


def psp_peak_conductance_linear(weight, e_rev, v_hold, tau_m, tau_syn, c_m):
    """Linearized peak deflection (mV) for a conductance synapse of peak
    ``weight`` (uS) with the driving force frozen at ``v_hold``."""
    return psp_peak_current(weight * (e_rev - v_hold), tau_m, tau_syn, c_m)


def psp_peak_current(weight: float, tau_m: float, tau_syn: float, c_m: float) -> float:
    """Peak membrane deflection (mV) for one spike through a current-based
    exponential synapse of peak amplitude ``weight`` (nA)."""
    r_m = tau_m / c_m  # MOhm
    return r_m * weight * psp_shape_factor(tau_m, tau_syn)


def edge_bytes(e: EdgeList) -> bytes:
    """The edges of ``e`` as a buffer of ``EDGE_DTYPE`` records."""
    return e._records().tobytes()


def spec_content_hash(spec) -> str:
    """Stable content hash over the full spec including explicit edges."""
    h = hashlib.blake2b(digest_size=16)
    doc = spec_to_dict(spec)
    h.update(json.dumps(doc, sort_keys=True).encode())
    for section in (spec.edges, spec.stim_edges):
        for key in sorted(section):
            h.update(key.encode())
            h.update(edge_bytes(section[key]))
    return h.hexdigest()
