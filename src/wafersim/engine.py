"""Clock-driven emulation engine for LIF networks with exponential
current- or conductance-based synapses.

Exponential-Euler update on a fixed time grid, advanced in blocks of steps.
A spike cannot reach another neuron sooner than the smallest recurrent delay,
so the engine advances a block of up to that many steps (at most
``BLOCK_CAP``) at once, the communication interval of Morrison et al. 2005
(*Neural Comput.* 17:1776).  Per block:

1. the Poisson drive is drawn event by event: per drive, one Poisson total
   for the block, spread uniformly over its (step, source) cells, and its
   edges are scattered into the input buffer;
2. the synaptic traces and the subthreshold membrane trajectory follow from
   scans over the block, because the update of each step is affine in the
   previous state; the traces carried from the last block are the initial
   value of theirs.  On a block of at least ``SCAN_WIDTH`` columns a scan is
   the step-by-step recurrence y_k = a_k*y_(k-1) + x_k: L-1 row updates,
   where a Hillis-Steele scan does about L*log2(L).  A narrower block keeps
   the Hillis-Steele scan, whose log2(L) numpy calls cost less than the
   recurrence's 2(L-1) when each call does little work;
3. each neuron's first threshold crossing is found, the reset and refractory
   clamp are applied, and the neuron restarts from the end of its clamp until
   no neuron crosses;
4. the block's spikes are recorded, and their sources' edges are delivered
   by one scatter into the input buffer.

A per-neuron Poisson stimulus is a drive whose source j reaches only its
j-th target neuron, so stimuli, shared pools and recurrent edges take one
delivery path.  Each edge stores its offset dstep*2n + channel*n + target at
build time, in an edge table of fixed-width rows (sliced ELLPACK; Monakov et
al. 2010, Kreutzer et al. 2014): a source's edges fill whole rows of
``CHUNK`` slots (fewer if no source has that many edges) in order of source,
then projection or stimulus, then edge, and the rest of its last row adds
weight +0.0 at offset 0.  A scatter gathers the firing sources' rows whole,
about ``SCATTER_ROWS`` rows at a time, and adds each such chunk with one
``add.at``.  The padding changes no bit: every buffer
cell starts at +0.0, and x + y is -0.0 only when x and y both are, so no
cell is ever -0.0, and adding +0.0 leaves every other value, NaN and
infinities included, as it was; the real edges are added in the same order
as without padding.

The input buffer is a sliding window of steps: row r holds the input
arriving at step origin + r, so an edge of a source firing at step t lands at
(t - origin)*2n plus its offset.  Before a block's arrivals would run past
the last row, the rows still ahead move to the front; a copy adds nothing,
so sums build up in the same order wherever the window stands.

All deliveries scheduled for a step enter the synaptic state before the
membrane update of that step, and each delivered edge increments the
synaptic-event counter that feeds throughput metrics.  All randomness comes
from counter-based streams, so results are bit-identical across reruns and
independent of scheduling.
"""

from __future__ import annotations

import json
import re
import struct
import time as _time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .network import (
    EdgeList,
    NetworkSpec,
    NeuronParameters,
    Sign,
    StimulusKind,
    SynapseKind,
    WafersimError,
    _atomic_write,
    _typed,
    ensure_sampled,
    inhibitory_channel,
    json_digest,
)
from .rngtools import stream


class SimulationDiagnosticError(WafersimError):
    pass


# Most steps advanced at once.  It bounds the block's arrays and keeps the
# products of per-step decay factors far from underflow.
BLOCK_CAP = 64
# Most membrane probes one simulation records.
MAX_PROBES = 8
# Slots per row of an edge table: a source's edges fill whole rows, so one
# row gather moves 256 bytes of offsets and the tail of a source's last row
# is all the padding it adds.
CHUNK = 32
# Fewest columns for which a block scan runs as the step-by-step recurrence.
# Below it a row update costs little more than its numpy calls, and the
# Hillis-Steele scan's log2(L) calls win; on a 2-core x86 host the two
# paths cost the same at about 256 columns for blocks of 8, 15 and 64 steps.
SCAN_WIDTH = 256
# Most table rows one scatter gathers at a time (2 MB of offsets and weights
# at 32 slots): a burst of firing sources is delivered in chunks of about
# this many rows, so the scatter's memory does not grow with the burst.
SCATTER_ROWS = 4096


@dataclass
class SimulationConfig:
    dt: float = 0.1  # ms
    duration: float = 1000.0  # biological ms
    seed: int = 0
    record_populations: Optional[list[str]] = None  # None = record all spikes
    membrane_probes: list[int] = field(default_factory=list)  # global neuron ids

    def check(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if len(self.membrane_probes) > MAX_PROBES:
            raise ValueError(f"at most {MAX_PROBES} membrane probes")

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        return json_digest(self.to_dict())


@dataclass
class SpikeRecord:
    times: np.ndarray  # ms, sorted by (time, id)
    ids: np.ndarray  # uint32 global neuron ids
    n_neurons: int
    duration: float  # biological ms
    dt: float
    deliveries: int
    wall_time: float  # seconds
    population_slices: dict[str, tuple[int, int]]
    config: dict = field(default_factory=dict)
    recorded_neurons: Optional[np.ndarray] = None  # None = all neurons recorded
    probe_times: Optional[np.ndarray] = None
    probes: dict[int, np.ndarray] = field(default_factory=dict)

    def spike_count(self) -> int:
        return len(self.times)

    def neurons_recorded(self) -> np.ndarray:
        if self.recorded_neurons is None:
            return np.arange(self.n_neurons, dtype=np.uint32)
        return self.recorded_neurons


# --- engine state build -------------------------------------------------------


def _concat_param(spec: NetworkSpec, name: str) -> np.ndarray:
    return np.concatenate([p.param_array(name) for p in spec.populations]) \
        if spec.populations else np.empty(0)


class _Engine:
    def __init__(self, spec: NetworkSpec, config: SimulationConfig):
        config.check()
        ensure_sampled(spec)
        self.spec = spec
        self.config = config
        self.dt = config.dt
        self.n = spec.n_neurons()
        bad = [p for p in config.membrane_probes
               if not (isinstance(p, (int, np.integer)) and 0 <= p < self.n)]
        if bad:
            raise WafersimError(f"membrane probes {bad} are not neuron ids "
                                f"in [0, {self.n})")
        pids = [p.pid for p in spec.populations]
        bad = [p for p in config.record_populations or [] if p not in pids]
        if bad:
            raise WafersimError(f"record_populations {bad} are not "
                                f"populations of the network {pids}")
        bad = [msg for p in spec.populations for msg in p.override_problems()]
        if bad:
            raise WafersimError(bad[0])
        kinds = spec.synapse_kinds()
        if len(kinds) > 1:
            raise WafersimError("mixed synapse kinds are not supported")
        self.conductance = kinds == {SynapseKind.CONDUCTANCE_EXP}

        for f in fields(NeuronParameters):
            setattr(self, f.name, _concat_param(spec, f.name).copy())
        self.offsets = spec.population_offsets()

        self.g_leak = self.c_m / self.tau_m  # uS
        self.ref_steps = np.round(self.tau_ref / self.dt).astype(np.int64)

        self._build_edges()
        self._build_drives()
        # one block never outlasts the smallest recurrent delay; an edge's
        # delay step is its offset // row (a network without neurons has
        # no edges)
        row = max(2 * self.n, 1)
        self.block = self.edges["lo"] // row
        self.max_dstep = max(t["hi"] // row for t in
                             [self.edges] + [table for *_, table in self.drives])
        # syn_pow[k] = decay^(k+1) of the excitatory then inhibitory traces
        decay = np.exp(-self.dt / np.concatenate([self.tau_syn_exc,
                                                  self.tau_syn_inh]))
        self.syn_pow = _powers(decay, self.block)
        if not self.conductance:
            # v' = decay_m*v + (1-decay_m)*(v_rest + r_m*i): m_pow[k] =
            # decay_m^k, and the drive term is m_drive0 + m_drive1*i_syn
            self.m_pow = np.vstack([np.ones(self.n),
                                    _powers(np.exp(-self.dt / self.tau_m),
                                            self.block)])
            gain = -np.expm1(-self.dt / self.tau_m)
            r_m = self.tau_m / self.c_m  # MOhm
            self.m_drive0 = gain * (self.v_rest + r_m * self.i_offset)
            self.m_drive1 = gain * r_m
        self.rows = np.arange(self.block + 1)[:, None]  # row index of V, A, C

    def _delay_steps(self, delays: np.ndarray) -> np.ndarray:
        if np.any(delays < self.dt - 1e-12):
            raise WafersimError("all delays must be >= dt")
        return np.maximum(1, np.round(delays / self.dt).astype(np.int64))

    def _flat(self, e: EdgeList, target: str,
              source: Optional[Sign] = None) -> np.ndarray:
        """Buffer offsets dstep*2n + chan*n + tgt of the edges ``e`` onto
        population ``target`` from the row of the step their source fires
        in; offset // 2n is the delay step.  ``source`` is the sign of the
        source population (None for a stimulus), which
        ``inhibitory_channel`` reads in conductance mode."""
        chan = inhibitory_channel(e.weight, self.conductance, source)
        return (self._delay_steps(e.delay) * (2 * self.n) + chan * self.n
                + (self.offsets[target] + e.tgt.astype(np.int64)))

    def _build_edges(self) -> None:
        spec, parts = self.spec, []
        for pr in spec.projections:
            e = spec.edges[pr.pid]
            parts.append((self.offsets[pr.source], e.src, e.weight, partial(
                self._flat, e, pr.target, spec.population(pr.source).sign)))
        self.edges = _edge_table(self.n, parts, 2 * self.n)

    def _build_drives(self) -> None:
        """One edge table per Poisson drive.  A per-neuron stimulus is a pool
        whose source j drives only the j-th neuron of its target population;
        a shared pool group has one part per stimulus.  Each drive keeps the
        random stream of its stimulus or group."""
        spec = self.spec
        self.drives = []  # (stream key, sources, mean count per step, table)

        def add(key, size, rate_ms, edges):
            if not any(len(e) for e, _ in edges):
                return
            # built at zero rate too, which checks the delays
            table = _edge_table(size, [
                (0, e.src, e.weight, partial(self._flat, e, target))
                for e, target in edges], 2 * self.n)
            if rate_ms > 0:
                self.drives.append((key, size, rate_ms * self.dt, table))

        pools: dict[str, dict] = {}
        for st in spec.stimuli:
            if st.kind == StimulusKind.POISSON_PER_NEURON:
                s = spec.population(st.target).size
                j = np.arange(s)
                add(("stim", st.sid), s, st.rate * 1e-3, [(EdgeList.from_arrays(
                    j, j, st.weight, st.delay), st.target)])
            else:
                gid = st.pool_group or st.sid
                pool = pools.setdefault(gid, {
                    "size": st.pool_size, "rate_ms": st.rate * 1e-3, "edges": [],
                })
                if pool["size"] != st.pool_size or \
                        abs(pool["rate_ms"] - st.rate * 1e-3) > 1e-15:
                    raise WafersimError(
                        f"pool group {gid}: inconsistent pool size or rate")
                e = spec.stim_edges.get(st.sid)
                if e is not None and len(e):
                    pool["edges"].append((e, st.target))
        for gid in sorted(pools):
            p = pools[gid]
            add(("pool", gid), p["size"], p["rate_ms"], p["edges"])

    # -- main loop --

    def run(self) -> SpikeRecord:
        cfg, n, B, M = self.config, self.n, self.block, self.max_dstep
        n_steps = int(round(cfg.duration / self.dt))
        # Sliding buffer of (step, channel, neuron), flat: row r holds the
        # input arriving at step origin + r.  A block's arrivals reach at
        # most M steps past it; before they would run past the end, the M
        # live rows move to the front.
        R = 2 * (B + M)
        buf = np.zeros(R * 2 * n)
        window = buf.reshape(R, 2 * n)
        origin = 0
        v = self.v_rest.copy()
        syn = np.zeros(2 * n)  # excitatory then inhibitory trace
        ref = np.zeros(n, dtype=np.int64)  # refractory steps left
        deliveries = 0

        slices = {p.pid: (self.offsets[p.pid], self.offsets[p.pid] + p.size)
                  for p in self.spec.populations}
        # the neurons that the finished record keeps; None keeps all
        kept = None if cfg.record_populations is None else np.concatenate(
            [np.arange(0)] + [np.arange(*slices[pid])
                              for pid in cfg.record_populations])

        rngs = [stream("engine", cfg.seed, *key) for key, *_ in self.drives]

        spikes = _SpikeBuffer()
        probes = {pid: np.empty(n_steps) for pid in cfg.membrane_probes}

        wall_start = _time.perf_counter()
        for t0 in range(0, n_steps, B):
            L = min(B, n_steps - t0)
            r0 = t0 - origin
            if r0 + B + M > R:
                window[:M] = window[r0:r0 + M]
                window[r0:r0 + M] = 0.0
                origin, r0 = t0, 0
            # external drive enters the buffer like any other spike
            for (_, size, mean, table), rng in zip(self.drives, rngs):
                k, j = _poisson_events(rng, mean, L, size)
                deliveries += _scatter(buf, r0 + k, j, table, 2 * n)
            traces = window[r0:r0 + L].copy()
            window[r0:r0 + L] = 0.0
            _scan_powers(traces, self.syn_pow, syn)
            syn = traces[-1]
            V, steps, ids, ref = self._integrate(v, ref, traces)
            v = V[-1]
            if not np.isfinite(V.sum() + traces.sum()):
                self._raise_non_finite(t0, V, traces)
            if len(ids):
                deliveries += _scatter(buf, r0 + steps, ids, self.edges, 2 * n)
                spikes.append(steps + t0, ids)
            for pid in probes:
                probes[pid][t0:t0 + L] = V[1:, pid]
        wall = _time.perf_counter() - wall_start

        steps, ids = spikes.steps[:spikes.n], spikes.ids[:spikes.n]
        order = np.lexsort((ids, steps))
        record = SpikeRecord(
            times=(steps[order] + 1) * self.dt, ids=ids[order],
            n_neurons=self.n, duration=cfg.duration, dt=self.dt,
            deliveries=deliveries, wall_time=wall,
            population_slices=slices, config=cfg.to_dict(),
            probe_times=(np.arange(1, n_steps + 1) * self.dt
                         if cfg.membrane_probes else None),
            probes=probes,
        )
        return record if kept is None else _restrict(record, kept)

    def _integrate(self, v0, ref, traces):
        """Membrane trajectory over one block, given the synaptic traces.

        Row k of the affine maps (A, C) sends the state before the block to
        the state after its k-th step, v_k = A_k*v_0 + C_k.  A neuron whose
        state is v_reset after row s continues as
        v_k = (A_k/A_s)*v_reset + C_k - (A_k/A_s)*C_s.  Returns the
        trajectory V (row 0 is v0), the block-relative steps and ids of the
        spikes, and the refractory steps left after the block.
        """
        L = len(traces)
        A, C = self._membrane_maps(traces)
        V = A * v0
        V += C
        # last row of each neuron's refractory clamp; spikes only after it
        start = np.minimum(ref, L)
        ref = np.maximum(ref - L, 0)
        held = np.nonzero(start)[0]
        if len(held):
            self._restart(V, A, C, held, 1, start[held])
        rows = self.rows[1:L + 1]
        above = V[1:] >= self.v_thresh
        if len(held):
            above &= rows > start
        cand = None
        steps, ids = [], []
        while True:
            hit = above.any(axis=0)
            if not hit.any():
                break
            cand = np.nonzero(hit)[0] if cand is None else cand[hit]
            first = above[:, hit].argmax(axis=0) + 1  # row of the crossing
            steps.append(first - 1)
            ids.append(cand)
            last = first + self.ref_steps[cand]
            start[cand] = np.minimum(last, L)
            ref[cand] = np.maximum(last - L, 0)
            self._restart(V, A, C, cand, first, start[cand])
            above = (V[1:, cand] >= self.v_thresh[cand]) & (rows > start[cand])
        if not steps:
            return V, np.empty(0, np.int64), np.empty(0, np.int64), ref
        return V, np.concatenate(steps), np.concatenate(ids), ref

    def _membrane_maps(self, traces):
        """(A, C), each (L+1, n): the affine maps from the state before the
        block to the state after each of its L steps, without resets."""
        n, L = self.n, len(traces)
        syn_e, syn_i = traces[:, :n], traces[:, n:]
        C = np.empty((L + 1, n))
        C[0] = 0.0
        if self.conductance:
            g_tot = self.g_leak + syn_e + syn_i
            v_inf = (self.g_leak * self.v_rest + syn_e * self.e_rev_exc
                     + syn_i * self.e_rev_inh + self.i_offset) / g_tot
            x = g_tot * (-self.dt / self.c_m)
            A = np.empty((L + 1, n))
            A[0] = 1.0
            np.exp(x, out=A[1:])
            np.expm1(x, out=C[1:])
            C[1:] *= -v_inf
            _scan(A[1:], C[1:])
        else:
            A = self.m_pow[:L + 1]
            np.add(syn_e, syn_i, out=C[1:])
            C[1:] *= self.m_drive1
            C[1:] += self.m_drive0
            _scan_powers(C[1:], self.m_pow[1:])
        return A, C

    def _restart(self, V, A, C, idx, first, last) -> None:
        """Clamp rows first..last of neurons ``idx`` to v_reset and integrate
        them onwards from v_reset after row ``last``."""
        cols = np.arange(len(idx))
        a, c = A[:, idx], C[:, idx]
        v_reset = self.v_reset[idx]
        # rows up to `last` are discarded; a non-finite state is reported
        # after the block
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = a / a[last, cols]
            free = ratio * (v_reset - c[last, cols]) + c
        rows = self.rows[:len(A)]
        V[:, idx] = np.where(rows > last, free,
                             np.where(rows >= first, v_reset, V[:, idx]))

    def _raise_non_finite(self, t0, V, traces) -> None:
        """Name the first step and neuron of the block with a non-finite
        membrane or synaptic state."""
        n = self.n
        bad = ~np.isfinite(np.hstack([V[1:], traces]))
        if not bad.any():  # the sums overflowed on finite values
            return
        k = int(np.nonzero(bad.any(axis=1))[0][0])
        col = int(np.nonzero(bad[k])[0][0])
        raise SimulationDiagnosticError(
            f"non-finite {('v', 'syn_e', 'syn_i')[col // n]} in neuron "
            f"{col % n} at step {t0 + k} (t={(t0 + k + 1) * self.dt:.3f} ms)")


class _SpikeBuffer:
    """Recorded (step, neuron) pairs in arrays that grow by doubling."""

    def __init__(self):
        self.steps = np.empty(1024, np.int64)
        self.ids = np.empty(1024, np.uint32)
        self.n = 0

    def append(self, steps: np.ndarray, ids: np.ndarray) -> None:
        end = self.n + len(steps)
        if end > len(self.steps):
            size = max(end, 2 * len(self.steps))
            for name in ("steps", "ids"):
                old = getattr(self, name)
                grown = np.empty(size, old.dtype)
                grown[:self.n] = old[:self.n]
                setattr(self, name, grown)
        self.steps[self.n:end] = steps
        self.ids[self.n:end] = ids
        self.n = end


def _edge_table(size: int, parts: list, stride: int) -> dict:
    """The edges of ``size`` sources as fixed-width rows (sliced ELLPACK).

    ``parts`` holds ``(base, src, w, offsets)``: the sources ``base + src``
    of a part's edges, their weights, and a function that returns their
    buffer offsets from the row of the source's firing step, for rows of
    ``stride`` entries.  A row has ``CHUNK`` slots, or as many as the
    largest out-degree if that is smaller.  Source s owns rows ``first[s]``
    to ``first[s+1]`` and fills them with its ``degree[s]`` edges in part
    order, then edge order, which is the order a stable sort by source
    gives.  The slots after its last edge add weight +0.0 at offset 0.
    ``lo`` and ``hi`` are the least and greatest offsets of the edges;
    without edges they are ``BLOCK_CAP`` rows and one row.

    A first pass counts the out-degrees; the second fills in one part at a
    time through per-source fill pointers, so neither the offsets of all
    parts nor a sorted copy of all edges is ever held."""
    counts = [np.bincount(src, minlength=size - base)
              for base, src, _, _ in parts]
    degree = np.zeros(size, np.int64)
    for (base, *_), count in zip(parts, counts):
        degree[base:] += count
    width = max(1, min(CHUNK, int(degree.max(initial=0))))
    n_rows = -(-degree // width)
    first = np.zeros(size + 1, np.int64)
    np.cumsum(n_rows, out=first[1:])
    F = np.zeros((first[-1], width), np.int64)
    W = np.zeros((first[-1], width))
    fill = first[:-1] * width  # each source's next free slot
    row = max(stride, 1)
    lo, hi = BLOCK_CAP * row, row
    for (base, src, w, offsets), count in zip(parts, counts):
        flat = offsets()
        # the part's edges stably sorted by source (sampled projections
        # mostly come sorted); in that order an edge's slot is its source's
        # fill pointer plus its rank among the part's edges of that source
        order = slice(None) if np.all(src[1:] >= src[:-1]) \
            else np.argsort(src, kind="stable")
        slot = np.arange(len(src)) + np.repeat(
            fill[base:] - (np.cumsum(count) - count), count)
        F.reshape(-1)[slot] = flat[order]
        W.reshape(-1)[slot] = w[order]
        fill[base:] += count
        lo = min(lo, int(flat.min(initial=lo)))
        hi = max(hi, int(flat.max(initial=hi)))
    return {"first": first, "n_rows": n_rows, "degree": degree,
            "F": F, "W": W, "lo": lo, "hi": hi}


def _scatter(buf, rows, srcs, table: dict, stride: int) -> int:
    """Add the edges of sources ``srcs``, firing in buffer ``rows`` of
    ``stride`` entries, to the flat buffer; returns the number of edges
    delivered.  The sources' table rows are gathered whole, each offset
    by its firing row, and added by ``add.at`` in the order of ``srcs``,
    then the table's order, padding included.  The sources go in chunks,
    cut where the gathered rows pass a multiple of ``SCATTER_ROWS``, so a
    burst gathers fewer than ``SCATTER_ROWS`` rows plus one source's at a
    time; the chunks go in order, so each buffer cell still takes its adds
    in the same order."""
    n_rows = table["n_rows"][srcs]
    total = int(n_rows.sum())
    if not total:
        return 0
    ends = np.cumsum(n_rows)
    cuts = np.searchsorted(ends, np.arange(SCATTER_ROWS, total, SCATTER_ROWS),
                           side="right").tolist()
    for a, b in zip([0] + cuts, cuts + [len(srcs)]):
        if a == b:
            continue
        k, e = n_rows[a:b], ends[a:b]
        start = e[0] - k[0]  # rows gathered before the chunk
        idx = np.arange(e[-1] - start) + np.repeat(
            table["first"][srcs[a:b]] + (start - e + k), k)
        pos = np.take(table["F"], idx, axis=0)
        pos += np.repeat(rows[a:b] * stride, k)[:, None]
        np.add.at(buf, pos.ravel(), np.take(table["W"], idx, axis=0).ravel())
    return int(table["degree"][srcs].sum())


def _powers(base: np.ndarray, k: int) -> np.ndarray:
    """(k, len(base)) table whose row j is base**(j+1)."""
    return np.cumprod(np.broadcast_to(base, (k, len(base))), axis=0)


def _scan_powers(x: np.ndarray, powers: np.ndarray,
                 y0: Optional[np.ndarray] = None) -> None:
    """In place, x[k] <- y_k of the recurrence y_k = a*y_(k-1) + x[k] from
    y_(-1) = y0 (0 if None), for a per-column factor a with powers[j] =
    a^(j+1).  At ``SCAN_WIDTH`` columns or more, each y_k is computed as
    the recurrence writes it; narrower, x[k] <- sum_j<=k a^(k-j) x[j] by a
    Hillis-Steele scan, and then x[k] += a^(k+1)*y0."""
    if x.shape[1] >= SCAN_WIDTH:
        a = powers[0]
        if y0 is not None:
            x[0] += a * y0
        tmp = np.empty_like(a)
        for k in range(1, len(x)):
            np.multiply(x[k - 1], a, out=tmp)
            x[k] += tmp
        return
    shift = 1
    while shift < len(x):
        x[shift:] += powers[shift - 1] * x[:-shift]
        shift *= 2
    if y0 is not None:
        x += powers[:len(x)] * y0


def _scan(a: np.ndarray, x: np.ndarray) -> None:
    """In place, a[k] <- a[0]*...*a[k] and x[k] <- y_k of the recurrence
    y_k = a[k]*y_(k-1) + x[k] from y = 0: step by step at ``SCAN_WIDTH``
    columns or more, by a Hillis-Steele scan below."""
    if x.shape[1] >= SCAN_WIDTH:
        tmp = np.empty_like(x[0])
        for k in range(1, len(x)):
            np.multiply(x[k - 1], a[k], out=tmp)
            x[k] += tmp
            a[k] *= a[k - 1]
        return
    shift = 1
    while shift < len(x):
        x[shift:] += a[shift:] * x[:-shift]
        a[shift:] *= a[:-shift]
        shift *= 2


def _poisson_events(rng, mean: float, steps: int, size: int):
    """Events of independent Poisson(``mean``) counts on each of the
    ``steps`` x ``size`` (step, source) cells, as arrays (step, source); a
    cell with count c appears c times.  One Poisson total is spread uniformly
    over the cells, so the cost scales with the events."""
    cells = steps * size
    return np.divmod(rng.integers(0, cells, size=rng.poisson(mean * cells)),
                     size)


def simulate(spec: NetworkSpec, config: SimulationConfig) -> SpikeRecord:
    """Run the clock-driven emulation; deterministic per (spec, config)."""
    return _Engine(spec, config).run()


# --- standalone Poisson source ------------------------------------------------


def poisson_source(rate: float, duration: float, seed: int,
                   dt: Optional[float] = None) -> np.ndarray:
    """Poisson spike train (times in ms) over ``duration`` ms.

    Standalone (dt=None): exact exponential-gap generation.  With ``dt``:
    per-step Bernoulli thinning with p = rate*dt; warns above p=0.1 and
    refuses above p=1.
    """
    if rate < 0:
        raise WafersimError("rate must be >= 0")
    if rate == 0 or duration <= 0:
        return np.empty(0, np.float64)
    rng = stream("poisson", seed)
    rate_ms = rate * 1e-3
    if dt is None:
        # draw gaps in blocks until the duration is covered
        out = []
        t = 0.0
        block = max(16, int(rate_ms * duration * 1.2) + 32)
        while t < duration:
            gaps = rng.exponential(1.0 / rate_ms, size=block)
            times = t + np.cumsum(gaps)
            out.append(times[times < duration])
            t = times[-1]
        return np.concatenate(out)
    p = rate_ms * dt
    if p > 1.0:
        raise WafersimError(f"rate*dt = {p:.3g} > 1; thinning impossible")
    if p > 0.1:
        warnings.warn(f"rate*dt = {p:.3g} > 0.1; thinning accuracy degrades")
    n_steps = int(round(duration / dt))
    hits = rng.random(n_steps) < p
    return (np.nonzero(hits)[0] + 1) * dt


# --- readout and speedup ------------------------------------------------------


def readout_subset(record: SpikeRecord, n: int, seed: int,
                   mapping=None) -> SpikeRecord:
    """Restrict a record to ``n`` neurons, sampled uniformly or stratified
    round-robin across ASICs when a mapping result is supplied (emulating
    bandwidth-limited off-chip readout)."""
    pool = record.neurons_recorded()
    if n > len(pool):
        raise WafersimError("subset larger than recorded neuron count")
    rng = stream("readout", seed)
    if n == len(pool):
        chosen = pool
    elif mapping is None:
        chosen = rng.choice(pool, size=n, replace=False)
    else:
        # one permutation per ASIC, in ASIC order; then the k-th pick of
        # every ASIC, in ASIC order, before any (k+1)-th pick
        asics = mapping.placement.neuron_asic[pool]
        order = np.argsort(asics, kind="stable")
        _, starts, counts = np.unique(asics[order], return_index=True,
                                      return_counts=True)
        members = pool[order]
        picks = np.concatenate([rng.permutation(members[s:s + c])
                                for s, c in zip(starts, counts)])
        depth = np.arange(len(pool)) - np.repeat(starts, counts)
        chosen = picks[np.argsort(depth, kind="stable")[:n]]
    if n == 0 and record.spike_count():
        warnings.warn("empty readout subset requested on a nonempty record")
    return _restrict(record, chosen)


def _restrict(record: SpikeRecord, neurons: np.ndarray) -> SpikeRecord:
    """``record`` with only the spikes of the global ids ``neurons``, which
    become its recorded neurons."""
    mask = np.zeros(record.n_neurons, dtype=bool)
    mask[neurons] = True
    keep = mask[record.ids]
    return replace(record, times=record.times[keep], ids=record.ids[keep],
                   recorded_neurons=np.flatnonzero(mask).astype(np.uint32))


def biological_speedup(bio_duration_ms: float, wall_duration_s: float) -> float:
    """Ratio of emulated biological time to wall-clock time."""
    if wall_duration_s <= 0:
        raise WafersimError("wall duration must be > 0")
    return (bio_duration_ms * 1e-3) / wall_duration_s


# --- spike record serialization ----------------------------------------------

_SPIKE_MAGIC = b"WSSR"
_SPIKE_DTYPE = np.dtype([("time", "<f8"), ("id", "<u4")])


def _record_header(record: SpikeRecord) -> dict:
    return {
        "config_hash": (SimulationConfig(**record.config).content_hash()
                        if record.config else ""),
        "duration_ms": record.duration,
        "dt_ms": record.dt,
        "n_neurons": record.n_neurons,
        "deliveries": record.deliveries,
        "population_slices": {k: list(v) for k, v in record.population_slices.items()},
        "recorded_neurons": (None if record.recorded_neurons is None
                             else record.recorded_neurons.tolist()),
    }


_CSV_CHUNK = 1 << 16  # rows per write: bounds the text held in memory
# Below 2**52 every k + 1/2 is a double.  Rounding to nearest is monotone, so
# q = fl(|v|*1e6) lies on the same side of each such rounding boundary as the
# exact product |v|*1e6 unless q is one; then rint(q) is what "%.6f" prints.
_FAST_BELOW = 2.0 ** 52


def _format_row(row_fmt: str, columns: list[np.ndarray], i: int) -> bytes:
    """Row ``i`` formatted by ``row_fmt`` itself: the path for the values
    that the fast path's proof does not cover."""
    return (row_fmt % tuple(c[i].item() for c in columns)).encode()


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """Write the low decimal digits of ``v`` >= 0, right-aligned, into the
    rows of ``out`` as the values 0-9."""
    if len(out) <= 9:  # fits int32, which numpy divides about 3x faster
        v = v.astype(np.int32)
    for j in range(len(out) - 1, -1, -1):
        q = v // 10
        out[j] = v - q * 10
        v = q


def _csv_rows(row_fmt: str, columns: list[np.ndarray]) -> bytes:
    """``"".join(row_fmt % row for row in zip(*columns))``, byte for byte,
    for a ``row_fmt`` of ``%.6f`` and ``%d`` conversions, each followed by
    literal text.

    Each field is a sign position, its integer digits right-aligned, for
    ``%.6f`` a point and six digits, and its literal text, in one
    column-major (width, rows) byte matrix, so that each character position
    is one contiguous row.  A keep-mask of the same layout drops the leading
    zeros and the sign of non-negative values; one boolean index through
    the transposes compacts the rows.  A ``%.6f`` value v is written from
    rint(fl(|v|*1e6)) and is negative exactly when signbit(v), as ``%``
    prints -0.000000 for -0.0.  A row holding NaN, an infinity, a value with
    |v|*1e6 >= 2**52 or one whose fl(|v|*1e6) is a tie is formatted by
    ``_format_row`` in its place."""
    convs = re.findall(r"%(\.6f|d)", row_fmt)
    texts = re.split(r"%\.6f|%d", row_fmt)[1:]
    n = len(columns[0])
    slow = np.zeros(n, bool)
    scaled = []
    for conv, col in zip(convs, columns):
        if conv == "d":
            scaled.append(col.astype(np.int64))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.abs(col, dtype=np.float64) * 1e6
            slow |= ~(q < _FAST_BELOW) | (q - np.floor(q) == 0.5)
        scaled.append(q)
    fields = []  # (negative, integer part, fraction or None, text, digits)
    for conv, col, v, text in zip(convs, columns, scaled, texts):
        v[slow] = 0
        if conv == "d":
            neg, ip, fp = v < 0, np.abs(v), None
        else:
            v = np.rint(v).astype(np.int64)
            ip = v // 1_000_000
            neg, fp = np.signbit(col), v - ip * 1_000_000
        fields.append((neg, ip, fp, text.encode(), len(str(int(ip.max())))))
    width = sum(1 + w + (fp is not None) * 7 + len(text)
                for _, _, fp, text, w in fields)
    M = np.zeros((width, n), np.uint8)
    keep = np.ones((width, n), bool)
    base = np.zeros(width, np.uint8)  # the characters, less the digits
    c = 0
    for neg, ip, fp, text, w in fields:
        base[c], keep[c] = ord("-"), neg
        base[c + 1:c + 1 + w] = ord("0")
        _put_digits(M[c + 1:c + 1 + w], ip)
        keep[c + 1:c + w] = ip >= 10 ** np.arange(w - 1, 0, -1)[:, None]
        c += 1 + w
        if fp is not None:
            base[c:c + 7] = np.frombuffer(b".000000", np.uint8)
            _put_digits(M[c + 1:c + 7], fp)
            c += 7
        base[c:c + len(text)] = np.frombuffer(text, np.uint8)
        c += len(text)
    M += base[:, None]
    keep[:, slow] = False
    fast = M.T[keep.T].tobytes()
    if not slow.any():
        return fast
    # splice the slow rows in: row i's fast bytes would end at ends[i]
    ends = np.cumsum(keep.sum(axis=0)).tolist()
    out, start = [], 0
    for i in np.flatnonzero(slow).tolist():
        out += [fast[start:ends[i]], _format_row(row_fmt, columns, i)]
        start = ends[i]
    out.append(fast[start:])
    return b"".join(out)


def _write_csv(path: Union[str, Path], head: str, row_fmt: str,
               columns: list[np.ndarray]) -> Path:
    """``head``, then one ``row_fmt`` row per index of ``columns``, written
    ``_CSV_CHUNK`` rows at a time."""
    return _atomic_write(path, chain([head], (
        _csv_rows(row_fmt, [c[k:k + _CSV_CHUNK] for c in columns])
        for k in range(0, len(columns[0]), _CSV_CHUNK))))


def save_spikes_csv(record: SpikeRecord, path: Union[str, Path]) -> Path:
    lines = [f"# {k}={json.dumps(v)}" for k, v in sorted(_record_header(record).items())]
    lines.append("time_ms,neuron_id")
    return _write_csv(path, "\n".join(lines) + "\n", "%.6f,%d\n",
                      [record.times, record.ids])


def save_spikes_binary(record: SpikeRecord, path: Union[str, Path]) -> Path:
    """Magic, header length, JSON header, then the (time, id) records, the
    probe times and one array per probe, in the header's ``probe_ids``
    order."""
    probe_ids = sorted(record.probes)
    header = json.dumps({
        **_record_header(record),
        "config": record.config,
        "n_spikes": len(record.times),
        "n_probe_times": (None if record.probe_times is None
                          else len(record.probe_times)),
        "probe_ids": probe_ids,
    }, sort_keys=True).encode()
    rec = np.empty(len(record.times), dtype=_SPIKE_DTYPE)
    rec["time"] = record.times
    rec["id"] = record.ids
    arrays = [record.probe_times] + [record.probes[pid] for pid in probe_ids]
    return _atomic_write(path, [
        _SPIKE_MAGIC, struct.pack("<I", len(header)), header, rec,
        *(np.ascontiguousarray(a, "<f8") for a in arrays if a is not None)])


def load_spikes_binary(path: Union[str, Path]) -> SpikeRecord:
    """The record that ``save_spikes_binary`` wrote.  A header without
    ``wall_time_s`` (the run's wall time, which older files carry) loads
    with a wall time of 0."""
    raw = Path(path).read_bytes()
    if raw[:4] != _SPIKE_MAGIC:
        raise WafersimError("not a spike record file")
    try:
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = {"wall_time_s": 0.0, **json.loads(raw[8:8 + hlen].decode())}
        for key, tp in {
                "n_neurons": int, "duration_ms": float, "dt_ms": float,
                "deliveries": int, "wall_time_s": float,
                "config": SimulationConfig,
                "population_slices": dict[str, tuple[int, int]],
                "recorded_neurons": Optional[list[int]], "n_spikes": int,
                "n_probe_times": Optional[int], "probe_ids": list[int]}.items():
            _typed(tp, header[key], f"corrupt spike record header: {key}")
        n_spikes, n_times = header["n_spikes"], header["n_probe_times"]
        probe_ids = header["probe_ids"]
        n_probe_values = (n_times or 0) * (1 + len(probe_ids))
        recorded = header["recorded_neurons"]
        fields = dict(
            n_neurons=header["n_neurons"], duration=header["duration_ms"],
            dt=header["dt_ms"], deliveries=header["deliveries"],
            wall_time=header["wall_time_s"],
            population_slices={k: tuple(v) for k, v in
                               header["population_slices"].items()},
            config=header["config"],
            recorded_neurons=(None if recorded is None
                              else np.asarray(recorded, np.uint32)))
        if recorded and max(recorded) >= header["n_neurons"]:
            raise ValueError(f"recorded neuron {max(recorded)} >= n_neurons")
        bad = {k: v for k, v in fields["population_slices"].items()
               if not 0 <= v[0] <= v[1] <= header["n_neurons"]}
        if bad:
            raise ValueError(f"population slices {bad} are not [a, b] with "
                             f"0 <= a <= b <= n_neurons")
    except (struct.error, ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        raise WafersimError(f"corrupt spike record header: {exc!r}") from None
    body = 8 + hlen
    spike_bytes = n_spikes * _SPIKE_DTYPE.itemsize
    if min(n_spikes, n_probe_values) < 0 or \
            len(raw) - body != spike_bytes + 8 * n_probe_values:
        raise WafersimError(
            f"spike record payload is {len(raw) - body} bytes; the header "
            f"says {n_spikes} spikes and {n_probe_values} probe values")
    rec = np.frombuffer(raw, _SPIKE_DTYPE, n_spikes, body)
    probes = np.frombuffer(raw, "<f8", n_probe_values, body + spike_bytes)
    probes = probes.reshape(1 + len(probe_ids), -1)
    record = SpikeRecord(
        times=rec["time"].astype(np.float64), ids=rec["id"].astype(np.uint32),
        probe_times=None if n_times is None else probes[0].copy(),
        probes={pid: probes[i + 1].copy() for i, pid in enumerate(probe_ids)},
        **fields)
    # on the contiguous copy: a max over the strided payload view is 4x slower
    if n_spikes and record.ids.max() >= record.n_neurons:
        raise WafersimError(f"spike record holds a neuron id >= n_neurons "
                            f"({record.n_neurons})")
    return record


def save_membrane_csv(record: SpikeRecord, path: Union[str, Path]) -> Path:
    ids = sorted(record.probes)
    return _write_csv(path, "time_ms," + ",".join(f"v_{i}" for i in ids) + "\n",
                      "%.6f," + ",".join(["%.6f"] * len(ids)) + "\n",
                      [record.probe_times] + [record.probes[i] for i in ids])
