"""Network description shared by all pipeline stages.

A :class:`NetworkSpec` holds populations, projections and stimuli.  Probabilistic
projections can be instantiated into explicit edge lists with
:func:`sample_connectivity`; sampling is deterministic per (projection id, seed)
via counter-based streams, so resampling is byte-identical and independent of
ordering or thread count.

Units used throughout: mV, ms, nA, nF, uS (so R = tau_m / c_m is in MOhm and
g * (E - V) is in nA).
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import os
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .rngtools import stream


class WafersimError(Exception):
    """Base class for toolkit errors."""


class InfeasibleInDegreeError(WafersimError):
    pass


class NotSampledError(WafersimError):
    pass


class Sign(str, Enum):
    EXCITATORY = "excitatory"
    INHIBITORY = "inhibitory"


class SynapseKind(str, Enum):
    CURRENT_EXP = "current_exp"
    CONDUCTANCE_EXP = "conductance_exp"


class StimulusKind(str, Enum):
    POISSON_PER_NEURON = "poisson_per_neuron"
    POISSON_POOL = "poisson_pool"


@dataclass
class NeuronParameters:
    tau_m: float = 20.0  # ms
    tau_ref: float = 2.0  # ms
    tau_syn_exc: float = 0.5  # ms
    tau_syn_inh: float = 0.5  # ms
    v_rest: float = -70.0  # mV
    v_reset: float = -60.0  # mV
    v_thresh: float = -50.0  # mV
    e_rev_exc: float = 0.0  # mV (conductance mode)
    e_rev_inh: float = -80.0  # mV (conductance mode)
    c_m: float = 0.25  # nF
    i_offset: float = 0.0  # nA

    def check(self, conductance: bool = False) -> list[str]:
        problems = []
        if self.tau_m <= 0:
            problems.append("tau_m must be > 0")
        if self.tau_ref < 0:
            problems.append("tau_ref must be >= 0")
        if self.tau_syn_exc <= 0 or self.tau_syn_inh <= 0:
            problems.append("tau_syn_* must be > 0")
        if not self.v_reset < self.v_thresh:
            problems.append("v_reset must be below v_thresh")
        if self.c_m <= 0:
            problems.append("c_m must be > 0")
        if conductance and not (self.e_rev_inh < self.v_rest < self.e_rev_exc):
            problems.append("conductance mode requires e_rev_inh < v_rest < e_rev_exc")
        return problems


# --- connectors -------------------------------------------------------------


@dataclass(frozen=True)
class FixedProbability:
    p: float


@dataclass(frozen=True)
class FixedInDegree:
    k: int


@dataclass(frozen=True)
class ExplicitList:
    pass


Connector = Union[FixedProbability, FixedInDegree, ExplicitList]
# a connector's "type" in a spec document
_CONNECTORS = {"fixed_probability": FixedProbability,
               "fixed_in_degree": FixedInDegree, "explicit_list": ExplicitList}


@dataclass
class Population:
    pid: str
    size: int
    params: NeuronParameters
    sign: Sign = Sign.EXCITATORY
    # per-neuron overrides: field name -> array of length `size`
    params_per_neuron: dict[str, np.ndarray] = field(default_factory=dict)

    def param_array(self, name: str) -> np.ndarray:
        if name in self.params_per_neuron:
            return np.asarray(self.params_per_neuron[name], dtype=np.float64)
        return np.full(self.size, getattr(self.params, name), dtype=np.float64)

    def override_problems(self) -> list[str]:
        """What is wrong with ``params_per_neuron``: a name that is not a
        ``NeuronParameters`` field, or a length other than ``size``."""
        names = {f.name for f in fields(NeuronParameters)}
        problems = []
        for name, values in self.params_per_neuron.items():
            what = f"population {self.pid}: params_per_neuron[{name!r}]"
            if name not in names:
                problems.append(f"{what} names no NeuronParameters field")
            elif len(values) != self.size:
                problems.append(f"{what} holds {len(values)} values for "
                                f"{self.size} neurons")
        return problems


@dataclass
class Projection:
    pid: str
    source: str
    target: str
    connector: Connector
    weight: float  # nA peak (current) or uS peak (conductance); sign carries E/I in current mode
    delay: float  # ms
    kind: SynapseKind = SynapseKind.CURRENT_EXP


@dataclass
class StimulusSpec:
    sid: str
    target: str
    kind: StimulusKind
    rate: float = 0.0  # Hz; POISSON_PER_NEURON: total rate seen by each target neuron
    weight: float = 0.0  # nA or uS, matching the network's synapse kind
    delay: float = 1.0  # ms
    pool_size: int = 0  # POISSON_POOL only
    samples_per_target: int = 0  # POISSON_POOL only
    pool_group: str = ""  # POISSON_POOL stimuli with equal group share sources


def inhibitory_channel(weight, conductance: bool,
                       source: Optional[Sign] = None):
    """The channel rule: whether synapses of ``weight`` (a number or an
    array) arrive on the inhibitory channel.  In current mode a negative
    weight is inhibitory (-0.0 is not), elementwise.  In conductance mode the
    sign of the ``source`` population decides, and a stimulus, which has no
    source population, is excitatory."""
    if conductance:
        return source == Sign.INHIBITORY
    return np.less(weight, 0)


# A sidecar record of one edge: little-endian, in the dtypes of EdgeList's
# arrays, so a saved edge list loads equal in value and dtype.
EDGE_DTYPE = np.dtype([("src", "<u4"), ("tgt", "<u4"),
                       ("weight", "<f8"), ("delay", "<f8")])


@dataclass
class EdgeList:
    src: np.ndarray  # uint32
    tgt: np.ndarray  # uint32
    weight: np.ndarray  # float64
    delay: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.src)

    @classmethod
    def empty(cls) -> "EdgeList":
        return cls(
            np.empty(0, np.uint32), np.empty(0, np.uint32),
            np.empty(0, np.float64), np.empty(0, np.float64),
        )

    @classmethod
    def from_arrays(cls, src, tgt, weight, delay) -> "EdgeList":
        src = np.ascontiguousarray(src, np.uint32)
        tgt = np.ascontiguousarray(tgt, np.uint32)
        n = len(src)
        return cls(
            src, tgt,
            np.broadcast_to(np.float64(weight), (n,)).copy() if np.ndim(weight) == 0
            else np.ascontiguousarray(weight, np.float64),
            np.broadcast_to(np.float64(delay), (n,)).copy() if np.ndim(delay) == 0
            else np.ascontiguousarray(delay, np.float64),
        )

    def _records(self) -> np.ndarray:
        rec = np.empty(len(self), EDGE_DTYPE)
        for name in EDGE_DTYPE.names:
            rec[name] = getattr(self, name)
        return rec

    @classmethod
    def from_bytes(cls, buf) -> "EdgeList":
        """The edges of a buffer of ``EDGE_DTYPE`` records."""
        rec = np.frombuffer(buf, EDGE_DTYPE)
        return cls(rec["src"].astype(np.uint32), rec["tgt"].astype(np.uint32),
                   rec["weight"].astype(np.float64),
                   rec["delay"].astype(np.float64))


@dataclass
class NetworkSpec:
    populations: list[Population]
    projections: list[Projection]
    stimuli: list[StimulusSpec] = field(default_factory=list)
    seed: int = 0
    # explicit edges, filled by sampling: projection id -> EdgeList
    edges: dict[str, EdgeList] = field(default_factory=dict)
    # pool-stimulus edges: stimulus id -> EdgeList (src indexes pool sources)
    stim_edges: dict[str, EdgeList] = field(default_factory=dict)

    # -- lookup helpers --

    def population(self, pid: str) -> Population:
        for p in self.populations:
            if p.pid == pid:
                return p
        raise KeyError(pid)

    def has_population(self, pid: str) -> bool:
        return any(p.pid == pid for p in self.populations)

    def n_neurons(self) -> int:
        return sum(p.size for p in self.populations)

    def population_offsets(self) -> dict[str, int]:
        """Global neuron index of each population's first neuron."""
        offsets, n = {}, 0
        for p in self.populations:
            offsets[p.pid] = n
            n += p.size
        return offsets

    def is_sampled(self) -> bool:
        return all(
            isinstance(pr.connector, ExplicitList) or pr.pid in self.edges
            for pr in self.projections
        )

    def total_synapses(self) -> int:
        if not self.is_sampled():
            raise NotSampledError("network has unsampled projections")
        return sum(len(e) for e in self.edges.values())

    def synapse_kinds(self) -> set[SynapseKind]:
        return {pr.kind for pr in self.projections}

    def expected_edge_count(self, proj: Projection) -> float:
        """Expected edge count without sampling (exact for sampled/explicit)."""
        if proj.pid in self.edges:
            return float(len(self.edges[proj.pid]))
        n_src = self.population(proj.source).size
        n_tgt = self.population(proj.target).size
        if isinstance(proj.connector, FixedProbability):
            pairs = n_src * n_tgt - (n_src if proj.source == proj.target else 0)
            return proj.connector.p * pairs
        if isinstance(proj.connector, FixedInDegree):
            return float(proj.connector.k * n_tgt)
        return 0.0

    def expected_total_synapses(self) -> float:
        return sum(self.expected_edge_count(pr) for pr in self.projections)


def copy_spec(spec: NetworkSpec) -> NetworkSpec:
    """A deep copy of ``spec`` whose edge lists hold the arrays of
    ``spec``'s: its edge lists are new objects, so assigning an array to one
    leaves ``spec`` as it was, but writing into an array writes into both.
    The transformations that copy a spec assign new arrays and never write
    into old ones, so the two specs hold each edge once between them."""
    shared = {id(a): a for table in (spec.edges, spec.stim_edges)
              for e in table.values()
              for a in (e.src, e.tgt, e.weight, e.delay)}
    return copy.deepcopy(spec, shared)


# --- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_network(spec: NetworkSpec) -> ValidationReport:
    """Check referential integrity, sign conventions and type invariants.

    Returns a report rather than raising; the report is empty iff the spec
    satisfies all invariants.
    """
    findings: list[str] = []
    for what, ids in (("population", [p.pid for p in spec.populations]),
                      ("projection", [pr.pid for pr in spec.projections]),
                      ("stimulus", [st.sid for st in spec.stimuli])):
        if len(set(ids)) != len(ids):
            findings.append(f"duplicate {what} ids")
    conductance = SynapseKind.CONDUCTANCE_EXP in spec.synapse_kinds()
    for pop in spec.populations:
        if pop.size < 1:
            findings.append(f"population {pop.pid}: size < 1")
        for msg in pop.params.check(conductance=conductance):
            findings.append(f"population {pop.pid}: {msg}")
        findings += pop.override_problems()
    for pr in spec.projections:
        for end, pid in (("source", pr.source), ("target", pr.target)):
            if not spec.has_population(pid):
                findings.append(f"projection {pr.pid}: dangling {end} id '{pid}'")
        if isinstance(pr.connector, FixedProbability):
            if not 0.0 <= pr.connector.p <= 1.0:
                findings.append(f"projection {pr.pid}: p outside [0, 1]")
        if isinstance(pr.connector, FixedInDegree):
            if spec.has_population(pr.source) and \
                    pr.connector.k > spec.population(pr.source).size:
                findings.append(f"projection {pr.pid}: in-degree exceeds source size")
        delays = spec.edges[pr.pid].delay if pr.pid in spec.edges else np.array([pr.delay])
        if np.any(delays <= 0):
            findings.append(f"projection {pr.pid}: non-positive delay")
        if spec.has_population(pr.source):
            src_sign = spec.population(pr.source).sign
            weights = spec.edges[pr.pid].weight if pr.pid in spec.edges \
                else np.array([pr.weight])
            if pr.kind == SynapseKind.CURRENT_EXP:
                if src_sign == Sign.INHIBITORY and np.any(weights > 0):
                    findings.append(
                        f"projection {pr.pid}: inhibitory source with depolarizing weight"
                    )
                if src_sign == Sign.EXCITATORY and np.any(weights < 0):
                    findings.append(
                        f"projection {pr.pid}: excitatory source with hyperpolarizing weight"
                    )
            else:
                if np.any(weights < 0):
                    findings.append(f"projection {pr.pid}: negative conductance weight")
    for st in spec.stimuli:
        if not spec.has_population(st.target):
            findings.append(f"stimulus {st.sid}: dangling target id '{st.target}'")
        if st.rate < 0:
            findings.append(f"stimulus {st.sid}: negative rate")
        if st.kind == StimulusKind.POISSON_POOL and \
                st.samples_per_target > st.pool_size:
            findings.append(f"stimulus {st.sid}: samples_per_target > pool_size")
        weights = spec.stim_edges[st.sid].weight if st.sid in spec.stim_edges \
            else np.array([st.weight])
        if conductance and np.any(weights < 0):
            findings.append(f"stimulus {st.sid}: negative conductance weight")
    return ValidationReport(findings)


# --- connectivity sampling --------------------------------------------------

_CHUNK = 4_000_000  # pair draws per chunk, bounds the uniform buffer's size
# Threads that draw FixedProbability masks in ensure_sampled.  Each projection
# draws from its own stream, so the edges do not depend on this number.
_WORKERS = len(os.sched_getaffinity(0))


def _draw_mask(rng: np.random.Generator, p: float, mask: np.ndarray,
               buffers: queue.SimpleQueue) -> None:
    """Fill the flat bool ``mask`` with ``rng``'s uniforms < ``p``, one chunk
    at a time through a float64 buffer taken from (and returned to)
    ``buffers``.  Allocates nothing, and ``Generator.random(out=)`` and
    ``np.less(out=)`` release the GIL, so worker threads can run it."""
    u = buffers.get()
    try:
        for a in range(0, len(mask), len(u)):
            m = min(len(u), len(mask) - a)
            rng.random(out=u[:m])
            np.less(u[:m], p, out=mask[a:a + m])
    finally:
        buffers.put(u)


def _mask_edges(proj: Projection, mask: np.ndarray, n_tgt: int,
                recurrent: bool) -> EdgeList:
    """The edges of a drawn (source-major) pair mask; a recurrent projection
    drops its self-connections."""
    src, tgt = np.divmod(np.flatnonzero(mask), n_tgt)
    if recurrent:
        keep = src != tgt
        src, tgt = src[keep], tgt[keep]
    return EdgeList.from_arrays(src, tgt, proj.weight, proj.delay)


def _buffers(count: int, size: int) -> queue.SimpleQueue:
    """A queue of ``count`` chunk buffers of ``min(size, _CHUNK)`` uniforms."""
    buffers = queue.SimpleQueue()
    for _ in range(count):
        buffers.put(np.empty(max(1, min(size, _CHUNK)), np.float64))
    return buffers


def distinct_sources(rng: np.random.Generator, n: int, k: int, n_tgt: int,
                     skip_self: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``k`` distinct sources out of ``range(n)`` for each of ``n_tgt``
    targets, one ``rng.choice(n, k, replace=False)`` per target in target
    order.  For a target ``t < skip_self`` the draws ``>= t`` shift up by
    one, so ``t`` is never its own source.  Returns (src, tgt) as uint32."""
    src = np.empty(n_tgt * k, np.uint32)
    for t in range(n_tgt):
        draw = rng.choice(n, size=k, replace=False)
        if t < skip_self:
            draw = np.where(draw >= t, draw + 1, draw)
        src[t * k:(t + 1) * k] = draw
    return src, np.repeat(np.arange(n_tgt, dtype=np.uint32), k)


def sample_connectivity(proj: Projection, sizes: tuple[int, int], seed: int,
                        recurrent: Optional[bool] = None) -> EdgeList:
    """Instantiate a probabilistic projection into an explicit edge list.

    FixedProbability draws each ordered (src, tgt) pair independently with
    probability p; self-connections are excluded for recurrent projections.
    FixedInDegree draws k distinct sources per target.  Deterministic per
    (projection id, seed).
    """
    n_src, n_tgt = sizes
    if recurrent is None:
        recurrent = proj.source == proj.target
    rng = stream("proj", seed, proj.pid)
    if isinstance(proj.connector, FixedProbability):
        mask = np.empty(n_src * n_tgt, bool)
        _draw_mask(rng, proj.connector.p, mask, _buffers(1, len(mask)))
        return _mask_edges(proj, mask, n_tgt, recurrent)
    if isinstance(proj.connector, FixedInDegree):
        k = proj.connector.k
        available = n_src - 1 if recurrent else n_src
        if k > available:
            raise InfeasibleInDegreeError(
                f"projection {proj.pid}: in-degree {k} > "
                f"{available} available sources"
            )
        src, tgt = distinct_sources(rng, available, k, n_tgt,
                                    skip_self=n_src if recurrent else 0)
        return EdgeList.from_arrays(src, tgt, proj.weight, proj.delay)
    raise WafersimError(f"projection {proj.pid}: connector is not samplable")


def _drawn_masks(todo: list[Projection], sizes, seed: int):
    """Yield the flat pair mask of each FixedProbability projection in
    ``todo``, in order.  ``_WORKERS`` threads draw them ahead, at most
    ``_WORKERS + 1`` masks at a time; this thread allocates every mask and
    chunk buffer, so the workers allocate nothing that outlives a draw."""
    buffers = _buffers(_WORKERS, max(a * b for a, b in map(sizes, todo)))
    ahead = iter(todo)
    drawing = deque()  # (mask, future), in todo order
    with ThreadPoolExecutor(_WORKERS) as pool:
        def draw_next():
            pr = next(ahead, None)
            if pr is not None:
                n_src, n_tgt = sizes(pr)
                mask = np.empty(n_src * n_tgt, bool)
                drawing.append((mask, pool.submit(
                    _draw_mask, stream("proj", seed, pr.pid),
                    pr.connector.p, mask, buffers)))

        for _ in range(_WORKERS + 1):
            draw_next()
        while drawing:
            mask, drawn = drawing.popleft()
            drawn.result()
            yield mask
            del mask
            draw_next()


def ensure_sampled(spec: NetworkSpec) -> NetworkSpec:
    """Sample any unsampled probabilistic projections in place (idempotent).

    The FixedProbability masks come from ``_drawn_masks``; this thread
    builds every edge list and inserts them in projection order, so the
    edges equal ``sample_connectivity``'s for any number of threads."""
    def sizes(pr):
        return spec.population(pr.source).size, spec.population(pr.target).size

    # the projections the loop below draws from masks, in the order it
    # meets them
    todo, seen = [], set(spec.edges)
    for pr in spec.projections:
        if pr.pid not in seen:
            seen.add(pr.pid)
            if isinstance(pr.connector, FixedProbability):
                todo.append(pr)
    # a generator: no thread starts unless a mask is drawn
    masks = _drawn_masks(todo, sizes, spec.seed)
    drawn = {pr.pid for pr in todo}
    for pr in spec.projections:
        if isinstance(pr.connector, ExplicitList):
            spec.edges.setdefault(pr.pid, EdgeList.empty())
        elif pr.pid in drawn:
            drawn.remove(pr.pid)
            spec.edges[pr.pid] = _mask_edges(pr, next(masks), sizes(pr)[1],
                                             pr.source == pr.target)
        elif pr.pid not in spec.edges:
            spec.edges[pr.pid] = sample_connectivity(pr, sizes(pr), spec.seed)
    return spec


# --- in-degree statistics ---------------------------------------------------


def in_degree_array(spec: NetworkSpec, include_stimuli: bool = True) -> np.ndarray:
    """Afferent edge count per neuron in global index order."""
    if not spec.is_sampled():
        raise NotSampledError("in_degree_array requires sampled connectivity")
    offsets = spec.population_offsets()
    counts = np.zeros(spec.n_neurons(), dtype=np.int64)
    afferents = [(pr.target, spec.edges[pr.pid]) for pr in spec.projections]
    if include_stimuli:
        afferents += [(st.target, spec.stim_edges.get(st.sid))
                      for st in spec.stimuli]
    for target, e in afferents:
        if e is not None and len(e):
            size = spec.population(target).size
            counts[offsets[target]:offsets[target] + size] += np.bincount(
                e.tgt, minlength=size)
    return counts


# --- serialization ----------------------------------------------------------

_SIDECAR_MAGIC = b"WSE2"
# The magic of the sidecar format before, whose weights and delays were f32.
_FLOAT32_SIDECAR_MAGIC = b"WSED"


def from_fields(cls, doc: dict, what: str):
    """``cls(**doc)`` for the dataclass ``cls``, each value built by
    ``_typed`` from its field's annotation.  An unknown or missing key, or a
    value that the annotation does not admit, raises ``WafersimError``
    naming the key."""
    if not isinstance(doc, dict):
        raise WafersimError(f"{what} must be an object, got {doc!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(doc) - known.keys()
    if unknown:
        raise WafersimError(f"{what}: unknown fields {sorted(unknown)}")
    missing = [k for k, f in known.items() if k not in doc and
               f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise WafersimError(f"{what}: missing fields {missing}")
    hints = get_type_hints(cls)
    return cls(**{k: _typed(hints[k], v, f"{what}.{k}")
                  for k, v in doc.items()})


# what an annotation admits: any integer for int, any real for float, a
# list (as JSON holds it) for a tuple
_ADMITS = {int: numbers.Integral, float: numbers.Real, tuple: (list, tuple)}
# the exact types of the scalars that an annotation admits as JSON gives them
_JSON_SCALARS = {int: {int}, float: {int, float}, str: {str}}


def _typed(tp, value, what: str):
    """``value`` as the annotation ``tp`` admits it, else ``WafersimError``
    naming ``what``.  Values are checked, not converted: an ``int`` passes
    for a ``float`` and a ``bool`` never for a number.  Built from ``value``
    are: a dataclass from a dict (by ``from_fields``), a ``Connector`` from
    the dict ``spec_to_dict`` writes, a str enum member from its value, a
    float64 array from a list of reals for ``np.ndarray``, a tuple from a
    list of its length, and the items of ``list[T]`` and ``dict[K, T]``."""
    if type(value) in _JSON_SCALARS.get(tp, ()):  # the common case, first
        return value
    if tp is Connector:  # {"type": <a key of _CONNECTORS>, **its fields}
        value = dict(_typed(dict, value, what))
        kind = value.pop("type", None)
        if not isinstance(kind, str) or kind not in _CONNECTORS:
            raise WafersimError(f"{what}.type must be one of "
                                f"{sorted(_CONNECTORS)}, got {kind!r}")
        return from_fields(_CONNECTORS[kind], value, what)
    if get_origin(tp) is Union:  # Optional[T]
        if value is None:
            return None
        tp = next(a for a in get_args(tp) if a is not type(None))
    if isinstance(tp, type) and issubclass(tp, Enum):  # by its value
        members = {m.value: m for m in tp}
        if not isinstance(value, str) or value not in members:
            raise WafersimError(f"{what} must be one of {sorted(members)}, "
                                f"got {value!r}")
        return members[value]
    if tp is np.ndarray and isinstance(value, list):
        return np.asarray(_typed(list[float], value, what), np.float64)
    if is_dataclass(tp) and isinstance(value, dict):
        return from_fields(tp, value, what)
    origin, args = get_origin(tp) or tp, get_args(tp)
    if isinstance(value, (bool, np.bool_)) and origin is not bool or \
            not isinstance(value, _ADMITS.get(origin, origin)) or \
            origin is tuple and len(value) != len(args):
        raise WafersimError(f"{what} must be {getattr(tp, '__name__', tp)}, "
                            f"got {value!r}")
    if origin is tuple:
        return tuple(_typed(a, v, f"{what}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if args and origin is list:
        if set(map(type, value)) <= _JSON_SCALARS.get(args[0], set()):
            return value  # at C speed: a mapping holds a list per neuron
        return [_typed(args[0], v, f"{what}[{i}]") for i, v in enumerate(value)]
    if args and origin is dict:
        return {k: _typed(args[1], v, f"{what}[{k!r}]")
                for k, v in value.items()}
    return value


def _rebuild(what: str) -> WafersimError:
    return WafersimError(f"network spec in an older format ({what}); "
                         f"rebuild it with this version")


# the stimulus fields of the format that kept the leak shift in stimuli
_LEAK_SHIFT_FIELDS = {"delta_v", "delta_i"}


def spec_to_dict(spec: NetworkSpec) -> dict:
    """The structure of ``spec``: everything but its edge lists."""
    types = {cls: kind for kind, cls in _CONNECTORS.items()}
    return {
        "seed": spec.seed,
        "populations": [
            {**vars(p), "sign": p.sign.value, "params": vars(p.params).copy(),
             "params_per_neuron": {k: np.asarray(v).tolist()
                                   for k, v in p.params_per_neuron.items()}}
            for p in spec.populations
        ],
        "projections": [
            {**vars(pr), "connector": {"type": types[type(pr.connector)],
                                       **vars(pr.connector)},
             "kind": pr.kind.value}
            for pr in spec.projections
        ],
        "stimuli": [
            {k: (v.value if isinstance(v, Enum) else v) for k, v in vars(st).items()}
            for st in spec.stimuli
        ],
    }


def spec_from_dict(doc: dict, what: str = "spec") -> NetworkSpec:
    """The spec whose structure ``spec_to_dict`` wrote, without edge lists,
    built by ``from_fields``: a missing or unknown field, or a value that
    its annotation does not admit, raises ``WafersimError`` naming its path
    under ``what``.  A document with inline edge lists or with leak-shift
    stimulus fields is in an older format and raises ``WafersimError``."""
    doc = _typed(dict, doc, what)
    stimuli = _typed(list[dict], doc.get("stimuli", []), f"{what}.stimuli")
    old = sorted({"edges", "stim_edges"} & doc.keys()) + \
        sorted(_LEAK_SHIFT_FIELDS & set().union(*stimuli))
    if old:
        raise _rebuild(f"fields {old}")
    return from_fields(NetworkSpec, doc, what)


def save_spec(spec: NetworkSpec, path: Union[str, Path]) -> Path:
    """Write ``spec`` to ``path`` as JSON and its edges to ``<path>.edges``.

    The JSON holds the structure and, under ``edge_sidecar``, the sidecar's
    file name and the byte offset and count of each edge list in it.  The
    sidecar is a magic followed by the ``EDGE_DTYPE`` records of every edge
    list, written one list at a time.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".edges")
    index, offset = {}, len(_SIDECAR_MAGIC)
    for section in ("edges", "stim_edges"):
        table = index[section] = {}
        for key, edges in sorted(getattr(spec, section).items()):
            table[key] = {"offset": offset, "count": len(edges)}
            offset += EDGE_DTYPE.itemsize * len(edges)
    _atomic_write(sidecar, chain([_SIDECAR_MAGIC], (
        getattr(spec, section)[key]._records()
        for section, table in index.items() for key in table)))
    doc = spec_to_dict(spec)
    doc["edge_sidecar"] = {"file": sidecar.name, "index": index}
    return _atomic_write(path, [json.dumps(doc, sort_keys=True)])


def load_spec(path: Union[str, Path]) -> NetworkSpec:
    """Read a spec written by ``save_spec``.  A document that is not valid
    JSON, lacks a field or holds a value of the wrong type raises
    ``WafersimError``, as does a sidecar that does not match its index and
    a spec in an older format."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        spec = spec_from_dict(
            {k: v for k, v in doc.items() if k != "edge_sidecar"},
            f"corrupt network spec {path}: spec")
        sc = doc["edge_sidecar"]
        # one entry at a time into its own records: a whole-file buffer
        # would add the sidecar's size to the peak memory of every load
        with open(path.parent / sc["file"], "rb") as f:
            size = os.fstat(f.fileno()).st_size
            magic = f.read(len(_SIDECAR_MAGIC))
            if magic == _FLOAT32_SIDECAR_MAGIC:
                raise _rebuild(f"float32 edge sidecar {sc['file']}")
            if magic != _SIDECAR_MAGIC:
                raise WafersimError(f"corrupt edge sidecar {sc['file']}")
            end = len(_SIDECAR_MAGIC)
            for section, table in (("edges", spec.edges),
                                   ("stim_edges", spec.stim_edges)):
                for key, entry in sc["index"][section].items():
                    start, count = entry["offset"], entry["count"]
                    stop = start + EDGE_DTYPE.itemsize * count
                    if not len(_SIDECAR_MAGIC) <= start <= stop <= size:
                        raise WafersimError(
                            f"edge sidecar {sc['file']} is {size} bytes; "
                            f"{section}/{key} needs bytes {start}-{stop}")
                    rec = np.empty(count, EDGE_DTYPE)
                    f.seek(start)
                    if f.readinto(rec) != rec.nbytes:
                        raise WafersimError(
                            f"edge sidecar {sc['file']} ended inside "
                            f"{section}/{key}")
                    table[key] = EdgeList.from_bytes(rec)
                    end = max(end, stop)
            if end != size:
                raise WafersimError(
                    f"edge sidecar {sc['file']} is {size} bytes; "
                    f"its index ends at byte {end}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise WafersimError(f"corrupt network spec {path}: {exc!r}") from None
    return spec


def mapping_relevant_hash(spec: NetworkSpec) -> str:
    """Hash over the mapping-relevant structure only: population sizes and
    edge endpoints.  Weight or stimulus-rate changes keep this hash stable,
    so a cached mapping stays valid across reprogrammed weights and inputs."""
    h = hashlib.blake2b(digest_size=16)
    for p in spec.populations:
        h.update(f"{p.pid}:{p.size}".encode())
    for section in (spec.edges, spec.stim_edges):
        for key in sorted(section):
            e = section[key]
            h.update(key.encode())
            h.update(np.ascontiguousarray(e.src, np.uint32).tobytes())
            h.update(np.ascontiguousarray(e.tgt, np.uint32).tobytes())
    return h.hexdigest()


def _atomic_write(path: Union[str, Path], chunks) -> Path:
    """Write ``chunks`` (``str`` as UTF-8, ``bytes`` or contiguous arrays)
    to a temp file beside ``path``, then rename it over ``path``.  An error
    or a crash mid-write leaves ``path`` as it was; a power loss may not,
    since nothing is fsynced."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode() if isinstance(chunk, str) else chunk)
                del chunk  # a streamed chunk is freed before the next is made
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def json_digest(doc) -> str:
    """The 128-bit BLAKE2b hex digest of ``doc`` as sorted-key JSON."""
    return hashlib.blake2b(json.dumps(doc, sort_keys=True).encode(),
                           digest_size=16).hexdigest()

