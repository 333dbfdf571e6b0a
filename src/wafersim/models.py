"""Builders for the two reference networks.

``build_brunel`` constructs the two-population balanced random network with
its (g, eta) parameterization; ``build_microcircuit`` constructs the
eight-population layered cortical microcircuit from the bundled connectivity
table (``data/microcircuit_map.json``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Optional

from .network import (
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
    from_fields,
)


class UndefinedThresholdError(WafersimError):
    pass


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# --- balanced random network --------------------------------------------------


@dataclass
class BrunelParams:
    n_total: int = 12400
    exc_fraction: float = 0.8
    p: float = 0.1
    g: float = 5.0  # |w_inh| / w_exc
    eta: float = 2.0  # nu_ext / nu_thres
    w_exc: float = 0.05  # nA peak; J = w*tau_syn/c_m = 0.1 mV per spike
    delay: float = 1.5  # ms
    # the defaults are the classical balanced-network constants
    neuron: NeuronParameters = field(default_factory=NeuronParameters)

    def check(self) -> None:
        if self.g < 0 or self.eta < 0:
            raise ValueError("g and eta must be >= 0")
        if not 0.0 < self.exc_fraction < 1.0:
            raise ValueError("exc_fraction must be in (0, 1)")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.w_exc <= 0:
            raise ValueError("w_exc must be > 0")


def nu_thres(neuron: NeuronParameters, external_in_degree: int,
             w_ext: float) -> float:
    """External rate (Hz) at which mean input alone reaches threshold.

    For current-based exponential synapses the stationary mean deflection of
    K_ext inputs at rate nu is R * K_ext * nu * w * tau_syn (the neuron's
    tau_syn_exc), giving
    nu_thres = (v_thresh - v_rest) * c_m / (w * tau_syn * K_ext * tau_m).
    """
    if w_ext <= 0:
        raise UndefinedThresholdError("w_ext must be > 0")
    if external_in_degree == 0:
        raise UndefinedThresholdError("external in-degree must be nonzero")
    theta = neuron.v_thresh - neuron.v_rest  # mV
    # [mV * nF / (nA * ms * ms)] -> 1/ms -> convert to Hz
    rate_per_ms = theta * neuron.c_m / (
        w_ext * neuron.tau_syn_exc * external_in_degree * neuron.tau_m
    )
    return rate_per_ms * 1000.0


def build_brunel(params: BrunelParams, seed: int = 0) -> NetworkSpec:
    """Two populations, four recurrent projections, Poisson drive per neuron.

    Inhibitory weights are -g * w_exc.  The external stimulus rate is
    eta * nu_thres per external input, delivered through K_ext = p * N_E
    equivalent inputs folded into one per-neuron Poisson source of rate
    K_ext * eta * nu_thres.
    """
    params.check()
    n_exc = round_half_up(params.n_total * params.exc_fraction)
    n_inh = params.n_total - n_exc
    pops = [
        Population("exc", n_exc, replace(params.neuron), Sign.EXCITATORY),
        Population("inh", n_inh, replace(params.neuron), Sign.INHIBITORY),
    ]
    w_inh = -params.g * params.w_exc
    projs = []
    for src, tgt, w in (
        ("exc", "exc", params.w_exc),
        ("exc", "inh", params.w_exc),
        ("inh", "exc", w_inh),
        ("inh", "inh", w_inh),
    ):
        projs.append(Projection(
            pid=f"{src}->{tgt}", source=src, target=tgt,
            connector=FixedProbability(params.p),
            weight=w, delay=params.delay, kind=SynapseKind.CURRENT_EXP,
        ))
    k_ext = max(1, round_half_up(params.p * n_exc))
    nu_t = nu_thres(params.neuron, k_ext, params.w_exc)
    stimuli = [
        StimulusSpec(
            sid=f"ext->{pid}", target=pid, kind=StimulusKind.POISSON_PER_NEURON,
            rate=k_ext * params.eta * nu_t, weight=params.w_exc, delay=params.delay,
        )
        for pid in ("exc", "inh")
    ]
    return NetworkSpec(populations=pops, projections=projs, stimuli=stimuli, seed=seed)


# --- cortical microcircuit ----------------------------------------------------


@dataclass
class MicrocircuitWeights:
    exc_nA: float  # every excitatory synapse but L4E -> L23E
    l4e_to_l23e_nA: float
    inh_rel: float  # inhibitory weight / exc_nA


@dataclass
class MicrocircuitDelays:
    exc: float  # ms
    inh: float  # ms


@dataclass
class MicrocircuitTable:
    """The connectivity table of ``data/microcircuit_map.json``, or of a
    ``model.params.data`` that replaces it; lists run over ``populations``."""
    populations: list[str]
    signs: list[str]  # "excitatory" | "inhibitory"
    sizes: list[int]  # neurons at scale 1
    connection_probabilities: list[list[float]]  # [target][source]
    external_in_degrees: list[int]
    external_rate_hz: float
    weights: MicrocircuitWeights
    delays_ms: MicrocircuitDelays
    neuron: NeuronParameters
    comment: str = ""

    def check(self) -> None:
        n = len(self.populations)
        for name in ("signs", "sizes", "connection_probabilities",
                     "external_in_degrees"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"data.{name} must have one entry per "
                                 f"population ({n})")
        if any(len(row) != n for row in self.connection_probabilities):
            raise ValueError(f"data.connection_probabilities must be {n} x {n}")
        if not set(self.signs) <= {s.value for s in Sign}:
            raise ValueError(f"data.signs must be 'excitatory' or "
                             f"'inhibitory', got {self.signs!r}")


def load_microcircuit_data() -> MicrocircuitTable:
    """The bundled table, typed and checked as a ``model.params.data`` is."""
    with resources.files("wafersim.data").joinpath("microcircuit_map.json").open() as f:
        table = from_fields(MicrocircuitTable, json.load(f), "microcircuit table")
    table.check()
    return table


@dataclass
class MicrocircuitParams:
    scale: float = 1.0  # uniform factor on population sizes
    external_rate: Optional[float] = None  # Hz per external input; None = table value
    data: Optional[MicrocircuitTable] = None  # replaces the bundled table

    def check(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.data is not None:
            self.data.check()


def build_microcircuit(params: MicrocircuitParams, seed: int = 0) -> NetworkSpec:
    """Eight populations with the bundled 8x8 probability map.

    External input is one Poisson source per neuron at K_ext * rate (with the
    table's excitatory weight); ``adaptation.replace_input_with_leak_shift``
    turns it into a leak shift.  Note K_ext is NOT scaled here; in-degree
    reduction is the adaptation stage's job.
    """
    params.check()
    data = params.data or load_microcircuit_data()
    names = data.populations
    sizes = [max(1, round_half_up(s * params.scale)) for s in data.sizes]
    pops = [
        Population(name, size, replace(data.neuron), Sign(sign))
        for name, size, sign in zip(names, sizes, data.signs)
    ]
    w_exc = data.weights.exc_nA
    w_inh = data.weights.inh_rel * w_exc
    d_exc = data.delays_ms.exc
    d_inh = data.delays_ms.inh
    probs = data.connection_probabilities
    projs = []
    for ti, tgt in enumerate(names):
        for si, src in enumerate(names):
            p = probs[ti][si]
            if p <= 0.0:
                continue
            inhibitory = data.signs[si] == "inhibitory"
            w = w_inh if inhibitory else w_exc
            if src == "L4E" and tgt == "L23E":
                w = data.weights.l4e_to_l23e_nA
            projs.append(Projection(
                pid=f"{src}->{tgt}", source=src, target=tgt,
                connector=FixedProbability(p), weight=w,
                delay=d_inh if inhibitory else d_exc,
                kind=SynapseKind.CURRENT_EXP,
            ))
    rate = params.external_rate if params.external_rate is not None \
        else data.external_rate_hz
    stimuli = [
        StimulusSpec(
            sid=f"ext->{name}", target=name, kind=StimulusKind.POISSON_PER_NEURON,
            rate=k_ext * rate, weight=w_exc, delay=d_exc,
        )
        for name, k_ext in zip(names, data.external_in_degrees)
    ]
    return NetworkSpec(populations=pops, projections=projs, stimuli=stimuli, seed=seed)
