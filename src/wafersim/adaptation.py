"""Hardware-adaptation pipeline.

Each step is a pure transformation NetworkSpec -> NetworkSpec' that appends a
record to an :class:`AdaptationReport`.  The pipeline order is fixed:
downscale -> linear weight compensation -> input substitution (Poisson pool or
leak shift) -> current-to-conductance conversion -> synaptic time-constant
clamping -> per-neuron parameter variation.  Weight compensation must precede
conductance conversion so PSP matching targets the compensated weights.

The steps that rescale weights (linear compensation, conversion, clamping)
each supply a rule to one pass, ``_rescale_weights``, which learns each
synapse's channel from ``network.inhibitory_channel``, the rule the engine
delivers by.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace as dc_replace
from typing import Optional

import numpy as np

from .models import round_half_up
from .network import (
    EdgeList,
    FixedInDegree,
    FixedProbability,
    NetworkSpec,
    NeuronParameters,
    StimulusKind,
    StimulusSpec,
    SynapseKind,
    WafersimError,
    copy_spec,
    distinct_sources,
    ensure_sampled,
    from_fields,
    inhibitory_channel,
)
from .psp import psp_shape_factor
from .rngtools import stream


class DegenerateScaleError(WafersimError):
    pass


class SingularDrivingForceError(WafersimError):
    pass


class VariationError(WafersimError):
    pass


# --- report -----------------------------------------------------------------


@dataclass
class StepRecord:
    name: str
    neurons_before: int
    neurons_after: int
    synapses_before: float
    synapses_after: float
    seed: Optional[int] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AdaptationReport:
    steps: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord) -> None:
        if self.steps:
            prev = self.steps[-1]
            if (record.neurons_before != prev.neurons_after
                    or record.synapses_before != prev.synapses_after):
                raise WafersimError(
                    f"report count chain broken between "
                    f"'{prev.name}' and '{record.name}'"
                )
        self.steps.append(record)

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}

    def render_text(self) -> str:
        lines = ["adaptation report", "=" * 17]
        for s in self.steps:
            lines.append(
                f"{s.name}: neurons {s.neurons_before} -> {s.neurons_after}, "
                f"synapses {s.synapses_before:g} -> {s.synapses_after:g}"
            )
            for k, v in s.details.items():
                lines.append(f"    {k}: {v}")
        return "\n".join(lines)


def _counts(spec: NetworkSpec) -> tuple[int, float]:
    syn = spec.total_synapses() if spec.is_sampled() else spec.expected_total_synapses()
    return spec.n_neurons(), syn


def _record(name: str, before: tuple[int, float], spec: NetworkSpec,
            seed: Optional[int] = None, **details) -> StepRecord:
    n_after, s_after = _counts(spec)
    return StepRecord(name, before[0], n_after, before[1], s_after,
                      seed=seed, details=details)


def _rescale_weights(spec: NetworkSpec, rule) -> None:
    """Set the weight of every projection and stimulus of ``spec``, and the
    weights of its edge list, to ``rule(target population, inhibitory,
    weights)``; ``inhibitory`` is ``inhibitory_channel`` of those weights."""
    conductance = SynapseKind.CONDUCTANCE_EXP in spec.synapse_kinds()
    synapses = [(pr, pr.pid, spec.edges, pr.kind == SynapseKind.CONDUCTANCE_EXP,
                 spec.population(pr.source).sign) for pr in spec.projections]
    synapses += [(st, st.sid, spec.stim_edges, conductance, None)
                 for st in spec.stimuli]
    for syn, key, table, cond, sign in synapses:
        pop = spec.population(syn.target)
        syn.weight = float(rule(pop, inhibitory_channel(syn.weight, cond, sign),
                                syn.weight))
        e = table.get(key)
        if e is not None and len(e):
            e.weight = rule(pop, inhibitory_channel(e.weight, cond, sign),
                            e.weight)


# --- individual steps ---------------------------------------------------------


def downscale(spec: NetworkSpec, neuron_scale: float, indegree_scale: float,
              seed: int) -> tuple[NetworkSpec, StepRecord]:
    """Shrink populations by ``neuron_scale`` and resample probabilistic
    projections so the realized in-degree scales by ``indegree_scale``."""
    if not 0.0 < neuron_scale <= 1.0 or not 0.0 < indegree_scale <= 1.0:
        raise DegenerateScaleError("scales must be in (0, 1]")
    before = _counts(spec)
    out = copy_spec(spec)
    out.seed = seed
    if neuron_scale == 1.0 and indegree_scale == 1.0:
        return out, _record("downscale", before, out, seed=seed, identity=True)
    probabilities = {}
    for pop in out.populations:
        new_size = round_half_up(pop.size * neuron_scale)
        if new_size < 1:
            raise DegenerateScaleError(f"population {pop.pid} scales to zero")
        if pop.params_per_neuron:
            raise WafersimError(
                "downscale before parameter variation; per-neuron overrides present"
            )
        pop.size = new_size
    for pr in out.projections:
        if isinstance(pr.connector, FixedProbability):
            p_new = min(1.0, pr.connector.p * indegree_scale / neuron_scale)
            pr.connector = FixedProbability(p_new)
            probabilities[pr.pid] = p_new
        elif isinstance(pr.connector, FixedInDegree):
            pr.connector = FixedInDegree(
                max(1, round_half_up(pr.connector.k * indegree_scale)))
        else:
            raise WafersimError(
                f"projection {pr.pid}: cannot downscale an explicit edge list"
            )
    out.edges = {}
    out.stim_edges = {}
    ensure_sampled(out)
    return out, _record(
        "downscale", before, out, seed=seed,
        neuron_scale=neuron_scale, indegree_scale=indegree_scale,
        connection_probabilities=probabilities,
    )


def scale_weights_linear(spec: NetworkSpec, indegree_scale: float
                         ) -> tuple[NetworkSpec, StepRecord]:
    """Multiply every internal weight by 1/indegree_scale; external Poisson
    drive keeps its mean (rate * indegree_scale, weight / indegree_scale)."""
    if indegree_scale == 0:
        raise WafersimError("indegree_scale must be nonzero")
    before = _counts(spec)
    out = copy_spec(spec)
    factor = 1.0 / indegree_scale
    _rescale_weights(out, lambda pop, inh, w: w * factor)
    external = {}
    for st in out.stimuli:
        st.rate *= indegree_scale
        external[st.sid] = {"rate": st.rate, "weight": st.weight}
    return out, _record("scale_weights_linear", before, out,
                        weight_factor=factor, external_drive=external)


def substitute_poisson_pool(spec: NetworkSpec, pool_size: int,
                            samples_per_target: int, seed: int
                            ) -> tuple[NetworkSpec, StepRecord]:
    """Replace per-neuron Poisson sources by a shared pool.

    Stimuli with identical (rate, weight, delay) share one pool of
    ``pool_size`` sources; each target neuron samples ``samples_per_target``
    distinct sources.  Per-source rate = total per-neuron rate / samples, so
    the mean external flux per neuron is preserved.
    """
    if samples_per_target > pool_size:
        raise WafersimError("samples_per_target > pool_size")
    before = _counts(spec)
    out = copy_spec(spec)
    groups: dict[tuple, list[StimulusSpec]] = {}
    for st in out.stimuli:
        if st.kind == StimulusKind.POISSON_PER_NEURON:
            groups.setdefault((st.rate, st.weight, st.delay), []).append(st)
    rates = {}
    for gi, (key, members) in enumerate(sorted(groups.items())):
        total_rate, weight, delay = key
        per_source = total_rate / samples_per_target if samples_per_target else 0.0
        group_id = f"pool{gi}"
        for st in members:
            st.kind = StimulusKind.POISSON_POOL
            st.pool_size = pool_size
            st.samples_per_target = samples_per_target
            st.rate = per_source
            st.pool_group = group_id
            n_tgt = out.population(st.target).size
            if samples_per_target:
                src, tgt = distinct_sources(stream("stim", seed, st.sid),
                                            pool_size, samples_per_target, n_tgt)
                out.stim_edges[st.sid] = EdgeList.from_arrays(src, tgt, weight, delay)
            else:
                out.stim_edges[st.sid] = EdgeList.empty()
            rates[st.sid] = per_source
    return out, _record("substitute_poisson_pool", before, out, seed=seed,
                        pool_size=pool_size, samples_per_target=samples_per_target,
                        per_source_rate=rates)


def replace_input_with_leak_shift(spec: NetworkSpec
                                  ) -> tuple[NetworkSpec, StepRecord]:
    """Replace per-neuron Poisson stimuli by an elevated leak potential.

    dV = mean external current * membrane resistance, with mean current
    rate * weight * tau_syn (the per-neuron rate already folds in K_ext).
    """
    before = _counts(spec)
    out = copy_spec(spec)
    if SynapseKind.CONDUCTANCE_EXP in out.synapse_kinds():
        raise WafersimError(
            "leak-shift substitution requires current-based stimuli; "
            "apply before conductance conversion"
        )
    shifts = {}
    remaining = []
    for st in out.stimuli:
        if st.kind != StimulusKind.POISSON_PER_NEURON:
            remaining.append(st)
            continue
        pop = out.population(st.target)
        mean_i = st.rate * 1e-3 * st.weight * pop.params.tau_syn_exc  # nA
        shift = mean_i * pop.params.tau_m / pop.params.c_m  # mV
        # copy before mutating: populations may share a params object
        pop.params = dc_replace(pop.params, v_rest=pop.params.v_rest + shift)
        shifts[st.target] = shift
    out.stimuli = remaining
    return out, _record("replace_input_with_leak_shift", before, out,
                        delta_v_per_population=shifts)


def convert_current_to_conductance(spec: NetworkSpec,
                                   assumed_mean_v: Optional[dict] = None
                                   ) -> tuple[NetworkSpec, StepRecord]:
    """Convert every current-based weight w to a conductance w/(E_rev - V)
    evaluated at the assumed mean membrane potential of the target.  A
    stimulus has no source population to carry an inhibitory sign in
    conductance mode, so an inhibitory stimulus raises ``WafersimError``.
    An ``assumed_mean_v`` key that names no population, or a mean V outside
    (e_rev_inh, e_rev_exc), where a driving force is zero or changes sign,
    raises ``SingularDrivingForceError``."""
    before = _counts(spec)
    out = copy_spec(spec)
    if out.synapse_kinds() - {SynapseKind.CURRENT_EXP}:
        raise WafersimError("conversion requires all projections current-based")
    negative = [st.sid for st in out.stimuli
                if inhibitory_channel(st.weight, False)]
    if negative:
        raise WafersimError(
            f"stimuli {negative} have negative weights; an inhibitory "
            f"stimulus cannot be converted to conductance")
    v_mean = {pop.pid: 0.5 * (pop.params.v_rest + pop.params.v_thresh)
              for pop in out.populations}
    unknown = sorted(set(assumed_mean_v or {}) - set(v_mean))
    if unknown:
        raise SingularDrivingForceError(
            f"assumed_mean_v names no population: {unknown}")
    v_mean.update(assumed_mean_v or {})
    for pop in out.populations:
        if not pop.params.e_rev_inh < v_mean[pop.pid] < pop.params.e_rev_exc:
            raise SingularDrivingForceError(
                f"assumed mean voltage of {pop.pid} lies outside "
                f"(e_rev_inh, e_rev_exc): {v_mean[pop.pid]} mV")

    def driving_force(pop, inhibitory):
        v = v_mean[pop.pid]
        return np.where(inhibitory, pop.params.e_rev_inh - v,
                        pop.params.e_rev_exc - v)

    factors = {
        pr.pid: 1.0 / float(driving_force(out.population(pr.target),
                                          inhibitory_channel(pr.weight, False)))
        for pr in out.projections
    }
    _rescale_weights(out, lambda pop, inh, w: w / driving_force(pop, inh))
    for pr in out.projections:
        pr.kind = SynapseKind.CONDUCTANCE_EXP
    return out, _record("convert_current_to_conductance", before, out,
                        assumed_mean_v=v_mean, weight_factors=factors)


def clamp_time_constants(spec: NetworkSpec, min_tau_syn: float
                         ) -> tuple[NetworkSpec, StepRecord]:
    """Raise synaptic time constants below ``min_tau_syn`` and rescale the
    afferent weights so the (linearized) PSP peak is preserved."""
    if min_tau_syn <= 0:
        raise WafersimError("min_tau_syn must be > 0")
    before = _counts(spec)
    out = copy_spec(spec)
    affected = {}
    rescale = {}  # target pid -> (excitatory, inhibitory) weight factor
    for pop in out.populations:
        # copy before mutating: populations may share a params object
        pop.params = dc_replace(pop.params)
        factors = []
        for attr in ("tau_syn_exc", "tau_syn_inh"):
            tau = getattr(pop.params, attr)
            factor = 1.0
            if tau < min_tau_syn:
                factor = (psp_shape_factor(pop.params.tau_m, tau)
                          / psp_shape_factor(pop.params.tau_m, min_tau_syn))
                setattr(pop.params, attr, min_tau_syn)
                affected.setdefault(pop.pid, {})[attr] = {
                    "from": tau, "to": min_tau_syn, "weight_factor": factor,
                }
            factors.append(factor)
        rescale[pop.pid] = factors
    _rescale_weights(out, lambda pop, inh, w: w * np.where(
        inh, rescale[pop.pid][1], rescale[pop.pid][0]))
    return out, _record("clamp_time_constants", before, out,
                        min_tau_syn=min_tau_syn, affected=affected)


_POSITIVE_FIELDS = {"tau_m", "tau_syn_exc", "tau_syn_inh", "c_m"}
_NONNEGATIVE_FIELDS = {"tau_ref"}
_MAX_REDRAWS = 100


def apply_parameter_variation(spec: NetworkSpec, cv_map: dict[str, float],
                              seed: int) -> tuple[NetworkSpec, StepRecord]:
    """Draw per-neuron parameter overrides Normal(nominal, cv * |nominal|),
    redrawing values that violate physical validity (truncation by redraw)."""
    for name, cv in cv_map.items():
        if cv < 0:
            raise VariationError(f"cv for {name} must be >= 0")
        if name not in {f.name for f in fields(NeuronParameters)}:
            raise VariationError(f"unknown neuron parameter '{name}'")
    before = _counts(spec)
    out = copy_spec(spec)
    active = {k: v for k, v in cv_map.items() if v > 0}
    for pop in out.populations:
        draws = {}
        for name, cv in sorted(active.items()):
            nominal = getattr(pop.params, name)
            sd = cv * abs(nominal)
            rng = stream("var", seed, pop.pid, name)
            values = rng.normal(nominal, sd, size=pop.size)
            draws[name] = (values, rng, nominal, sd)
        # enforce validity jointly per neuron
        for attempt in range(_MAX_REDRAWS + 1):
            invalid = np.zeros(pop.size, dtype=bool)
            for name, (values, _, _, _) in draws.items():
                if name in _POSITIVE_FIELDS:
                    invalid |= values <= 0
                elif name in _NONNEGATIVE_FIELDS:
                    invalid |= values < 0
            v_reset = draws.get("v_reset", (None,))[0]
            v_thresh = draws.get("v_thresh", (None,))[0]
            if v_reset is not None or v_thresh is not None:
                lo = v_reset if v_reset is not None else pop.params.v_reset
                hi = v_thresh if v_thresh is not None else pop.params.v_thresh
                invalid |= np.asarray(lo) >= np.asarray(hi)
            if not invalid.any():
                break
            if attempt == _MAX_REDRAWS:
                raise VariationError(
                    f"population {pop.pid}: could not draw valid parameters "
                    f"after {_MAX_REDRAWS} redraws"
                )
            n_bad = int(invalid.sum())
            for name, (values, rng, nominal, sd) in draws.items():
                values[invalid] = rng.normal(nominal, sd, size=n_bad)
        for name, (values, _, _, _) in draws.items():
            pop.params_per_neuron[name] = values
    return out, _record("apply_parameter_variation", before, out, seed=seed,
                        cv_map=dict(cv_map))


# --- pipeline -----------------------------------------------------------------


@dataclass
class PoissonPool:
    """The keys of ``AdaptationConfig.poisson_pool``."""
    pool_size: int
    samples_per_target: int


@dataclass
class AdaptationConfig:
    neuron_scale: float = 1.0
    indegree_scale: float = 1.0
    weight_compensation: str = "linear"  # "linear" | "none"
    conductance_conversion: bool = False
    assumed_mean_v: Optional[dict[str, float]] = None  # population id -> mV
    poisson_pool: Optional[dict] = None  # the fields of PoissonPool
    leak_shift_input: bool = False
    min_tau_syn: float = 0.0  # <= 0 disables clamping
    variation: dict[str, float] = field(default_factory=dict)  # field name -> cv
    seed: int = 0

    def check(self) -> None:
        if not 0.0 < self.neuron_scale <= 1.0:
            raise ValueError("neuron_scale must be in (0, 1]")
        if not 0.0 < self.indegree_scale <= 1.0:
            raise ValueError("indegree_scale must be in (0, 1]")
        if self.weight_compensation not in ("linear", "none"):
            raise ValueError("weight_compensation must be 'linear' or 'none'")
        if any(cv < 0 for cv in self.variation.values()):
            raise ValueError("variation CVs must be >= 0")
        if self.poisson_pool:
            from_fields(PoissonPool, self.poisson_pool, "poisson_pool")
            if self.leak_shift_input:
                raise ValueError("choose either poisson_pool or leak_shift_input")


def adapt_pipeline(spec: NetworkSpec, config: AdaptationConfig
                   ) -> tuple[NetworkSpec, AdaptationReport]:
    """Apply the full adaptation sequence; the report chains all steps."""
    config.check()
    report = AdaptationReport()
    spec, rec = downscale(spec, config.neuron_scale, config.indegree_scale,
                          config.seed)
    report.append(rec)
    if config.weight_compensation == "linear":
        spec, rec = scale_weights_linear(spec, config.indegree_scale)
        report.append(rec)
    if config.poisson_pool:
        spec, rec = substitute_poisson_pool(
            spec, config.poisson_pool["pool_size"],
            config.poisson_pool["samples_per_target"], config.seed,
        )
        report.append(rec)
    elif config.leak_shift_input:
        spec, rec = replace_input_with_leak_shift(spec)
        report.append(rec)
    if config.conductance_conversion:
        spec, rec = convert_current_to_conductance(spec, config.assumed_mean_v)
        report.append(rec)
    if config.min_tau_syn > 0:
        spec, rec = clamp_time_constants(spec, config.min_tau_syn)
        report.append(rec)
    if any(cv > 0 for cv in config.variation.values()):
        spec, rec = apply_parameter_variation(spec, config.variation, config.seed)
        report.append(rec)
    return spec, report
