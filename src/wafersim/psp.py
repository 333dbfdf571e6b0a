"""Analytic post-synaptic potential shape for exponential synapses on a LIF
membrane (linear regime: current-based, or conductance-based with the driving
force frozen at the resting voltage)."""

from __future__ import annotations

import math


def psp_shape_factor(tau_m: float, tau_syn: float) -> float:
    """Peak of (1/tau_m) * int: exp kernel response, per unit R*w.

    The membrane deflection for a current-based exponential synapse is
    u(t) = R*w * f(t; tau_m, tau_syn); this returns max_t f.  Dimensionless.
    """
    if tau_m <= 0 or tau_syn <= 0:
        raise ValueError("time constants must be positive")
    if abs(tau_m - tau_syn) < 1e-9 * tau_m:
        # limit tau_syn -> tau_m: u = R*w * (t/tau_m) * exp(-t/tau_m)
        return math.exp(-1.0)
    r = tau_syn / tau_m
    a = tau_syn / (tau_m - tau_syn)
    # peak time t* = ln(tau_m/tau_syn) * tau_m*tau_syn/(tau_m - tau_syn)
    return a * (r ** a - r ** (a + 1.0))

