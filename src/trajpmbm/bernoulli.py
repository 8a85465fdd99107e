"""Single-hypothesis prediction and update primitives.

These implement the per-track pieces of the PMBM recursion: survival
extension of mixture components (with the compact death-time pmf in
all-trajectories mode), missed-detection and detection updates of a
Bernoulli, thinning of the undetected Poisson intensity, and creation of the
two-hypothesis Bernoulli for a track started on a measurement.

Weights are handled in the log domain; a factor of zero maps to -inf.
"""

from __future__ import annotations

import math

from . import gaussseq
from .density import LocalHypothesis
from .models import SensorModel, clutter_density
from .trajectory import MixtureComponent, TrajectoryMixture, epsilon_pmf_miss_update, epsilon_pmf_predict, prune_mixture

__all__ = [
    "predict_component",
    "predict_mixture",
    "miss_update",
    "detect_update",
    "thin_ppp",
    "new_track_hypotheses",
]

NEG_INF = float("-inf")


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else NEG_INF


def predict_component(
    c: MixtureComponent, model: gaussseq.ModelLG, ps: float, k: int, mode: str
) -> MixtureComponent:
    """Advance one component to scan k.

    In "current" mode the sequence simply extends (the survival factor is
    applied by the caller to weights or existence).  In "all" mode the
    death-time pmf splits: surviving mass moves to scan k, ending mass stays;
    components with no mass at the previous scan are frozen spectators.
    """
    if mode == "current":
        return MixtureComponent(c.weight, gaussseq.predict_seq(c.seq, model))
    alive = c.alive_mass(k - 1)
    if alive <= 0.0:
        return c
    pmf = epsilon_pmf_predict(((c.e, 1.0),) if c.eps_pmf is None else c.eps_pmf, ps, k)
    if pmf[-1][0] == k:
        seq = gaussseq.predict_seq(c.seq, model)
    else:
        seq = c.seq  # nothing survives: no extension needed
    return MixtureComponent(c.weight, seq, pmf)


def predict_mixture(
    mix: TrajectoryMixture, model: gaussseq.ModelLG, ps: float, k: int, mode: str
) -> TrajectoryMixture:
    comps = tuple(predict_component(c, model, ps, k, mode) for c in mix.components)
    return TrajectoryMixture(comps, mix.kind)


def _mixture_detection_prob(mix: TrajectoryMixture, pd: float, k: int) -> float:
    """<f, detection at scan k> for a normalized mixture."""
    return pd * sum(c.weight * c.alive_mass(k) for c in mix.components)


def miss_update(h: LocalHypothesis, pd: float, k: int) -> LocalHypothesis:
    """Missed-detection child of a local hypothesis.

    The weight gains the factor (1 - r <f, pd>); existence and the density
    are reconditioned on the miss.  Hypotheses with r == 0 pass through with
    weight factor one.
    """
    if h.r == 0.0 or h.density is None:
        return h
    mix = h.density
    pd_mass = _mixture_detection_prob(mix, pd, k)
    w_factor = 1.0 - h.r * pd_mass
    r = h.r * (1.0 - pd_mass) / w_factor if w_factor > 0.0 else 0.0
    comps = _miss_components(mix, pd, k)
    total = sum(c.weight for c in comps)
    if total <= 0.0 or r <= 0.0:
        return LocalHypothesis(h.log_weight + _log(w_factor), 0.0, None, h.meas_history)
    density = TrajectoryMixture(
        tuple(MixtureComponent(c.weight / total, c.seq, c.eps_pmf) for c in comps)
    )
    return LocalHypothesis(h.log_weight + _log(w_factor), r, density, h.meas_history)


def detect_update(
    h: LocalHypothesis,
    model: gaussseq.ModelLG,
    pd: float,
    z,
    scan: tuple,
    component_threshold: float = 0.0,
) -> LocalHypothesis:
    """Detection child: hypothesis h updated with measurement z at scan k.

    The weight gains log(r <f, lik * pd>), existence becomes one, and the
    death-time pmf collapses onto the current scan.  Returns a zero-weight
    placeholder when the measurement is impossible under the hypothesis.
    """
    k, j = scan
    if h.r == 0.0 or h.density is None:
        return LocalHypothesis(NEG_INF, 0.0, None, h.meas_history | {scan})
    comps = []
    evid = 0.0
    for c in h.density.components:
        alive = c.alive_mass(k)
        if alive <= 0.0:
            continue
        seq, loglik = gaussseq.update_seq(c.seq, model, z)
        lik = math.exp(loglik)
        w = c.weight * alive * lik
        evid += w
        if w > 0.0:
            comps.append(MixtureComponent(w, seq))
    log_factor = _log(h.r * pd * evid)
    if not comps or not math.isfinite(log_factor):
        return LocalHypothesis(NEG_INF, 0.0, None, h.meas_history | {scan})
    total = sum(c.weight for c in comps)
    comps = [MixtureComponent(c.weight / total, c.seq) for c in comps]
    density = TrajectoryMixture(tuple(comps))
    if component_threshold > 0.0:
        density = prune_mixture(density, component_threshold)
    return LocalHypothesis(h.log_weight + log_factor, 1.0, density, h.meas_history | {scan})


def _miss_components(mix: TrajectoryMixture, pd: float, k: int) -> tuple:
    """Components weighted by their miss probability 1 - pd * alive mass at
    scan k, with death-time pmfs reconditioned on the miss; components a miss
    rules out are dropped."""
    comps = []
    for c in mix.components:
        alive = c.alive_mass(k)
        scale = 1.0 - pd * alive
        if scale <= 0.0:
            continue
        if c.eps_pmf is not None and alive > 0.0:
            pmf = epsilon_pmf_miss_update(c.eps_pmf, pd, k)
        else:
            pmf = c.eps_pmf
        comps.append(MixtureComponent(c.weight * scale, c.seq, pmf))
    return tuple(comps)


def thin_ppp(ppp: TrajectoryMixture, pd: float, k: int) -> TrajectoryMixture:
    """Undetected intensity after a scan: alive mass is scaled by (1 - pd).

    Components keep their identity; in all-trajectories mode the death-time
    pmf is reconditioned on the miss, in current mode the weight just scales.
    """
    return TrajectoryMixture(_miss_components(ppp, pd, k), "intensity")


def new_track_hypotheses(
    ppp: TrajectoryMixture,
    model: gaussseq.ModelLG,
    sensor: SensorModel,
    z,
    scan: tuple,
    gated: tuple,
    component_threshold: float = 1e-3,
) -> tuple:
    """Two-hypothesis Bernoulli for the track started on measurement z.

    Returns (non-existence hypothesis, existence hypothesis).  The existence
    weight is the clutter intensity at z plus the detected Poisson mass; the
    existence probability is the detected mass' share of it.  ``gated`` lists
    (component index, likelihood) for the Poisson components that pass the
    gate with z, as :func:`association.scan_weight_tables` records them.
    """
    k = scan[0]
    comps = []
    evid = 0.0
    for idx, lik in gated:
        c = ppp.components[idx]
        alive = c.alive_mass(k)
        if alive <= 0.0:
            continue
        seq, _ = gaussseq.update_seq(c.seq, model, z)
        w = c.weight * alive * lik
        evid += w
        if w > 0.0:
            comps.append(MixtureComponent(w, seq))
    signal = sensor.pd * evid
    w_exist = clutter_density(sensor, z) + signal
    r = signal / w_exist if w_exist > 0.0 else 0.0
    no_exist = LocalHypothesis(0.0, 0.0, None, frozenset())
    if not comps or r == 0.0:
        exist = LocalHypothesis(_log(w_exist), 0.0, None, frozenset({scan}))
        return no_exist, exist
    total = sum(c.weight for c in comps)
    density = TrajectoryMixture(tuple(MixtureComponent(c.weight / total, c.seq) for c in comps))
    if component_threshold > 0.0:
        density = prune_mixture(density, component_threshold)
    exist = LocalHypothesis(_log(w_exist), r, density, frozenset({scan}))
    return no_exist, exist
