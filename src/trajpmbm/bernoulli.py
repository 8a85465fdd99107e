"""Single-hypothesis prediction and update primitives.

These implement the per-track pieces of the PMBM recursion: survival
extension of mixture components (with the compact death-time pmf in
all-trajectories mode), missed-detection and detection updates of a
Bernoulli, thinning of the undetected Poisson intensity, and creation of the
two-hypothesis Bernoulli for a track started on a measurement.

The children's association weights, and the measurement likelihoods,
clutter intensities and Kalman updates the children condition on, come from
:func:`association.scan_weight_tables`: ``gaussseq.update_seq`` conditions
each component from its row of the scan's gating batch.
The predictions or the updates of one scan may pass one ``shared`` dict: equal
death-time pmfs, and the last steps one z updates from equal ones, are then one object.
"""

from __future__ import annotations

from . import gaussseq
from .density import LocalHypothesis
from .trajectory import MixtureComponent, TrajectoryMixture, epsilon_pmf_miss_update, epsilon_pmf_predict, prune_mixture

__all__ = [
    "predict_component",
    "miss_update",
    "detect_update",
    "thin_ppp",
    "new_track_hypotheses",
]

def predict_component(
    c: MixtureComponent, model: gaussseq.ModelLG, ps: float, k: int, mode: str, shared: dict | None = None
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
    pmf = epsilon_pmf_predict(c.death_pmf, ps, k)
    pmf = pmf if shared is None else shared.setdefault(pmf, pmf)
    if pmf[-1][0] == k:
        seq = gaussseq.predict_seq(c.seq, model)
    else:
        seq = c.seq  # nothing survives: no extension needed
    return MixtureComponent(c.weight, seq, pmf)


def _mixture_detection_prob(mix: TrajectoryMixture, pd: float, k: int) -> float:
    """<f, detection at scan k> for a normalized mixture."""
    return pd * sum(c.weight * c.alive_mass(k) for c in mix.components)


def miss_update(h: LocalHypothesis, pd: float, k: int, shared: dict | None = None) -> LocalHypothesis:
    """Missed-detection child of a local hypothesis.

    Existence and the density are reconditioned on the miss; the child's
    weight factor (1 - r <f, pd>) is the scan tables' miss factor.
    Hypotheses with r == 0 or with no trajectory alive at k pass through unchanged.
    """
    if h.r == 0.0 or h.density is None:
        return h
    mix = h.density
    pd_mass = _mixture_detection_prob(mix, pd, k)
    if pd_mass == 0.0:
        return h
    w_factor = 1.0 - h.r * pd_mass
    r = h.r * (1.0 - pd_mass) / w_factor if w_factor > 0.0 else 0.0
    comps = _miss_components(mix, pd, k, shared)
    total = sum(c.weight for c in comps)
    if total <= 0.0 or r <= 0.0:
        return LocalHypothesis(0.0, None, h.history)
    density = TrajectoryMixture(tuple(MixtureComponent(c.weight / total, c.seq, c.eps_pmf) for c in comps))
    return LocalHypothesis(r, density, h.history)


def _condition(mix: TrajectoryMixture, model: gaussseq.ModelLG, z, scan: tuple, gated: tuple, post: tuple, component_threshold: float, shared):
    """The ``gated`` (component index, batch row, likelihood of z)
    components of ``mix`` weighted by weight * alive mass * likelihood,
    updated with ``scan`` = (k, j) from their rows of the batch's ``post``,
    normalized and pruned.  Returns (density or None, total weight)."""
    (k, j), comps, shared = scan, [], {} if shared is None else shared
    for idx, row, lik in gated:
        c = mix.components[idx]
        w = c.weight * c.alive_mass(k) * lik
        if w > 0.0:
            S, v, K, covs = post
            seq = gaussseq.update_seq(c.seq, model, z, (S[row], v[row, j], K[row], covs[row]), shared)
            comps.append(MixtureComponent(w, seq))
    if not comps:
        return None, 0.0
    total = sum(c.weight for c in comps)
    density = TrajectoryMixture(tuple(MixtureComponent(c.weight / total, c.seq) for c in comps))
    if component_threshold > 0.0:
        density = prune_mixture(density, component_threshold)
    return density, total


def detect_update(
    h: LocalHypothesis,
    model: gaussseq.ModelLG,
    z,
    scan: tuple,
    gated: tuple,
    post: tuple,
    component_threshold: float = 0.0,
    shared: dict | None = None,
) -> LocalHypothesis:
    """Detection child: hypothesis h updated with measurement z at scan k.

    Existence becomes one and the death-time pmf collapses onto the current
    scan.  ``gated`` lists (component index, batch row, likelihood) for
    every component of h alive at scan k, as :class:`association.ScanTables`
    records them under ``det_liks``, and ``post`` is the batch's update of
    every row (``ScanTables.post``).  Returns a non-existence placeholder
    when the measurement is impossible under the hypothesis.
    """
    density = _condition(h.density, model, z, scan, gated, post, component_threshold, shared)[0] if h.r > 0.0 else None
    return LocalHypothesis(0.0 if density is None else 1.0, density, h.history + (scan,))


def _miss_components(mix: TrajectoryMixture, pd: float, k: int, shared: dict | None) -> tuple:
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
            pmf = pmf if shared is None else shared.setdefault(pmf, pmf)
        else:
            pmf = c.eps_pmf
        comps.append(MixtureComponent(c.weight * scale, c.seq, pmf))
    return tuple(comps)


def thin_ppp(ppp: TrajectoryMixture, pd: float, k: int, shared: dict | None = None) -> TrajectoryMixture:
    """Undetected intensity after a scan: alive mass is scaled by (1 - pd).

    Components keep their identity; in all-trajectories mode the death-time
    pmf is reconditioned on the miss, in current mode the weight just scales.
    """
    return TrajectoryMixture(_miss_components(ppp, pd, k, shared), "intensity")


def new_track_hypotheses(
    ppp: TrajectoryMixture,
    model: gaussseq.ModelLG,
    pd: float,
    clutter: float,
    z,
    scan: tuple,
    gated: tuple,
    post: tuple,
    component_threshold: float = 1e-3,
    shared: dict | None = None,
) -> tuple:
    """Two-hypothesis Bernoulli for the track started on measurement z.

    Returns (non-existence hypothesis, existence hypothesis).  The existence
    weight is the ``clutter`` intensity at z plus the detected Poisson mass;
    the existence probability is the detected mass' share of it.  ``gated``
    lists (component index, batch row, likelihood) for the Poisson
    components that pass the gate with z, and ``post`` is the batch's update
    of every row; :func:`association.scan_weight_tables` records them.
    """
    density, evid = _condition(ppp, model, z, scan, gated, post, component_threshold, shared)
    signal = pd * evid
    w_exist = clutter + signal
    r = signal / w_exist if w_exist > 0.0 else 0.0
    exist = LocalHypothesis(r, density if r > 0.0 else None, (scan,))
    return LocalHypothesis(0.0, None, ()), exist
