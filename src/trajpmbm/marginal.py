"""Time-window marginalization of trajectory PMBM densities.

Restricting a posterior over trajectories on steps 0..k to the states inside
a window [alpha, gamma], keeping only trajectories alive somewhere in
[eta, zeta], yields another PMBM density whose parameters follow in closed
form: components that never touch the alive interval are discarded, (b, e)
windows are clamped, and state sequences are marginalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import gaussseq
from .density import LocalHypothesis, PmbmDensity, Track
from .trajectory import (
    MixtureComponent,
    TimeWindow,
    TrajectoryMixture,
    materialize_mixture,
)

__all__ = [
    "AliveQuery",
    "marginalize_bernoulli",
    "marginalize_ppp",
    "marginalize_pmbm",
]


@dataclass(frozen=True)
class AliveQuery:
    """Keep states in [alpha, gamma]; keep trajectories alive in [eta, zeta]."""

    alpha: int
    gamma: int
    eta: int
    zeta: int

    def __post_init__(self):
        if not 0 <= self.alpha <= self.eta <= self.zeta <= self.gamma:
            raise ValueError(
                f"require alpha <= eta <= zeta <= gamma, got "
                f"({self.alpha}, {self.eta}, {self.zeta}, {self.gamma})"
            )

    @property
    def keep(self) -> TimeWindow:
        return TimeWindow(self.alpha, self.gamma)

    @property
    def alive(self) -> TimeWindow:
        return TimeWindow(self.eta, self.zeta)


def _clamp_component(c: MixtureComponent, q: AliveQuery) -> MixtureComponent:
    b = max(c.b, q.alpha)
    e = min(c.e, q.gamma)
    seq = gaussseq.marginalize_steps(c.seq, TimeWindow(b, e))
    return MixtureComponent(c.weight, seq)


def marginalize_bernoulli(h: LocalHypothesis, q: AliveQuery) -> LocalHypothesis:
    """Bernoulli restricted to the query window.

    Existence scales by the probability that the trajectory intersects the
    alive interval; surviving components are clamped and renormalized.
    """
    if h.r == 0.0 or h.density is None:
        return LocalHypothesis(h.log_weight, 0.0, None, h.meas_history)
    alive = materialize_mixture(h.density, q.alive).components
    alive_mass = sum(c.weight for c in alive)
    r = min(h.r * alive_mass, 1.0)  # the summed masses may round above one
    if alive_mass <= 0.0:
        return LocalHypothesis(h.log_weight, 0.0, None, h.meas_history)
    comps = tuple(
        replace(_clamp_component(c, q), weight=c.weight / alive_mass) for c in alive
    )
    return LocalHypothesis(h.log_weight, r, TrajectoryMixture(comps), h.meas_history)


def marginalize_ppp(ppp: TrajectoryMixture, q: AliveQuery) -> TrajectoryMixture:
    """Poisson intensity restricted to the query window (thinning: weights of
    surviving components are unchanged)."""
    if ppp.kind != "intensity":
        raise ValueError("expected an intensity mixture")
    comps = tuple(_clamp_component(c, q) for c in materialize_mixture(ppp, q.alive).components)
    return TrajectoryMixture(comps, "intensity")


def marginalize_pmbm(p: PmbmDensity, q: AliveQuery) -> PmbmDensity:
    """Apply the window restriction to every PMBM parameter.

    Local hypotheses whose restricted existence is zero are kept as
    non-existence placeholders so that global hypotheses stay valid; global
    weights are unchanged.
    """
    if q.gamma > p.window.gamma or q.alpha < p.window.alpha:
        raise ValueError("query window outside the density window")
    tracks = tuple(
        Track(t.id, tuple(marginalize_bernoulli(h, q) for h in t.hypotheses))
        for t in p.tracks
    )
    return replace(
        p,
        ppp=marginalize_ppp(p.ppp, q),
        tracks=tracks,
        window=q.keep,
    )
