"""Time-window marginalization of trajectory PMBM densities.

Restricting a posterior over trajectories on steps 0..k to the states inside
a window [alpha, gamma], keeping only trajectories alive somewhere in
[eta, zeta], yields another PMBM density whose parameters follow in closed
form.  A (component, death time eps) piece of a mixture whose b..eps never
touches the alive interval is dropped; the others are restricted to
max(b, alpha)..min(eps, gamma), all read from one marginal of the component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import gaussseq
from .density import ArchiveBatch, LocalHypothesis, PmbmDensity, Track
from .trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

__all__ = [
    "AliveQuery",
    "materialize_mixture",
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


def materialize_mixture(mix: TrajectoryMixture, q: AliveQuery) -> TrajectoryMixture:
    """The pieces of ``mix`` alive in the query's interval, restricted to its
    state window.

    Each (component, death time eps) piece, a ``death_pmf`` entry of mass
    m, whose steps b..eps meet [eta, zeta] becomes one component of weight
    w * m with the sequence marginalized to max(b, alpha)..min(eps, gamma);
    the other pieces are dropped unmarginalized.  Each piece is read from
    one marginal of its component, to its longest kept piece.  The result
    is an intensity mixture since its weights no longer sum to one.
    """
    out = []
    for c in mix.components:
        # (kept end, mass) of each piece whose b..eps meets [eta, zeta]
        pieces = [(min(e, q.gamma), m) for e, m in c.death_pmf if m > 0.0 and c.b <= q.zeta and q.eta <= e]
        if pieces:
            start, last = max(c.b, q.alpha), pieces[-1][0]
            longest = gaussseq.marginalize_steps(c.seq, TimeWindow(start, last))
            for end, m in pieces:
                seq = longest if end == last else longest.marginalize(TimeWindow(start, end))
                out.append(MixtureComponent(c.weight * m, seq))
    return TrajectoryMixture(tuple(out), "intensity")


def marginalize_bernoulli(h: LocalHypothesis, q: AliveQuery) -> LocalHypothesis:
    """Bernoulli restricted to the query window.

    Existence scales by the probability that the trajectory intersects the
    alive interval; the restricted pieces are renormalized.
    """
    if h.r == 0.0 or h.density is None:
        return LocalHypothesis(0.0, None, h.history)
    alive = materialize_mixture(h.density, q).components
    alive_mass = sum(c.weight for c in alive)
    r = min(h.r * alive_mass, 1.0)  # the summed masses may round above one
    if alive_mass <= 0.0:
        return LocalHypothesis(0.0, None, h.history)
    comps = tuple(MixtureComponent(c.weight / alive_mass, c.seq) for c in alive)
    return LocalHypothesis(r, TrajectoryMixture(comps), h.history)


def marginalize_ppp(ppp: TrajectoryMixture, q: AliveQuery) -> TrajectoryMixture:
    """Poisson intensity restricted to the query window (thinning: weights of
    surviving components are unchanged)."""
    if ppp.kind != "intensity":
        raise ValueError("expected an intensity mixture")
    return materialize_mixture(ppp, q)


def marginalize_pmbm(p: PmbmDensity, q: AliveQuery) -> PmbmDensity:
    """Apply the window restriction to every PMBM parameter.

    Local hypotheses whose restricted existence is zero are kept as
    non-existence placeholders so that global hypotheses stay valid; global
    weights are unchanged.  Archived hypotheses are restricted too and stay
    in the answer's archive, which keeps the live track table of the answer
    in the posterior's order.
    """
    if q.gamma > p.window.gamma or q.alpha < p.window.alpha:
        raise ValueError("query window outside the density window")
    tracks = tuple(
        Track(t.id, tuple(marginalize_bernoulli(h, q) for h in t.hypotheses))
        for t in p.tracks
    )
    archive = tuple(
        ArchiveBatch.of(b.ids, (marginalize_bernoulli(h, q) for h in b.hypotheses), b.scan) for b in p.archive
    )
    return replace(
        p,
        ppp=marginalize_ppp(p.ppp, q),
        tracks=tracks,
        window=q.keep,
        archive=archive,
    )
