"""Core trajectory types: time windows, trajectories, birth/death pmfs, mixtures.

A trajectory is a tuple (beta, epsilon, states): the discrete birth step, the
step of the most recent state, and the state sequence in between.  Densities
over single trajectories are represented as weighted mixtures whose components
each pin a (b, e) window and carry a Gaussian state-sequence density for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TimeWindow",
    "Trajectory",
    "MixtureComponent",
    "TrajectoryMixture",
    "birth_death_pmf",
    "epsilon_pmf_predict",
    "epsilon_pmf_miss_update",
    "materialize_mixture",
    "prune_mixture",
]


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Closed interval of consecutive time steps [alpha, gamma]."""

    alpha: int
    gamma: int

    def __post_init__(self):
        if not (0 <= self.alpha <= self.gamma):
            raise ValueError(f"invalid time window [{self.alpha}, {self.gamma}]")

    @property
    def length(self) -> int:
        return self.gamma - self.alpha + 1

    def steps(self) -> range:
        return range(self.alpha, self.gamma + 1)

    def contains(self, other: "TimeWindow") -> bool:
        return self.alpha <= other.alpha and other.gamma <= self.gamma

    def intersects(self, other: "TimeWindow") -> bool:
        return self.alpha <= other.gamma and other.alpha <= self.gamma


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Single trajectory: birth step, last step, and the state sequence.

    ``states`` has shape (length, n_x) with length == epsilon - beta + 1.
    """

    beta: int
    epsilon: int
    states: np.ndarray

    def __post_init__(self):
        if self.beta > self.epsilon:
            raise ValueError("birth step after last step")
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.shape[0] != self.length:
            raise ValueError(
                f"state sequence of length {states.shape[0]} does not cover "
                f"steps {self.beta}..{self.epsilon}"
            )
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def length(self) -> int:
        return self.epsilon - self.beta + 1

    def state_at(self, k: int) -> np.ndarray:
        if not self.beta <= k <= self.epsilon:
            raise KeyError(f"step {k} outside trajectory {self.beta}..{self.epsilon}")
        return self.states[k - self.beta]


@dataclass(frozen=True, slots=True)
class MixtureComponent:
    """One mixture component: weight, a state-sequence density, and optionally
    a deferred death-time pmf.

    The sequence density spans steps b..e.  When ``eps_pmf`` is set, the
    component compactly stands for the sub-mixture over death times: each
    (eps, mass) pair places its mass on the trajectory ending at eps, whose
    sequence density is the marginal of ``seq`` over the discarded tail
    steps.  A ``None`` pmf is a point mass at e.  ``eps_pmf`` is stored as
    given, a tuple of (int eps, float mass) pairs sorted by unique eps in
    b..e with positive masses summing to one; ``density.validate`` checks it.
    """

    weight: float
    seq: object  # a gaussseq density (moment, information or L-scan form)
    eps_pmf: Optional[tuple] = None

    def __post_init__(self):
        """Kept as a hook: ``benchmarks/tracing.py`` wraps it to count constructions."""

    @property
    def b(self) -> int:
        return self.seq.window.alpha

    @property
    def e(self) -> int:
        return self.seq.window.gamma

    def alive_mass(self, k: int) -> float:
        """Probability that the trajectory is still alive at step k: the pmf
        mass at exactly k, found from the pmf's end (k is usually its last
        death time)."""
        if self.eps_pmf is None:
            return 1.0 if self.e == k else 0.0
        for e, m in reversed(self.eps_pmf):
            if e <= k:
                return m if e == k else 0.0
        return 0.0


@dataclass(frozen=True, slots=True)
class TrajectoryMixture:
    """Weighted mixture of (b, e)-pinned sequence densities.

    ``kind`` is "density" (weights sum to one) or "intensity" (weights are
    nonnegative masses, e.g. a Poisson process intensity).  Duplicate (b, e)
    pairs are allowed and are never merged implicitly.  ``components`` is a
    tuple, stored as given.
    """

    components: tuple
    kind: str = "density"

    @property
    def total_weight(self) -> float:
        return sum(c.weight for c in self.components)

    def is_empty(self) -> bool:
        return len(self.components) == 0


def epsilon_pmf_predict(pmf: tuple, ps: float, k: int) -> tuple:
    """One survival split: the mass at the previous scan, the pmf's last
    entry, divides into ending there (1 - ps) and continuing to scan k (ps).
    A pmf with no mass at k - 1 is returned unchanged."""
    e, tail = pmf[-1]
    if e != k - 1:
        return pmf
    out = pmf[:-1]
    if ps < 1.0:
        out += ((e, tail * (1.0 - ps)),)
    if ps > 0.0:
        out += ((k, tail * ps),)
    return out


def epsilon_pmf_miss_update(pmf: tuple, pd: float, k: int) -> tuple:
    """Condition a death-time pmf on a missed detection at scan k.  Only the
    last entry can sit at k; the others just rescale."""
    last, tail = pmf[-1]
    if last != k:
        return pmf
    norm = 1.0 - pd * tail
    if norm <= 0.0:
        raise ValueError("missed detection impossible under this pmf")
    out = tuple((e, m / norm) for e, m in pmf[:-1])
    m = tail * (1.0 - pd) / norm
    return out + ((k, m),) if m > 0.0 else out


def birth_death_pmf(mix: TrajectoryMixture) -> dict:
    """Pmf over (beta, epsilon) implied by a density mixture, as
    ``{(beta, epsilon): mass}``.

    Components carrying a deferred death-time pmf spread their weight over the
    pmf's support.  Rejects intensity-kind mixtures: a pmf is only defined for
    normalized densities.
    """
    if mix.kind != "density":
        raise ValueError("birth/death pmf undefined for an intensity")
    if mix.is_empty():
        raise ValueError("empty mixture")
    masses: dict = {}
    for c in mix.components:
        if c.eps_pmf is None:
            key = (c.b, c.e)
            masses[key] = masses.get(key, 0.0) + c.weight
        else:
            for e, m in c.eps_pmf:
                key = (c.b, e)
                masses[key] = masses.get(key, 0.0) + c.weight * m
    total = sum(masses.values())
    return {k: m / total for k, m in masses.items()}


def materialize_mixture(mix: TrajectoryMixture, alive: Optional[TimeWindow] = None) -> TrajectoryMixture:
    """Expand deferred death-time pmfs into explicit (b, e) components.

    Each deferred component (w, seq over b..e, pmf) becomes one component per
    death time eps with weight w * pmf[eps] and the sequence marginalized to
    b..eps.  Explicit components pass through unchanged.  When ``alive`` is
    given, only the components whose (b, e) window intersects it are kept
    (death times outside it are never marginalized), and the result is an
    intensity mixture since its weights no longer sum to one.
    """
    from . import gaussseq  # local import: gaussseq depends on this module

    def kept(b: int, e: int) -> bool:
        return alive is None or alive.intersects(TimeWindow(b, e))

    out = []
    for c in mix.components:
        if c.eps_pmf is None:
            if kept(c.b, c.e):
                out.append(c)
            continue
        for e, m in c.eps_pmf:
            if m <= 0.0 or not kept(c.b, e):
                continue
            seq = c.seq if e == c.e else gaussseq.marginalize_steps(c.seq, TimeWindow(c.b, e))
            out.append(MixtureComponent(c.weight * m, seq))
    return TrajectoryMixture(tuple(out), mix.kind if alive is None else "intensity")


def prune_mixture(mix: TrajectoryMixture, threshold: float = 1e-3) -> TrajectoryMixture:
    """Drop components below ``threshold`` of the mixture total; densities are
    renormalized afterwards.  Never drops every component."""
    total = mix.total_weight
    if total <= 0.0 or not mix.components:
        return mix
    kept = [c for c in mix.components if c.weight >= threshold * total]
    if not kept:
        kept = [max(mix.components, key=lambda c: c.weight)]
    if mix.kind == "density":
        s = sum(c.weight for c in kept)
        kept = [MixtureComponent(c.weight / s, c.seq, c.eps_pmf) for c in kept]
    return TrajectoryMixture(tuple(kept), mix.kind)
