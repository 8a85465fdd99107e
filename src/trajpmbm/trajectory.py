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

    def contains(self, other: "TimeWindow") -> bool:
        return self.alpha <= other.alpha and other.gamma <= self.gamma


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

    The sequence density spans steps b..e.  The component compactly stands
    for the sub-mixture over death times that ``death_pmf`` lists: each
    (eps, mass) pair places its mass on the trajectory ending at eps, whose
    sequence density is the marginal of ``seq`` over b..eps.  ``eps_pmf``
    is stored as given, a tuple of (int eps, float mass) pairs sorted by
    unique eps in b..e with positive masses summing to one, which
    ``density.validate`` checks; ``None`` stands for the point mass at e.
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

    @property
    def death_pmf(self) -> tuple:
        """The death-time pmf as (eps, mass) pairs: ``eps_pmf``, or the
        point mass at e when that is None."""
        return ((self.e, 1.0),) if self.eps_pmf is None else self.eps_pmf

    def alive_mass(self, k: int) -> float:
        """Probability that the trajectory is still alive at step k: the pmf
        mass at exactly k, found from the pmf's end (k is usually its last
        death time).  The hot path reads a None pmf itself rather than build
        ``death_pmf``."""
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

    Each component spreads its weight over its death-time pmf.  Rejects
    intensity-kind mixtures: a pmf is only defined for normalized densities.
    """
    if mix.kind != "density":
        raise ValueError("birth/death pmf undefined for an intensity")
    if not mix.components:
        raise ValueError("empty mixture")
    masses: dict = {}
    for c in mix.components:
        for e, m in c.death_pmf:
            key = (c.b, e)
            masses[key] = masses.get(key, 0.0) + c.weight * m
    total = sum(masses.values())
    return {k: m / total for k, m in masses.items()}


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
