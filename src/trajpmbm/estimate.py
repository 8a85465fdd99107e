"""Trajectory extraction from Bernoulli densities and from the full PMBM."""

from __future__ import annotations

import numpy as np

from . import gaussseq
from .density import PmbmDensity
from .trajectory import Trajectory, TrajectoryMixture, birth_death_pmf

__all__ = ["map_birth_death", "expected_sequence", "extract_set"]


def map_birth_death(d: TrajectoryMixture) -> tuple:
    """Most probable (birth, last step) pair of a density mixture; ties break
    toward the smaller last step, then the smaller birth step."""
    pmf = birth_death_pmf(d)
    return max(pmf, key=lambda be: (pmf[be], -be[1], -be[0]))


def expected_sequence(d: TrajectoryMixture, beta: int, epsilon: int) -> np.ndarray:
    """Conditional expectation of the state sequence given (beta, epsilon).

    Weight-averages the mean sequences of the components matching the pair;
    components with a deferred death-time pmf match through the pmf mass they
    place on epsilon.  Returns an (length, n_x) array.
    """
    if d.kind != "density":
        raise ValueError("expected a density mixture")
    nu = epsilon - beta + 1
    acc = None
    total = 0.0
    for c in d.components:
        w = c.weight * c.alive_mass(epsilon)
        if c.b != beta or w <= 0.0:
            continue
        nx = c.seq.nx
        mean = gaussseq.mean_sequence(c.seq)[: nu * nx]
        acc = w * mean if acc is None else acc + w * mean
        total += w
    if acc is None or total <= 0.0:
        raise ValueError(f"no component matching ({beta}, {epsilon})")
    mean = acc / total
    return mean.reshape(nu, -1)


def best_global(p: PmbmDensity):
    """Highest-weight global hypothesis; exact weight ties resolve to the
    lexicographically smallest choice map, as they would over the dumped
    choice maps, since every global chooses the same archived hypotheses."""
    if not p.global_hyps:
        raise ValueError("density has no global hypotheses")
    return min(p.global_hyps, key=lambda g: (-g.log_weight, g.choice))


def _estimate(h) -> Trajectory:
    beta, epsilon = map_birth_death(h.density)
    return Trajectory(beta, epsilon, expected_sequence(h.density, beta, epsilon))


def extract_set(p: PmbmDensity, r_e: float = 1.0) -> tuple:
    """Set-of-trajectories estimate from the best global hypothesis.

    Emits one trajectory per chosen local hypothesis whose existence
    probability reaches ``r_e`` (inclusive), using the most probable
    (birth, last step) pair and the conditional mean sequence, in track id
    order.  Every global chooses the one hypothesis of an archived track,
    which never changes, so its trajectory is computed once and kept on its
    archive batch.
    """
    g = best_global(p)
    out = []
    for tid, hidx in g.choice:
        h = p.track_by_id(tid).hypotheses[hidx]
        if h.r >= r_e and h.density is not None:
            out.append((tid, _estimate(h)))
    for batch in p.archive:
        hyps = None
        for i, r in enumerate(batch.rs):
            if r < r_e:
                continue
            if i not in batch.estimates:
                hyps = hyps or batch.hypotheses
                batch.estimates[i] = None if hyps[i].density is None else _estimate(hyps[i])
            if batch.estimates[i] is not None:
                out.append((batch.ids[i], batch.estimates[i]))
    out.sort(key=lambda e: e[0])
    return tuple(traj for _, traj in out)
