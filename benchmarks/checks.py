"""Correctness checks of a workload's outputs.

None of them compares against stored output.  They test properties the
method must have (the window marginal conserves the expected number of
trajectories alive in the window and leaves their current-state moments
untouched; the posterior passes its structural invariants; the all-mode
estimate recovers the true cardinality) or bound the tracking error by what
reporting nothing would cost.  Failures are collected as messages.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

from trajpmbm import gaussseq
from trajpmbm.density import validate
from trajpmbm.scenario import truth_at_step

REL_TOL = 1e-9


def fingerprint(obj) -> str:
    """Digest of every field of a (nested) dataclass value, arrays and floats
    by their exact bits, so that two values digest alike only when equal."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            h.update(f"t{len(x)}".encode())
            for v in x:
                feed(v)
        elif isinstance(x, (set, frozenset)):
            feed(sorted(x))
        elif isinstance(x, float):
            h.update(b"f" + struct.pack("<d", x))
        else:
            h.update(f"{type(x).__name__}:{x!r};".encode())

    feed(obj)
    return h.hexdigest()


def alive_mass(c, k: int) -> float:
    """Probability that a component's trajectory is alive at k, from its
    (b, e) window and death-time pmf."""
    if c.b > k:
        return 0.0
    if c.eps_pmf is None:
        return 1.0 if c.e >= k else 0.0
    return sum(m for e, m in c.eps_pmf if e >= k)


def _global_weights(p) -> np.ndarray:
    w = np.array([g.log_weight for g in p.global_hyps])
    w = np.exp(w - w.max())
    return w / w.sum()


def expected_alive(p, k: int) -> float:
    """Expected number of trajectories alive at k: the global-weighted sum of
    r times alive mass over the chosen Bernoullis, plus the Poisson weight
    alive at k."""
    hyp_mass = {}
    for t in p.tracks:
        for i, h in enumerate(t.hypotheses):
            if h.r > 0.0 and h.density is not None:
                hyp_mass[(t.id, i)] = h.r * sum(c.weight * alive_mass(c, k) for c in h.density.components)
    bern = sum(w * sum(hyp_mass.get(tc, 0.0) for tc in g.choice) for w, g in zip(_global_weights(p), p.global_hyps))
    return bern + sum(c.weight * alive_mass(c, k) for c in p.ppp.components)


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _alive_sources(mix, k: int) -> list:
    """Components of a mixture that the current-set query keeps, in the order
    the query emits them: explicit components ending at k, and deferred
    components with death-time mass at k."""
    return [
        c
        for c in mix.components
        if c.b <= k
        and ((c.eps_pmf is None and c.e == k) or (c.eps_pmf is not None and dict(c.eps_pmf).get(k, 0.0) > 0.0))
    ]


def check_queries(p, current, history, k: int) -> tuple:
    """Checks of the two window queries answered on posterior ``p`` at k.

    Returns the failed checks and, apart, the largest relative difference
    between a current-set component's moments and the last-state moments of
    its source component, which must stay within ``REL_TOL``.
    """
    errors = []
    want = expected_alive(p, k)
    for name, q in (("current-set", current), ("full-history", history)):
        got = expected_alive(q, k)
        if abs(got - want) > REL_TOL * max(want, 1.0):
            errors.append(f"{name} query holds {got!r} expected trajectories alive at {k}, posterior {want!r}")
    pairs = [(p.ppp, current.ppp)]
    for t, tq in zip(p.tracks, current.tracks):
        for h, hq in zip(t.hypotheses, tq.hypotheses):
            if h.density is not None and hq.density is not None:
                pairs.append((h.density, hq.density))
    worst = 0.0
    for src, got in pairs:
        sources = _alive_sources(src, k)
        if len(sources) != len(got.components):
            errors.append(f"current-set query kept {len(got.components)} components of {len(sources)} alive")
            continue
        for c, cq in zip(sources, got.components):
            if cq.b != k or cq.e != k:
                errors.append(f"current-set component spans {cq.b}..{cq.e}, not {k}")
                continue
            mq = gaussseq.to_moment(cq.seq)
            mean, cov = gaussseq.last_state_moments(c.seq)
            worst = max(worst, _rel_err(mq.mean, mean), _rel_err(mq.cov, cov))
    return errors, worst


def check_posterior(p, where: str) -> list:
    try:
        validate(p)
    except AssertionError as exc:
        return [f"density.validate failed {where}: {exc}"]
    return []


def check_estimates(mode: str, estimates, truth, ospa2_mean: float, gospa_mean: float, c: float) -> list:
    """Cardinality at the last scan (all mode) and error bounds.

    Reporting nothing scores OSPA(2) = c whenever a true trajectory exists and
    GOSPA = c/2 per true target, so the tracker must do at least twice
    better than that on average.
    """
    errors = []
    k = len(estimates) - 1
    if mode == "all":
        n_true, n_est = len(truth_at_step(truth, k)), len(estimates[-1])
        if abs(n_est - n_true) > 0.2 * n_true:
            errors.append(f"final cardinality {n_est} is not within 20% of the true {n_true}")
    if not ospa2_mean < c / 2:
        errors.append(f"ospa2_mean {ospa2_mean:.3f} is not below c/2 = {c / 2}")
    alive_true = np.mean([sum(1 for t in truth if t.beta <= j <= t.epsilon) for j in range(k + 1)])
    if not gospa_mean < 0.5 * (c / 2) * alive_true:
        errors.append(f"gospa_mean {gospa_mean:.3f} is not below half of reporting nothing ({c / 2 * alive_true:.1f})")
    return errors
