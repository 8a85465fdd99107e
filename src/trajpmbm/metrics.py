"""Multi-object performance metrics: OSPA(2) over trajectories and GOSPA.

OSPA(2) at step k compares two sets of trajectories through a base distance
per trajectory pair: the time-averaged per-step error over the window
[k-w+1, k], where a step contributes the cut-off c when exactly one of the
two trajectories exists and min(c, Euclidean position error) when both do.
The set metric is then an optimal-assignment OSPA of order q with cut-off c,
decomposed into location and cardinality parts.  GOSPA (alpha = 2) scores a
single step's state sets with location / missed / false decomposition.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["MetricRow", "ospa2", "gospa_step", "write_metric_csv"]

POSITION_DIMS = 2  # Euclidean base distance on the leading position entries


@dataclass(frozen=True)
class MetricRow:
    k: int
    loc: float
    miss: float
    false: float
    card: float
    total: float

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        for name in ("loc", "miss", "false", "card", "total"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _positions(traj, k: int):
    if traj.beta <= k <= traj.epsilon:
        return np.asarray(traj.state_at(k))[:POSITION_DIMS]
    return None


def trajectory_distance(x, y, k: int, w: int, c: float, p: float) -> float:
    """Time-averaged cut-off distance between two trajectories over the
    window ending at k."""
    steps = range(max(0, k - w + 1), k + 1)
    if not len(steps):
        raise ValueError("empty evaluation window")
    acc = 0.0
    for t in steps:
        a, b = _positions(x, t), _positions(y, t)
        if a is None and b is None:
            d = 0.0
        elif a is None or b is None:
            d = c
        else:
            d = min(c, float(np.linalg.norm(a - b)))
        acc += d**p
    return (acc / len(steps)) ** (1.0 / p)


def ospa2(est, truth, k: int, c: float = 100.0, p: float = 1.0, q: float = 1.0, w: int = 5) -> MetricRow:
    """OSPA(2) row at step k between estimated and true trajectory sets."""
    if c <= 0 or w < 1:
        raise ValueError("require c > 0 and w >= 1")
    n_e, n_t = len(est), len(truth)
    if n_e == 0 and n_t == 0:
        return MetricRow(k, 0.0, 0.0, 0.0, 0.0, 0.0)
    small, large = (est, truth) if n_e <= n_t else (truth, est)
    m, n = len(small), len(large)
    D = np.zeros((m, n))
    for i, x in enumerate(small):
        for j, y in enumerate(large):
            D[i, j] = min(c, trajectory_distance(x, y, k, w, c, p)) ** q
    rows, cols = linear_sum_assignment(D)
    loc_pow = float(D[rows, cols].sum())
    card_pow = c**q * (n - m)
    total = ((loc_pow + card_pow) / n) ** (1.0 / q)
    loc = (loc_pow / n) ** (1.0 / q)
    card = (card_pow / n) ** (1.0 / q)
    return MetricRow(k, loc, 0.0, 0.0, card, total)


def gospa_step(est_states, truth_states, c: float = 100.0, p: float = 1.0, k: int = 0) -> MetricRow:
    """GOSPA (alpha = 2) between two single-step state sets.

    Unassigned estimates and truths each cost c^p / 2; pairs further apart
    than c are never assigned.
    """
    est = [np.asarray(x, dtype=float)[:POSITION_DIMS] for x in est_states]
    tru = [np.asarray(x, dtype=float)[:POSITION_DIMS] for x in truth_states]
    if not est and not tru:
        return MetricRow(k, 0.0, 0.0, 0.0, 0.0, 0.0)
    half = c**p / 2.0
    loc_pow = 0.0
    matched = 0
    if est and tru:
        D = np.zeros((len(est), len(tru)))
        for i, x in enumerate(est):
            for j, y in enumerate(tru):
                D[i, j] = float(np.linalg.norm(x - y)) ** p
        # assigning a pair is only worthwhile below the cut-off cost
        D = np.minimum(D, 2.0 * half)
        rows, cols = linear_sum_assignment(D)
        for i, j in zip(rows, cols):
            if D[i, j] < 2.0 * half:
                loc_pow += D[i, j]
                matched += 1
    n_false = len(est) - matched
    n_miss = len(tru) - matched
    miss_pow = half * n_miss
    false_pow = half * n_false
    total = (loc_pow + miss_pow + false_pow) ** (1.0 / p)
    return MetricRow(
        k,
        loc_pow ** (1.0 / p),
        miss_pow ** (1.0 / p),
        false_pow ** (1.0 / p),
        0.0,
        total,
    )


def write_metric_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "loc", "miss", "false", "card", "total"])
        for r in rows:
            writer.writerow([r.k, repr(r.loc), repr(r.miss), repr(r.false), repr(r.card), repr(r.total)])

