"""Gating, assignment-problem construction, and k-best assignment.

The measurement update reduces the choice among association events under one
prior global hypothesis to a rectangular assignment problem: columns are the
measurements some chosen hypothesis gates, rows are the tracks that gate any
of them plus one pseudo-row per column for the track it may start.  Entries
are negative log weight ratios against the all-miss baseline, so the k
cheapest assignments are the k heaviest posterior global hypotheses.

:func:`scan_weight_tables` computes every association weight (as a log; a
zero factor maps to -inf) and measurement likelihood of a scan, once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import bernoulli, gaussseq
from .density import GlobalHypothesis, PmbmDensity
from .models import clutter_density

__all__ = [
    "CostMatrix",
    "Assignment",
    "ScanTables",
    "build_cost_matrix",
    "scan_weight_tables",
    "murty_kbest",
]

INF = float("inf")
NEG_INF = -INF


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else NEG_INF


@dataclass(frozen=True)
class Assignment:
    """Column-to-row mapping (-1 for an unassigned column) and its cost."""

    mapping: tuple
    cost: float


@dataclass(frozen=True)
class ScanTables:
    """Per-scan association factors shared by every prior global hypothesis.

    ``det_liks[(track, hyp, j)]`` lists (component index, likelihood of j)
    for every alive component of a hypothesis that gates j, and
    ``ppp_gated[j]`` the same for the undetected components that gate with
    j; the detection child and the new track for j condition on them.
    ``gated_by_hyp`` holds, for each hypothesis that gates any measurement,
    the set of the ``j`` its ``det_log`` keys name.
    """

    miss_log: dict  # (track, hyp) -> log miss factor
    det_log: dict  # (track, hyp, j) -> log detection factor (gated only)
    det_liks: dict  # (track, hyp, j) -> tuple of (component index, likelihood)
    new_log: dict  # j -> log new-track weight
    ppp_gated: dict  # j -> tuple of (ppp component index, likelihood)
    gated_by_hyp: dict  # (track, hyp) -> set of the measurements it gates

    @cached_property
    def unexplained(self) -> tuple:
        """Measurements that no local hypothesis gates and that cannot start a
        track (zero clutter and Poisson intensity, e.g. outside the region):
        no association explains them, so they are left out of it."""
        gated = {j for _, _, j in self.det_log}
        return tuple(j for j, w in self.new_log.items() if w == NEG_INF and j not in gated)


@dataclass(frozen=True)
class CostMatrix:
    """Reduced assignment problem for one prior global hypothesis.

    ``matrix`` has a row per track in ``rows``, then a new-track pseudo-row
    per column (finite only in its own column), and a column per measurement
    in ``cols``.  The ``forced`` measurements, which no chosen hypothesis
    gates, start their own track in every child.  ``base`` is the log weight
    of the child in which every track misses.
    """

    matrix: np.ndarray
    chosen: dict  # track id -> hypothesis index under the prior global
    rows: tuple  # track id per track row
    cols: tuple  # measurement index per column
    forced: tuple
    base: float


def build_cost_matrix(p: PmbmDensity, g: GlobalHypothesis, tables: ScanTables) -> CostMatrix:
    """Negative log weight ratios of the scan's contested associations under
    the prior global ``g``.

    Entry (track, j): detection-vs-miss log ratio (infinite when it is not
    finite); entry (pseudo-row of j, j): negative log new-track weight.
    Measurements in ``tables.unexplained`` appear nowhere.
    """
    miss_log, det_log, new_log = tables.miss_log, tables.det_log, tables.new_log
    chosen = dict(g.choice)
    track_ids = [t.id for t in p.tracks]
    miss_total = sum(miss_log[(tid, chosen[tid])] for tid in track_ids)
    contested: set = set()
    rows = []
    for tid in track_ids:
        js = tables.gated_by_hyp.get((tid, chosen[tid]))
        if js:
            rows.append(tid)
            contested |= js
    cols = sorted(contested)
    skip = contested.union(tables.unexplained)
    forced = [j for j in range(len(new_log)) if j not in skip]
    forced_logw = sum(new_log[j] for j in forced)
    base = g.log_weight + miss_total + forced_logw
    mat = np.full((len(rows) + len(cols), len(cols)), INF)
    for r_i, tid in enumerate(rows):
        miss = miss_log[(tid, chosen[tid])]
        # a certain detection makes the miss weight zero; floor it so the
        # ratio stays finite (child weights are summed from the factor
        # tables, the matrix only drives the enumeration order)
        safe_miss = miss if math.isfinite(miss) else -745.0
        for c_i, j in enumerate(cols):
            d = det_log.get((tid, chosen[tid], j))
            if d is not None and math.isfinite(d - safe_miss):
                mat[r_i, c_i] = -(d - safe_miss)
    for c_i, j in enumerate(cols):
        if math.isfinite(new_log[j]):
            mat[len(rows) + c_i, c_i] = -new_log[j]
    return CostMatrix(mat, chosen, tuple(rows), tuple(cols), tuple(forced), base)


def scan_weight_tables(p: PmbmDensity, scan, model: gaussseq.ModelLG, sensor) -> ScanTables:
    """Log factors of every missed/detected/new-track association of a scan.

    Detection factors exist only for (hypothesis, measurement) pairs where at
    least one alive component passes the gate, and then sum every alive
    component; the new-track weight for a measurement sums the gated
    undetected components only.
    """
    k = p.window.gamma
    pd = sensor.pd
    m = len(scan)
    Z = np.asarray(scan, dtype=float).reshape(m, -1) if m else np.zeros((0, model.nz))
    miss_log: dict = {}
    det_log: dict = {}
    det_liks: dict = {}
    gated_by_hyp: dict = {}
    for t in p.tracks:
        for hidx, h in enumerate(t.hypotheses):
            if h.r == 0.0 or h.density is None:
                miss_log[(t.id, hidx)] = 0.0
                continue
            miss_log[(t.id, hidx)] = _log(1.0 - h.r * bernoulli._mixture_detection_prob(h.density, pd, k))
            if m == 0:
                continue
            gated_any = np.zeros(m, dtype=bool)
            evid = np.zeros(m)
            comp_liks = []
            for idx, c in enumerate(h.density.components):
                a = c.alive_mass(k)
                if a <= 0.0:
                    continue
                mask, liks = gaussseq.gate_likelihoods(c.seq, model, Z, sensor.gate_prob)
                gated_any |= mask
                evid += c.weight * a * liks
                comp_liks.append((idx, liks))
            js = np.flatnonzero(gated_any).tolist()
            if js:
                gated_by_hyp[(t.id, hidx)] = set(js)
            for j in js:
                key = (t.id, hidx, j)
                det_log[key] = _log(h.r * pd * evid[j])
                det_liks[key] = tuple((idx, float(liks[j])) for idx, liks in comp_liks)
    new_log: dict = {}
    ppp_gated: dict = {j: [] for j in range(m)}
    evid = np.zeros(m)
    for idx, c in enumerate(p.ppp.components):
        a = c.alive_mass(k)
        if a <= 0.0 or m == 0:
            continue
        mask, liks = gaussseq.gate_likelihoods(c.seq, model, Z, sensor.gate_prob)
        for j in np.flatnonzero(mask):
            evid[j] += c.weight * a * liks[j]
            ppp_gated[j].append((idx, float(liks[j])))
    for j, z in enumerate(scan):
        new_log[j] = _log(clutter_density(sensor, z) + pd * evid[j])
    ppp_gated = {j: tuple(v) for j, v in ppp_gated.items()}
    return ScanTables(miss_log, det_log, det_liks, new_log, ppp_gated, gated_by_hyp)


# ---------------------------------------------------------------------------
# optimal and k-best assignment
# ---------------------------------------------------------------------------


def _solve(matrix: np.ndarray):
    """Minimum-cost assignment of a rectangular matrix with forbidden (inf)
    entries.  Returns (mapping col->row, cost) or None when infeasible."""
    try:
        rows, cols = linear_sum_assignment(matrix)
    except ValueError:
        return None
    cost = matrix[rows, cols].sum()
    if not np.isfinite(cost):
        return None
    mapping = np.full(matrix.shape[1], -1, dtype=int)
    mapping[cols] = rows
    return tuple(int(r) for r in mapping), float(cost)


def murty_kbest(matrix: np.ndarray, M: int, max_gap=None) -> list:
    """Up to M cheapest assignments in nondecreasing cost order.

    Classic partition-of-the-solution-space enumeration: each dequeued
    solution spawns one subproblem per assigned column, forbidding that pair
    and forcing the earlier ones.  Every subproblem keeps the full matrix: a
    forbidden pair is an infinite entry, and a forced pair keeps its entry
    while the rest of its row and column become infinite, so each solution
    is already in the caller's indices.  Ties are ordered by the mapping
    tuple.  When ``max_gap`` is given, enumeration stops at the first
    solution whose cost exceeds the optimum by more than the gap.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    matrix = np.array(matrix, dtype=float)  # a copy: nodes are masked in place
    if matrix.shape[1] == 0:
        return [Assignment((), 0.0)]
    first = _solve(matrix)
    if first is None:
        raise ValueError("infeasible assignment problem")
    counter = itertools.count()  # guards against incomparable payloads
    # node: cost, mapping, tiebreak, matrix with its forced and forbidden pairs
    heap = [(first[1], first[0], next(counter), matrix)]
    best = first[1]
    out: list = []
    while heap and len(out) < M:
        cost, mapping, _, sub = heapq.heappop(heap)
        if max_gap is not None and cost - best > max_gap:
            break  # heap yields nondecreasing costs: nothing closer remains
        out.append(Assignment(mapping, cost))
        for col, row in enumerate(mapping):
            if row < 0:
                continue
            # spawn only when the column keeps another option once this pair
            # is forbidden; clutter-dominated columns rarely do
            if np.isfinite(sub[:, col]).sum() >= 2:
                child = sub.copy()
                child[row, col] = INF
                sol = _solve(child)
                if sol is not None:
                    heapq.heappush(heap, (sol[1], sol[0], next(counter), child))
            # force this pair in later siblings: mask the rest of its row and column
            keep = sub[row, col]
            sub[row, :] = INF
            sub[:, col] = INF
            sub[row, col] = keep
    return out
