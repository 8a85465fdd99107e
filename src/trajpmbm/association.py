"""Gating, assignment-problem construction, and k-best assignment.

The measurement update reduces the choice among association events under one
prior global hypothesis to a rectangular assignment problem: columns are the
measurements some chosen hypothesis gates, rows are the tracks that gate any
of them plus one pseudo-row per column for the track it may start.  Entries
are negative log weight ratios against the all-miss baseline, so the k
cheapest assignments are the k heaviest posterior global hypotheses.

:func:`scan_weight_tables` computes every association weight (as a log; a
zero factor maps to -inf), measurement likelihood and clutter intensity of a
scan, once: the alive components of every local hypothesis and of the
undetected intensity are gated and conditioned on every measurement in one
``gaussseq.gate_likelihoods`` call.
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

    ``det_liks[(track, hyp, j)]`` lists (component index, batch row,
    likelihood of j) for every alive component of a hypothesis that gates
    j, and ``ppp_gated[j]`` the same for the undetected components that
    gate with j; the detection child and the new track for j (with
    ``clutter[j]``) condition each component on its row of ``post``.
    ``gated_by_hyp`` holds, for each hypothesis that gates any measurement,
    the set of the ``j`` its ``det_log`` keys name.
    """

    miss_log: dict  # (track, hyp) -> log miss factor
    det_log: dict  # (track, hyp, j) -> log detection factor (gated only)
    det_liks: dict  # (track, hyp, j) -> tuple of (component index, row, likelihood)
    new_log: dict  # j -> log new-track weight
    ppp_gated: dict  # j -> tuple of (ppp component index, row, likelihood)
    gated_by_hyp: dict  # (track, hyp) -> set of the measurements it gates
    clutter: tuple  # j -> clutter intensity at measurement j
    post: tuple | None  # (S, innovations, gains, posterior covariances) of the batch rows; None without rows

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
    every child shares: the prior global's, the miss factors of the tracks
    that gate nothing and the forced new-track weights; a child adds the
    factor each row track chooses and the weight of each track it starts.
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

    Entry (track, j): detection-vs-miss log ratio, a zero miss weight
    floored (infinite when not finite); entry (pseudo-row of j, j): negative
    log new-track weight.  ``tables.unexplained`` measurements appear nowhere.
    """
    miss_log, det_log, new_log = tables.miss_log, tables.det_log, tables.new_log
    chosen = dict(g.choice)
    base = g.log_weight
    contested: set = set()
    rows = []
    for t in p.tracks:
        js = tables.gated_by_hyp.get((t.id, chosen[t.id]))
        if js:
            rows.append(t.id)
            contested |= js
        else:
            base += miss_log[(t.id, chosen[t.id])]
    cols = sorted(contested)
    col_of = {j: c_i for c_i, j in enumerate(cols)}
    skip = contested.union(tables.unexplained)
    forced = [j for j in range(len(new_log)) if j not in skip]
    base += sum(new_log[j] for j in forced)
    mat = np.full((len(rows) + len(cols), len(cols)), INF)
    for r_i, tid in enumerate(rows):
        miss = miss_log[(tid, chosen[tid])]
        # a certain detection makes the miss weight zero; floor it so the
        # ratio stays finite (the update sums each child's weight from the
        # factors it chooses, the matrix only sets the enumeration order)
        safe_miss = miss if math.isfinite(miss) else -745.0
        for j in tables.gated_by_hyp[(tid, chosen[tid])]:
            d = det_log[(tid, chosen[tid], j)]
            if math.isfinite(d - safe_miss):
                mat[r_i, col_of[j]] = -(d - safe_miss)
    for c_i, j in enumerate(cols):
        if math.isfinite(new_log[j]):
            mat[len(rows) + c_i, c_i] = -new_log[j]
    return CostMatrix(mat, chosen, tuple(rows), tuple(cols), tuple(forced), base)


def scan_weight_tables(p: PmbmDensity, scan, model: gaussseq.ModelLG, sensor) -> ScanTables:
    """Log factors of every missed/detected/new-track association of a scan.

    Detection factors exist only for (hypothesis, measurement) pairs where at
    least one alive component passes the gate, and then sum every alive
    component; the new-track weight for a measurement sums the gated
    undetected components only.  Every alive component of every hypothesis
    and of the undetected intensity is gated and conditioned in one batch:
    one row of last-state moments each.
    """
    k, pd, m = p.window.gamma, sensor.pd, len(scan)
    Z = np.asarray(scan, dtype=float).reshape(m, -1) if m else np.zeros((0, model.nz))
    clutter = tuple(clutter_density(sensor, Z).tolist())
    miss_log: dict = {}
    owners = [(None, p.ppp)]  # (owner, mixture): (track id, hypothesis index, r), None for the intensity
    for t in p.tracks:
        for hidx, h in enumerate(t.hypotheses):
            if h.r == 0.0 or h.density is None:
                miss_log[(t.id, hidx)] = 0.0
            else:
                miss_log[(t.id, hidx)] = _log(1.0 - h.r * bernoulli._mixture_detection_prob(h.density, pd, k))
                owners.append(((t.id, hidx, h.r), h.density))
    # one row per alive component, in blocks of (owner, rows, component
    # indices, weight x alive mass)
    blocks, seqs, post = [], [], None
    for owner, mix in owners if m else ():
        alive = [(idx, c.weight * a, c.seq) for idx, c in enumerate(mix.components) if (a := c.alive_mass(k)) > 0.0]
        if alive:
            idxs, wa, block_seqs = zip(*alive)
            blocks.append((owner, slice(len(seqs), len(seqs) + len(idxs)), idxs, wa))
            seqs += block_seqs
    if blocks:
        means, covs = zip(*(seq.last_moments() for seq in seqs))
        mask, liks, post = gaussseq.gate_likelihoods(np.stack(means), np.stack(covs), model, Z, sensor.gate_prob)
    det_log, det_liks, gated_by_hyp = {}, {}, {}
    ppp_gated: dict = {j: [] for j in range(m)}
    evid_new = np.zeros(m)
    for owner, rows, idxs, wa in blocks:
        gated, block = mask[rows], liks[rows]
        if owner is None:
            for i, j in zip(*np.nonzero(gated)):
                ppp_gated[j].append((idxs[i], rows.start + i, float(block[i, j])))
            evid_new = sum(w * row for w, row in zip(wa, np.where(gated, block, 0.0)))
        elif js := np.flatnonzero(gated.any(axis=0)).tolist():
            tid, hidx, r = owner
            evid = sum(w * row for w, row in zip(wa, block))
            gated_by_hyp[(tid, hidx)] = set(js)
            for j in js:
                det_log[(tid, hidx, j)] = _log(r * pd * evid[j])
                det_liks[(tid, hidx, j)] = tuple(zip(idxs, range(rows.start, rows.stop), block[:, j].tolist()))
    new_log = {j: _log(clutter[j] + pd * evid_new[j]) for j in range(m)}
    ppp_gated = {j: tuple(v) for j, v in ppp_gated.items()}
    return ScanTables(miss_log, det_log, det_liks, new_log, ppp_gated, gated_by_hyp, clutter, post)


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
    return tuple(mapping.tolist()), float(cost)


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
