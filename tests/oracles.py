"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the defining
formulas, not by calling the library: dense joint Kalman operations with a
stacked measurement matrix, an exact rational solve of an information band,
predictive likelihoods and the birth-step pmf, the closed-form death-time
pmf, an optimal assignment with a lexicographic tie-break, a set integral on
a grid surrogate, a tracker that materializes every death split explicitly
and enumerates every association map per scan, and a point-target PMBM
filter over plain state vectors.  Only the last-state moments of a sequence
density are read through the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import multivariate_normal

from trajpmbm.association import Assignment
from trajpmbm.gaussseq import last_state_moments
from trajpmbm.trajectory import Trajectory

NEG_INF = float("-inf")
INF = float("inf")


# ---------------------------------------------------------------------------
# dense joint-Gaussian operations (stacked-measurement formulation)
# ---------------------------------------------------------------------------


def joint_predict(mean, cov, F, Q):
    """Append the next state to a joint Gaussian, blockwise."""
    nx = F.shape[0]
    top = np.hstack([cov, cov[:, -nx:] @ F.T])
    bottom = np.hstack([F @ cov[-nx:, :], F @ cov[-nx:, -nx:] @ F.T + Q])
    return np.concatenate([mean, F @ mean[-nx:]]), np.vstack([top, bottom])


def joint_update(mean, cov, H, R, z):
    """Kalman update of the joint with the stacked measurement matrix
    [0 ... 0 H]; returns posterior and the Gaussian evidence of z."""
    nx = H.shape[1]
    n = len(mean)
    Hbig = np.zeros((H.shape[0], n))
    Hbig[:, n - nx :] = H
    S = Hbig @ cov @ Hbig.T + R
    lik = float(multivariate_normal.pdf(np.asarray(z), mean=Hbig @ mean, cov=S, allow_singular=False))
    K = cov @ Hbig.T @ np.linalg.inv(S)
    mean2 = mean + K @ (np.asarray(z) - Hbig @ mean)
    cov2 = (np.eye(n) - K @ Hbig) @ cov
    return mean2, 0.5 * (cov2 + cov2.T), lik


def exact_band_moments(diag, off, ivec, first: int, last: int):
    """Mean and covariance of the steps ``first``..``last`` (0-based block
    indices) of the Gaussian with block-tridiagonal information matrix
    (``diag``, ``off``, superdiagonal blocks) and information vector
    ``ivec``, solved exactly: every float entry becomes its exact
    ``Fraction``, the dense system is solved by Gauss-Jordan elimination in
    rational arithmetic, and only the answer is rounded to float."""
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    nu, nx = diag.shape[0], diag.shape[1]
    n = nu * nx
    A = [[Fraction(0)] * n for _ in range(n)]
    for i in range(nu):
        for r in range(nx):
            for c in range(nx):
                A[i * nx + r][i * nx + c] = Fraction(float(diag[i, r, c]))
                if i + 1 < nu:
                    A[i * nx + r][(i + 1) * nx + c] = Fraction(float(off[i, r, c]))
                    A[(i + 1) * nx + c][i * nx + r] = Fraction(float(off[i, r, c]))
    i0, i1 = first * nx, (last + 1) * nx
    # right-hand sides: the information vector, then the kept identity columns
    rows = [
        A[r] + [Fraction(float(ivec[r]))] + [Fraction(int(r == c)) for c in range(i0, i1)]
        for r in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    mean = np.array([float(rows[r][n]) for r in range(i0, i1)])
    cov = np.array([[float(x) for x in rows[r][n + 1 :]] for r in range(i0, i1)])
    return mean, cov


def point_predict(mean, cov, F, Q):
    return F @ mean, F @ cov @ F.T + Q


def point_update(mean, cov, H, R, z):
    S = H @ cov @ H.T + R
    lik = float(multivariate_normal.pdf(np.asarray(z), mean=H @ mean, cov=S))
    K = cov @ H.T @ np.linalg.inv(S)
    mean2 = mean + K @ (np.asarray(z) - H @ mean)
    cov2 = cov - K @ H @ cov
    return mean2, 0.5 * (cov2 + cov2.T), lik


def predictive_likelihood(s, model, z) -> float:
    """Gaussian evidence N(z; H m_last, H P_last H' + R) of a sequence density."""
    mean, cov = last_state_moments(s)
    H, R = np.asarray(model.H), np.asarray(model.R)
    return float(multivariate_normal.pdf(np.asarray(z, float).reshape(-1), mean=H @ mean, cov=H @ cov @ H.T + R))


def birth_pmf(ppp_prior, z, model, k: int) -> dict:
    """Posterior pmf over the birth step of a track started on measurement z:
    each prior Poisson component alive at k contributes its weight times the
    evidence of z under its last state (the detection probability cancels)."""
    masses: dict = {}
    for c in ppp_prior.components:
        a = c.alive_mass(k)
        if a > 0.0:
            masses[c.b] = masses.get(c.b, 0.0) + c.weight * a * predictive_likelihood(c.seq, model, z)
    total = sum(masses.values())
    if total <= 0.0:
        raise ValueError("no prior component alive at the current scan")
    return {b: m / total for b, m in sorted(masses.items())}


def epsilon_pmf_closed(tau: int, k: int, ps: float, pd: float) -> dict:
    """Death-time pmf after misses on every scan in (tau, k], ``tau`` being
    the scan of the last association: mass decays geometrically with the
    per-step probability qdps = (1 - pd) * ps of surviving undetected, and
    the remaining mass sits at the current scan."""
    qdps = (1.0 - pd) * ps
    if qdps >= 1.0:
        raise ValueError("(1 - pd) * ps must be < 1")
    if k < tau:
        raise ValueError("current scan before the last association")
    n = k - tau
    if n == 0:
        return {tau: 1.0}
    qs = 1.0 - ps
    c = qs * (1.0 - qdps**n) / (1.0 - qdps) + qdps**n
    if c <= 0.0:
        raise ValueError("a run of missed detections has probability zero")
    pmf = {}
    for i in range(n):
        m = qs * qdps**i / c
        if m > 0.0:
            pmf[tau + i] = m
    m = qdps**n / c
    if m > 0.0:
        pmf[k] = m
    return pmf


# ---------------------------------------------------------------------------
# assignment: brute-force enumeration and a lexicographic optimum
# ---------------------------------------------------------------------------


def enumerate_assignments(matrix):
    """All feasible column-to-row assignments of a cost matrix as
    (cost, mapping) pairs; rows may stay unassigned, columns may not."""
    matrix = np.asarray(matrix, dtype=float)
    n_rows, n_cols = matrix.shape
    out = []
    for rows in itertools.permutations(range(n_rows), n_cols):
        cost = matrix[list(rows), range(n_cols)].sum()
        if np.isfinite(cost):
            out.append((float(cost), tuple(rows)))
    return sorted(out)


def _solve(matrix):
    """Minimum-cost assignment with forbidden (inf) entries as (mapping
    col->row, cost), or None when infeasible."""
    try:
        rows, cols = linear_sum_assignment(matrix)
    except ValueError:
        return None
    cost = matrix[rows, cols].sum()
    if not np.isfinite(cost):
        return None
    mapping = [-1] * matrix.shape[1]
    for r, c in zip(rows, cols):
        mapping[c] = int(r)
    return tuple(mapping), float(cost)


def hungarian_best(matrix) -> Assignment:
    """Optimal assignment; among equal-cost optima the lexicographically
    smallest column-to-row mapping."""
    matrix = np.asarray(matrix, dtype=float)
    best = _solve(matrix)
    if best is None:
        raise ValueError("infeasible assignment problem")
    mapping, cost = best
    # refine column by column: force the smallest row that still attains the
    # optimal cost (exact-equality ties only)
    work = matrix.copy()
    refined = []
    for col in range(matrix.shape[1]):
        chosen = mapping[col]
        for row in sorted(r for r in range(matrix.shape[0]) if np.isfinite(work[r, col])):
            if row == chosen:
                break
            trial = work.copy()
            trial[:, col] = INF
            trial[row, col] = work[row, col]
            sol = _solve(trial)
            if sol is not None and sol[1] == cost:
                chosen, mapping = row, sol[0]
                break
        refined.append(chosen)
        work[:, col] = INF
        if chosen >= 0:
            work[chosen, col] = matrix[chosen, col]
    return Assignment(tuple(refined), cost)


# ---------------------------------------------------------------------------
# set integral on a discrete surrogate of the trajectory space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSurrogate:
    """Finite discretization of the trajectory space: ``points`` is a (G, n_x)
    grid of base states with a shared cell volume, ``windows`` the (b, e)
    pairs to sum over.  An atom is a (b, e) pair plus one grid point per step."""

    points: np.ndarray
    cell_volume: float
    windows: tuple

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("empty grid")
        object.__setattr__(self, "points", pts)

    def atoms(self):
        """Yield (Trajectory, volume) for every atom of the surrogate."""
        for b, e in self.windows:
            nu = e - b + 1
            for combo in itertools.product(range(len(self.points)), repeat=nu):
                yield Trajectory(b, e, self.points[list(combo)]), self.cell_volume**nu


def trajectory_set_integral(f, max_cardinality: int, surrogate: GridSurrogate) -> float:
    """Set integral of ``f`` on the surrogate: f of the empty set plus, per
    cardinality n up to ``max_cardinality``, 1/n! times the volume-weighted
    sum of f over ordered n-tuples of atoms (``f`` takes a list)."""
    if max_cardinality < 0:
        raise ValueError("max_cardinality must be >= 0")
    atoms = list(surrogate.atoms())
    total = f([])
    for n in range(1, max_cardinality + 1):
        contrib = 0.0
        for tup in itertools.product(atoms, repeat=n):
            contrib += f([t for t, _ in tup]) * math.prod(v for _, v in tup)
        total += contrib / math.factorial(n)
    return total


# ---------------------------------------------------------------------------
# exhaustive trajectory PMBM oracle
# ---------------------------------------------------------------------------


def window_moments(pieces) -> dict:
    """Per (b, e) key, the weight-averaged mean and second moment
    E[x x^T] of ``pieces``, (key, weight, mean, cov) tuples, side by side
    in one array [mean | second moment]."""
    acc = {}
    for key, w, mean, cov in pieces:
        w0, m0, s0 = acc.get(key, (0.0, 0.0, 0.0))
        acc[key] = (w0 + w, m0 + w * mean, s0 + w * (cov + np.outer(mean, mean)))
    return {key: np.column_stack([m / w, s / w]) for key, (w, m, s) in acc.items()}


@dataclass
class OComp:
    w: float
    b: int
    e: int
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class OBern:
    r: float
    comps: list
    history: frozenset


@dataclass
class OGlobal:
    logw: float
    tracks: dict  # founding measurement (k, j) -> OBern


class OracleTracker:
    """Reference trajectory tracker: every death hypothesis is materialized
    and every association map is enumerated, with one independent Bernoulli
    table per global hypothesis."""

    def __init__(self, model, birth_comps, ps, pd, clutter_intensity, mode="all"):
        self.F, self.Q = np.asarray(model.F), np.asarray(model.Q)
        self.H, self.R = np.asarray(model.H), np.asarray(model.R)
        self.ps, self.pd = ps, pd
        self.lam_fa = clutter_intensity
        self.mode = mode
        self.birth_comps = birth_comps  # (weight, mean, cov)
        self.k = 0
        self.ppp = [OComp(w, 0, 0, np.asarray(m, float), np.asarray(c, float)) for w, m, c in birth_comps]
        self.globals = [OGlobal(0.0, {})]

    # -- prediction ---------------------------------------------------------

    def _split_comp(self, c: OComp):
        if c.e != self.k - 1:
            return [c]
        mean, cov = joint_predict(c.mean, c.cov, self.F, self.Q)
        alive = OComp(c.w * self.ps, c.b, self.k, mean, cov)
        if self.mode == "current":
            return [alive]
        dead = OComp(c.w * (1.0 - self.ps), c.b, c.e, c.mean, c.cov)
        return [alive, dead] if dead.w > 0.0 else [alive]

    def predict(self):
        self.k += 1
        self.ppp = [s for c in self.ppp for s in self._split_comp(c)]
        self.ppp += [
            OComp(w, self.k, self.k, np.asarray(m, float), np.asarray(c, float))
            for w, m, c in self.birth_comps
        ]
        for g in self.globals:
            for key, bern in g.tracks.items():
                comps = [s for c in bern.comps for s in self._split_comp(c)]
                if self.mode == "current":
                    r = bern.r * self.ps
                    total = sum(c.w for c in comps)
                    comps = [replace(c, w=c.w / total) for c in comps]
                else:
                    r = bern.r
                g.tracks[key] = OBern(r, comps, bern.history)

    # -- update -------------------------------------------------------------

    def _bern_miss(self, bern: OBern):
        pdm = self.pd * sum(c.w for c in bern.comps if c.e == self.k)
        factor = 1.0 - bern.r * pdm
        comps = [replace(c, w=c.w * (1.0 - self.pd) if c.e == self.k else c.w) for c in bern.comps]
        comps = [c for c in comps if c.w > 0.0]
        total = sum(c.w for c in comps)
        r = bern.r * (1.0 - pdm) / factor if factor > 0 else 0.0
        comps = [replace(c, w=c.w / total) for c in comps] if total > 0 else []
        return OBern(r, comps, bern.history), math.log(factor) if factor > 0 else NEG_INF

    def _bern_detect(self, bern: OBern, z, j):
        comps, evid = [], 0.0
        for c in bern.comps:
            if c.e != self.k:
                continue
            mean, cov, lik = joint_update(c.mean, c.cov, self.H, self.R, z)
            evid += c.w * lik
            comps.append(OComp(c.w * lik, c.b, c.e, mean, cov))
        factor = bern.r * self.pd * evid
        if factor <= 0.0:
            return None, NEG_INF
        total = sum(c.w for c in comps)
        comps = [replace(c, w=c.w / total) for c in comps]
        return OBern(1.0, comps, bern.history | {(self.k, j)}), math.log(factor)

    def _new_track(self, z, j):
        comps, evid = [], 0.0
        for c in self.ppp:
            if c.e != self.k:
                continue
            mean, cov, lik = joint_update(c.mean, c.cov, self.H, self.R, z)
            evid += c.w * lik
            comps.append(OComp(c.w * lik, c.b, c.e, mean, cov))
        w = self.lam_fa + self.pd * evid
        if w <= 0.0:
            return None, NEG_INF
        r = self.pd * evid / w
        total = sum(c.w for c in comps)
        comps = [replace(c, w=c.w / total) for c in comps] if total > 0 else []
        return OBern(r, comps, frozenset({(self.k, j)})), math.log(w)

    def update(self, scan):
        scan = [np.asarray(z, float) for z in scan]
        m = len(scan)
        new_globals = []
        for g in self.globals:
            keys = sorted(g.tracks)
            targets = keys + ["new"]
            for assoc in itertools.product(range(len(targets)), repeat=m):
                used = [targets[a] for a in assoc if targets[a] != "new"]
                if len(used) != len(set(used)):
                    continue  # a track absorbs at most one measurement
                logw = g.logw
                tracks = {}
                ok = True
                assigned = {targets[a]: j for j, a in enumerate(assoc) if targets[a] != "new"}
                for key in keys:
                    if key in assigned:
                        child, f = self._bern_detect(g.tracks[key], scan[assigned[key]], assigned[key])
                    else:
                        child, f = self._bern_miss(g.tracks[key])
                    if not math.isfinite(f):
                        ok = False
                        break
                    logw += f
                    tracks[key] = child
                if not ok:
                    continue
                for j, a in enumerate(assoc):
                    if targets[a] != "new":
                        continue
                    child, f = self._new_track(scan[j], j)
                    if not math.isfinite(f):
                        ok = False
                        break
                    logw += f
                    if child.r > 0.0:
                        tracks[(self.k, j)] = child
                if ok:
                    new_globals.append(OGlobal(logw, tracks))
        # thin the undetected intensity
        self.ppp = [
            replace(c, w=c.w * (1.0 - self.pd)) if c.e == self.k else c for c in self.ppp
        ]
        self.globals = new_globals
        self._normalize()

    def _normalize(self):
        ws = np.array([g.logw for g in self.globals])
        lse = ws.max() + np.log(np.exp(ws - ws.max()).sum())
        for g in self.globals:
            g.logw -= lse

    # -- comparison views -----------------------------------------------------

    def global_table(self):
        """Map from a canonical key (frozenset of chosen histories) to
        (weight, {history: (r, last mean, (beta, eps) pmf)})."""
        out = {}
        for g in self.globals:
            key = frozenset(b.history for b in g.tracks.values() if b.r > 0)
            info = {}
            nx = self.F.shape[0]
            for bern in g.tracks.values():
                if bern.r <= 0:
                    continue
                pmf = {}
                for c in bern.comps:
                    pmf[(c.b, c.e)] = pmf.get((c.b, c.e), 0.0) + c.w
                alive = [c for c in bern.comps if c.e == self.k]
                amass = sum(c.w for c in alive)
                alive_mean = (
                    sum(c.w * c.mean[-nx:] for c in alive) / amass if amass > 0 else None
                )
                info[bern.history] = (bern.r, alive_mean, pmf)
            assert key not in out, "oracle produced colliding global hypotheses"
            out[key] = (math.exp(g.logw), info)
        return out

    def restricted_table(self, alpha: int, gamma: int, eta: int, zeta: int, moments: bool = False):
        """The window answer for the states in [alpha, gamma] of the
        trajectories alive somewhere in [eta, zeta], read off the explicit
        components: a component is kept when its (b, e) meets [eta, zeta],
        r scales by the kept mass, and the kept windows are clamped to
        [alpha, gamma], its joint Gaussian sliced to them.  Per global,
        (weight, {history: (r, moments, (b, e) pmf)}) over the Bernoullis
        that still exist, ``moments`` being None or, with ``moments``, the
        :func:`window_moments` of the sliced components; globals that the
        restriction makes equal add up their weights."""
        nx = self.F.shape[0]
        out = {}
        for g in self.globals:
            info = {}
            for bern in g.tracks.values():
                kept = [c for c in bern.comps if c.b <= zeta and eta <= c.e]
                mass = sum(c.w for c in kept)
                if bern.r <= 0 or mass <= 0:
                    continue
                pmf, pieces = {}, []
                for c in kept:
                    key = (max(c.b, alpha), min(c.e, gamma))
                    pmf[key] = pmf.get(key, 0.0) + c.w / mass
                    i0, i1 = (key[0] - c.b) * nx, (key[1] - c.b + 1) * nx
                    pieces.append((key, c.w, c.mean[i0:i1], c.cov[i0:i1, i0:i1]))
                info[bern.history] = (min(bern.r * mass, 1.0), window_moments(pieces) if moments else None, pmf)
            w, _ = out.get(frozenset(info), (0.0, None))
            out[frozenset(info)] = (w + math.exp(g.logw), info)
        return out


# ---------------------------------------------------------------------------
# point-target PMBM filter oracle
# ---------------------------------------------------------------------------


@dataclass
class PBern:
    r: float
    comps: list  # (w, mean, cov)
    history: frozenset


class PointPmbmOracle:
    """Wil12-style PMBM filter over plain target states, for commutation
    checks against the marginalized trajectory tracker."""

    def __init__(self, model, birth_comps, ps, pd, clutter_intensity):
        self.F, self.Q = np.asarray(model.F), np.asarray(model.Q)
        self.H, self.R = np.asarray(model.H), np.asarray(model.R)
        self.ps, self.pd = ps, pd
        self.lam_fa = clutter_intensity
        self.birth_comps = birth_comps
        self.k = 0
        self.ppp = [(w, np.asarray(m, float), np.asarray(c, float)) for w, m, c in birth_comps]
        self.globals = [OGlobal(0.0, {})]

    def predict(self):
        self.k += 1
        self.ppp = [(w * self.ps, *point_predict(m, c, self.F, self.Q)) for w, m, c in self.ppp]
        self.ppp += [(w, np.asarray(m, float), np.asarray(c, float)) for w, m, c in self.birth_comps]
        for g in self.globals:
            for key, bern in g.tracks.items():
                comps = [(w, *point_predict(m, c, self.F, self.Q)) for w, m, c in bern.comps]
                g.tracks[key] = PBern(bern.r * self.ps, comps, bern.history)

    def update(self, scan):
        scan = [np.asarray(z, float) for z in scan]
        m = len(scan)
        new_globals = []
        for g in self.globals:
            keys = sorted(g.tracks)
            targets = keys + ["new"]
            for assoc in itertools.product(range(len(targets)), repeat=m):
                used = [targets[a] for a in assoc if targets[a] != "new"]
                if len(used) != len(set(used)):
                    continue
                logw = g.logw
                tracks = {}
                ok = True
                assigned = {targets[a]: j for j, a in enumerate(assoc) if targets[a] != "new"}
                for key in keys:
                    bern = g.tracks[key]
                    if key in assigned:
                        j = assigned[key]
                        comps, evid = [], 0.0
                        for w, mm, cc in bern.comps:
                            m2, c2, lik = point_update(mm, cc, self.H, self.R, scan[j])
                            evid += w * lik
                            comps.append((w * lik, m2, c2))
                        factor = bern.r * self.pd * evid
                        if factor <= 0:
                            ok = False
                            break
                        total = sum(w for w, _, _ in comps)
                        comps = [(w / total, mm, cc) for w, mm, cc in comps]
                        tracks[key] = PBern(1.0, comps, bern.history | {(self.k, j)})
                        logw += math.log(factor)
                    else:
                        factor = 1.0 - bern.r * self.pd
                        r = bern.r * (1.0 - self.pd) / factor
                        tracks[key] = PBern(r, list(bern.comps), bern.history)
                        logw += math.log(factor)
                for j, a in enumerate(assoc):
                    if targets[a] != "new":
                        continue
                    comps, evid = [], 0.0
                    for w, mm, cc in self.ppp:
                        m2, c2, lik = point_update(mm, cc, self.H, self.R, scan[j])
                        evid += w * lik
                        comps.append((w * lik, m2, c2))
                    wnew = self.lam_fa + self.pd * evid
                    if wnew <= 0:
                        ok = False
                        break
                    total = sum(w for w, _, _ in comps)
                    comps = [(w / total, mm, cc) for w, mm, cc in comps] if total > 0 else []
                    r = self.pd * evid / wnew
                    logw += math.log(wnew)
                    if r > 0:
                        tracks[(self.k, j)] = PBern(r, comps, frozenset({(self.k, j)}))
                if ok:
                    new_globals.append(OGlobal(logw, tracks))
        self.ppp = [(w * (1.0 - self.pd), mm, cc) for w, mm, cc in self.ppp]
        self.globals = new_globals
        ws = np.array([g.logw for g in self.globals])
        lse = ws.max() + np.log(np.exp(ws - ws.max()).sum())
        for g in self.globals:
            g.logw -= lse

    def global_table(self):
        out = {}
        for g in self.globals:
            key = frozenset(b.history for b in g.tracks.values() if b.r > 0)
            info = {}
            for bern in g.tracks.values():
                if bern.r <= 0:
                    continue
                mean = sum(w * m for w, m, _ in bern.comps)
                info[bern.history] = (bern.r, mean)
            out[key] = (math.exp(g.logw), info)
        return out
