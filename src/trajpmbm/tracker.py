"""The PMBM recursion over sets of trajectories.

Two trackers share one measurement update and differ in prediction:

* all-trajectories mode keeps ended trajectories in the posterior; survival
  only governs whether a trajectory keeps extending, bookkept compactly by a
  per-component death-time pmf;
* current-trajectories mode drops ended trajectories, scaling Bernoulli
  existence and Poisson weights by the survival probability instead.

The update processes a scan jointly: per prior global hypothesis the best
children are enumerated with Murty's algorithm over a cost matrix of negative
log weight ratios, a child weighing the sum of the log factors it chooses;
the kept children become the new globals, only the local hypotheses they
choose are built, and the result is normalized and pruned.

In all-trajectories mode the recursion visits only the live tracks.
Prediction ends a component's surviving tail once its surviving mass falls
below the Bernoulli threshold, and moves every track of one hypothesis with
no trajectory alive to the density's archive, where no later scan changes
it; estimates still read the archive.  Every hypothesis is chosen by some
global, so an ended track the globals agree on has one.  Exact mode neither
truncates nor archives.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bernoulli, estimate, gaussseq
from .association import build_cost_matrix, murty_kbest, scan_weight_tables
from .density import (
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    archive_ended,
    normalize,
    prune,
)
from .models import BirthModel, SensorModel, SurvivalModel, birth_intensity_at
from .trajectory import TimeWindow, TrajectoryMixture

__all__ = ["TrackerConfig", "TrackerState", "PmbmTracker", "RunResult"]

# relative weight below which an updated mixture component is dropped,
# except in exact mode
NEW_COMPONENT_THRESHOLD = 1e-3


@dataclass(frozen=True)
class TrackerConfig:
    # total child hypotheses per scan, split across prior globals by weight;
    # None enumerates every association of every prior global and prunes
    # nothing (exact mode)
    murty_budget: Optional[int] = 100
    thresholds: PruneThresholds = field(default_factory=PruneThresholds)
    backend: str = "info"  # moment | info | lscan
    L: int = 1

    def __post_init__(self):
        if self.murty_budget is not None and self.murty_budget < 1:
            raise ValueError(f"Murty budget {self.murty_budget} below 1")
        if self.backend not in ("moment", "info", "lscan"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.L < 1:
            raise ValueError(f"L-scan depth {self.L} below 1")


@dataclass(frozen=True)
class TrackerState:
    density: PmbmDensity
    k: int
    next_track_id: int = 0


@dataclass(frozen=True)
class RunResult:
    estimates: tuple  # per scan, a tuple of Trajectory
    final_state: TrackerState
    cycle_times: tuple  # seconds per predict+update+estimate cycle


class PmbmTracker:
    """Recursion driver binding the models, mode, and configuration."""

    def __init__(
        self,
        model: gaussseq.ModelLG,
        birth: BirthModel,
        sensor: SensorModel,
        survival: SurvivalModel,
        mode: str = "all",
        config: TrackerConfig = TrackerConfig(),
    ):
        if mode not in ("all", "current"):
            raise ValueError(f"unknown mode {mode!r}")
        for c in birth.components:
            if c.mean.shape != (model.nx,) or c.cov.shape != (model.nx, model.nx):
                raise ValueError(f"birth component of dimension {c.mean.size} for a {model.nx}-dimensional state")
        self.model = model
        self.birth = birth
        self.sensor = sensor
        self.survival = survival
        self.mode = mode
        self.config = config

    # -- construction -----------------------------------------------------

    def initial(self) -> TrackerState:
        """Predicted state at scan 0: births only, empty track table."""
        density = PmbmDensity(
            ppp=birth_intensity_at(self.birth, 0, self.config.backend, self.config.L),
            tracks=(),
            global_hyps=(GlobalHypothesis(0.0, ()),),
            window=TimeWindow(0, 0),
            mode=self.mode,
        )
        return TrackerState(density, 0)

    # -- prediction --------------------------------------------------------

    def predict(self, s: TrackerState) -> TrackerState:
        """Extend every component alive at the previous scan.  In
        all-trajectories mode its death-time pmf splits between ending there
        and surviving, and track counts, weights and existence probabilities
        are unchanged; in current-trajectories mode existence and Poisson
        weights scale by survival instead.

        In all-trajectories mode, except in exact mode, a component whose
        surviving mass r * weight * alive mass * ps falls below
        ``thresholds.bern_r`` ends at the previous scan instead: it stays
        the frozen spectator it then is.  A track left with one hypothesis
        and no trajectory alive at the new scan moves to the density's
        archive (:func:`density.archive_ended`).  An ended track with more
        hypotheses stays live, gating nothing and adding no row to the cost
        matrices, until the update keeps only children that agree on it.
        """
        mode = self.mode
        if s.density.mode != mode:
            raise ValueError(f"density is not in {mode}-trajectories mode")
        k = s.k + 1
        ps = self.survival.ps
        scale = ps if mode == "current" else 1.0  # survival of existence and Poisson weights
        shared = {}  # what the predicted components share (see bernoulli)
        ppp = tuple(bernoulli.predict_component(c, self.model, ps, k, mode, shared) for c in s.density.ppp.components)
        if scale != 1.0:
            ppp = tuple(replace(c, weight=c.weight * scale) for c in ppp)
        births = birth_intensity_at(self.birth, k, self.config.backend, self.config.L)
        # exact mode stays the reference recursion: it neither truncates
        # nor archives
        freeze = mode == "all" and self.config.murty_budget is not None
        end_below = self.config.thresholds.bern_r if freeze else 0.0
        tracks, ended = [], {}
        for t in s.density.tracks:
            hyps = tuple(self._predict_hypothesis(h, k, end_below, shared) for h in t.hypotheses)
            if freeze and len(hyps) == 1 and not hyps[0].alive_at(k):
                ended[t.id] = hyps[0]
            else:
                tracks.append(Track(t.id, hyps))
        ppp = TrajectoryMixture(ppp + births.components, "intensity")
        density = replace(s.density, ppp=ppp, tracks=tuple(tracks), window=TimeWindow(0, k))
        return TrackerState(archive_ended(density, ended), k, s.next_track_id)

    def _predict_hypothesis(self, h, k: int, end_below: float, shared: dict):
        """One local hypothesis at scan k, with the components whose
        surviving mass falls below ``end_below`` ended at k - 1."""
        if h.r == 0.0 or h.density is None:
            return h
        ps, mode = self.survival.ps, self.mode
        comps = tuple(
            c
            if h.r * c.weight * c.alive_mass(k - 1) * ps < end_below
            else bernoulli.predict_component(c, self.model, ps, k, mode, shared)
            for c in h.density.components
        )
        r = h.r * ps if mode == "current" else h.r
        return LocalHypothesis(r, TrajectoryMixture(comps, h.density.kind), h.history)

    # -- update -------------------------------------------------------------

    def update(self, s: TrackerState, scan) -> TrackerState:
        """Joint measurement update of one scan (a list of measurements).

        Except in exact mode, the children within ``thresholds.global_w`` of
        the best, at most ``thresholds.cap_M`` of them, are kept before any
        hypothesis is built; each track holds only the hypotheses they choose.

        An empty scan is informative (it applies the missed-detection
        update); use ``scan=None`` in :meth:`run` logs for steps with no data.
        A measurement that is not a finite vector of the sensor's dimension
        raises ValueError.
        """
        if scan is None:
            raise ValueError("update requires a scan; skip the step for missing data")
        scan = [np.asarray(z, dtype=float).reshape(-1) for z in scan]
        nz = self.model.nz
        for j, z in enumerate(scan):
            if z.size != nz:
                raise ValueError(f"scan {s.k}: measurement {j} has {z.size} coordinates, the sensor measures {nz}")
        if any(not np.all(np.isfinite(z)) for z in scan):
            raise ValueError("scan contains non-finite coordinates")
        p = s.density
        k = s.k
        m = len(scan)
        tables = scan_weight_tables(p, scan, self.model, self.sensor)
        miss_log, det_log, new_log = tables.miss_log, tables.det_log, tables.new_log
        track_ids = [t.id for t in p.tracks]

        # enumerate children of every prior global on its reduced problem
        weights = np.array([g.log_weight for g in p.global_hyps])
        weights = np.exp(weights - weights.max()) if len(weights) else weights
        weights = weights / weights.sum() if len(weights) else weights
        # children further than the global floor below their global's best
        # would be dropped right away, so stop enumerating there
        exact = self.config.murty_budget is None
        new_threshold = 0.0 if exact else NEW_COMPONENT_THRESHOLD
        gap = None if exact else -math.log(self.config.thresholds.global_w)
        chosen_children = []  # (child log weight, prior choice dict, {tid: j}, new js)
        for g, w in zip(p.global_hyps, weights):
            budget = sys.maxsize if exact else max(1, math.ceil(w * self.config.murty_budget))
            cm = build_cost_matrix(p, g, tables)
            if not math.isfinite(cm.base):
                continue  # some measurement is impossible under this global
            try:
                assignments = murty_kbest(cm.matrix, budget, max_gap=gap)
            except ValueError:
                continue  # no feasible association under this global
            chosen = cm.chosen
            for a in assignments:
                detected = {}
                new_js = list(cm.forced)
                logw = cm.base
                for c_i, row in enumerate(a.mapping):
                    j = cm.cols[c_i]
                    if row < len(cm.rows):
                        tid = cm.rows[row]
                        detected[tid] = j
                        logw += det_log[(tid, chosen[tid], j)]
                    else:
                        new_js.append(j)
                        logw += new_log[j]
                logw += sum(miss_log[(tid, chosen[tid])] for tid in cm.rows if tid not in detected)
                if math.isfinite(logw):
                    chosen_children.append((logw, chosen, detected, tuple(sorted(new_js))))
        if not chosen_children:
            raise ValueError("no feasible association for the scan")

        # the one selection of globals: a floor relative to the best child
        # and the cap, before any hypothesis is materialized
        if not exact:
            best = max(c[0] for c in chosen_children)
            floor = best + math.log(self.config.thresholds.global_w)
            chosen_children = [c for c in chosen_children if c[0] >= floor]
            chosen_children.sort(key=lambda c: (-c[0], sorted(c[2].items()), c[3]))
            chosen_children = chosen_children[: self.config.thresholds.cap_M]

        # materialize each track's distinct children once, in (parent,
        # measurement) order with -1 for a miss, sharing (k, j) keys and what
        # bernoulli shares; one (track id, hypothesis index) pair object per
        # chosen child
        meas_keys, shared = [(k, j) for j in range(m)], {}
        tracks = []
        pair_of = {}
        for t in p.tracks:
            tid = t.id
            keys = sorted({(chosen[tid], detected.get(tid, -1)) for _, chosen, detected, _ in chosen_children})
            hyps = []
            for i, (parent, assoc) in enumerate(keys):
                h = t.hypotheses[parent]
                if assoc < 0:
                    child = bernoulli.miss_update(h, self.sensor.pd, k, shared)
                else:
                    liks = tables.det_liks[(tid, parent, assoc)]
                    child = bernoulli.detect_update(h, self.model, scan[assoc], meas_keys[assoc], liks, new_threshold, shared)
                hyps.append(child)
                pair_of[(tid, parent, assoc)] = (tid, i)
            tracks.append(Track(tid, tuple(hyps)))
        # the track started on j keeps its non-existence hypothesis only
        # when some kept child leaves j to another track
        starts = Counter(j for _, _, _, new_js in chosen_children for j in new_js)
        new_pairs = {}  # j -> (pair when j is left, pair when j is started)
        for j in sorted(starts):
            tid = s.next_track_id + j
            both = bernoulli.new_track_hypotheses(
                p.ppp, self.model, self.sensor, scan[j], meas_keys[j], tables.ppp_gated[j], new_threshold, shared
            )
            hyps = both if starts[j] < len(chosen_children) else both[1:]
            tracks.append(Track(tid, hyps))
            new_pairs[j] = ((tid, 0), (tid, len(hyps) - 1))

        globals_ = []
        for logw, chosen, detected, new_js in chosen_children:
            choice = [pair_of[(tid, chosen[tid], detected.get(tid, -1))] for tid in track_ids]
            for j, pairs in new_pairs.items():
                choice.append(pairs[1 if j in new_js else 0])
            globals_.append(GlobalHypothesis(logw, tuple(choice)))

        density = replace(
            p,
            ppp=bernoulli.thin_ppp(p.ppp, self.sensor.pd, k, shared),
            tracks=tuple(tracks),
            global_hyps=tuple(globals_),
            measurement_record=p.measurement_record + ((k, m),),
            retired=p.retired.union(meas_keys[j] for j in tables.unexplained) if tables.unexplained else p.retired,
        )
        density = normalize(density)
        if not exact:
            density = prune(density, self.config.thresholds)
        return TrackerState(density, k, s.next_track_id + m)

    # -- driving ------------------------------------------------------------

    def estimate(self, s: TrackerState, r_e: Optional[float] = None):
        """Trajectory set estimate; ``r_e`` defaults to 1 in all-trajectories
        mode and 0.5 in current-trajectories mode."""
        if r_e is None:
            r_e = 1.0 if self.mode == "all" else 0.5
        return estimate.extract_set(s.density, r_e)

    def run(self, scans) -> RunResult:
        """Process scans for steps 0..len(scans)-1 and extract per-step
        estimates.  ``scans[k]`` may be None for a step with no data."""
        estimates = []
        times = []
        state = self.initial()
        for k, scan in enumerate(scans):
            t0 = time.perf_counter()
            if k > 0:
                state = self.predict(state)
            if scan is not None:
                state = self.update(state, scan)
            estimates.append(self.estimate(state))
            times.append(time.perf_counter() - t0)
        return RunResult(tuple(estimates), state, tuple(times))
