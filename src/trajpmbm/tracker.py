"""The PMBM recursion over sets of trajectories.

Two trackers share one measurement update and differ in prediction:

* all-trajectories mode keeps ended trajectories in the posterior; survival
  only governs whether a trajectory keeps extending, bookkept compactly by a
  per-component death-time pmf;
* current-trajectories mode drops ended trajectories, scaling Bernoulli
  existence and Poisson weights by the survival probability instead.

The update processes a scan jointly: per prior global hypothesis the best
children are enumerated with Murty's algorithm over a cost matrix of negative
log weight ratios, new tracks are spawned per measurement, and the result is
normalized and pruned.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bernoulli, estimate, gaussseq
from .association import build_cost_matrix, murty_kbest, scan_weight_tables
from .density import (
    GlobalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    normalize,
    prune,
    validate,
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
    validate_every_step: bool = False

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
        weights scale by survival instead."""
        mode = self.mode
        if s.density.mode != mode:
            raise ValueError(f"density is not in {mode}-trajectories mode")
        k = s.k + 1
        ps = self.survival.ps
        scale = ps if mode == "current" else 1.0  # survival of existence and Poisson weights
        ppp = bernoulli.predict_mixture(s.density.ppp, self.model, ps, k, mode).components
        if scale != 1.0:
            ppp = tuple(replace(c, weight=c.weight * scale) for c in ppp)
        births = birth_intensity_at(self.birth, k, self.config.backend, self.config.L)
        tracks = tuple(
            Track(
                t.id,
                tuple(
                    h
                    if h.r == 0.0 or h.density is None
                    else replace(
                        h, r=h.r * scale, density=bernoulli.predict_mixture(h.density, self.model, ps, k, mode)
                    )
                    for h in t.hypotheses
                ),
            )
            for t in s.density.tracks
        )
        ppp = TrajectoryMixture(ppp + births.components, "intensity")
        density = replace(s.density, ppp=ppp, tracks=tracks, window=TimeWindow(0, k))
        return TrackerState(density, k, s.next_track_id)

    # -- update -------------------------------------------------------------

    def update(self, s: TrackerState, scan) -> TrackerState:
        """Joint measurement update of one scan (a list of measurements).

        An empty scan is informative (it applies the missed-detection
        update); use ``scan=None`` in :meth:`run` logs for steps with no data.
        """
        if scan is None:
            raise ValueError("update requires a scan; skip the step for missing data")
        scan = [np.asarray(z, dtype=float).reshape(-1) for z in scan]
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
        # children further than the prune floor below their global's best
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
                        logw += det_log[(tid, chosen[tid], j)] - miss_log[(tid, chosen[tid])]
                    else:
                        new_js.append(j)
                        logw += new_log[j]
                if math.isfinite(logw):
                    chosen_children.append((logw, chosen, detected, tuple(sorted(new_js))))
        if not chosen_children:
            raise ValueError("no feasible association for the scan")

        # trim by the same relative threshold and cap that pruning would
        # apply, before materializing hypotheses
        if not exact:
            best = max(c[0] for c in chosen_children)
            floor = best + math.log(self.config.thresholds.global_w)
            chosen_children = [c for c in chosen_children if c[0] >= floor]
            chosen_children.sort(key=lambda c: (-c[0], sorted(c[2].items()), c[3]))
            chosen_children = chosen_children[: self.config.thresholds.cap_M]

        # materialize each distinct child hypothesis once
        needed = set()
        for _, chosen, detected, _ in chosen_children:
            for tid in track_ids:
                needed.add((tid, chosen[tid], detected.get(tid)))
        needed = sorted(needed, key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]))
        child_cache = {}
        for tid, parent, assoc in needed:
            h = p.track_by_id(tid).hypotheses[parent]
            if assoc is None:
                child = bernoulli.miss_update(h, self.sensor.pd, k)
            else:
                child = bernoulli.detect_update(
                    h,
                    self.model,
                    scan[assoc],
                    (k, assoc),
                    tables.det_liks[(tid, parent, assoc)],
                    new_threshold,
                )
            child_cache[(tid, parent, assoc)] = child

        realized_new = sorted({j for _, _, _, new_js in chosen_children for j in new_js})
        new_track_ids = {j: s.next_track_id + j for j in range(m)}

        # assemble the new track table and the child choice maps
        needed_by_track: dict = {}
        for key in needed:
            needed_by_track.setdefault(key[0], []).append(key)
        tracks = []
        index_of = {}
        for t in p.tracks:
            keys = needed_by_track[t.id]
            hyps = tuple(child_cache[key] for key in keys)
            index_of.update({key: i for i, key in enumerate(keys)})
            tracks.append(Track(t.id, hyps))
        for j in realized_new:
            gated = tables.ppp_gated[j]
            pair = bernoulli.new_track_hypotheses(
                p.ppp, self.model, self.sensor, scan[j], (k, j), gated, new_threshold
            )
            tracks.append(Track(new_track_ids[j], pair))

        globals_ = []
        for logw, chosen, detected, new_js in chosen_children:
            choice = [
                (tid, index_of[(tid, chosen[tid], detected.get(tid))]) for tid in track_ids
            ]
            for j in realized_new:
                choice.append((new_track_ids[j], 1 if j in new_js else 0))
            globals_.append(GlobalHypothesis(logw, tuple(choice)))

        density = replace(
            p,
            ppp=bernoulli.thin_ppp(p.ppp, self.sensor.pd, k),
            tracks=tuple(tracks),
            global_hyps=tuple(globals_),
            measurement_record=p.measurement_record + ((k, m),),
            retired=p.retired | {(k, j) for j in tables.unexplained},
        )
        density = normalize(density)
        if not exact:
            density = prune(density, self.config.thresholds)
        if self.config.validate_every_step:
            validate(density)
        return TrackerState(density, k, s.next_track_id + m)

    # -- driving ------------------------------------------------------------

    def step(self, s: TrackerState, scan) -> TrackerState:
        """Predict to the next scan time and update when data is present."""
        s = self.predict(s)
        if scan is not None:
            s = self.update(s, scan)
        return s

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
