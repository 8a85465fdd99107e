"""PMBM posterior container and its maintenance operations.

The posterior over the set of trajectories is a Poisson intensity for
never-detected trajectories plus a track table.  Each track holds local
(single-trajectory) hypotheses; a global hypothesis picks one local
hypothesis per track and carries a log weight.  Maintenance (normalization,
pruning, capping) never changes which global is best.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import gaussseq
from .trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

__all__ = [
    "LocalHypothesis",
    "Track",
    "GlobalHypothesis",
    "PmbmDensity",
    "PruneThresholds",
    "normalize",
    "prune",
    "global_weight",
    "validate",
    "dump_density",
    "load_density",
]


@dataclass(frozen=True)
class LocalHypothesis:
    """One single-trajectory hypothesis of one track.

    ``log_weight`` accumulates the association likelihood factors since the
    track started; ``r`` is the probability of existence; ``density`` is a
    normalized trajectory mixture (may be None when r == 0, e.g. the
    non-existence hypothesis of a new track or a pruned placeholder);
    ``meas_history`` records the (scan, measurement index) pairs this
    hypothesis has associated, at most one per scan.
    """

    log_weight: float
    r: float
    density: Optional[TrajectoryMixture]
    meas_history: frozenset

    def __post_init__(self):
        if not -1e-9 <= self.r <= 1.0 + 1e-9:
            raise ValueError(f"existence probability {self.r} outside [0, 1]")
        object.__setattr__(self, "r", float(min(max(self.r, 0.0), 1.0)))
        object.__setattr__(self, "meas_history", frozenset(self.meas_history))
        if self.r > 0.0 and self.density is None:
            raise ValueError("existing hypothesis must carry a density")
        scans = [t for t, _ in self.meas_history]
        if len(scans) != len(set(scans)):
            raise ValueError("more than one association in a single scan")


@dataclass(frozen=True)
class Track:
    id: int
    hypotheses: tuple

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("track without hypotheses")
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))


@dataclass(frozen=True)
class GlobalHypothesis:
    """One consistent choice of local hypothesis per track.

    ``choice`` is a sorted tuple of (track id, hypothesis index) pairs.
    """

    log_weight: float
    choice: tuple

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(sorted((int(t), int(h)) for t, h in self.choice)))


@dataclass(frozen=True)
class PruneThresholds:
    ppp_w: float = 1e-3
    bern_r: float = 1e-5
    global_w: float = 1e-4
    cap_M: int = 100


@dataclass(frozen=True)
class PmbmDensity:
    ppp: TrajectoryMixture
    tracks: tuple
    global_hyps: tuple
    window: TimeWindow
    mode: str  # "all" or "current"
    measurement_record: tuple = ()  # (scan, measurement count) per updated scan
    # measurements no global's tracks cover any more: those of removed
    # all-r=0 tracks, and those no association could explain (nothing gated
    # them and no track could start on them, e.g. outside the region)
    retired: frozenset = frozenset()

    def __post_init__(self):
        if self.ppp.kind != "intensity":
            raise ValueError("undetected intensity must be an intensity mixture")
        if self.mode not in ("all", "current"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "global_hyps", tuple(self.global_hyps))
        object.__setattr__(self, "measurement_record", tuple(self.measurement_record))
        object.__setattr__(self, "retired", frozenset(self.retired))

    @cached_property
    def _track_index(self) -> dict:
        return {t.id: t for t in self.tracks}

    def track_by_id(self, track_id: int) -> Track:
        try:
            return self._track_index[track_id]
        except KeyError:
            raise KeyError(f"no track with id {track_id}") from None


def global_weight(p: PmbmDensity, g: GlobalHypothesis) -> float:
    """Unnormalized log weight: sum of the chosen local hypotheses' stored
    log weights (empty track table gives 0)."""
    chosen = dict(g.choice)
    total = 0.0
    for track in p.tracks:
        if track.id not in chosen:
            raise ValueError(f"global hypothesis does not cover track {track.id}")
        total += track.hypotheses[chosen[track.id]].log_weight
    return total


def normalize(p: PmbmDensity) -> PmbmDensity:
    """Log-sum-exp normalization of the global weights, order preserved."""
    if not p.global_hyps:
        return p
    w = np.array([g.log_weight for g in p.global_hyps])
    m = w.max()
    if not np.isfinite(m):
        raise ValueError("all global hypotheses have weight zero")
    lse = m + np.log(np.exp(w - m).sum())
    new = tuple(replace(g, log_weight=g.log_weight - lse) for g in p.global_hyps)
    return replace(p, global_hyps=new)


def prune(p: PmbmDensity, thresholds: PruneThresholds = PruneThresholds()) -> PmbmDensity:
    """Threshold-based reduction.

    Drops Poisson components below ``ppp_w`` (absolute weight); replaces
    local hypotheses with r below ``bern_r`` by non-existence placeholders
    (r = 0, density dropped, weight and history kept so referencing globals
    stay valid); drops globals below ``global_w`` relative to the best and
    beyond the cap; removes local hypotheses no longer referenced and tracks
    that are non-existent under every surviving global.  The result is
    renormalized.
    """
    # global hypotheses: relative threshold, cap, always keep the best
    if p.global_hyps:
        best = max(g.log_weight for g in p.global_hyps)
        keep = [g for g in p.global_hyps if g.log_weight - best >= np.log(thresholds.global_w)]
        keep.sort(key=lambda g: (-g.log_weight, g.choice))
        keep = keep[: max(thresholds.cap_M, 1)]
        globals_ = tuple(keep)
    else:
        globals_ = ()

    # Bernoulli existence threshold -> placeholder
    new_tracks = []
    for track in p.tracks:
        hyps = tuple(
            h
            if h.r >= thresholds.bern_r or h.r == 0.0
            else LocalHypothesis(h.log_weight, 0.0, None, h.meas_history)
            for h in track.hypotheses
        )
        new_tracks.append(Track(track.id, hyps))

    # drop unreferenced hypotheses, remap indices in the choice maps
    referenced: dict = {t.id: set() for t in new_tracks}
    for g in globals_:
        for tid, h in g.choice:
            referenced[tid].add(h)
    kept_tracks = []
    remap: dict = {}
    retired = set(p.retired)
    for track in new_tracks:
        used = sorted(referenced[track.id])
        if not used:
            continue  # orphaned track: no surviving global references it
        hyps = tuple(track.hypotheses[i] for i in used)
        if all(h.r == 0.0 for h in hyps):
            # non-existent under every global: remove the track outright;
            # its likelihood factors stay banked in the global log weights
            for h in hyps:
                retired |= h.meas_history
            continue
        remap[track.id] = {old: new for new, old in enumerate(used)}
        kept_tracks.append(Track(track.id, hyps))
    kept_ids = set(remap)
    globals_ = tuple(
        replace(g, choice=tuple((tid, remap[tid][h]) for tid, h in g.choice if tid in kept_ids))
        for g in globals_
    )

    ppp = TrajectoryMixture(
        tuple(c for c in p.ppp.components if c.weight >= thresholds.ppp_w), "intensity"
    )

    out = replace(
        p, ppp=ppp, tracks=tuple(kept_tracks), global_hyps=globals_, retired=frozenset(retired)
    )
    return normalize(out)


def validate(p: PmbmDensity) -> None:
    """Assert the structural invariants; raises AssertionError on violation."""
    w = np.array([g.log_weight for g in p.global_hyps])
    if len(w):
        assert abs(np.exp(w).sum() - 1.0) < 1e-9, "global weights not normalized"
    ids = [t.id for t in p.tracks]
    assert len(ids) == len(set(ids)), "duplicate track ids"
    for track in p.tracks:
        for h in track.hypotheses:
            if h.r > 0.0:
                assert h.density is not None
                total = h.density.total_weight
                assert abs(total - 1.0) < 1e-6, f"hypothesis density weight {total}"
    expected = {(k, j) for k, m in p.measurement_record for j in range(m)}
    for g in p.global_hyps:
        chosen = dict(g.choice)
        assert set(chosen) == set(ids), "choice map does not cover the track table"
        seen: set = set()
        for tid, hidx in g.choice:
            hist = p.track_by_id(tid).hypotheses[hidx].meas_history
            assert not (seen & hist), "measurement shared between chosen hypotheses"
            seen |= hist
        if expected:
            missing = expected - seen - p.retired
            assert not missing, f"measurements not covered: {sorted(missing)[:5]}"


def dump_density(p: PmbmDensity) -> dict:
    """JSON-serializable dump of the hypothesis forest.

    Sequence densities are emitted in moment form regardless of backend.
    """

    def comp_dict(c: MixtureComponent) -> dict:
        s = gaussseq.to_moment(c.seq)
        return {
            "weight": c.weight,
            "b": c.b,
            "e": c.e,
            "eps_pmf": None if c.eps_pmf is None else [[e, m] for e, m in c.eps_pmf],
            "mean": np.asarray(s.mean).tolist(),
            "cov": np.asarray(s.cov).tolist(),
        }

    return {
        "mode": p.mode,
        "window": [p.window.alpha, p.window.gamma],
        "measurement_record": [list(r) for r in p.measurement_record],
        "retired": sorted(list(x) for x in p.retired),
        "ppp": [comp_dict(c) for c in p.ppp.components],
        "tracks": [
            {
                "id": t.id,
                "hypotheses": [
                    {
                        "log_weight": h.log_weight,
                        "r": h.r,
                        "meas_history": sorted(list(x) for x in h.meas_history),
                        "components": None if h.density is None else [comp_dict(c) for c in h.density.components],
                    }
                    for h in t.hypotheses
                ],
            }
            for t in p.tracks
        ],
        "globals": [
            {"log_weight": g.log_weight, "choice": [list(c) for c in g.choice]}
            for g in p.global_hyps
        ],
    }


def load_density(d: dict) -> PmbmDensity:
    """Inverse of :func:`dump_density` (moment-form sequence densities)."""

    def comp(cd: dict) -> MixtureComponent:
        seq = gaussseq.MomentSeq(TimeWindow(cd["b"], cd["e"]), np.array(cd["mean"]), np.array(cd["cov"]))
        eps = None if cd["eps_pmf"] is None else tuple((int(e), float(m)) for e, m in cd["eps_pmf"])
        return MixtureComponent(cd["weight"], seq, eps)

    tracks = tuple(
        Track(
            td["id"],
            tuple(
                LocalHypothesis(
                    hd["log_weight"],
                    hd["r"],
                    None if hd["components"] is None else TrajectoryMixture(tuple(comp(c) for c in hd["components"])),
                    frozenset((int(k), int(j)) for k, j in hd["meas_history"]),
                )
                for hd in td["hypotheses"]
            ),
        )
        for td in d["tracks"]
    )
    return PmbmDensity(
        ppp=TrajectoryMixture(tuple(comp(c) for c in d["ppp"]), "intensity"),
        tracks=tracks,
        global_hyps=tuple(
            GlobalHypothesis(gd["log_weight"], tuple((t, h) for t, h in gd["choice"])) for gd in d["globals"]
        ),
        window=TimeWindow(*d["window"]),
        mode=d["mode"],
        measurement_record=tuple((int(k), int(m)) for k, m in d["measurement_record"]),
        retired=frozenset((int(k), int(j)) for k, j in d["retired"]),
    )
