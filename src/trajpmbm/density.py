"""PMBM posterior container and its maintenance operations.

The posterior over the set of trajectories is a Poisson intensity for
never-detected trajectories plus a track table.  Each track holds local
(single-trajectory) hypotheses; a global hypothesis picks one local
hypothesis per track and carries a log weight.  Maintenance (normalization,
pruning, capping) never changes which global is best.  The constructors
only store their fields; :func:`validate` checks the invariants.
"""

from __future__ import annotations

import math
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
    "validate",
    "dump_density",
    "load_density",
]


@dataclass(frozen=True)
class LocalHypothesis:
    """One single-trajectory hypothesis of one track.

    Its association weight lives in the global hypotheses that choose it;
    ``r`` is the probability of existence; ``density`` is a
    normalized trajectory mixture (may be None when r == 0, e.g. the
    non-existence hypothesis of a new track or a pruned placeholder);
    ``meas_history`` records the (scan, measurement index) pairs this
    hypothesis has associated, at most one per scan.
    """

    r: float
    density: Optional[TrajectoryMixture]
    meas_history: frozenset


@dataclass(frozen=True)
class Track:
    id: int
    hypotheses: tuple  # non-empty tuple of LocalHypothesis


@dataclass(frozen=True)
class GlobalHypothesis:
    """One consistent choice of local hypothesis per track.

    ``choice`` is a sorted tuple of (track id, hypothesis index) pairs.
    """

    log_weight: float
    choice: tuple


@dataclass(frozen=True)
class PruneThresholds:
    ppp_w: float = 1e-3
    bern_r: float = 1e-5
    global_w: float = 1e-4
    cap_M: int = 100

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not 0.0 <= self.ppp_w < math.inf:
            raise ValueError(f"Poisson weight threshold {self.ppp_w} is not a finite weight >= 0")
        if not 0.0 <= self.bern_r <= 1.0:
            raise ValueError(f"existence threshold {self.bern_r} outside [0, 1]")
        if not 0.0 < self.global_w <= 1.0:
            raise ValueError(f"relative global weight threshold {self.global_w} outside (0, 1]")
        if self.cap_M < 1:
            raise ValueError(f"global hypothesis cap {self.cap_M} below 1")


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

    @cached_property
    def _track_index(self) -> dict:
        return {t.id: t for t in self.tracks}

    def track_by_id(self, track_id: int) -> Track:
        try:
            return self._track_index[track_id]
        except KeyError:
            raise KeyError(f"no track with id {track_id}") from None


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
    (r = 0, density dropped, history kept so referencing globals stay
    valid); drops globals below ``global_w`` relative to the best and
    beyond the cap; removes local hypotheses no longer referenced and tracks
    that are non-existent under every surviving global.  The result is
    renormalized.
    """
    # global hypotheses: relative threshold, cap, always keep the best
    if p.global_hyps:
        best = max(g.log_weight for g in p.global_hyps)
        keep = [g for g in p.global_hyps if g.log_weight - best >= np.log(thresholds.global_w)]
        keep.sort(key=lambda g: (-g.log_weight, g.choice))
        keep = keep[: thresholds.cap_M]
        globals_ = tuple(keep)
    else:
        globals_ = ()

    # Bernoulli existence threshold -> placeholder
    new_tracks = []
    for track in p.tracks:
        hyps = tuple(
            h
            if h.r >= thresholds.bern_r or h.r == 0.0
            else LocalHypothesis(0.0, None, h.meas_history)
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


def _require(ok: bool, msg: str, *args) -> None:
    """A check of :func:`validate`; unlike ``assert`` it also runs under -O."""
    if not ok:
        raise AssertionError(msg.format(*args))


def _validate_mixture(mix: TrajectoryMixture, kind: str) -> None:
    _require(mix.kind == kind, "expected a {} mixture, got {!r}", kind, mix.kind)
    if kind == "density":
        total = mix.total_weight
        _require(abs(total - 1.0) <= 1e-9, "hypothesis density weight {}", total)
    for c in mix.components:
        _require(c.weight >= 0.0, "negative mixture weight {}", c.weight)
        if c.eps_pmf is not None:
            total = sum(m for _, m in c.eps_pmf)
            _require(abs(total - 1.0) <= 1e-9, "death-time pmf sums to {}", total)
            _require(all(m > 0.0 for _, m in c.eps_pmf), "death-time pmf has a mass <= 0")
            eps = [e for e, _ in c.eps_pmf]
            ok = eps == sorted(set(eps)) and c.b <= eps[0] and eps[-1] <= c.e
            _require(ok, "death times {} not sorted, unique and in the window {}..{}", eps, c.b, c.e)


def validate(p: PmbmDensity) -> None:
    """Check every invariant of the hypothesis forest, whose constructors do
    not; raises AssertionError on violation."""
    _require(p.mode in ("all", "current"), "unknown mode {!r}", p.mode)
    _validate_mixture(p.ppp, "intensity")
    w = np.array([g.log_weight for g in p.global_hyps])
    _require(not len(w) or abs(np.exp(w).sum() - 1.0) < 1e-9, "global weights not normalized")
    ids = [t.id for t in p.tracks]
    _require(len(ids) == len(set(ids)), "duplicate track ids")
    for track in p.tracks:
        _require(len(track.hypotheses) > 0, "track {} without hypotheses", track.id)
        for h in track.hypotheses:
            _require(0.0 <= h.r <= 1.0, "existence probability {} outside [0, 1]", h.r)
            scans = [k for k, _ in h.meas_history]
            _require(len(scans) == len(set(scans)), "more than one association in a single scan")
            _require(h.r == 0.0 or h.density is not None, "existing hypothesis must carry a density")
            if h.density is not None:
                _validate_mixture(h.density, "density")
    expected = {(k, j) for k, m in p.measurement_record for j in range(m)}
    for g in p.global_hyps:
        _require(list(g.choice) == sorted(g.choice), "choice map not sorted")
        _require({tid for tid, _ in g.choice} == set(ids), "choice map does not cover the track table")
        seen: set = set()
        for tid, hidx in g.choice:
            hyps = p.track_by_id(tid).hypotheses
            _require(0 <= hidx < len(hyps), "choice names hypothesis {} of track {} with {}", hidx, tid, len(hyps))
            hist = hyps[hidx].meas_history
            _require(not (seen & hist), "measurement shared between chosen hypotheses")
            seen |= hist
        missing = expected - seen - p.retired
        _require(not missing, "measurements not covered: {}", sorted(missing)[:5])


def dump_density(p: PmbmDensity) -> dict:
    """JSON-serializable dump of the hypothesis forest.

    Each sequence density writes its own form: an information-form sequence
    its band (``ivec``, ``diag``, ``off``) and cached last-state moments
    (``last_mean``, ``last_cov``), O(length) in size; moment and L-scan
    sequences their dense ``mean`` and ``cov``.
    """

    def comp_dict(c: MixtureComponent) -> dict:
        return {
            "weight": c.weight,
            "b": c.b,
            "e": c.e,
            "eps_pmf": None if c.eps_pmf is None else [[e, m] for e, m in c.eps_pmf],
            **c.seq.dump(),
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
    """Inverse of :func:`dump_density`.

    A band is rebuilt as an information-form sequence and dense moments as a
    moment-form one, so dumps of earlier versions, which wrote every
    sequence densely, still load.  An L-scan sequence loads in moment form.
    Raises ValueError when a sequence does not fit its window or the loaded
    density fails :func:`validate`.
    """

    def comp(cd: dict) -> MixtureComponent:
        seq = gaussseq.load_seq(TimeWindow(cd["b"], cd["e"]), cd)
        eps = None if cd["eps_pmf"] is None else tuple((int(e), float(m)) for e, m in cd["eps_pmf"])
        return MixtureComponent(cd["weight"], seq, eps)

    tracks = tuple(
        Track(
            td["id"],
            tuple(
                LocalHypothesis(
                    float(hd["r"]),
                    None if hd["components"] is None else TrajectoryMixture(tuple(comp(c) for c in hd["components"])),
                    frozenset((int(k), int(j)) for k, j in hd["meas_history"]),
                )
                for hd in td["hypotheses"]
            ),
        )
        for td in d["tracks"]
    )
    p = PmbmDensity(
        ppp=TrajectoryMixture(tuple(comp(c) for c in d["ppp"]), "intensity"),
        tracks=tracks,
        global_hyps=tuple(
            GlobalHypothesis(gd["log_weight"], tuple(sorted((int(t), int(h)) for t, h in gd["choice"])))
            for gd in d["globals"]
        ),
        window=TimeWindow(*d["window"]),
        mode=d["mode"],
        measurement_record=tuple((int(k), int(m)) for k, m in d["measurement_record"]),
        retired=frozenset((int(k), int(j)) for k, j in d["retired"]),
    )
    try:
        validate(p)
    except AssertionError as exc:
        raise ValueError(f"invalid density: {exc}") from exc
    return p
