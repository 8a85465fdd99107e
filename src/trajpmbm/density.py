"""PMBM posterior container and its maintenance operations.

The posterior over the set of trajectories is a Poisson intensity for
never-detected trajectories plus a track table.  Each track holds local
(single-trajectory) hypotheses; a global hypothesis picks one local
hypothesis per track and carries a log weight.  The tracker's update
selects the globals and builds only the local hypotheses they choose;
maintenance (normalization, pruning) never changes which global is best.
The constructors only store their fields; :func:`validate` checks the
invariants.

In all-trajectories mode a track of one hypothesis with no trajectory
alive is one fixed factor of every global, since every global chooses that
hypothesis: it leaves the live track table for an append-only archive
(:func:`archive_ended`), one packed :class:`ArchiveBatch` per scan.  Every
hypothesis is chosen by some global, so once the globals agree on an ended
track it has one hypothesis.  Normalization and pruning see only the
live table; :func:`validate` and the dump read the archive too, as tracks
of one hypothesis that every global chooses, and the dump writes them into
its track table, so the format is unchanged.
"""

from __future__ import annotations

import math
import pickle
import zlib
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, slots=True)
class LocalHypothesis:
    """One single-trajectory hypothesis of one track.

    Its association weight lives in the global hypotheses that choose it;
    ``r`` is the probability of existence; ``density`` is a
    normalized trajectory mixture (may be None when r == 0, e.g. the
    non-existence hypothesis of a new track or a pruned placeholder);
    ``history`` is the tuple of (scan, measurement index) pairs this
    hypothesis has associated, at most one per scan, in scan order.
    """

    r: float
    density: Optional[TrajectoryMixture]
    history: tuple  # 26 pairs take 248 bytes as a tuple, 1,240 as a frozenset

    def alive_at(self, k: int) -> bool:
        """Whether the hypothesis has a trajectory alive at scan k."""
        return self.r > 0.0 and self.density is not None and any(c.alive_mass(k) > 0.0 for c in self.density.components)


@dataclass(frozen=True, slots=True)
class Track:
    id: int
    hypotheses: tuple  # non-empty tuple of LocalHypothesis


@dataclass(frozen=True, slots=True)
class ArchiveBatch:
    """The tracks archived at scan ``scan``, packed, each as its one
    hypothesis, which every global chooses.

    None of these hypotheses has a trajectory alive at ``scan``, so no later
    scan changes them; a window answer keeps its source batch's ``scan``.
    They are kept as one zlib-compressed pickle, a few hundred bytes per
    track instead of the few kilobytes their objects take; :attr:`hypotheses`
    unpacks them.  ``rs`` holds each track's existence probability, and
    ``estimates`` caches the trajectory estimate of a track position once
    ``estimate.extract_set`` has computed it.
    """

    ids: tuple
    rs: tuple
    packed: bytes
    scan: int
    estimates: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, ids, hypotheses, scan: int) -> "ArchiveBatch":
        hypotheses = tuple(hypotheses)
        packed = zlib.compress(pickle.dumps(hypotheses, protocol=pickle.HIGHEST_PROTOCOL), 1)
        return cls(tuple(ids), tuple(h.r for h in hypotheses), packed, scan)

    @property
    def hypotheses(self) -> tuple:
        return pickle.loads(zlib.decompress(self.packed))


@dataclass(frozen=True, slots=True)
class GlobalHypothesis:
    """One consistent choice of local hypothesis per track.

    ``choice`` is a sorted tuple of (track id, hypothesis index) pairs over
    the live track table; every global chooses the one hypothesis of each
    archived track.
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
    tracks: tuple  # the live track table, sorted by id
    global_hyps: tuple
    window: TimeWindow
    mode: str  # "all" or "current"
    measurement_record: tuple = ()  # (scan, measurement count) per updated scan
    # measurements no global's tracks cover any more: those of removed
    # all-r=0 tracks, and those no association could explain (nothing gated
    # them and no track could start on them, e.g. outside the region); as
    # (scan, sorted measurement indices) pairs in scan order (see retire)
    retired: tuple = ()
    # append-only tuple of ArchiveBatch: all-mode tracks with no alive
    # trajectory, which the recursion no longer visits (see archive_ended)
    archive: tuple = ()

    @cached_property
    def _track_index(self) -> dict:
        return {t.id: t for t in self.tracks}

    def track_by_id(self, track_id: int) -> Track:
        """The live track of that id, as the choice maps name it; archived
        tracks are not indexed (see :meth:`archived_tracks`)."""
        t = self._track_index.get(track_id)
        if t is None:
            raise KeyError(f"no live track with id {track_id}")
        return t

    def archived_tracks(self) -> tuple:
        """Every archived track, unpacked, in archive order."""
        return tuple(Track(tid, (h,)) for b in self.archive for tid, h in zip(b.ids, b.hypotheses))


def retire(retired: tuple, keys) -> tuple:
    """``retired`` with the (scan, index) ``keys`` added.  Posteriors share
    the entries of the scans a call adds nothing to; a call that adds
    nothing returns ``retired`` itself."""
    by_scan, new = dict(retired), {}
    for k, j in keys:
        if j not in by_scan.get(k, ()):
            new.setdefault(k, set(by_scan.get(k, ()))).add(j)
    by_scan.update((k, tuple(sorted(js))) for k, js in new.items())
    return tuple(sorted(by_scan.items())) if new else retired


def _without_tracks(globals_: tuple, ids) -> tuple:
    """The globals with the tracks in ``ids`` dropped from their choice maps."""
    if not ids:
        return globals_
    return tuple(GlobalHypothesis(g.log_weight, tuple(c for c in g.choice if c[0] not in ids)) for g in globals_)


def archive_ended(p: PmbmDensity, ended: dict) -> PmbmDensity:
    """Move the ``ended`` tracks, ``{track id: hypothesis}``, which the
    caller has taken out of ``p.tracks``, to a new batch of the archive at
    scan ``p.window.gamma``, and drop their pairs from every choice map.

    The caller guarantees that each of these tracks had that one hypothesis
    and no trajectory alive at gamma.  Every global chooses a track's only
    hypothesis, so the track is the same fixed factor of every global, and
    the posterior is unchanged.
    """
    if not ended:
        return p
    return replace(
        p,
        global_hyps=_without_tracks(p.global_hyps, ended),
        archive=p.archive + (ArchiveBatch.of(ended, ended.values(), p.window.gamma),),
    )


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
    """Threshold-based reduction of the hypotheses the update kept.

    Drops Poisson components below ``ppp_w`` (absolute weight); replaces
    local hypotheses with r below ``bern_r`` by non-existence placeholders
    (r = 0, density dropped, history kept so the globals choosing them stay
    valid); removes the tracks that are non-existent under every hypothesis
    and retires their measurements.  Global weights are unchanged: the update
    has already selected and normalized the globals.
    """
    kept_tracks = []
    removed = set()
    fresh = set()  # measurements this pruning retires
    for track in p.tracks:
        hyps = tuple(
            h if h.r >= thresholds.bern_r or h.r == 0.0 else LocalHypothesis(0.0, None, h.history)
            for h in track.hypotheses
        )
        if all(h.r == 0.0 for h in hyps):
            # non-existent under every global: remove the track outright;
            # its likelihood factors stay banked in the global log weights
            removed.add(track.id)
            fresh.update(key for h in hyps for key in h.history)
            continue
        same = all(a is b for a, b in zip(hyps, track.hypotheses))
        kept_tracks.append(track if same else Track(track.id, hyps))

    ppp = TrajectoryMixture(
        tuple(c for c in p.ppp.components if c.weight >= thresholds.ppp_w), "intensity"
    )

    globals_ = _without_tracks(p.global_hyps, removed)
    return replace(p, ppp=ppp, tracks=tuple(kept_tracks), global_hyps=globals_, retired=retire(p.retired, fresh))


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
    _require(p.mode == "all" or not p.archive, "an archive in current-trajectories mode")
    archived = []
    for b in p.archive:
        hyps = b.hypotheses
        _require(len(hyps) == len(b.ids) and b.rs == tuple(h.r for h in hyps), "archived existence probabilities")
        for tid, h in zip(b.ids, hyps):
            _require(not h.alive_at(b.scan), "archived track {} alive at scan {}", tid, b.scan)
            archived.append(Track(tid, (h,)))
    ids = [t.id for t in p.tracks]
    _require(len(ids) + len(archived) == len(set(ids).union(t.id for t in archived)), "duplicate track ids")
    for track in p.tracks + tuple(archived):
        _require(len(track.hypotheses) > 0, "track {} without hypotheses", track.id)
        for h in track.hypotheses:
            _require(0.0 <= h.r <= 1.0, "existence probability {} outside [0, 1]", h.r)
            _require(type(h.history) is tuple, "history of track {} is a {}", track.id, type(h.history).__name__)
            scans = [k for k, _ in h.history]
            _require(all(a < b for a, b in zip(scans, scans[1:])), "history scans {} not increasing", scans)
            _require(h.r == 0.0 or h.density is not None, "existing hypothesis must carry a density")
            if h.density is not None:
                _validate_mixture(h.density, "density")
    expected = {(k, j) for k, m in p.measurement_record for j in range(m)}
    expected -= {(k, j) for k, js in p.retired for j in js}
    # every global chooses the one hypothesis of each archived track
    common: set = set()
    for t in archived:
        hist = t.hypotheses[0].history
        _require(common.isdisjoint(hist), "measurement shared between archived hypotheses")
        common.update(hist)
    for g in p.global_hyps:
        _require(list(g.choice) == sorted(g.choice), "choice map not sorted")
        ok = len(g.choice) == len(ids) and {tid for tid, _ in g.choice} == set(ids)
        _require(ok, "choice map does not name each live track once")
        seen = set(common)
        for tid, hidx in g.choice:
            track = p.track_by_id(tid)
            hyps = track.hypotheses
            _require(0 <= hidx < len(hyps), "choice names hypothesis {} of track {} with {}", hidx, track.id, len(hyps))
            hist = hyps[hidx].history
            _require(seen.isdisjoint(hist), "measurement shared between chosen hypotheses")
            seen.update(hist)
        missing = expected - seen
        _require(not missing, "measurements not covered: {}", sorted(missing)[:5])


def dump_density(p: PmbmDensity) -> dict:
    """JSON-serializable dump of the hypothesis forest.

    Archived tracks are written into ``tracks``, sorted by id with the live
    ones, each with its one hypothesis, which every global's choice map
    names at index 0.

    Each sequence density writes its own form: an information-form sequence
    its band (``ivec``, ``diag``, ``off``) and cached last-state moments
    (``last_mean``, ``last_cov``), O(length) in size; a moment-form sequence
    its ``mean`` and dense ``cov``, plus ``L`` and ``old_blocks`` under an
    L-scan depth.
    """

    def comp_dict(c: MixtureComponent) -> dict:
        return {
            "weight": c.weight,
            "b": c.b,
            "e": c.e,
            "eps_pmf": None if c.eps_pmf is None else [[e, m] for e, m in c.eps_pmf],
            **c.seq.dump(),
        }

    archived = p.archived_tracks()
    tracks = sorted(p.tracks + archived, key=lambda t: t.id)
    common = tuple((t.id, 0) for t in archived)
    return {
        "mode": p.mode,
        "window": [p.window.alpha, p.window.gamma],
        "measurement_record": [list(r) for r in p.measurement_record],
        "retired": [[k, j] for k, js in p.retired for j in js],
        "ppp": [comp_dict(c) for c in p.ppp.components],
        "tracks": [
            {
                "id": t.id,
                "hypotheses": [
                    {
                        "r": h.r,
                        "meas_history": sorted(list(x) for x in h.history),
                        "components": None if h.density is None else [comp_dict(c) for c in h.density.components],
                    }
                    for h in t.hypotheses
                ],
            }
            for t in tracks
        ],
        "globals": [
            {"log_weight": g.log_weight, "choice": sorted(list(c) for c in g.choice + common)} for g in p.global_hyps
        ],
    }


def load_density(d: dict) -> PmbmDensity:
    """Inverse of :func:`dump_density`.

    Every sequence is rebuilt in the form it was dumped in
    (:func:`gaussseq.load_seq`); dumps of earlier versions, which wrote every
    sequence densely, load in moment form.  Every track loads into the live
    table; the tracker's next prediction archives again the ended ones, each
    of which the dump holds with one hypothesis.
    Raises ValueError when an entry is missing or of the wrong type, a
    sequence entry is not finite, a sequence does not fit its window, or the
    loaded density fails :func:`validate`.
    """

    def comp(cd: dict) -> MixtureComponent:
        seq = gaussseq.load_seq(TimeWindow(cd["b"], cd["e"]), cd)
        eps = None if cd["eps_pmf"] is None else tuple((int(e), float(m)) for e, m in cd["eps_pmf"])
        return MixtureComponent(cd["weight"], seq, eps)

    def hyp(hd: dict) -> LocalHypothesis:
        density = None if hd["components"] is None else TrajectoryMixture(tuple(comp(c) for c in hd["components"]))
        history = tuple(sorted((int(k), int(j)) for k, j in hd["meas_history"]))
        return LocalHypothesis(float(hd["r"]), density, history)

    try:
        p = PmbmDensity(
            ppp=TrajectoryMixture(tuple(comp(c) for c in d["ppp"]), "intensity"),
            tracks=tuple(Track(td["id"], tuple(hyp(hd) for hd in td["hypotheses"])) for td in d["tracks"]),
            global_hyps=tuple(
                GlobalHypothesis(float(gd["log_weight"]), tuple(sorted((int(t), int(h)) for t, h in gd["choice"])))
                for gd in d["globals"]
            ),
            window=TimeWindow(*d["window"]),
            mode=d["mode"],
            measurement_record=tuple((int(k), int(m)) for k, m in d["measurement_record"]),
            retired=retire((), ((int(k), int(j)) for k, j in d["retired"])),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed density dump: {exc!r}") from exc
    try:
        validate(p)
    except AssertionError as exc:
        raise ValueError(f"invalid density: {exc}") from exc
    return p
