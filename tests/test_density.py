import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trajpmbm
from trajpmbm import gaussseq as gs
from trajpmbm.density import (
    ArchiveBatch,
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    dump_density,
    load_density,
    normalize,
    prune,
    validate,
)
from trajpmbm.estimate import best_global
from trajpmbm.marginal import AliveQuery, marginalize_pmbm
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig, TrackerState
from trajpmbm.trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

from helpers import scalar_setup


def unit_density(b=0, e=0, mean=None):
    nu = e - b + 1
    m = np.zeros(nu) if mean is None else np.asarray(mean, float)
    seq = gs.MomentSeq(TimeWindow(b, e), m, np.eye(nu))
    return TrajectoryMixture((MixtureComponent(1.0, seq),))


def hyp(r, history=(), b=0, e=0):
    dens = unit_density(b, e) if r > 0 else None
    return LocalHypothesis(r, dens, tuple(sorted(history)))


def fixture_density(hyps_by_track, globals_, k=0, record=()):
    tracks = tuple(Track(tid, tuple(hs)) for tid, hs in hyps_by_track.items())
    return PmbmDensity(
        ppp=TrajectoryMixture((), "intensity"),
        tracks=tracks,
        global_hyps=tuple(globals_),
        window=TimeWindow(0, k),
        mode="all",
        measurement_record=record,
    )


class TestNormalize:
    def test_symmetric_pair(self):
        p = fixture_density({}, [GlobalHypothesis(0.0, ()), GlobalHypothesis(0.0, ())])
        out = normalize(p)
        assert [g.log_weight for g in out.global_hyps] == pytest.approx([math.log(0.5)] * 2)

    def test_ratio_preserved(self):
        p = fixture_density({}, [GlobalHypothesis(math.log(3), ()), GlobalHypothesis(math.log(1), ())])
        out = normalize(p)
        assert out.global_hyps[0].log_weight == pytest.approx(math.log(0.75))
        assert out.global_hyps[1].log_weight == pytest.approx(math.log(0.25))

    def test_single_global(self):
        p = fixture_density({}, [GlobalHypothesis(-5.0, ())])
        assert normalize(p).global_hyps[0].log_weight == pytest.approx(0.0)

    def test_all_impossible_raises(self):
        p = fixture_density({}, [GlobalHypothesis(float("-inf"), ())])
        with pytest.raises(ValueError):
            normalize(p)

    def test_argmax_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ws = rng.standard_normal(5)
            p = fixture_density({}, [GlobalHypothesis(w, ()) for w in ws])
            out = normalize(p)
            assert np.argmax([g.log_weight for g in out.global_hyps]) == np.argmax(ws)


class TestPrune:
    def test_low_existence_becomes_placeholder(self):
        h_low = hyp(1e-6, {(0, 0)})
        h_ok = hyp(0.9, {(0, 0)})
        p = fixture_density(
            {0: [h_low, h_ok]},
            [GlobalHypothesis(math.log(0.4), ((0, 0),)), GlobalHypothesis(math.log(0.6), ((0, 1),))],
            record=((0, 1),),
        )
        out = prune(p, PruneThresholds(bern_r=1e-5))
        track = out.track_by_id(0)
        assert track.hypotheses[0].r == 0.0
        assert track.hypotheses[0].density is None
        assert track.hypotheses[0].history == ((0, 0),)
        assert track.hypotheses[1].r == pytest.approx(0.9)
        validate(out)

    def test_low_weight_ppp_component_dropped(self):
        seq = gs.MomentSeq(TimeWindow(0, 0), [0.0], [[1.0]])
        ppp = TrajectoryMixture(
            (MixtureComponent(1e-4, seq), MixtureComponent(0.5, seq)), "intensity"
        )
        p = PmbmDensity(ppp, (), (GlobalHypothesis(0.0, ()),), TimeWindow(0, 0), "all")
        out = prune(p, PruneThresholds(ppp_w=1e-3))
        assert [c.weight for c in out.ppp.components] == [0.5]

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            PruneThresholds(cap_M=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("global_w", 0.0),
            ("global_w", -1e-4),
            ("global_w", 1.5),
            ("global_w", math.nan),
            ("bern_r", math.nan),
            ("bern_r", -1e-5),
            ("ppp_w", math.nan),
            ("ppp_w", -1e-3),
        ],
        ids=[
            "global-zero",
            "global-negative",
            "global-above-one",
            "global-nan",
            "bern-nan",
            "bern-negative",
            "ppp-nan",
            "ppp-negative",
        ],
    )
    def test_threshold_outside_its_range_rejected(self, field, value):
        # each was accepted, then broke a run: a math domain error in the
        # first update, every global pruned, every hypothesis a placeholder,
        # or the whole Poisson intensity dropped
        with pytest.raises(ValueError):
            PruneThresholds(**{field: value})

    def test_idempotent_at_fixed_thresholds(self):
        hyps = {0: [hyp(0.9, {(0, 0)}), hyp(1e-7, {(0, 0)})]}
        p = fixture_density(
            hyps, [GlobalHypothesis(math.log(0.5), ((0, 0),)), GlobalHypothesis(math.log(0.5), ((0, 1),))]
        )
        t = PruneThresholds()
        once = prune(p, t)
        twice = prune(once, t)
        assert [g.log_weight for g in twice.global_hyps] == pytest.approx(
            [g.log_weight for g in once.global_hyps]
        )
        assert [t2.id for t2 in twice.tracks] == [t1.id for t1 in once.tracks]

    def test_all_nonexistent_track_retires_measurements(self):
        p = fixture_density(
            {0: [hyp(1e-7, {(0, 0)})], 1: [hyp(0.9, {(0, 1)})]},
            [GlobalHypothesis(0.0, ((0, 0), (1, 0)))],
            record=((0, 2),),
        )
        out = prune(p, PruneThresholds(bern_r=1e-5))
        assert [t.id for t in out.tracks] == [1]
        assert (0, 0) in out.retired
        validate(out)


class TestValidate:
    def test_detects_shared_measurement(self):
        p = fixture_density(
            {0: [hyp(0.9, {(0, 0)})], 1: [hyp(0.9, {(0, 0)})]},
            [GlobalHypothesis(0.0, ((0, 0), (1, 0)))],
        )
        with pytest.raises(AssertionError):
            validate(normalize(p))

    def test_detects_missing_coverage(self):
        p = fixture_density(
            {0: [hyp(0.9, {(0, 0)})]},
            [GlobalHypothesis(0.0, ((0, 0),))],
            record=((0, 2),),
        )
        with pytest.raises(AssertionError):
            validate(normalize(p))

    @pytest.mark.parametrize("form", [frozenset, lambda hist: hist[::-1]], ids=["set", "reversed"])
    def test_history_must_be_a_tuple_in_scan_order(self, form):
        # checked for live and archived hypotheses alike
        p = scenario1_run(scans=12)[2].density
        validate(p)

        def bad(hyps):
            return (replace(hyps[0], history=form(hyps[0].history)),) + hyps[1:]

        t = next(t for t in p.tracks if len(t.hypotheses[0].history) > 1)
        live = replace(p, tracks=tuple(Track(t.id, bad(t.hypotheses)) if u is t else u for u in p.tracks))
        i, b = next((i, b) for i, b in enumerate(p.archive) if len(b.hypotheses[0].history) > 1)
        batch = ArchiveBatch.of(b.ids, bad(b.hypotheses), b.scan)
        archived = replace(p, archive=p.archive[:i] + (batch,) + p.archive[i + 1 :])
        for q in (live, archived):
            with pytest.raises(AssertionError, match="history"):
                validate(q)

    def test_checks_run_under_optimize_flag(self):
        # python -O strips assert statements; validate must still check
        code = (
            "from trajpmbm.density import GlobalHypothesis, PmbmDensity, validate\n"
            "from trajpmbm.trajectory import TimeWindow, TrajectoryMixture\n"
            "validate(PmbmDensity(TrajectoryMixture((), 'intensity'), (), (GlobalHypothesis(-5.0, ()),),"
            " TimeWindow(0, 0), 'all'))\n"
        )
        src = str(Path(trajpmbm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert "AssertionError: global weights not normalized" in out.stderr


def dump_fixture():
    """A valid density with a deferred death-time pmf, a Poisson component and
    a second, non-existent track."""
    h = LocalHypothesis(
        0.8,
        TrajectoryMixture(
            (
                MixtureComponent(
                    1.0,
                    gs.MomentSeq(TimeWindow(0, 2), [1.0, 2.0, 3.0], np.eye(3) * 2.0),
                    ((1, 0.25), (2, 0.75)),
                ),
            )
        ),
        ((1, 0),),
    )
    return PmbmDensity(
        ppp=TrajectoryMixture(
            (MixtureComponent(0.3, gs.MomentSeq(TimeWindow(2, 2), [0.0], [[4.0]])),), "intensity"
        ),
        tracks=(Track(3, (LocalHypothesis(0.0, None, ()),)), Track(7, (h,))),
        global_hyps=(GlobalHypothesis(0.0, ((3, 0), (7, 0))),),
        window=TimeWindow(0, 2),
        mode="all",
        measurement_record=((1, 1),),
    )


def hyp7(d):
    return d["tracks"][1]["hypotheses"][0]


class TestDumpRoundTrip:
    def test_round_trip_preserves_structure(self):
        p = dump_fixture()
        q = load_density(dump_density(p))
        assert q.mode == p.mode and q.window == p.window
        assert q.measurement_record == p.measurement_record
        assert q.track_by_id(7).hypotheses[0].r == pytest.approx(0.8)
        assert q.track_by_id(7).hypotheses[0].history == ((1, 0),)
        comp = q.track_by_id(7).hypotheses[0].density.components[0]
        assert comp.eps_pmf == ((1, 0.25), (2, 0.75))
        np.testing.assert_allclose(np.asarray(comp.seq.mean), [1.0, 2.0, 3.0])
        assert q.ppp.components[0].weight == pytest.approx(0.3)

    def test_hypothesis_log_weight_key_is_ignored(self):
        # dumps of earlier versions carry a log weight on every local
        # hypothesis; association weights now live in the globals only
        d = dump_density(dump_fixture())
        for td in d["tracks"]:
            for hd in td["hypotheses"]:
                hd["log_weight"] = -1.5
        assert dump_density(load_density(d)) == dump_density(dump_fixture())

    def test_unsorted_choice_is_sorted_at_load(self):
        d = dump_density(dump_fixture())
        d["globals"][0]["choice"] = [[7, 0], [3, 0]]
        assert load_density(d).global_hyps[0].choice == ((3, 0), (7, 0))

    @pytest.mark.parametrize(
        "break_dump",
        [
            lambda d: hyp7(d)["components"][0].update(eps_pmf=[[1, 0.25], [2, 0.5]]),
            lambda d: hyp7(d)["components"][0].update(eps_pmf=[[1, 0.25], [3, 0.75]]),
            lambda d: hyp7(d)["components"][0].update(weight=0.5),
            lambda d: hyp7(d).update(r=1.5),
            lambda d: hyp7(d).update(meas_history=[[1, 0], [1, 1]]),
            lambda d: d["tracks"][1].update(hypotheses=[]),
            lambda d: d.update(mode="some"),
            lambda d: d["globals"][0].update(choice=[[3, 0], [7, -1]]),
            lambda d: d["globals"][0].update(choice=[[3, 0], [7, 5]]),
            # track 7 named twice: once with its existing hypothesis, once
            # with an added non-existence hypothesis
            lambda d: (
                d["tracks"][1]["hypotheses"].append({"r": 0.0, "meas_history": [], "components": None}),
                d["globals"][0].update(choice=[[3, 0], [7, 0], [7, 1]]),
            ),
            # a missing entry or a mistyped one is malformed as well
            lambda d: d.pop("globals"),
            lambda d: d.pop("tracks"),
            lambda d: d.pop("retired"),
            lambda d: d.pop("measurement_record"),
            lambda d: d.pop("mode"),
            lambda d: d.pop("window"),
            lambda d: d.pop("ppp"),
            lambda d: hyp7(d).pop("r"),
            lambda d: d["globals"][0].update(log_weight="heavy"),
        ],
        ids=[
            "pmf-sum",
            "eps-outside-window",
            "density-weights",
            "r-above-one",
            "two-per-scan",
            "empty-track",
            "mode",
            "choice-negative",
            "choice-past-end",
            "choice-names-a-track-twice",
            "no-globals",
            "no-tracks",
            "no-retired",
            "no-measurement-record",
            "no-mode",
            "no-window",
            "no-ppp",
            "no-r",
            "string-log-weight",
        ],
    )
    def test_malformed_dump_rejected(self, break_dump):
        d = dump_density(dump_fixture())
        break_dump(d)
        with pytest.raises(ValueError):
            load_density(d)


def info_posterior():
    """Posterior of a short information-form track run: several tracks,
    deferred death-time pmfs and windows of one to six steps."""
    tracker = scalar_setup(backend="info", exact=False)
    scans = [[[0.5]], [[1.0], [8.0]], [[1.4], [-20.0]], [], [[2.1], [9.5]], [[2.4]]]
    return tracker.run(scans).final_state.density


def components(p):
    yield from p.ppp.components
    for t in p.tracks:
        for h in t.hypotheses:
            if h.density is not None:
                yield from h.density.components


def component_dicts(d):
    yield from d["ppp"]
    for td in d["tracks"]:
        for hd in td["hypotheses"]:
            yield from hd["components"] or ()


class TestBandDump:
    def test_info_posterior_round_trips_byte_identically(self):
        p = info_posterior()
        text = json.dumps(dump_density(p))
        q = load_density(json.loads(text))
        assert json.dumps(dump_density(q)) == text
        seqs = [c.seq for c in components(q)]
        assert seqs and all(isinstance(s, gs.InfoSeq) for s in seqs)
        assert any(s.window.length > 1 for s in seqs)
        for a, b in zip(components(p), components(q)):
            for x, y in zip(a.seq.band() + a.seq.last_moments(), b.seq.band() + b.seq.last_moments()):
                assert np.array_equal(x, y)

    def test_earlier_dense_format_loads_with_the_same_moments(self):
        p = info_posterior()
        d = dump_density(p)
        for c, cd in zip(components(p), component_dicts(d)):
            for name in ("ivec", "diag", "off", "last_mean", "last_cov"):
                del cd[name]
            m = gs.to_moment(c.seq)
            cd["mean"], cd["cov"] = np.asarray(m.mean).tolist(), np.asarray(m.cov).tolist()
        q = load_density(json.loads(json.dumps(d)))
        for c, cq in zip(components(p), components(q)):
            assert isinstance(cq.seq, gs.MomentSeq)
            m = gs.to_moment(c.seq)
            assert np.array_equal(cq.seq.mean, m.mean) and np.array_equal(cq.seq.cov, m.cov)

    @pytest.mark.parametrize(
        "break_band",
        [
            lambda cd: cd.update(diag=cd["diag"][:-1]),
            lambda cd: cd.update(off=cd["off"][:-1]),
            lambda cd: cd.update(ivec=cd["ivec"][:-1]),
            lambda cd: cd.update(last_cov=[[1.0, 0.0], [0.0, 1.0]]),
            lambda cd: cd.update(last_cov=cd["last_cov"][0]),
            # a missing or non-finite entry is malformed as well
            lambda cd: cd.pop("last_cov"),
            lambda cd: cd.pop("ivec"),
            lambda cd: cd.update(last_cov=[[math.nan]]),
            lambda cd: cd.update(last_mean=[math.inf]),
            lambda cd: cd.update(ivec=[math.nan] + cd["ivec"][1:]),
            lambda cd: cd.update(off=[[[-math.inf]]] + cd["off"][1:]),
        ],
        ids=[
            "diag-blocks",
            "off-blocks",
            "ivec-length",
            "last-cov-2x2",
            "last-cov-flat",
            "no-last-cov",
            "no-ivec",
            "nan-last-cov",
            "inf-last-mean",
            "nan-ivec",
            "inf-off",
        ],
    )
    def test_band_that_does_not_fit_its_window_rejected(self, break_band):
        d = dump_density(info_posterior())
        cd = next(cd for cd in component_dicts(d) if len(cd["diag"]) > 1)
        break_band(cd)
        with pytest.raises(ValueError):
            load_density(d)


def lscan_posterior():
    """Posterior of a short L-scan (L=2) track run: windows up to six steps,
    so most components carry detached blocks."""
    tracker = scalar_setup(backend="lscan", exact=False, L=2)
    scans = [[[0.5]], [[1.0], [8.0]], [[1.4], [-20.0]], [], [[2.1], [9.5]], [[2.4]]]
    return tracker.run(scans).final_state.density


def _dense_longer_than_L(cd):
    # the last detached block moves back into the dense covariance, which
    # then spans L + 1 steps and still fits the window
    block, n = cd["old_blocks"].pop(), len(cd["cov"])
    cd["cov"] = [block[0] + [0.0] * n] + [[0.0] + row for row in cd["cov"]]


class TestLScanDump:
    def test_resumed_run_matches_the_uninterrupted_one(self):
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "scenario1.json")
        scans = generate_scenario(cfg)[1]
        tracker = PmbmTracker(
            cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all", config=TrackerConfig(backend="lscan", L=3)
        )
        state = tracker.run(scans[:20]).final_state
        reloaded = load_density(json.loads(json.dumps(dump_density(state.density))))
        assert all(c.seq.L == 3 for c in components(reloaded))
        runs = []
        for start in (state, TrackerState(reloaded, state.k, state.next_track_id)):
            s, estimates = start, []
            for k in range(20, 30):
                s = tracker.update(tracker.predict(s), scans[k])
                estimates.append(tracker.estimate(s))
            runs.append((repr(estimates), json.dumps(dump_density(s.density))))
        assert runs[0] == runs[1]

    def test_lscan_posterior_round_trips_byte_identically(self):
        text = json.dumps(dump_density(lscan_posterior()))
        q = load_density(json.loads(text))
        assert json.dumps(dump_density(q)) == text
        assert all(c.seq.L == 2 for c in components(q))
        assert any(len(c.seq.old_blocks) for c in components(q))

    @pytest.mark.parametrize(
        "break_dense",
        [
            lambda cd: cd.update(cov=[row + [0.0] for row in cd["cov"]] + [[0.0] * (len(cd["cov"]) + 1)]),
            lambda cd: cd.update(old_blocks=cd["old_blocks"][1:]),
            _dense_longer_than_L,
            lambda cd: cd.update(L=0),
            lambda cd: cd.pop("L"),
            # a missing or non-finite entry is malformed as well
            lambda cd: cd.pop("cov"),
            lambda cd: cd.pop("mean"),
            lambda cd: cd.update(mean=[math.nan] + cd["mean"][1:]),
            lambda cd: cd.update(cov=[[math.inf] * len(row) for row in cd["cov"]]),
            lambda cd: cd.update(old_blocks=[[[math.nan]]] + cd["old_blocks"][1:]),
            lambda cd: cd.update(L=math.inf),
        ],
        ids=[
            "mean-cov-size",
            "blocks-do-not-cover",
            "dense-longer-than-L",
            "L-below-one",
            "blocks-without-L",
            "no-cov",
            "no-mean",
            "nan-mean",
            "inf-cov",
            "nan-old-block",
            "inf-L",
        ],
    )
    def test_dense_dump_that_does_not_fit_its_window_rejected(self, break_dense):
        d = dump_density(lscan_posterior())
        cd = next(cd for cd in component_dicts(d) if cd["old_blocks"])
        break_dense(cd)
        with pytest.raises(ValueError):
            load_density(d)


def scenario1_run(backend="info", L=1, scans=20):
    """Tracker, scans and the all-mode posterior after ``scans`` scans of
    ``configs/scenario1.json``, whose archive by then holds hundreds of
    tracks."""
    cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "scenario1.json")
    log = generate_scenario(cfg)[1]
    tracker = PmbmTracker(
        cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all", config=TrackerConfig(backend=backend, L=L)
    )
    return tracker, log, tracker.run(log[:scans]).final_state


def exact_estimates(estimates) -> list:
    return [[(t.beta, t.epsilon, t.states.tolist()) for t in est] for est in estimates]


class TestArchive:
    @pytest.mark.parametrize("backend,L", [("info", 1), ("moment", 1), ("lscan", 3)])
    def test_resumed_run_matches_the_uninterrupted_one(self, backend, L):
        tracker, scans, state = scenario1_run(backend, L)
        assert state.density.archive
        reloaded = load_density(json.loads(json.dumps(dump_density(state.density))))
        runs = []
        for start in (state, TrackerState(reloaded, state.k, state.next_track_id)):
            s, estimates = start, []
            for k in range(20, 30):
                s = tracker.update(tracker.predict(s), scans[k])
                estimates.append(tracker.estimate(s))
            runs.append((exact_estimates(estimates), json.dumps(dump_density(s.density))))
        assert runs[0] == runs[1]

    def test_archived_tracks_are_dumped_into_the_track_table(self):
        p = scenario1_run()[2].density
        archived = {t.id for t in p.archived_tracks()}
        d = dump_density(p)
        ids = [td["id"] for td in d["tracks"]]
        assert ids == sorted(ids) and set(ids) == archived | {t.id for t in p.tracks}
        assert all([tid for tid, _ in gd["choice"]] == ids for gd in d["globals"])
        q = load_density(json.loads(json.dumps(d)))
        assert q.archive == () and json.dumps(dump_density(q)) == json.dumps(d)

    def test_window_query_reads_the_archive(self):
        tracker, _, state = scenario1_run()
        p = state.density
        folded = load_density(json.loads(json.dumps(dump_density(p))))
        archived = {t.id for t in p.archived_tracks()}
        for kq in (5, 12, state.k):
            q = AliveQuery(0, kq, kq, kq)
            got = marginalize_pmbm(p, q)
            assert json.dumps(dump_density(got)) == json.dumps(dump_density(marginalize_pmbm(folded, q)))
            alive_archived = [
                h for t in got.archived_tracks() if t.id in archived for h in t.hypotheses if h.r > 0.0
            ]
            assert bool(alive_archived) == (kq < state.k)

    def test_alive_hypothesis_in_the_archive_rejected(self):
        p = scenario1_run(scans=12)[2].density
        k, g = p.window.gamma, best_global(p)
        tid, hidx = next((tid, h) for tid, h in g.choice if p.track_by_id(tid).hypotheses[h].alive_at(k))
        only_g = replace(p, global_hyps=(GlobalHypothesis(0.0, g.choice),))
        validate(only_g)
        planted = replace(
            only_g,
            tracks=tuple(t for t in p.tracks if t.id != tid),
            global_hyps=(GlobalHypothesis(0.0, tuple(c for c in g.choice if c[0] != tid)),),
            archive=p.archive + (ArchiveBatch.of((tid,), (p.track_by_id(tid).hypotheses[hidx],), k),),
        )
        with pytest.raises(AssertionError, match=f"archived track {tid} alive at scan {k}"):
            validate(planted)

    @pytest.mark.parametrize("alpha,kq", [(0, 5), (5, 5), (3, 8), (0, 11)])
    def test_window_answer_ending_before_the_last_scan_validates(self, alpha, kq):
        # archived hypotheses alive at the answer's end are dead at their
        # batch's scan, which the answer keeps
        p = scenario1_run(scans=12)[2].density
        got = marginalize_pmbm(p, AliveQuery(alpha, kq, kq, kq))
        assert [b.scan for b in got.archive] == [b.scan for b in p.archive]
        assert any(h.alive_at(kq) for t in got.archived_tracks() for h in t.hypotheses) == (kq < p.window.gamma)
        validate(got)

    def test_every_dumped_track_exists_under_some_global(self):
        d = dump_density(scenario1_run(scans=30)[2].density)
        r = {(td["id"], i): hd["r"] for td in d["tracks"] for i, hd in enumerate(td["hypotheses"])}
        existing = {tid for gd in d["globals"] for tid, h in gd["choice"] if r[(tid, h)] > 0.0}
        assert existing == {td["id"] for td in d["tracks"]}

    def test_best_global_breaks_ties_as_the_dumped_choice_maps(self):
        p = scenario1_run(scans=12)[2].density
        assert p.archive and len(p.global_hyps) > 2
        tied = replace(p, global_hyps=tuple(GlobalHypothesis(0.0, g.choice) for g in p.global_hyps))
        dumped = [gd["choice"] for gd in dump_density(tied)["globals"]]
        for i in range(len(dumped)):  # every suffix: each global in turn is the smallest left
            rest = replace(tied, global_hyps=tied.global_hyps[i:])
            assert best_global(rest) is tied.global_hyps[i + dumped[i:].index(min(dumped[i:]))]


class TestOneScanShares:
    """The children of one scan hold each equal value once, and a
    hypothesis keeps its measurement history as a tuple."""

    def test_children_of_one_scan_share_steps_pmfs_and_keys(self):
        tracker, scans, state = scenario1_run(scans=12)
        s = tracker.update(tracker.predict(state), scans[12])
        k, p = s.k, s.density
        hyps = [h for t in p.tracks for h in t.hypotheses]
        detected = [h for h in hyps if h.history and h.history[-1][0] == k and h.density is not None]
        assert len({h.history[-1] for h in detected}) < len(detected)
        heads, keys, pmfs = {}, {}, {}
        for h in detected:
            assert keys.setdefault(h.history[-1], h.history[-1]) is h.history[-1]
            for c in h.density.components:  # updated at k: equal last steps are one array
                assert heads.setdefault(c.seq.head.tobytes(), c.seq.head) is c.seq.head
        assert len(heads) < sum(len(h.density.components) for h in detected)
        alive = [c for h in hyps if h.density for c in h.density.components] + list(p.ppp.components)
        alive = [c for c in alive if c.eps_pmf is not None and c.alive_mass(k) > 0.0]
        for c in alive:  # written at k by the prediction or the miss update
            assert pmfs.setdefault(c.eps_pmf, c.eps_pmf) is c.eps_pmf
        assert len(pmfs) < len(alive)
        assert all(type(h.history) is tuple and list(h.history) == sorted(h.history) for h in hyps)
