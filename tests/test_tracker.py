import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajpmbm import bernoulli
from trajpmbm import gaussseq as gs
from trajpmbm.association import build_cost_matrix, scan_weight_tables
from trajpmbm.density import (
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    dump_density,
    load_density,
    prune,
    validate,
)
from trajpmbm.marginal import AliveQuery, marginalize_pmbm
from trajpmbm.models import (
    BirthComponent,
    BirthModel,
    Rectangle,
    SensorModel,
    SurvivalModel,
    birth_intensity_at,
    constant_velocity_model,
)
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig, TrackerState
from trajpmbm.trajectory import (
    MixtureComponent,
    TimeWindow,
    TrajectoryMixture,
    birth_death_pmf,
    materialize_mixture,
)

from helpers import (
    SCALAR_REGION,
    assert_tables_match,
    epsilon_bookkeeping,
    epsilon_marginal,
    scalar_setup,
    tracker_global_table,
)
from oracles import OracleTracker, PointPmbmOracle, epsilon_pmf_closed, predictive_likelihood


def single_track_state(tracker, r, k, mean, var, history=frozenset({(0, 0)})):
    """Tracker state with one track and a fresh birth intensity at step k."""
    seq = gs.make_seq(tracker.config.backend, TimeWindow(0, k), mean, var)
    hyp = LocalHypothesis(r, TrajectoryMixture((MixtureComponent(1.0, seq),)), history)
    density = PmbmDensity(
        ppp=birth_intensity_at(tracker.birth, k, tracker.config.backend),
        tracks=(Track(0, (hyp,)),),
        global_hyps=(GlobalHypothesis(0.0, ((0, 0),)),),
        window=TimeWindow(0, k),
        mode=tracker.mode,
    )
    return TrackerState(density, k, next_track_id=1)


class TestPredictAll:
    def test_survival_split_weights(self):
        tracker = scalar_setup(ps=0.9, mode="all")
        state = single_track_state(tracker, r=0.8, k=2, mean=[1.0, 1.0, 1.0], var=np.eye(3))
        out = tracker.predict(state)
        h = out.density.track_by_id(0).hypotheses[0]
        assert h.r == pytest.approx(0.8)
        mat = materialize_mixture(h.density)
        by_e = {c.e: c.weight for c in mat.components}
        assert by_e == pytest.approx({2: 0.1, 3: 0.9})

    def test_certain_survival_keeps_single_component(self):
        tracker = scalar_setup(ps=1.0, mode="all")
        state = single_track_state(tracker, r=0.8, k=1, mean=[0.0, 0.0], var=np.eye(2))
        out = tracker.predict(state)
        mat = materialize_mixture(out.density.track_by_id(0).hypotheses[0].density)
        assert [(c.b, c.e) for c in mat.components] == [(0, 2)]

    def test_stale_component_passes_through_bit_identical(self):
        tracker = scalar_setup(mode="all")
        seq = gs.make_seq("moment", TimeWindow(0, 1), [0.0, 0.0], np.eye(2))
        comp = MixtureComponent(1.0, seq, ((0, 0.6), (1, 0.4)))
        hyp = LocalHypothesis(0.7, TrajectoryMixture((comp,)), frozenset({(0, 0)}))
        density = PmbmDensity(
            ppp=TrajectoryMixture((), "intensity"),
            tracks=(Track(0, (hyp,)),),
            global_hyps=(GlobalHypothesis(0.0, ((0, 0),)),),
            window=TimeWindow(0, 4),
            mode="all",
        )
        out = tracker.predict(TrackerState(density, 4, 1))
        assert out.density.track_by_id(0).hypotheses[0].density.components[0] is comp

    def test_ppp_grows_birth_components(self):
        tracker = scalar_setup(mode="all")
        s0 = tracker.initial()
        s1 = tracker.predict(s0)
        assert len(s1.density.ppp.components) == 2
        assert {c.b for c in s1.density.ppp.components} == {0, 1}


class TestTruncation:
    """All mode ends a component's surviving tail at the previous scan once
    r * weight * alive mass * ps falls below ``bern_r`` and archives a
    track left with no trajectory alive once pruning leaves it one
    hypothesis; exact mode and ``bern_r = 0`` keep every tail."""

    SCANS = [[[0.4]], [[0.9], [6.0]], [], [[2.1]], [[2.9], [-4.0]], [], [], [[3.5]], []]

    def run(self, tracker, check):
        state = tracker.initial()
        for k, scan in enumerate(self.SCANS):
            if k:
                prev, state = state, tracker.predict(state)
                check(prev.density, state.density, k)
            state = tracker.update(state, scan)
        return state

    @pytest.mark.parametrize("exact,bern_r", [(True, 1e-5), (False, 0.0)], ids=["exact", "bern_r-0"])
    def test_every_tail_kept(self, exact, bern_r):
        tracker = scalar_setup(
            ps=0.3, pd=0.95, clutter_rate=0.5, backend="info", exact=exact, thresholds=PruneThresholds(bern_r=bern_r)
        )
        extended = []

        def check(prev, now, k):
            assert now.archive == ()
            assert [t.id for t in now.tracks] == [t.id for t in prev.tracks]
            for t_prev, t in zip(prev.tracks, now.tracks):
                for h_prev, h in zip(t_prev.hypotheses, t.hypotheses):
                    if h_prev.r == 0.0 or h_prev.density is None:
                        continue
                    for c_prev, c in zip(h_prev.density.components, h.density.components):
                        if c_prev.alive_mass(k - 1) > 0.0:
                            assert c.alive_mass(k) > 0.0
                            extended.append(h.r * c.weight * c_prev.alive_mass(k - 1) * 0.3)

        self.run(tracker, check)
        # the run has tails the default threshold would have ended
        assert min(extended) < PruneThresholds().bern_r

    def test_default_threshold_ends_tails_and_archives(self):
        # under the default global threshold of 1e-4, 23 globals still
        # disagree on every ended track at the last scan, so all of them stay
        # live; a threshold of 0.05 prunes the weak associations, and the
        # globals agree on ended tracks from scan 5 on
        tracker = scalar_setup(
            ps=0.3, pd=0.95, clutter_rate=0.5, backend="info", exact=False, thresholds=PruneThresholds(global_w=0.05)
        )
        archived = []

        def check(prev, now, k):
            archived.extend(t.id for t in now.archived_tracks())
            validate(now)
            # a live track with no trajectory alive is one the globals disagree on
            for t in now.tracks:
                if not any(h.alive_at(k) for h in t.hypotheses):
                    assert len({h for g in now.global_hyps for tid, h in g.choice if tid == t.id}) > 1

        state = self.run(tracker, check)
        assert archived
        # an archived track keeps the one hypothesis that every global
        # chooses: the posterior still accounts for it
        p = state.density
        d = dump_density(p)
        n_hyps = {td["id"]: len(td["hypotheses"]) for td in d["tracks"]}
        assert p.archive and all(n_hyps[tid] == 1 for b in p.archive for tid in b.ids)
        common = {(tid, 0) for b in p.archive for tid in b.ids}
        assert all(common <= {tuple(c) for c in gd["choice"]} for gd in d["globals"])

    def test_dead_track_stays_live_until_the_globals_agree(self):
        tracker = scalar_setup(ps=0.9, mode="all", exact=False)
        seq = gs.make_seq(tracker.config.backend, TimeWindow(0, 1), [0.0, 1.0], np.eye(2))
        # both hypotheses ended at scan 1: frozen from scan 2 on
        hyps = tuple(
            LocalHypothesis(r, TrajectoryMixture((MixtureComponent(1.0, seq),)), frozenset({(j, 0)}))
            for r, j in ((0.6, 0), (0.9, 1))
        )
        disagree = PmbmDensity(
            ppp=birth_intensity_at(tracker.birth, 2, tracker.config.backend),
            tracks=(Track(0, hyps),),
            global_hyps=(GlobalHypothesis(math.log(0.3), ((0, 0),)), GlobalHypothesis(math.log(0.7), ((0, 1),))),
            window=TimeWindow(0, 2),
            mode="all",
        )
        out = tracker.predict(TrackerState(disagree, 2, 1)).density
        validate(out)
        assert out.archive == () and [t.id for t in out.tracks] == [0]
        assert all(
            c is c0
            for h, h0 in zip(out.tracks[0].hypotheses, hyps)
            for c, c0 in zip(h.density.components, h0.density.components)
        )
        tables = scan_weight_tables(out, [np.array([1.0])], tracker.model, tracker.sensor)
        assert all(build_cost_matrix(out, g, tables).rows == () for g in out.global_hyps)

        agree = replace(out, global_hyps=(GlobalHypothesis(0.0, ((0, 1),)),))
        # hypothesis 0, which no global chooses, keeps the track live until
        # pruning drops it
        held = tracker.predict(TrackerState(agree, 3, 1)).density
        validate(held)
        assert held.archive == () and [len(t.hypotheses) for t in held.tracks] == [2]
        agree = prune(agree, tracker.config.thresholds)
        assert [len(t.hypotheses) for t in agree.tracks] == [1]
        out = tracker.predict(TrackerState(agree, 3, 1)).density
        validate(out)
        assert out.tracks == () and out.global_hyps[0].choice == ()
        assert [(b.ids, b.rs, b.scan) for b in out.archive] == [((0,), (0.9,), 4)]
        (h,) = out.archive[0].hypotheses
        assert (h.r, h.meas_history, h.density.components[0].e) == (0.9, frozenset({(1, 0)}), 1)

    def test_surviving_mass_below_threshold_ends_at_previous_scan(self):
        tracker = scalar_setup(ps=0.9, mode="all", exact=False)
        for r, truncated in ((1e-5, True), (1e-4, False)):
            state = single_track_state(tracker, r=r, k=2, mean=[1.0, 1.0, 1.0], var=np.eye(3))
            out = tracker.predict(state).density
            track = out.archived_tracks()[0] if truncated else out.track_by_id(0)
            c = track.hypotheses[0].density.components[0]
            if truncated:  # 1e-5 * 0.9 < 1e-5: the point mass stays at scan 2
                assert out.tracks == () and [b.ids for b in out.archive] == [(0,)]
                assert c.e == 2 and c.alive_mass(2) == 1.0 and c.alive_mass(3) == 0.0
            else:
                assert out.archive == () and c.e == 3 and c.alive_mass(3) == pytest.approx(0.9)

    def test_current_mode_never_archives(self):
        tracker = scalar_setup(ps=0.5, pd=0.95, clutter_rate=0.5, mode="current", exact=False)

        def check(prev, now, k):
            assert now.archive == ()

        self.run(tracker, check)


class TestOneHypothesisRule:
    """The update builds only hypotheses that some global chooses, and
    pruning drops those that no surviving global chooses, so an ended track
    that every global chooses the same hypothesis of has one hypothesis:
    prediction archives exactly the ended tracks of one hypothesis."""

    @pytest.mark.parametrize(
        "name,scans,budget",
        [("scenario1", 4, None), ("scenario1", 20, 100), ("scenario3", 30, 100)],
        ids=["scenario1-exact", "scenario1", "scenario3"],
    )
    def test_every_live_hypothesis_is_chosen_and_ended_ones_leave(self, name, scans, budget):
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
        log = generate_scenario(cfg)[1].scans
        config = TrackerConfig(murty_budget=budget)
        tracker = PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all", config=config)
        state = tracker.initial()
        for k, scan in enumerate(log[:scans]):
            if k:
                state = tracker.predict(state)
                tracks = state.density.tracks
                ended = [t.id for t in tracks if len(t.hypotheses) == 1 and not t.hypotheses[0].alive_at(k)]
                assert budget is None or ended == []
            if scan is not None:
                born = state.next_track_id
                state = tracker.update(state, scan)
                p = state.density
                chosen = {c for g in p.global_hyps for c in g.choice}
                unchosen = {(t.id, i) for t in p.tracks for i in range(len(t.hypotheses))} - chosen
                # exact mode does not prune, so a new track keeps both
                # hypotheses of its pair even when no global chooses one
                assert all(tid >= born for tid, _ in unchosen) if budget is None else unchosen == set()
        assert bool(state.density.archive) == (budget is not None)


class TestPredictCurrent:
    def test_existence_scales_by_survival(self):
        tracker = scalar_setup(ps=0.9, mode="current")
        state = single_track_state(tracker, r=0.8, k=1, mean=[0.0, 0.0], var=np.eye(2))
        out = tracker.predict(state)
        h = out.density.track_by_id(0).hypotheses[0]
        assert h.r == pytest.approx(0.72)
        assert len(h.density.components) == 1
        assert h.density.components[0].e == 2

    def test_certain_survival_keeps_r(self):
        tracker = scalar_setup(ps=1.0, mode="current")
        state = single_track_state(tracker, r=0.8, k=1, mean=[0.0, 0.0], var=np.eye(2))
        assert tracker.predict(state).density.track_by_id(0).hypotheses[0].r == pytest.approx(0.8)

    def test_ppp_survival_extension_plus_birth(self):
        tracker = scalar_setup(ps=0.9, birth_w=0.3, mode="current")
        s1 = tracker.predict(tracker.initial())
        comps = s1.density.ppp.components
        assert len(comps) == 2
        extended = next(c for c in comps if c.b == 0)
        assert extended.e == 1 and extended.weight == pytest.approx(0.27)
        fresh = next(c for c in comps if c.b == 1)
        assert fresh.weight == pytest.approx(0.3)

    def test_existence_never_increases(self):
        tracker = scalar_setup(ps=0.95, mode="current")
        state = single_track_state(tracker, r=0.6, k=0, mean=[0.0], var=[[1.0]])
        for _ in range(4):
            nxt = tracker.predict(state)
            assert nxt.density.track_by_id(0).hypotheses[0].r <= state.density.track_by_id(0).hypotheses[0].r
            state = nxt


class TestUpdate:
    def test_empty_scan_miss_update_existence(self):
        # predicted existence 0.72 under pd 0.9: conditioning on the miss
        tracker = scalar_setup(pd=0.9, mode="current")
        state = single_track_state(tracker, r=0.72, k=1, mean=[0.0, 0.0], var=np.eye(2))
        out = tracker.update(state, [])
        h = out.density.track_by_id(0).hypotheses[0]
        assert h.r == pytest.approx(0.72 * 0.1 / (1.0 - 0.72 * 0.9), abs=1e-12)
        assert h.r == pytest.approx(0.2045454545, abs=1e-9)

    def test_miss_passes_a_hypothesis_with_no_alive_mass_through(self):
        seq = gs.make_seq("info", TimeWindow(0, 1), [0.0, 0.0], np.eye(2))
        comps = (MixtureComponent(0.4, seq, ((1, 1.0),)), MixtureComponent(0.6, seq))
        h = LocalHypothesis(0.7, TrajectoryMixture(comps), frozenset({(0, 0)}))
        assert bernoulli.miss_update(h, 0.9, 2) is h  # every trajectory ended at 1
        assert bernoulli.miss_update(h, 0.9, 1) is not h

    def test_new_track_without_clutter_is_certain(self):
        tracker = scalar_setup(clutter_rate=0.0, mode="all")
        out = tracker.update(tracker.initial(), [[0.5]])
        new_track = out.density.track_by_id(0)
        exist = max(new_track.hypotheses, key=lambda h: h.r)
        assert exist.r == pytest.approx(1.0)
        assert exist.meas_history == frozenset({(0, 0)})

    def test_single_track_single_measurement_enumeration(self):
        tracker = scalar_setup(pd=0.8, clutter_rate=0.5, mode="current")
        state = single_track_state(tracker, r=0.6, k=1, mean=[0.0, 0.0], var=[[1.0, 1.0], [1.0, 2.0]])
        z = 0.5
        out = tracker.update(state, [[z]])
        lik = predictive_likelihood(state.density.track_by_id(0).hypotheses[0].density.components[0].seq, tracker.model, [z])
        ppp_comp = state.density.ppp.components[0]
        ppp_lik = predictive_likelihood(ppp_comp.seq, tracker.model, [z])
        lam = 0.5 / SCALAR_REGION.volume
        w_miss = 1.0 - 0.6 * 0.8
        w_det = 0.6 * 0.8 * lik
        w_new = lam + 0.8 * ppp_comp.weight * ppp_lik
        expected = np.array([w_miss * w_new, w_det]) / (w_miss * w_new + w_det)
        got = sorted(math.exp(g.log_weight) for g in out.density.global_hyps)
        np.testing.assert_allclose(got, sorted(expected), atol=1e-12)

    def test_rejects_nonfinite_measurements(self):
        tracker = scalar_setup()
        with pytest.raises(ValueError):
            tracker.update(tracker.initial(), [[float("nan")]])

    def test_update_requires_scan(self):
        tracker = scalar_setup()
        with pytest.raises(ValueError):
            tracker.update(tracker.initial(), None)

    def test_murty_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(murty_budget=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            TrackerConfig(backend="nonsense")

    def test_lscan_depth_below_one_rejected(self):
        with pytest.raises(ValueError, match="below 1"):
            TrackerConfig(L=0)

    @pytest.mark.parametrize("nx_mean,nx_cov", [(2, 2), (4, 2), (2, 4)])
    def test_birth_of_the_wrong_dimension_rejected(self, nx_mean, nx_cov):
        # a birth that does not fit the 4-d state fails at construction, not
        # inside the first scan's gating
        birth = BirthModel((BirthComponent(0.1, np.zeros(nx_mean), np.eye(nx_cov)),))
        sensor = SensorModel(pd=0.9, clutter_rate=1.0, region=Rectangle(-10.0, 10.0, -10.0, 10.0))
        with pytest.raises(ValueError, match="dimension"):
            PmbmTracker(constant_velocity_model(1.0, 1.0), birth, sensor, SurvivalModel(0.9))

    @pytest.mark.parametrize("order", [1, -1])
    def test_unexplained_measurement_is_retired(self, order):
        # outside the +-1000 region nothing gates [1001, 0] and no track can
        # start on it: the run goes on, the measurement is retired, and
        # validate() (every step) still finds every measurement covered
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "scenario3.json")
        cfg_t = TrackerConfig(validate_every_step=True)
        tracker = PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), config=cfg_t)
        scans = [[[1001.0, 0.0]], [[0.0, 0.0]]][::order]
        result = tracker.run(scans)
        assert result.final_state.density.retired == {(scans.index([[1001.0, 0.0]]), 0)}
        assert len(result.estimates) == 2

    def test_scan_that_retires_nothing_keeps_the_retired_set(self):
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "scenario3.json")
        scans = generate_scenario(cfg)[1].scans
        tracker = PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival())
        state = tracker.update(tracker.initial(), scans[0])
        kept = 0
        for k in range(1, 20):
            prior = state.density.retired
            state = tracker.step(state, scans[k])
            if state.density.retired != prior:
                assert state.density.retired > prior
            elif prior:
                assert state.density.retired is prior
                kept += 1
        assert 0 < kept and len(state.density.retired) > kept

    def test_conjugate_structure_valid_after_each_step(self):
        tracker = scalar_setup(exact=False)
        scans = [[[0.5]], [[1.0], [8.0]], [], [[2.0]], None, [[3.0]]]
        state = tracker.initial()
        for k, scan in enumerate(scans):
            if k:
                state = tracker.predict(state)
            if scan is not None:
                state = tracker.update(state, scan)
            validate(state.density)


class TestEpsilonBookkeeping:
    def run_with_misses(self, n_miss, ps=0.9, pd=0.9):
        tracker = scalar_setup(ps=ps, pd=pd, clutter_rate=0.1, mode="all")
        state = tracker.initial()
        state = tracker.update(state, [[0.0]])
        tid = state.density.tracks[0].id
        for _ in range(n_miss):
            state = tracker.predict(state)
            state = tracker.update(state, [])
        best = max(state.density.global_hyps, key=lambda g: g.log_weight)
        hidx = dict(best.choice)[tid]
        return tracker, state, tid, hidx

    def test_point_mass_right_after_detection(self):
        tracker, state, tid, hidx = self.run_with_misses(0)
        pmf = epsilon_bookkeeping(state, tid, hidx)
        assert pmf == pytest.approx({(0, 0): 1.0})

    def test_two_misses_match_closed_form(self):
        tracker, state, tid, hidx = self.run_with_misses(2)
        pmf = epsilon_marginal(epsilon_bookkeeping(state, tid, hidx))
        ref = epsilon_pmf_closed(0, 2, 0.9, 0.9)
        assert set(pmf) == set(ref)
        for e in ref:
            assert pmf[e] == pytest.approx(ref[e], abs=1e-12)

    def test_certain_detection_keeps_mass_at_last_association(self):
        tracker, state, tid, hidx = self.run_with_misses(3, pd=1.0)
        pmf = epsilon_marginal(epsilon_bookkeeping(state, tid, hidx))
        assert pmf == pytest.approx({0: 1.0})

    def test_rejected_in_current_mode(self):
        tracker = scalar_setup(mode="current")
        state = tracker.update(tracker.initial(), [[0.0]])
        with pytest.raises(ValueError):
            epsilon_bookkeeping(state, state.density.tracks[0].id, 0)


SCANS_SMALL = [[[0.4]], [[0.9], [6.0]], [], [[2.1]], [[2.9], [-4.0]]]


class TestOracleEquivalence:
    @pytest.mark.parametrize("mode", ["all", "current"])
    def test_exhaustive_enumeration(self, mode):
        tracker = scalar_setup(ps=0.85, pd=0.75, clutter_rate=0.8, birth_w=0.25, mode=mode)
        oracle = OracleTracker(
            tracker.model,
            [(0.25, [0.0], [[4.0]])],
            ps=0.85,
            pd=0.75,
            clutter_intensity=0.8 / SCALAR_REGION.volume,
            mode=mode,
        )
        state = tracker.initial()
        for k, scan in enumerate(SCANS_SMALL):
            if k:
                state = tracker.predict(state)
                oracle.predict()
            state = tracker.update(state, scan)
            oracle.update(scan)
            assert_tables_match(tracker_global_table(state), oracle.global_table())

    @pytest.mark.parametrize("backend,L", [("moment", 1), ("info", 1), ("lscan", 1), ("lscan", 2)])
    @pytest.mark.parametrize("mode", ["all", "current"])
    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(
        ps=st.floats(0.05, 0.99),
        pd=st.floats(0.05, 0.99),
        clutter_rate=st.floats(0.05, 3.0),
        birth_w=st.floats(0.05, 1.0),
        # about one step in four has no data (None) and only predicts; at
        # most 6 measurements: 4 scans of 2 enumerate 1,657 globals, over ten
        # times the cost of the largest 6-measurement case
        scans=st.lists(
            st.integers(0, 3).flatmap(
                lambda i: st.none() if i == 0 else st.lists(st.floats(-8.0, 8.0).map(lambda z: [z]), max_size=2)
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda scans: sum(len(scan) for scan in scans if scan is not None) <= 6),
        data=st.data(),
    )
    def test_random_scenarios(self, mode, backend, L, ps, pd, clutter_rate, birth_w, scans, data):
        """Exact mode matches the reference enumeration on random scalar
        scenarios with no-data steps, every scan's posterior passes
        validate(), and a posterior reloaded from its JSON dump at a drawn
        scan still matches at that scan and every later one."""
        tracker = scalar_setup(ps, pd, clutter_rate, birth_w, mode, backend, L=L, validate_every_step=True)
        oracle = OracleTracker(
            tracker.model, [(birth_w, [0.0], [[4.0]])], ps, pd, clutter_rate / SCALAR_REGION.volume, mode
        )
        reload_at = data.draw(st.integers(0, len(scans) - 1), label="reload_at")
        state = tracker.initial()
        for k, scan in enumerate(scans):
            if k:
                state = tracker.predict(state)
                oracle.predict()
            if scan is not None:
                state = tracker.update(state, scan)
                oracle.update(scan)
            if k == reload_at:
                reloaded = load_density(json.loads(json.dumps(dump_density(state.density))))
                state = TrackerState(reloaded, state.k, state.next_track_id)
            assert_tables_match(tracker_global_table(state), oracle.global_table())

    def test_no_data_steps(self):
        tracker = scalar_setup(ps=0.9, pd=0.8, clutter_rate=0.5, mode="all")
        oracle = OracleTracker(
            tracker.model, [(0.3, [0.0], [[4.0]])], 0.9, 0.8, 0.5 / SCALAR_REGION.volume, "all"
        )
        state = tracker.initial()
        state = tracker.update(state, [[0.2]])
        oracle.update([[0.2]])
        for scan in [None, [[1.1]], None, []]:
            state = tracker.predict(state)
            oracle.predict()
            if scan is not None:
                state = tracker.update(state, scan)
                oracle.update(scan)
        assert_tables_match(tracker_global_table(state), oracle.global_table())


class TestCommutation:
    def test_marginalize_then_point_filter(self):
        ps, pd, clutter = 0.9, 0.8, 0.6
        tracker = scalar_setup(ps=ps, pd=pd, clutter_rate=clutter, birth_w=0.3, mode="all")
        point = PointPmbmOracle(
            tracker.model, [(0.3, [0.0], [[4.0]])], ps, pd, clutter / SCALAR_REGION.volume
        )
        state = tracker.initial()
        for k, scan in enumerate(SCANS_SMALL):
            if k:
                state = tracker.predict(state)
                point.predict()
            state = tracker.update(state, scan)
            point.update(scan)
            marg = marginalize_pmbm(state.density, AliveQuery(k, k, k, k))
            # Bernoulli side
            got = {}
            for g in marg.global_hyps:
                info = {}
                for tid, hidx in g.choice:
                    h = marg.track_by_id(tid).hypotheses[hidx]
                    if h.r <= 0.0:
                        continue
                    mean = sum(c.weight * gs.mean_sequence(c.seq) for c in h.density.components)
                    info[h.meas_history] = (h.r, mean)
                got[frozenset(info)] = (math.exp(g.log_weight), info)
            ref = point.global_table()
            assert set(got) == set(ref)
            for key in ref:
                assert got[key][0] == pytest.approx(ref[key][0], abs=1e-9)
                for hist, (r_e, m_e) in ref[key][1].items():
                    r_a, m_a = got[key][1][hist]
                    assert r_a == pytest.approx(r_e, abs=1e-9)
                    np.testing.assert_allclose(m_a, m_e, atol=1e-9)
            # Poisson side: thinned weights and single-step means agree
            got_ppp = sorted(
                (c.weight, float(gs.mean_sequence(c.seq)[0])) for c in marg.ppp.components
            )
            ref_ppp = sorted((w, float(m[0])) for w, m, _ in point.ppp)
            np.testing.assert_allclose(got_ppp, ref_ppp, atol=1e-9)


class TestCurrentModeEstimates:
    def test_every_emitted_trajectory_ends_at_the_current_scan(self):
        tracker = scalar_setup(ps=0.95, pd=0.9, clutter_rate=0.3, mode="current", exact=False)
        scans = [[[0.2]], [[0.7]], [], [[1.9]], [[2.4]]]
        state = tracker.initial()
        for k, scan in enumerate(scans):
            if k:
                state = tracker.predict(state)
            state = tracker.update(state, scan)
            for traj in tracker.estimate(state, r_e=0.5):
                assert traj.epsilon == k
