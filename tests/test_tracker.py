import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajpmbm import gaussseq as gs
from trajpmbm.density import (
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    validate,
)
from trajpmbm.marginal import AliveQuery, marginalize_pmbm
from trajpmbm.models import BirthComponent, BirthModel, Rectangle, SensorModel, SurvivalModel, constant_velocity_model
from trajpmbm.scenario import ScenarioConfig
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
    from trajpmbm.models import birth_intensity_at

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
        assert pmf.as_dict() == pytest.approx({(0, 0): 1.0})

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
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(
        ps=st.floats(0.05, 0.99),
        pd=st.floats(0.05, 0.99),
        clutter_rate=st.floats(0.05, 3.0),
        birth_w=st.floats(0.05, 1.0),
        # at most 6 measurements: 4 scans of 2 enumerate 1,657 globals, over
        # ten times the cost of the largest 6-measurement case
        scans=st.lists(st.lists(st.floats(-8.0, 8.0).map(lambda z: [z]), max_size=2), min_size=1, max_size=4).filter(
            lambda scans: sum(map(len, scans)) <= 6
        ),
    )
    def test_random_scenarios(self, mode, backend, L, ps, pd, clutter_rate, birth_w, scans):
        """Exact mode matches the reference enumeration on random scalar
        scenarios, and every scan's posterior passes validate()."""
        tracker = scalar_setup(ps, pd, clutter_rate, birth_w, mode, backend, L=L, validate_every_step=True)
        oracle = OracleTracker(
            tracker.model, [(birth_w, [0.0], [[4.0]])], ps, pd, clutter_rate / SCALAR_REGION.volume, mode
        )
        state = tracker.initial()
        for k, scan in enumerate(scans):
            if k:
                state = tracker.predict(state)
                oracle.predict()
            state = tracker.update(state, scan)
            oracle.update(scan)
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
