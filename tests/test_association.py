import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from trajpmbm import bernoulli
from trajpmbm import gaussseq as gs
from trajpmbm.association import Assignment, build_cost_matrix, murty_kbest, scan_weight_tables
from trajpmbm.density import GlobalHypothesis, LocalHypothesis, PmbmDensity, Track
from trajpmbm.models import Rectangle, SensorModel
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker
from trajpmbm.trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

from helpers import gate
from oracles import enumerate_assignments, hungarian_best, predictive_likelihood

INF = float("inf")


class TestGate:
    def unit_seq(self, mean):
        return gs.MomentSeq(TimeWindow(0, 0), mean, np.eye(2) * 0.5)

    def model(self):
        return gs.ModelLG(F=np.eye(2), Q=np.eye(2), H=np.eye(2), R=0.5 * np.eye(2))

    def test_chi_square_threshold(self):
        # innovation covariance is the identity: squared distance vs quantile
        m = self.model()
        thr = chi2.ppf(0.9999, df=2)
        assert thr == pytest.approx(18.4207, abs=1e-3)
        inside = self.unit_seq([0.0, 0.0])
        d10 = np.sqrt(10.0) * np.array([1.0, 0.0])
        d20 = np.sqrt(20.0) * np.array([1.0, 0.0])
        assert gate(inside, m, d10, 0.9999)
        assert not gate(inside, m, d20, 0.9999)

    def test_predicted_mean_always_passes(self):
        m = self.model()
        assert gate(self.unit_seq([3.0, -2.0]), m, [3.0, -2.0], 0.5)

    def test_limit_admits_everything(self):
        m = self.model()
        assert gate(self.unit_seq([0.0, 0.0]), m, [1e6, -1e6], 1.0)

    def test_monotone_in_gate_probability(self):
        m = self.model()
        s = self.unit_seq([0.0, 0.0])
        z = [2.5, 0.0]
        results = [gate(s, m, z, q) for q in (0.5, 0.9, 0.99, 0.9999)]
        assert results == sorted(results)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gate(self.unit_seq([0.0, 0.0]), self.model(), [0.0, 0.0], 0.0)


class TestHungarian:
    def test_two_by_two(self):
        a = hungarian_best(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert a.mapping == (1, 0)
        assert a.cost == pytest.approx(4.0)

    def test_diagonal_optimum(self):
        a = hungarian_best(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert a.mapping == (0, 1)
        assert a.cost == 0.0

    def test_tie_break_lexicographic(self):
        # both assignments cost 2: mapping (0, 1) beats (1, 0)
        a = hungarian_best(np.ones((2, 2)))
        assert a.mapping == (0, 1)

    def test_fuzz_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mat = rng.integers(0, 10, size=(4, 4)).astype(float)
            a = hungarian_best(mat)
            best_cost, _ = enumerate_assignments(mat)[0]
            assert a.cost == pytest.approx(best_cost)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            hungarian_best(np.array([[INF, INF], [INF, INF]]))


class TestMurty:
    def test_two_best(self):
        out = murty_kbest(np.array([[1.0, 2.0], [2.0, 4.0]]), 2)
        assert [a.cost for a in out] == pytest.approx([4.0, 5.0])

    def test_m_one_matches_hungarian(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mat = rng.random((3, 3))
            assert murty_kbest(mat, 1)[0].cost == pytest.approx(hungarian_best(mat).cost)

    def test_three_by_three_full_enumeration(self):
        rng = np.random.default_rng(5)
        mat = rng.random((3, 3))
        out = murty_kbest(mat, 6)
        ref = enumerate_assignments(mat)
        assert len(out) == 6
        np.testing.assert_allclose([a.cost for a in out], [c for c, _ in ref], atol=1e-12)

    def test_costs_nondecreasing_and_unique(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, rows + 1))
            mat = rng.random((rows, cols))
            out = murty_kbest(mat, 10)
            costs = [a.cost for a in out]
            assert costs == sorted(costs)
            assert len({a.mapping for a in out}) == len(out)
            ref = enumerate_assignments(mat)
            np.testing.assert_allclose(costs, [c for c, _ in ref[: len(costs)]], atol=1e-12)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            murty_kbest(np.eye(2), 0)

    def test_empty_scan_single_empty_assignment(self):
        out = murty_kbest(np.zeros((3, 0)), 5)
        assert out == [Assignment((), 0.0)]

    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_k_smallest(self, rows, cols, m, seed):
        if cols > rows:
            rows, cols = cols, rows
        mat = np.random.default_rng(seed).integers(0, 6, size=(rows, cols)).astype(float)
        out = murty_kbest(mat, m)
        ref = enumerate_assignments(mat)
        np.testing.assert_allclose(
            [a.cost for a in out], [c for c, _ in ref[: len(out)]], atol=1e-12
        )
        assert len(out) == min(m, len(ref))

    @staticmethod
    def tracker_layout(rng, n_tracks, n_cols, integer):
        """A cost matrix laid out as ``build_cost_matrix`` lays it out: a row
        per track, infinite where it gates nothing, then a new-track
        pseudo-row per column, finite (or not) only in its own column."""
        if integer:
            def draw(size):
                return rng.integers(-3, 4, size).astype(float)
        else:
            def draw(size):
                return rng.normal(0.0, 2.0, size)
        tracks = np.where(rng.random((n_tracks, n_cols)) < 0.6, draw((n_tracks, n_cols)), INF)
        pseudo = np.full((n_cols, n_cols), INF)
        np.fill_diagonal(pseudo, np.where(rng.random(n_cols) < 0.9, draw(n_cols), INF))
        return np.vstack([tracks, pseudo])

    def check_against_enumeration(self, mat, out, expected_costs):
        ref = dict((m, c) for c, m in enumerate_assignments(mat))
        assert len({a.mapping for a in out}) == len(out)
        for a in out:
            assert ref[a.mapping] == pytest.approx(a.cost, abs=1e-9)
        np.testing.assert_allclose([a.cost for a in out], expected_costs, atol=1e-9)

    def test_tracker_layout_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            mat = self.tracker_layout(rng, int(rng.integers(0, 4)), int(rng.integers(1, 5)), trial % 2 == 0)
            M = int(rng.integers(1, 30))
            ref = enumerate_assignments(mat)
            if not ref:
                with pytest.raises(ValueError):
                    murty_kbest(mat, M)
                continue
            out = murty_kbest(mat, M)
            assert len(out) == min(M, len(ref))
            self.check_against_enumeration(mat, out, [c for c, _ in ref[: len(out)]])

    def test_max_gap_keeps_exactly_the_solutions_within_the_gap(self):
        # integer costs put solutions exactly at the gap's edge: they stay
        rng = np.random.default_rng(9)
        edge_hits = 0
        for trial in range(200):
            mat = self.tracker_layout(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)), trial % 4 != 3)
            ref = [c for c, _ in enumerate_assignments(mat)]
            if not ref:
                continue
            gap = (0.0, 1.0, 2.0, 2.5, 4.0)[trial % 5]
            M = int(rng.integers(1, 30))
            within = [c for c in ref if c <= ref[0] + gap]
            edge_hits += ref[0] + gap in within[:M]
            out = murty_kbest(mat, M, max_gap=gap)
            self.check_against_enumeration(mat, out, within[:M])
        assert edge_hits > 20


class TestCostMatrix:
    def build_fixture(self, r=0.6, clutter=0.5):
        model = gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
        sensor = SensorModel(pd=0.8, clutter_rate=clutter, region=Rectangle(-10, 10, -1, 1), gate_prob=1.0)
        seq = gs.MomentSeq(TimeWindow(0, 1), [0.0, 0.0], [[1.0, 1.0], [1.0, 2.0]])
        hyp = LocalHypothesis(r, TrajectoryMixture((MixtureComponent(1.0, seq),)), ((0, 0),))
        ppp = TrajectoryMixture(
            (MixtureComponent(0.4, gs.MomentSeq(TimeWindow(1, 1), [0.0], [[4.0]])),), "intensity"
        )
        p = PmbmDensity(ppp, (Track(0, (hyp,)),), (GlobalHypothesis(0.0, ((0, 0),)),), TimeWindow(0, 1), "all")
        # measurement model here is 1-d: region check needs 2 coords, widen z
        return p, model, sensor

    def cost_matrix(self, p, scan, model, sensor):
        return build_cost_matrix(p, p.global_hyps[0], scan_weight_tables(p, scan, model, sensor))

    def test_single_track_single_measurement(self):
        p, model, sensor = self.build_fixture()
        z = np.array([0.5, 0.0])
        # 1-d measurement: use only the first coordinate
        scan = [z[:1]]
        tables = scan_weight_tables(p, scan, model, sensor)
        cm = build_cost_matrix(p, p.global_hyps[0], tables)
        assert cm.matrix.shape == (2, 1)
        h = p.track_by_id(0).hypotheses[0]
        lik = predictive_likelihood(h.density.components[0].seq, model, scan[0])
        w_miss = 1.0 - 0.6 * 0.8
        w_det = 0.6 * 0.8 * lik
        # a row track's factor is the child's choice, not part of the base
        assert cm.base == 0.0
        assert cm.base + tables.miss_log[(0, 0)] == pytest.approx(math.log(w_miss))
        assert cm.matrix[0, 0] == pytest.approx(-(math.log(w_det) - math.log(w_miss)))
        lam = sensor.clutter_rate / sensor.region.volume
        ppp_lik = predictive_likelihood(p.ppp.components[0].seq, model, scan[0])
        w_new = lam + 0.8 * 0.4 * ppp_lik
        assert cm.matrix[1, 0] == pytest.approx(-math.log(w_new))
        # the two-association posterior from the costs matches enumeration
        out = murty_kbest(cm.matrix, 2)
        weights = np.array([math.exp(cm.base - a.cost) for a in out])
        direct = np.array([w_miss * w_new, w_det])
        np.testing.assert_allclose(
            sorted(weights / weights.sum()), sorted(direct / direct.sum()), atol=1e-12
        )

    def test_no_tracks_pure_new_costs(self):
        # with no track, each measurement can only start its own track: it
        # is forced, and its new-track weight is banked in the base
        p, model, sensor = self.build_fixture()
        p = PmbmDensity(p.ppp, (), (GlobalHypothesis(0.0, ()),), p.window, "all")
        scan = [np.array([0.5]), np.array([-0.5])]
        cm = self.cost_matrix(p, scan, model, sensor)
        assert cm.matrix.shape == (0, 0)
        assert cm.forced == (0, 1)
        lam = sensor.clutter_rate / sensor.region.volume
        c = p.ppp.components[0]
        w_new = [lam + 0.8 * 0.4 * predictive_likelihood(c.seq, model, z) for z in scan]
        assert cm.base == pytest.approx(math.log(w_new[0]) + math.log(w_new[1]))
        assert murty_kbest(cm.matrix, 5) == [Assignment((), 0.0)]

    def test_clutter_only_new_track_when_no_ppp(self):
        p, model, sensor = self.build_fixture()
        empty_ppp = TrajectoryMixture((), "intensity")
        p = PmbmDensity(empty_ppp, (), (GlobalHypothesis(0.0, ()),), p.window, "all")
        scan = [np.array([0.5])]
        cm = self.cost_matrix(p, scan, model, sensor)
        lam = sensor.clutter_rate / sensor.region.volume
        assert cm.forced == (0,)
        assert cm.base == pytest.approx(math.log(lam))
        # with zero clutter as well nothing can explain the measurement: it
        # is left out of the association
        sensor0 = SensorModel(pd=0.8, clutter_rate=0.0, region=sensor.region, gate_prob=1.0)
        tables0 = scan_weight_tables(p, scan, model, sensor0)
        assert tables0.new_log[0] == -INF
        assert tables0.unexplained == (0,)
        cm0 = build_cost_matrix(p, p.global_hyps[0], tables0)
        assert cm0.forced == () and cm0.cols == () and cm0.base == 0.0

    def test_gated_measurement_is_never_unexplained(self):
        # outside the region (no clutter) with no Poisson mass, but gated by
        # the track: it stays in association, and only a detection explains it
        p, model, sensor = self.build_fixture()
        p = PmbmDensity(TrajectoryMixture((), "intensity"), p.tracks, p.global_hyps, p.window, "all")
        scan = [np.array([12.0])]
        tables = scan_weight_tables(p, scan, model, sensor)
        assert tables.unexplained == ()
        cm = build_cost_matrix(p, p.global_hyps[0], tables)
        assert cm.cols == (0,) and cm.matrix[1, 0] == INF
        assert [a.mapping for a in murty_kbest(cm.matrix, 5)] == [(0,)]


class TestScanTables:
    @pytest.mark.parametrize("name,scans", [("scenario3", 30), ("scenario1", 20)])
    def test_gated_by_hyp_is_the_map_of_det_log_keys(self, monkeypatch, name, scans):
        """On every scan the tracker runs, the recorded per-hypothesis gated
        sets equal the ones derived from ``det_log``'s keys."""
        seen = []

        def recording(*args):
            tables = scan_weight_tables(*args)
            seen.append(tables)
            return tables

        monkeypatch.setattr("trajpmbm.tracker.scan_weight_tables", recording)
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
        cfg = dataclasses.replace(cfg, K=scans)
        scans = generate_scenario(cfg)[1]
        PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all").run(scans)
        assert len(seen) == sum(scan is not None for scan in scans)
        for tables in seen:
            derived: dict = {}
            for tid, hidx, j in tables.det_log:
                derived.setdefault((tid, hidx), set()).add(j)
            assert tables.gated_by_hyp == derived
        assert sum(len(t.gated_by_hyp) for t in seen) > 50


class TestAssociationWeightsAgainstEnumeration:
    def test_three_track_three_measurement_weights(self):
        """Exponentiated negated costs reproduce the product-form posterior
        weights built from closed-form association factors."""
        model = gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
        sensor = SensorModel(pd=0.85, clutter_rate=0.7, region=Rectangle(-20, 20, -1, 1), gate_prob=1.0)
        rng = np.random.default_rng(17)
        tracks = []
        for tid, pos in enumerate((-4.0, 0.0, 4.0)):
            seq = gs.MomentSeq(TimeWindow(0, 1), [pos, pos], [[1.0, 0.8], [0.8, 1.6]])
            rng.normal()  # a discarded draw: it fixes which of the seed's draws become r
            hyp = LocalHypothesis(
                float(rng.uniform(0.3, 0.95)),
                TrajectoryMixture((MixtureComponent(1.0, seq),)),
                ((0, tid),),
            )
            tracks.append(Track(tid, (hyp,)))
        ppp = TrajectoryMixture(
            (MixtureComponent(0.4, gs.MomentSeq(TimeWindow(1, 1), [0.0], [[25.0]])),), "intensity"
        )
        p = PmbmDensity(
            ppp, tuple(tracks),
            (GlobalHypothesis(0.0, tuple((t, 0) for t in range(3))),),
            TimeWindow(0, 1), "all",
        )
        scan = [np.array([-3.6]), np.array([0.3]), np.array([4.4])]
        tables = scan_weight_tables(p, scan, model, sensor)
        cm = build_cost_matrix(p, p.global_hyps[0], tables)
        out = murty_kbest(cm.matrix, 10**6)
        got = np.array(sorted(math.exp(cm.base - a.cost) for a in out))
        got /= got.sum()

        # closed-form factors: miss 1 - r pd, detection r pd N(z), new track
        # clutter + pd sum w N(z); every component is alive at scan 1
        lam = sensor.clutter_rate / sensor.region.volume
        miss, det, new_w = {}, {}, {}
        for t in tracks:
            h = t.hypotheses[0]
            miss[t.id] = 1.0 - h.r * sensor.pd
            for j, z in enumerate(scan):
                lik = predictive_likelihood(h.density.components[0].seq, model, z)
                det[(t.id, j)] = h.r * sensor.pd * lik
        for j, z in enumerate(scan):
            new_w[j] = lam + sensor.pd * sum(c.weight * predictive_likelihood(c.seq, model, z) for c in ppp.components)
        weights = []
        for assoc in itertools.product((-1, 0, 1, 2), repeat=3):
            used = [a for a in assoc if a >= 0]
            if len(used) != len(set(used)):
                continue
            w = 1.0
            for tid in range(3):
                w *= det[(tid, assoc.index(tid))] if tid in assoc else miss[tid]
            for j, a in enumerate(assoc):
                if a == -1:
                    w *= new_w[j]
            weights.append(w)
        expected = np.array(sorted(weights))
        expected /= expected.sum()
        assert len(got) == len(expected)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestDetectionChild:
    def test_component_weights_follow_the_predictive_likelihood(self):
        model = gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
        sensor = SensorModel(pd=0.9, clutter_rate=0.5, region=Rectangle(-20, 20, -1, 1), gate_prob=1.0)
        comps = (
            MixtureComponent(0.3, gs.MomentSeq(TimeWindow(0, 1), [-1.0, -1.0], [[1.0, 0.8], [0.8, 1.6]])),
            MixtureComponent(0.7, gs.MomentSeq(TimeWindow(0, 1), [1.5, 2.0], [[2.0, 0.5], [0.5, 3.0]])),
        )
        h = LocalHypothesis(0.6, TrajectoryMixture(comps), ((0, 0),))
        p = PmbmDensity(
            TrajectoryMixture((), "intensity"),
            (Track(0, (h,)),),
            (GlobalHypothesis(0.0, ((0, 0),)),),
            TimeWindow(0, 1),
            "all",
        )
        z = np.array([0.7])
        tables = scan_weight_tables(p, [z], model, sensor)
        child = bernoulli.detect_update(h, model, z, (1, 0), tables.det_liks[(0, 0, 0)])
        # w N(z; H m, H P H' + R) per component, normalized
        expected = np.array([c.weight * predictive_likelihood(c.seq, model, z) for c in comps])
        assert child.r == 1.0
        np.testing.assert_allclose(
            [c.weight for c in child.density.components], expected / expected.sum(), rtol=1e-12
        )
        for c, out in zip(comps, child.density.components):
            np.testing.assert_allclose(out.seq.mean, gs.update_seq(c.seq, model, z).mean, rtol=1e-12)
