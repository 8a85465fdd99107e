import dataclasses
import gc
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trajpmbm import bernoulli
from trajpmbm import gaussseq as gs
from trajpmbm.density import LocalHypothesis
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig
from trajpmbm.trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

from conftest import run_pipeline
from helpers import condition, nonzero_counts, stacked_moments
from oracles import (
    exact_band_moments,
    joint_predict,
    joint_update,
    point_predict,
    point_update,
    predictive_likelihood,
    textbook_dense_update,
    textbook_update,
)


def random_events(rng, n_steps, nz, n_meas):
    """Predict-only / predict+measure schedule with ``n_meas`` measurements."""
    slots = sorted(rng.choice(n_steps, size=min(n_meas, n_steps), replace=False))
    return [rng.standard_normal(nz) * 2.0 if i in slots else None for i in range(n_steps)]


class TestModel:
    def test_rejects_indefinite_noise(self):
        with pytest.raises(ValueError):
            gs.ModelLG(F=[[1.0]], Q=[[0.0]], H=[[1.0]], R=[[1.0]])
        with pytest.raises(ValueError):
            gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[-1.0]])


class TestMomentForm:
    def test_predict_hand_values(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 0), [0.0], [[1.0]])
        out = gs.predict_seq(s, scalar_model)
        np.testing.assert_allclose(out.mean, [0.0, 0.0])
        np.testing.assert_allclose(out.cov, [[1.0, 1.0], [1.0, 2.0]])

    def test_predict_zero_transition_decouples(self):
        m = gs.ModelLG(F=[[0.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
        s = gs.MomentSeq(TimeWindow(0, 0), [3.0], [[2.0]])
        out = gs.predict_seq(s, m)
        np.testing.assert_allclose(out.mean, [3.0, 0.0])
        np.testing.assert_allclose(out.cov, [[2.0, 0.0], [0.0, 1.0]])

    def test_predict_matches_single_step_oracle(self, cv_model):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal(4)
        cov = np.eye(4)
        s = gs.MomentSeq(TimeWindow(0, 0), mean, cov)
        out = gs.predict_seq(s, cv_model)
        m2, c2 = point_predict(mean, cov, np.asarray(cv_model.F), np.asarray(cv_model.Q))
        np.testing.assert_allclose(out.mean[4:], m2, atol=1e-12)
        np.testing.assert_allclose(out.cov[4:, 4:], c2, atol=1e-12)

    def test_update_hand_values(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 1), [0.0, 0.0], [[1.0, 1.0], [1.0, 2.0]])
        out = condition(s, scalar_model, [2.0])
        np.testing.assert_allclose(out.mean, [2.0 / 3.0, 4.0 / 3.0])
        np.testing.assert_allclose(out.cov, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        # innovation 2 under variance 3
        _, lik, _ = gs.gate_likelihoods(*stacked_moments([s]), scalar_model, [[2.0]])
        assert math.log(lik[0, 0]) == pytest.approx(-0.5 * (math.log(2 * math.pi * 3) + 4.0 / 3.0))

    def test_update_zero_innovation_keeps_mean_shrinks_cov(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 1), [1.0, 2.0], [[1.0, 1.0], [1.0, 2.0]])
        out = condition(s, scalar_model, [2.0])
        np.testing.assert_allclose(out.mean, s.mean)
        assert np.all(np.linalg.eigvalsh(np.asarray(s.cov) - np.asarray(out.cov)) > -1e-12)

    def test_huge_noise_update_is_noop(self, cv_model):
        big_r = gs.ModelLG(cv_model.F, cv_model.Q, cv_model.H, 1e12 * np.asarray(cv_model.R))
        s = gs.predict_seq(gs.MomentSeq(TimeWindow(0, 0), np.ones(4), np.eye(4)), big_r)
        out = condition(s, big_r, [50.0, -20.0])
        np.testing.assert_allclose(out.mean, s.mean, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(out.cov, s.cov, rtol=1e-5, atol=1e-8)

    def test_whole_sequence_matches_joint_oracle(self, cv_model):
        rng = np.random.default_rng(1)
        mean = rng.standard_normal(4)
        cov = np.eye(4) * 2.0
        s = gs.MomentSeq(TimeWindow(0, 0), mean, cov)
        om, oc = mean.copy(), cov.copy()
        F, Q = np.asarray(cv_model.F), np.asarray(cv_model.Q)
        H, R = np.asarray(cv_model.H), np.asarray(cv_model.R)
        for ev in random_events(rng, 8, 2, 5):
            s = gs.predict_seq(s, cv_model)
            om, oc = joint_predict(om, oc, F, Q)
            if ev is not None:
                s = condition(s, cv_model, ev)
                om, oc, _ = joint_update(om, oc, H, R, ev)
        np.testing.assert_allclose(s.mean, om, atol=1e-9)
        np.testing.assert_allclose(s.cov, oc, atol=1e-9)


class TestInformationForm:
    def test_conversion_is_definitional(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 1), [1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        si = gs.make_seq("info", s.window, s.mean, s.cov)
        mean, cov = gs.recover_moments(si, s.window)
        np.testing.assert_allclose(mean, s.mean, atol=1e-9)
        np.testing.assert_allclose(cov, s.cov, atol=1e-9)

    def test_predict_hand_values(self, scalar_model):
        si = gs.make_seq("info", TimeWindow(0, 0), [0.0], [[1.0]])
        ivec, diag, off = gs.predict_seq(si, scalar_model).band()
        np.testing.assert_allclose(ivec, [0.0, 0.0])
        np.testing.assert_allclose(diag, [[[2.0]], [[1.0]]])
        np.testing.assert_allclose(off, [[[-1.0]]])

    def test_band_block_count(self, scalar_model):
        si = gs.make_seq("info", TimeWindow(0, 0), [0.0], [[1.0]])
        for step in range(1, 6):
            si = gs.predict_seq(si, scalar_model)
            nu = step + 1
            _, cov_nnz = nonzero_counts(si)
            assert cov_nnz == (3 * nu - 2) * si.nx**2

    def test_update_touches_only_trailing_block(self, cv_model):
        rng = np.random.default_rng(2)
        si = gs.make_seq("info", TimeWindow(0, 0), rng.standard_normal(4), np.eye(4))
        for _ in range(4):
            si = gs.predict_seq(si, cv_model)
        ivec, diag, off = condition(si, cv_model, [1.0, -1.0]).band()
        ivec0, diag0, off0 = si.band()
        nx = si.nx
        assert np.array_equal(ivec[:-nx], ivec0[:-nx])
        assert np.array_equal(diag[:-1], diag0[:-1])
        assert np.array_equal(off, off0)
        assert not np.array_equal(diag[-1], diag0[-1])

    def test_single_step_equals_information_filter(self, scalar_model):
        si = gs.make_seq("info", TimeWindow(0, 0), [0.5], [[2.0]])
        ivec, diag, _ = condition(si, scalar_model, [1.5]).band()
        # information filter: Y += H'R^{-1}H, y += H'R^{-1}z
        np.testing.assert_allclose(diag[0], [[0.5 + 1.0]])
        np.testing.assert_allclose(ivec, [0.25 + 1.5])

    def test_pipeline_matches_moment_form(self, cv_model):
        rng = np.random.default_rng(3)
        mean, cov = rng.standard_normal(4), 2.0 * np.eye(4)
        events = random_events(rng, 10, 2, 6)
        sm, llm = run_pipeline("moment", cv_model, TimeWindow(0, 0), mean, cov, events)
        si, lli = run_pipeline("info", cv_model, TimeWindow(0, 0), mean, cov, events)
        np.testing.assert_allclose(gs.mean_sequence(si), sm.mean, atol=1e-8)
        np.testing.assert_allclose(llm, lli, atol=1e-8)

    def test_ivec_nonzeros_track_association_count(self, cv_model):
        rng = np.random.default_rng(4)
        si = gs.make_seq("info", TimeWindow(0, 0), np.zeros(4), np.eye(4))
        si = condition(si, cv_model, rng.standard_normal(2))
        n_assoc = 1
        for ev in random_events(rng, 6, 2, 3):
            si = gs.predict_seq(si, cv_model)
            if ev is not None:
                si = condition(si, cv_model, ev)
                n_assoc += 1
        mean_nnz, _ = nonzero_counts(si)
        assert mean_nnz == cv_model.nz * n_assoc


class TestRecoverMoments:
    def test_single_step_solve(self):
        si = gs.InfoSeq.from_band(TimeWindow(0, 0), [3.0], [[[2.0]]], np.zeros((0, 1, 1)), [1.5], [[0.5]])
        mean, cov = gs.recover_moments(si, TimeWindow(0, 0))
        np.testing.assert_allclose(mean, [1.5])
        np.testing.assert_allclose(cov, [[0.5]])

    def test_full_and_trailing_recovery_match_moment_backend(self, scalar_model):
        rng = np.random.default_rng(5)
        events = random_events(rng, 10, 1, 5)
        sm, _ = run_pipeline("moment", scalar_model, TimeWindow(0, 0), [0.0], [[1.0]], events)
        si, _ = run_pipeline("info", scalar_model, TimeWindow(0, 0), [0.0], [[1.0]], events)
        mean, cov = gs.recover_moments(si, si.window)
        np.testing.assert_allclose(mean, sm.mean, atol=1e-8)
        np.testing.assert_allclose(cov, sm.cov, atol=1e-8)
        last = TimeWindow(si.window.gamma, si.window.gamma)
        _, cov_last = gs.recover_moments(si, last)
        np.testing.assert_allclose(cov_last, sm.cov[-1:, -1:], atol=1e-8)

    def test_cached_last_moments_match_recovery(self, cv_model):
        rng = np.random.default_rng(6)
        si, _ = run_pipeline(
            "info", cv_model, TimeWindow(0, 0), rng.standard_normal(4), np.eye(4), random_events(rng, 8, 2, 4)
        )
        mean, cov = gs.last_state_moments(si)
        last = TimeWindow(si.window.gamma, si.window.gamma)
        mean2, cov2 = gs.recover_moments(si, last)
        np.testing.assert_allclose(mean, mean2, atol=1e-8)
        np.testing.assert_allclose(cov, cov2, atol=1e-8)

    def test_rejects_steps_outside_window(self, scalar_model):
        si = gs.make_seq("info", TimeWindow(2, 2), [0.0], [[1.0]])
        with pytest.raises(ValueError):
            gs.recover_moments(si, TimeWindow(1, 2))

    def test_singular_band_raises(self):
        diag = np.array([[[1e30]], [[1e-30]]])
        off = np.array([[[0.0]]])
        si = gs.InfoSeq.from_band(TimeWindow(0, 1), [0.0, 0.0], diag, off, [0.0], [[1e30]])
        with pytest.raises(np.linalg.LinAlgError):
            gs.recover_moments(si, TimeWindow(0, 1))

    def test_indefinite_band_fails_the_factorization(self):
        # [[1, 2], [2, 1]] has a negative eigenvalue: the second pivot is 1 - 4
        si = gs.InfoSeq.from_band(TimeWindow(0, 1), [0.0, 0.0], [[[1.0]], [[1.0]]], [[[2.0]]], [0.0], [[1.0]])
        for solve in (si.full_mean, lambda: gs.recover_moments(si, TimeWindow(0, 0))):
            with pytest.raises(np.linalg.LinAlgError, match="numerically singular") as err:
                solve()
            assert isinstance(err.value.__cause__, np.linalg.LinAlgError)  # raised by the factorization

    def test_last_block_of_long_tracker_bands_matches_the_cached_moments(self):
        """Every multi-step band of a scenario3 posterior after 30 scans
        (all mode, M=100), live or archived: the band solve's last block
        agrees with the filter's cached last-state moments."""
        cfg = ScenarioConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "scenario3.json")
        cfg = dataclasses.replace(cfg, K=30)
        _, log = generate_scenario(cfg)
        tracker = PmbmTracker(
            cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all", config=TrackerConfig(murty_budget=100)
        )
        p = tracker.run(log).final_state.density
        hyps = [h for t in p.tracks for h in t.hypotheses] + [h for b in p.archive for h in b.hypotheses]
        mixes = [p.ppp] + [h.density for h in hyps if h.density is not None]
        seqs = [c.seq for mix in mixes for c in mix.components if c.seq.window.length > 1]
        assert len(seqs) > 100 and max(s.window.length for s in seqs) >= 25
        for s in seqs:
            e = s.window.gamma
            mean, cov = gs.recover_moments(s, TimeWindow(e, e))
            last_mean, last_cov = gs.last_state_moments(s)
            assert rel_err(mean, last_mean) <= 1e-10 and rel_err(cov, last_cov) <= 1e-10


def rel_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


class TestCurrentSetMarginal:
    """The information form's marginal over its last step is the filter's
    cached last-state moments, the exact answer to within rounding."""

    @pytest.fixture
    def band(self, cv_model):
        rng = np.random.default_rng(21)
        events = [rng.standard_normal(2) * 2.0 if i % 3 != 1 else None for i in range(9)]
        si, _ = run_pipeline("info", cv_model, TimeWindow(2, 2), rng.standard_normal(4), np.eye(4), events)
        return si

    def test_last_step_is_the_cached_moments(self, band):
        e = band.window.gamma
        out = gs.marginalize_steps(band, TimeWindow(e, e))
        assert isinstance(out, gs.MomentSeq) and out.window == TimeWindow(e, e)
        mean, cov = gs.last_state_moments(band)
        assert np.array_equal(out.mean, mean)
        assert np.array_equal(out.cov, cov)

    def test_last_step_matches_exact_solve(self, band):
        nu = band.window.length
        ivec, diag, off = band.band()
        mean, cov = exact_band_moments(diag, off, ivec, nu - 1, nu - 1)
        e = band.window.gamma
        out = gs.marginalize_steps(band, TimeWindow(e, e))
        cached = gs.last_state_moments(band)
        for got_mean, got_cov in ((out.mean, out.cov), cached):
            assert rel_err(got_mean, mean) <= 1e-12
            assert rel_err(got_cov, cov) <= 1e-12

    @pytest.mark.parametrize("keep", [(2, 4), (3, 3), (5, 10), (10, 11), (2, 11)])
    def test_other_windows_match_moment_view(self, band, keep):
        out = gs.marginalize_steps(band, TimeWindow(*keep))
        ref = gs.marginalize_steps(gs.to_moment(band), TimeWindow(*keep))
        out = gs.to_moment(out)
        assert rel_err(out.mean, ref.mean) <= 1e-12
        assert rel_err(out.cov, ref.cov) <= 1e-12
        lo, hi = keep[0] - 2, keep[1] - 2
        ivec, diag, off = band.band()
        mean, cov = exact_band_moments(diag, off, ivec, lo, hi)
        assert rel_err(out.mean, mean) <= 1e-12
        assert rel_err(out.cov, cov) <= 1e-12


class TestLScan:
    def test_long_window_predict_equals_moment_bitwise(self, cv_model):
        rng = np.random.default_rng(7)
        mean, cov = rng.standard_normal(4), np.eye(4)
        events = random_events(rng, 6, 2, 3)
        sm, _ = run_pipeline("moment", cv_model, TimeWindow(0, 0), mean, cov, events)
        sl, _ = run_pipeline("lscan", cv_model, TimeWindow(0, 0), mean, cov, events, L=10)
        assert np.array_equal(np.asarray(sl.mean), np.asarray(sm.mean))
        assert np.array_equal(np.asarray(sl.cov), np.asarray(sm.cov))
        assert sl.old_blocks.shape[0] == 0

    def test_single_scan_detaches_marginals(self, scalar_model):
        sl = gs.make_seq("lscan", TimeWindow(0, 0), [0.0], [[1.0]], L=1)
        out = gs.predict_seq(sl, scalar_model)
        np.testing.assert_allclose(out.old_blocks, [[[1.0]]])
        np.testing.assert_allclose(out.cov, [[2.0]])
        out2 = condition(out, scalar_model, [2.0])
        # detached step is untouched by the update
        assert np.array_equal(out2.old_blocks, np.asarray(out.old_blocks))
        np.testing.assert_allclose(out2.mean[:1], out.mean[:1])

    def test_nonzero_count_formula(self, cv_model):
        rng = np.random.default_rng(8)
        for L in (1, 2, 5):
            sl = gs.make_seq("lscan", TimeWindow(0, 0), rng.standard_normal(4), np.eye(4), L=L)
            for _ in range(7):
                sl = gs.predict_seq(sl, cv_model)
            nu = sl.window.length
            _, cov_nnz = nonzero_counts(sl)
            assert cov_nnz == sl.nx**2 * (L * L + nu - L)

    def test_window_longer_than_L_rejected(self):
        # a dense part longer than L would never detach and could not be
        # loaded back from its dump
        with pytest.raises(ValueError, match="longer than the L-scan depth"):
            gs.make_seq("lscan", TimeWindow(0, 2), np.zeros(3), np.eye(3), L=2)

    def test_update_leaves_old_blocks_bit_identical(self, cv_model):
        rng = np.random.default_rng(9)
        sl = gs.make_seq("lscan", TimeWindow(0, 0), rng.standard_normal(4), np.eye(4), L=2)
        for _ in range(5):
            sl = gs.predict_seq(sl, cv_model)
        out = condition(sl, cv_model, [0.5, 0.5])
        assert np.array_equal(out.old_blocks, np.asarray(sl.old_blocks))

    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_last_state_marginal_is_exact(self, cv_model, L):
        rng = np.random.default_rng(10 + L)
        mean, cov = rng.standard_normal(4), np.eye(4)
        events = random_events(rng, 9, 2, 6)
        sm, llm = run_pipeline("moment", cv_model, TimeWindow(0, 0), mean, cov, events)
        sl, lll = run_pipeline("lscan", cv_model, TimeWindow(0, 0), mean, cov, events, L=L)
        m_m, c_m = gs.last_state_moments(sm)
        m_l, c_l = gs.last_state_moments(sl)
        np.testing.assert_allclose(m_l, m_m, atol=1e-9)
        np.testing.assert_allclose(c_l, c_m, atol=1e-9)
        np.testing.assert_allclose(lll, llm, atol=1e-9)


class TestMarginalizeSteps:
    def test_identity_on_full_window(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 1), [1.0, 2.0], [[1.0, 0.2], [0.2, 1.0]])
        assert gs.marginalize_steps(s, s.window) is s

    def test_keep_last_step_selects_trailing_block(self):
        s = gs.MomentSeq(TimeWindow(0, 1), [1.0, 2.0], [[1.0, 0.2], [0.2, 3.0]])
        out = gs.marginalize_steps(s, TimeWindow(1, 1))
        np.testing.assert_allclose(out.mean, [2.0])
        np.testing.assert_allclose(out.cov, [[3.0]])

    def test_predicted_sequence_marginal_consistency(self, cv_model):
        # dropping the appended step of a prediction recovers the input
        rng = np.random.default_rng(12)
        s = gs.MomentSeq(TimeWindow(0, 2), rng.standard_normal(12), np.kron(np.eye(3), np.eye(4) * 2.0))
        pred = gs.predict_seq(s, cv_model)
        back = gs.marginalize_steps(pred, s.window)
        np.testing.assert_allclose(back.mean, s.mean, atol=1e-12)
        np.testing.assert_allclose(back.cov, s.cov, atol=1e-12)

    def test_info_marginal_returns_moment_form(self, scalar_model):
        si, _ = run_pipeline("info", scalar_model, TimeWindow(0, 0), [0.0], [[1.0]], [None, [1.0], None])
        sm, _ = run_pipeline("moment", scalar_model, TimeWindow(0, 0), [0.0], [[1.0]], [None, [1.0], None])
        out = gs.marginalize_steps(si, TimeWindow(1, 2))
        assert isinstance(out, gs.MomentSeq)
        ref = gs.marginalize_steps(sm, TimeWindow(1, 2))
        np.testing.assert_allclose(out.mean, ref.mean, atol=1e-9)
        np.testing.assert_allclose(out.cov, ref.cov, atol=1e-9)

    @pytest.mark.parametrize("keep", [(0, 1), (1, 3), (4, 5), (2, 2), (0, 5)])
    def test_lscan_marginal_selects_own_blocks(self, cv_model, keep):
        # the marginal of the approximation is the block selection of its own
        # implied joint (old steps differ from the exact moment form)
        rng = np.random.default_rng(13)
        mean, cov = rng.standard_normal(4), np.eye(4)
        events = random_events(rng, 5, 2, 3)
        sl, _ = run_pipeline("lscan", cv_model, TimeWindow(0, 0), mean, cov, events, L=3)
        out = gs.marginalize_steps(sl, TimeWindow(*keep))
        ref = gs.marginalize_steps(gs.to_moment(sl), TimeWindow(*keep))
        np.testing.assert_allclose(out.mean, ref.mean, atol=1e-12)
        np.testing.assert_allclose(gs.to_moment(out).cov, ref.cov, atol=1e-12)
        # marginals keeping the last step stay exact against the moment form
        if keep[1] == sl.window.gamma:
            sm, _ = run_pipeline("moment", cv_model, TimeWindow(0, 0), mean, cov, events)
            m_ref, c_ref = gs.last_state_moments(sm)
            m_out, c_out = gs.last_state_moments(out)
            np.testing.assert_allclose(m_out, m_ref, atol=1e-9)
            np.testing.assert_allclose(c_out, c_ref, atol=1e-9)

    def test_rejects_uncontained_window(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(2, 3), [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            gs.marginalize_steps(s, TimeWindow(1, 2))


class TestPredictiveLikelihood:
    def test_gaussian_peak_value(self):
        m = gs.ModelLG(F=np.eye(2), Q=np.eye(2), H=np.eye(2), R=0.5 * np.eye(2))
        s = gs.MomentSeq(TimeWindow(0, 0), [1.0, -1.0], 0.5 * np.eye(2))
        # innovation covariance is the identity
        val = predictive_likelihood(s, m, [1.0, -1.0])
        assert val == pytest.approx(1.0 / (2 * math.pi))

    def test_agrees_with_update_loglik(self, cv_model):
        """The likelihood the detection update conditions on, from
        gate_likelihoods, matches the oracle."""
        rng = np.random.default_rng(14)
        s = gs.MomentSeq(TimeWindow(0, 0), rng.standard_normal(4), np.eye(4))
        s = gs.predict_seq(s, cv_model)
        z = rng.standard_normal(2)
        _, lik, _ = gs.gate_likelihoods(*stacked_moments([s]), cv_model, [z])
        assert predictive_likelihood(s, cv_model, z) == pytest.approx(lik[0, 0])

    def test_same_for_all_backends(self, cv_model):
        rng = np.random.default_rng(15)
        mean, cov = rng.standard_normal(4), np.eye(4)
        events = random_events(rng, 6, 2, 3)
        z = rng.standard_normal(2)
        vals = []
        for backend in ("moment", "info", "lscan"):
            s, _ = run_pipeline(backend, cv_model, TimeWindow(0, 0), mean, cov, events, L=2)
            vals.append(predictive_likelihood(s, cv_model, z))
        np.testing.assert_allclose(vals, vals[0], rtol=1e-8)


class TestBatchGating:
    """``gate_likelihoods`` scores every row of a stack of last-state moments
    as the single-component reference does."""

    @staticmethod
    def sequences(model):
        """A moment, an L-scan (L=2) and an information sequence, 8 apart,
        each with its own correlated prior, so that no innovation covariance
        is diagonal."""
        rng = np.random.default_rng(16)
        seqs = []
        for i, (backend, L) in enumerate((("moment", 1), ("lscan", 2), ("info", 1))):
            shift = np.array([8.0 * i, -8.0 * i])
            events = [None if e is None else e + shift for e in random_events(rng, 5, 2, 3)]
            mean0 = np.concatenate([shift, [0.5, -0.5]])
            B = rng.standard_normal((4, 4))
            seqs.append(run_pipeline(backend, model, TimeWindow(0, 0), mean0, 4.0 * np.eye(4) + B @ B.T, events, L=L)[0])
        return seqs

    @staticmethod
    def reference(seq, model, Z, gate_prob) -> tuple:
        """Chi-square gate and predictive likelihood of each row of Z."""
        from scipy.stats import chi2

        mean, cov = gs.last_state_moments(seq)
        H, R = np.asarray(model.H), np.asarray(model.R)
        v = Z - H @ mean
        d2 = np.einsum("ij,ji->i", v, np.linalg.solve(H @ cov @ H.T + R, v.T))
        return d2 <= chi2.ppf(gate_prob, model.nz), np.array([predictive_likelihood(seq, model, z) for z in Z])

    def measurements(self, seqs, model):
        """Near each sequence's predicted measurement, and one far from all."""
        near = [np.asarray(model.H) @ gs.last_state_moments(s)[0] + [0.3, -0.2] for s in seqs]
        return np.array(near + [[100.0, 100.0]])

    def test_rows_match_the_single_component_reference(self, cv_model):
        seqs = self.sequences(cv_model)
        Z = self.measurements(seqs, cv_model)
        for gate_prob in (1.0, 0.99):
            mask, liks, _ = gs.gate_likelihoods(*stacked_moments(seqs), cv_model, Z, gate_prob)
            assert mask.shape == liks.shape == (3, 4)
            for row, s in enumerate(seqs):
                ref_mask, ref_liks = self.reference(s, cv_model, Z, gate_prob)
                np.testing.assert_array_equal(mask[row], ref_mask)
                np.testing.assert_allclose(liks[row], ref_liks, rtol=1e-12, atol=0.0)
        # each row gates its own measurement and none of the others
        np.testing.assert_array_equal(mask, np.eye(3, 4, dtype=bool))

    def test_single_component(self, cv_model):
        s = self.sequences(cv_model)[1]
        Z = self.measurements([s], cv_model)
        mask, liks, _ = gs.gate_likelihoods(*stacked_moments([s]), cv_model, Z, 0.99)
        ref_mask, ref_liks = self.reference(s, cv_model, Z, 0.99)
        np.testing.assert_array_equal(mask, [ref_mask])
        np.testing.assert_allclose(liks, [ref_liks], rtol=1e-12, atol=0.0)

    def test_no_measurements(self, cv_model):
        mask, liks, _ = gs.gate_likelihoods(*stacked_moments(self.sequences(cv_model)), cv_model, np.zeros((0, 2)), 0.99)
        assert mask.shape == liks.shape == (3, 0)

    def test_one_singular_innovation_covariance_raises(self, cv_model):
        means, covs = stacked_moments(self.sequences(cv_model))
        covs[1] = -10.0 * np.eye(4)
        with pytest.raises(ValueError, match="singular innovation covariance"):
            gs.gate_likelihoods(means, covs, cv_model, np.zeros((1, 2)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchConditioning:
    """The batch forms each row's S, innovations, gain and posterior
    covariance as one component's textbook Kalman update does, bit for bit,
    and each backend's update from its row is the textbook one: the
    information form's last state takes m + K v and the posterior
    covariance, the moment and L-scan forms solve over their dense steps
    from the row's S and innovation."""

    @pytest.fixture
    def batch(self, cv_model):
        seqs = TestBatchGating.sequences(cv_model)
        Z = TestBatchGating().measurements(seqs, cv_model)
        mask, _, post = gs.gate_likelihoods(*stacked_moments(seqs), cv_model, Z, 0.99)
        assert mask.any() and not mask.all()  # measurements inside and outside the gate
        return seqs, Z, post

    def test_rows_are_the_textbook_update(self, cv_model, batch):
        seqs, Z, (S, v, K, covs) = batch
        H, R = np.asarray(cv_model.H), np.asarray(cv_model.R)
        assert S.shape == (3, 2, 2) and v.shape == (3, 4, 2) and K.shape == (3, 4, 2) and covs.shape == (3, 4, 4)
        for row, s in enumerate(seqs):
            mean, cov = gs.last_state_moments(s)
            for j, z in enumerate(Z):
                ref_S, ref_v, ref_K, _, ref_cov = textbook_update(mean, cov, H, R, z)
                got, want = (S[row], v[row, j], K[row], covs[row]), (ref_S, ref_v, ref_K, ref_cov)
                assert all(same_bits(g, w) for g, w in zip(got, want)), (row, j)

    def test_each_backend_stores_its_row(self, cv_model, batch):
        seqs, Z, (S, v, K, covs) = batch
        H, R = np.asarray(cv_model.H), np.asarray(cv_model.R)
        assert [type(s).__name__ for s in seqs] == ["MomentSeq", "MomentSeq", "InfoSeq"] and seqs[1].L == 2
        for row, s in enumerate(seqs):
            for j, z in enumerate(Z):
                out = gs.update_seq(s, cv_model, z, (S[row], v[row, j], K[row], covs[row]))
                ref_S, ref_v, _, ref_mean, ref_cov = textbook_update(*gs.last_state_moments(s), H, R, z)
                if isinstance(s, gs.InfoSeq):
                    assert same_bits(out.last[0], ref_mean) and same_bits(out.last[1:], ref_cov)
                    # a copy: the posterior holds no view of the scan's batch
                    assert not any(np.shares_memory(out.last, a) for a in (S, v, K, covs))
                    continue
                n = len(s.cov)
                want_mean, want_cov = textbook_dense_update(s.mean[-n:], s.cov, H, ref_S, ref_v)
                assert same_bits(out.mean[-n:], want_mean) and same_bits(out.cov, want_cov)
                assert same_bits(out.mean[:-n], s.mean[:-n]) and same_bits(out.old_blocks, s.old_blocks)


class TestBackendEquivalenceSweep:
    def test_random_linear_scenarios(self, cv_model):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            mean, cov = rng.standard_normal(4), np.eye(4) * 3.0
            events = random_events(rng, 20, 2, 8)
            sm, _ = run_pipeline("moment", cv_model, TimeWindow(0, 0), mean, cov, events)
            si, _ = run_pipeline("info", cv_model, TimeWindow(0, 0), mean, cov, events)
            np.testing.assert_allclose(gs.mean_sequence(si), sm.mean, atol=1e-8)
            cov_sym = np.asarray(sm.cov)
            np.testing.assert_allclose(cov_sym, cov_sym.T, atol=1e-10)


def concatenated_band(m, si, events):
    """The band of ``si`` after ``events``, built by concatenating whole
    arrays on every step as the recursion is written on paper."""
    ivec, diag, off = (np.array(a) for a in si.band())
    F, Qinv, H, Rinv = m.F, m.Qinv, m.H, m.Rinv
    for ev in events:
        diag = np.concatenate([diag, Qinv[None]])
        diag[-2] = diag[-2] + F.T @ Qinv @ F
        off = np.concatenate([off, (-F.T @ Qinv)[None]])
        ivec = np.concatenate([ivec, np.zeros(m.nx)])
        if ev is not None:
            ivec[-m.nx :] += H.T @ Rinv @ ev
            diag[-1] = diag[-1] + H.T @ Rinv @ H
    return ivec, diag, off


class TestBandSharing:
    """Each measured step is held once: a predicted step is its parent's
    last step, shared with the parent and the children, siblings updated by
    one measurement share their last step, and every predicted step shares
    the model's F'Q^{-1}F and -F'Q^{-1} blocks."""

    def test_children_share_completed_steps_and_superdiagonal(self, cv_model):
        s0 = gs.make_seq("info", TimeWindow(0, 0), np.arange(4.0), np.eye(4))
        s1 = gs.predict_seq(s0, cv_model)
        s2 = gs.predict_seq(s1, cv_model)
        u2 = condition(s2, cv_model, [0.5, -0.5])
        s3 = gs.predict_seq(u2, cv_model)
        # predict appends the parent's last step and shares every array before it
        assert all(a is b for a, b in zip(s1.done, s0.done)) and s1.done[4] is s0.head
        assert len(s3.done) == len(s2.done) + 1 and all(a is b for a, b in zip(s3.done, s2.done))
        assert s2.done[-1] is s1.head is cv_model.info_head and s3.done[-1] is u2.head
        assert u2.done is s2.done  # update moves only the last step
        assert s3.done[2] is cv_model.FtQinvF and s3.done[3] is cv_model.info_off
        assert np.shares_memory(s3.band()[2], cv_model.info_off)
        # a freshly predicted last step is the model's shared block, not a copy
        assert s3.head is cv_model.info_head and not s3.head.flags.writeable
        assert not u2.head.flags.writeable and not u2.last.flags.writeable
        # siblings updated by one measurement share one updated last step
        t2 = gs.predict_seq(gs.predict_seq(gs.make_seq("info", TimeWindow(0, 0), -np.arange(4.0), np.eye(4)), cv_model), cv_model)
        shared = {}
        a, b = (condition(s, cv_model, [0.5, -0.5], shared) for s in (s2, t2))
        other = condition(s2, cv_model, [0.5, 0.5], shared)
        assert a.head is b.head and a.last is not b.last and other.head is not a.head
        assert np.array_equal(a.head, u2.head) and np.array_equal(a.last, u2.last)
        assert gs.predict_seq(a, cv_model).done[-1] is gs.predict_seq(b, cv_model).done[-1]

    def test_detection_children_share_the_updated_last_step(self, cv_model):
        seqs = [
            gs.predict_seq(gs.make_seq("info", TimeWindow(0, 0), m, np.eye(4)), cv_model)
            for m in (np.zeros(4), np.ones(4))
        ]
        h = LocalHypothesis(1.0, TrajectoryMixture(tuple(MixtureComponent(0.5, s) for s in seqs)), ())
        _, _, post = gs.gate_likelihoods(*stacked_moments(seqs), cv_model, np.array([[0.5, 0.5]]))
        child = bernoulli.detect_update(h, cv_model, [0.5, 0.5], (1, 0), ((0, 0, 0.2), (1, 1, 0.1)), post)
        a, b = (c.seq for c in child.density.components)
        assert a.head is b.head and a.last is not b.last

    def test_band_storage_is_untracked_by_the_garbage_collector(self, cv_model):
        rng = np.random.default_rng(8)
        seqs = [gs.make_seq("info", TimeWindow(0, 0), rng.standard_normal(4), np.eye(4))]
        loaded = gs.load_seq(TimeWindow(0, 3), run_pipeline("info", cv_model, TimeWindow(0, 0), np.zeros(4), np.eye(4), [None] * 3)[0].dump())
        seqs.append(loaded)
        for ev in random_events(rng, 6, 2, 4):
            seqs = [gs.predict_seq(s, cv_model) for s in seqs]
            if ev is not None:
                seqs = [condition(s, cv_model, ev) for s in seqs]
        gc.collect()
        assert all(len(s.done) > 2 and not gc.is_tracked(s.done) for s in seqs)

    def test_prediction_under_another_model_completes_the_earlier_steps(self, cv_model):
        other = gs.ModelLG(F=cv_model.F, Q=2.0 * np.asarray(cv_model.Q), H=cv_model.H, R=cv_model.R)
        s0 = gs.make_seq("info", TimeWindow(0, 0), np.arange(4.0), np.eye(4))
        u = condition(gs.predict_seq(gs.predict_seq(s0, cv_model), cv_model), cv_model, [0.5, -0.5])
        ivec, diag, off = u.band()
        mixed = gs.predict_seq(u, other)
        assert mixed.done[-3] is other.FtQinvF and mixed.done[-1] is u.head
        diag = np.concatenate([diag[:-1], [diag[-1] + other.FtQinvF, other.Qinv]])
        want = (np.concatenate([ivec, np.zeros(4)]), diag, np.concatenate([off, [other.info_off]]))
        for got, w in zip(mixed.band(), want):
            assert np.array_equal(got, w)

    def test_replace_keeps_the_other_stored_fields(self, cv_model):
        s = gs.predict_seq(gs.make_seq("info", TimeWindow(0, 0), np.arange(4.0), np.eye(4)), cv_model)
        u = condition(s, cv_model, [0.5, -0.5])
        r = dataclasses.replace(s, head=u.head, last=u.last)
        assert type(r) is gs.InfoSeq and r.done is s.done and r.head is u.head and r.last is u.last
        for got, want in zip(r.band() + r.last_moments(), u.band() + u.last_moments()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_match_the_concatenated_band_and_the_exact_solve(self, cv_model, seed):
        rng = np.random.default_rng(seed)
        events = random_events(rng, 9, 2, 5)
        mean0 = rng.standard_normal(4)
        si, _ = run_pipeline("info", cv_model, TimeWindow(3, 3), mean0, np.eye(4) * 4.0, events)
        ref = concatenated_band(cv_model, gs.make_seq("info", TimeWindow(3, 3), mean0, np.eye(4) * 4.0), events)
        for got, want in zip(si.band(), ref):
            assert np.array_equal(got, want)
        flat = gs.InfoSeq.from_band(si.window, *ref, *si.last_moments())  # the same band in one piece
        assert np.array_equal(si.full_mean(), flat.full_mean())
        nu = si.window.length
        for lo, hi in ((0, nu - 1), (2, 5), (nu - 1, nu - 1)):
            steps = TimeWindow(si.window.alpha + lo, si.window.alpha + hi)
            mean, cov = gs.recover_moments(si, steps)
            flat_mean, flat_cov = gs.recover_moments(flat, steps)
            assert np.array_equal(mean, flat_mean) and np.array_equal(cov, flat_cov)
            exact_mean, exact_cov = exact_band_moments(*ref[1:], ref[0], lo, hi)
            assert rel_err(mean, exact_mean) <= 1e-12 and rel_err(cov, exact_cov) <= 1e-12
        last_mean, last_cov = gs.last_state_moments(si)
        exact_mean, exact_cov = exact_band_moments(ref[1], ref[2], ref[0], nu - 1, nu - 1)
        assert rel_err(last_mean, exact_mean) <= 1e-12 and rel_err(last_cov, exact_cov) <= 1e-12


class TestGateThreshold:
    def test_is_the_chi_square_quantile(self):
        from scipy.stats import chi2

        for p in [0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, *np.linspace(0.01, 0.99, 25)]:
            for df in range(1, 7):
                assert gs._gate_threshold(float(p), df) == float(chi2.ppf(p, df=df))

    def test_import_does_not_load_scipy_stats(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, trajpmbm; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
