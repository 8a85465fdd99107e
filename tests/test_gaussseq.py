import math

import numpy as np
import pytest

from trajpmbm import gaussseq as gs
from trajpmbm.trajectory import TimeWindow

from conftest import run_pipeline
from helpers import nonzero_counts
from oracles import exact_band_moments, joint_predict, joint_update, point_predict, point_update, predictive_likelihood


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
        out = gs.update_seq(s, scalar_model, [2.0])
        np.testing.assert_allclose(out.mean, [2.0 / 3.0, 4.0 / 3.0])
        np.testing.assert_allclose(out.cov, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
        # innovation 2 under variance 3
        _, lik = gs.gate_likelihoods(s, scalar_model, [[2.0]])
        assert math.log(lik[0]) == pytest.approx(-0.5 * (math.log(2 * math.pi * 3) + 4.0 / 3.0))

    def test_update_zero_innovation_keeps_mean_shrinks_cov(self, scalar_model):
        s = gs.MomentSeq(TimeWindow(0, 1), [1.0, 2.0], [[1.0, 1.0], [1.0, 2.0]])
        out = gs.update_seq(s, scalar_model, [2.0])
        np.testing.assert_allclose(out.mean, s.mean)
        assert np.all(np.linalg.eigvalsh(np.asarray(s.cov) - np.asarray(out.cov)) > -1e-12)

    def test_huge_noise_update_is_noop(self, cv_model):
        big_r = gs.ModelLG(cv_model.F, cv_model.Q, cv_model.H, 1e12 * np.asarray(cv_model.R))
        s = gs.predict_seq(gs.MomentSeq(TimeWindow(0, 0), np.ones(4), np.eye(4)), big_r)
        out = gs.update_seq(s, big_r, [50.0, -20.0])
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
                s = gs.update_seq(s, cv_model, ev)
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
        out = gs.predict_seq(si, scalar_model)
        np.testing.assert_allclose(out.ivec, [0.0, 0.0])
        np.testing.assert_allclose(out.diag, [[[2.0]], [[1.0]]])
        np.testing.assert_allclose(out.off, [[[-1.0]]])

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
        out = gs.update_seq(si, cv_model, [1.0, -1.0])
        nx = si.nx
        assert np.array_equal(out.ivec[:-nx], np.asarray(si.ivec[:-nx]))
        assert np.array_equal(out.diag[:-1], np.asarray(si.diag[:-1]))
        assert np.array_equal(out.off, np.asarray(si.off))
        assert not np.array_equal(out.diag[-1], np.asarray(si.diag[-1]))

    def test_single_step_equals_information_filter(self, scalar_model):
        si = gs.make_seq("info", TimeWindow(0, 0), [0.5], [[2.0]])
        out = gs.update_seq(si, scalar_model, [1.5])
        # information filter: Y += H'R^{-1}H, y += H'R^{-1}z
        np.testing.assert_allclose(out.diag[0], [[0.5 + 1.0]])
        np.testing.assert_allclose(out.ivec, [0.25 + 1.5])

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
        si = gs.update_seq(si, cv_model, rng.standard_normal(2))
        n_assoc = 1
        for ev in random_events(rng, 6, 2, 3):
            si = gs.predict_seq(si, cv_model)
            if ev is not None:
                si = gs.update_seq(si, cv_model, ev)
                n_assoc += 1
        mean_nnz, _ = nonzero_counts(si)
        assert mean_nnz == cv_model.nz * n_assoc


class TestRecoverMoments:
    def test_single_step_solve(self):
        si = gs.InfoSeq(TimeWindow(0, 0), [3.0], [[[2.0]]], np.zeros((0, 1, 1)), [1.5], [[0.5]])
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
        si = gs.InfoSeq(TimeWindow(0, 1), [0.0, 0.0], diag, off, [0.0], [[1e30]])
        with pytest.raises(np.linalg.LinAlgError):
            gs.recover_moments(si, TimeWindow(0, 1))


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
        mean, cov = exact_band_moments(band.diag, band.off, band.ivec, nu - 1, nu - 1)
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
        mean, cov = exact_band_moments(band.diag, band.off, band.ivec, lo, hi)
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
        out2 = gs.update_seq(out, scalar_model, [2.0])
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
        out = gs.update_seq(sl, cv_model, [0.5, 0.5])
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
        _, lik = gs.gate_likelihoods(s, cv_model, [z])
        assert predictive_likelihood(s, cv_model, z) == pytest.approx(lik[0])

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
