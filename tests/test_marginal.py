import math

import numpy as np
import pytest

from trajpmbm import gaussseq as gs
from trajpmbm.density import GlobalHypothesis, LocalHypothesis, PmbmDensity, Track
from trajpmbm.marginal import AliveQuery, marginalize_bernoulli, marginalize_pmbm, marginalize_ppp
from trajpmbm.trajectory import (
    MixtureComponent,
    TimeWindow,
    TrajectoryMixture,
    epsilon_pmf_miss_update,
    epsilon_pmf_predict,
)

from helpers import death_time_estimate, epsilon_pmf_recursive
from oracles import birth_pmf, epsilon_pmf_closed


def seq(b, e, mean=None):
    nu = e - b + 1
    m = np.arange(float(nu)) if mean is None else np.asarray(mean, float)
    return gs.MomentSeq(TimeWindow(b, e), m, np.eye(nu))


def bern(r, comps, history=frozenset()):
    return LocalHypothesis(0.0, r, TrajectoryMixture(tuple(comps)), history)


class TestAliveQuery:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            AliveQuery(alpha=2, gamma=5, eta=1, zeta=3)
        with pytest.raises(ValueError):
            AliveQuery(alpha=0, gamma=3, eta=2, zeta=4)


class TestMarginalizeBernoulli:
    def test_worked_existence_split(self):
        h = bern(0.8, [MixtureComponent(0.5, seq(1, 3)), MixtureComponent(0.5, seq(4, 6))])
        out = marginalize_bernoulli(h, AliveQuery(0, 6, 4, 6))
        assert out.r == pytest.approx(0.4)
        assert len(out.density.components) == 1
        c = out.density.components[0]
        assert (c.b, c.e, c.weight) == (4, 6, pytest.approx(1.0))

    def test_full_window_is_identity_on_r(self):
        h = bern(0.8, [MixtureComponent(0.5, seq(1, 3)), MixtureComponent(0.5, seq(4, 6))])
        out = marginalize_bernoulli(h, AliveQuery(0, 6, 0, 6))
        assert out.r == pytest.approx(0.8)
        assert [(c.b, c.e) for c in out.density.components] == [(1, 3), (4, 6)]

    def test_disjoint_alive_window_kills_existence(self):
        h = bern(0.8, [MixtureComponent(1.0, seq(1, 3))])
        out = marginalize_bernoulli(h, AliveQuery(4, 6, 5, 6))
        assert out.r == 0.0
        assert out.density is None

    def test_r_preserved_when_all_components_alive(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.dirichlet(np.ones(3))
            h = bern(
                float(rng.uniform(0.1, 1.0)),
                [MixtureComponent(float(w[i]), seq(i, i + 2)) for i in range(3)],
            )
            out = marginalize_bernoulli(h, AliveQuery(0, 9, 2, 4))
            assert out.r == pytest.approx(h.r)

    def test_deferred_death_pmf_participates(self):
        # mass at the early death time is outside the alive interval
        c = MixtureComponent(1.0, seq(0, 3), ((1, 0.3), (3, 0.7)))
        h = bern(1.0, [c])
        out = marginalize_bernoulli(h, AliveQuery(0, 3, 2, 3))
        assert out.r == pytest.approx(0.7)

    def test_only_kept_death_times_are_marginalized(self, monkeypatch):
        # alive at 5 only: of six death times one survives, and only its
        # clamp to the kept step needs a marginal
        c = MixtureComponent(1.0, seq(0, 5), tuple((e, 1.0 / 6.0) for e in range(6)))
        calls = []
        real = gs.marginalize_steps
        monkeypatch.setattr(gs, "marginalize_steps", lambda s, keep: calls.append(keep) or real(s, keep))
        out = marginalize_bernoulli(bern(0.9, [c]), AliveQuery(5, 5, 5, 5))
        assert calls == [TimeWindow(5, 5)]
        assert out.r == pytest.approx(0.15)


class TestMarginalizePpp:
    def test_clamp_and_keep_weight(self):
        mean = np.arange(8.0)
        mix = TrajectoryMixture((MixtureComponent(0.5, seq(2, 9, mean)),), "intensity")
        out = marginalize_ppp(mix, AliveQuery(3, 7, 5, 5))
        assert len(out.components) == 1
        c = out.components[0]
        assert (c.b, c.e) == (3, 7)
        assert c.weight == pytest.approx(0.5)
        np.testing.assert_allclose(np.asarray(c.seq.mean), mean[1:6])

    def test_disjoint_component_dropped(self):
        mix = TrajectoryMixture((MixtureComponent(0.5, seq(0, 1)),), "intensity")
        out = marginalize_ppp(mix, AliveQuery(2, 5, 3, 4))
        assert out.is_empty()

    def test_total_mass_never_increases(self):
        rng = np.random.default_rng(1)
        comps = [MixtureComponent(float(rng.uniform(0, 1)), seq(i, i + 1)) for i in range(5)]
        mix = TrajectoryMixture(tuple(comps), "intensity")
        out = marginalize_ppp(mix, AliveQuery(1, 4, 2, 3))
        assert out.total_weight <= mix.total_weight + 1e-12


class TestMarginalizePmbm:
    def fixture(self):
        ppp = TrajectoryMixture((MixtureComponent(0.2, seq(0, 2)),), "intensity")
        t0 = Track(0, (bern(0.9, [MixtureComponent(1.0, seq(0, 2))], frozenset({(0, 0)})),))
        t1 = Track(1, (bern(0.5, [MixtureComponent(1.0, seq(1, 1))], frozenset({(1, 0)})),))
        return PmbmDensity(
            ppp, (t0, t1), (GlobalHypothesis(0.0, ((0, 0), (1, 0))),), TimeWindow(0, 2), "all"
        )

    def test_point_projection_has_single_step_components(self):
        p = self.fixture()
        out = marginalize_pmbm(p, AliveQuery(2, 2, 2, 2))
        assert out.window == TimeWindow(2, 2)
        for c in out.ppp.components:
            assert (c.b, c.e) == (2, 2)
        h0 = out.track_by_id(0).hypotheses[0]
        assert h0.r == pytest.approx(0.9)
        assert all((c.b, c.e) == (2, 2) for c in h0.density.components)
        # the track that died before the window survives as a placeholder
        h1 = out.track_by_id(1).hypotheses[0]
        assert h1.r == 0.0
        assert out.global_hyps == p.global_hyps

    def test_current_trajectories_projection(self):
        p = self.fixture()
        out = marginalize_pmbm(p, AliveQuery(0, 2, 2, 2))
        h0 = out.track_by_id(0).hypotheses[0]
        assert (h0.density.components[0].b, h0.density.components[0].e) == (0, 2)
        assert out.track_by_id(1).hypotheses[0].r == 0.0

    def test_query_must_fit_window(self):
        with pytest.raises(ValueError):
            marginalize_pmbm(self.fixture(), AliveQuery(0, 5, 2, 3))


class TestBirthPmf:
    def model(self):
        return gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])

    def test_equal_evidence_keeps_weights(self):
        # both components alive at k = 5, identical means: evidence cancels
        ppp = TrajectoryMixture(
            (
                MixtureComponent(0.6, seq(3, 5, [0.0, 0.0, 0.0])),
                MixtureComponent(0.4, seq(5, 5, [0.0])),
            ),
            "intensity",
        )
        pmf = birth_pmf(ppp, [0.3], self.model(), k=5)
        assert pmf == pytest.approx({3: 0.6, 5: 0.4})

    def test_single_component(self):
        ppp = TrajectoryMixture((MixtureComponent(0.6, seq(2, 4)),), "intensity")
        pmf = birth_pmf(ppp, [0.0], self.model(), k=4)
        assert pmf == pytest.approx({2: 1.0})

    def test_distant_component_loses_mass(self):
        ppp = TrajectoryMixture(
            (
                MixtureComponent(0.5, seq(0, 2, [0.0, 0.0, 0.0])),
                MixtureComponent(0.5, seq(2, 2, [100.0])),
            ),
            "intensity",
        )
        pmf = birth_pmf(ppp, [0.0], self.model(), k=2)
        assert pmf[0] > 1.0 - 1e-9
        assert pmf[2] < 1e-9

    def test_requires_alive_component(self):
        ppp = TrajectoryMixture((MixtureComponent(0.6, seq(0, 1)),), "intensity")
        with pytest.raises(ValueError):
            birth_pmf(ppp, [0.0], self.model(), k=3)


class TestDeathTimePmf:
    def test_worked_example(self):
        pmf = epsilon_pmf_closed(tau=5, k=7, ps=0.9, pd=0.9)
        assert pmf[5] == pytest.approx(0.85397, abs=5e-6)
        assert pmf[6] == pytest.approx(0.07686, abs=5e-6)
        assert pmf[7] == pytest.approx(0.06917, abs=5e-6)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_misses_point_mass(self):
        assert epsilon_pmf_closed(4, 4, 0.9, 0.9) == {4: 1.0}

    def test_certain_detection_pins_death_at_last_association(self):
        pmf = epsilon_pmf_closed(3, 8, ps=0.9, pd=1.0)
        assert pmf == pytest.approx({3: 1.0})

    def test_rejects_degenerate_regime(self):
        with pytest.raises(ValueError):
            epsilon_pmf_closed(0, 1, ps=1.0, pd=0.0)

    def test_recursion_reproduces_closed_form(self):
        for ps, pd in [(0.9, 0.9), (0.5, 0.7), (0.99, 0.1)]:
            pmf = ((3, 1.0),)
            for k in range(4, 20):
                pmf = epsilon_pmf_recursive(pmf, ps, pd, k)
                ref = epsilon_pmf_closed(3, k, ps, pd)
                assert [e for e, _ in pmf] == sorted(ref)
                for e, m in pmf:
                    assert m == pytest.approx(ref[e], abs=1e-12)

    def test_zero_survival_freezes(self):
        pmf = epsilon_pmf_recursive(((3, 1.0),), ps=0.0, pd=0.5, k=4)
        assert pmf == ((3, pytest.approx(1.0)),)

    def test_zero_detection_is_pure_survival_split(self):
        pred = epsilon_pmf_predict(((3, 1.0),), ps=0.8, k=4)
        out = epsilon_pmf_miss_update(pred, pd=0.0, k=4)
        assert out == tuple((e, pytest.approx(m)) for e, m in pred)

    def test_geometric_tail_limit(self):
        ps, pd = 0.9, 0.9
        qdps = (1 - pd) * ps
        pmf = epsilon_pmf_closed(0, 200, ps, pd)
        tv = 0.0
        for i in range(201):
            geo = qdps**i * (1 - qdps)
            tv += abs(pmf.get(i, 0.0) - geo)
        assert 0.5 * tv < 1e-6

    def test_expected_death_time_limit(self):
        ps, pd = 0.95, 0.6
        qdps = (1 - pd) * ps
        pmf = epsilon_pmf_closed(10, 400, ps, pd)
        mean = sum(e * m for e, m in pmf.items())
        assert mean == pytest.approx(10 + qdps / (1 - qdps), abs=1e-6)

    def test_all_pmfs_normalized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            ps, pd = rng.uniform(0.05, 0.99, size=2)
            tau = int(rng.integers(0, 5))
            k = tau + int(rng.integers(0, 30))
            pmf = epsilon_pmf_closed(tau, k, ps, pd)
            assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)


class TestDeathTimeEstimate:
    def test_map_with_tie_toward_earlier(self):
        assert death_time_estimate({3: 0.5, 4: 0.3, 5: 0.2}) == 3
        assert death_time_estimate({3: 0.4, 4: 0.4, 5: 0.2}) == 3

    def test_rounded_mean(self):
        pmf = epsilon_pmf_closed(10, 60, ps=0.95, pd=0.6)
        qdps = 0.4 * 0.95
        expected = round(10 + qdps / (1 - qdps))
        assert death_time_estimate(pmf, method="mean") == expected

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            death_time_estimate({3: 1.0}, method="mode")
