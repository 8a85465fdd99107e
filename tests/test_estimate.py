import math

import numpy as np
import pytest

from trajpmbm import gaussseq as gs
from trajpmbm.density import GlobalHypothesis, LocalHypothesis, PmbmDensity, Track
from trajpmbm.estimate import expected_sequence, extract_set, map_birth_death
from trajpmbm.trajectory import MixtureComponent, TimeWindow, TrajectoryMixture


def comp(w, b, e, mean, eps_pmf=None):
    nu = e - b + 1
    return MixtureComponent(w, gs.MomentSeq(TimeWindow(b, e), np.asarray(mean, float), np.eye(nu)), eps_pmf)


def fixture(globals_, tracks):
    return PmbmDensity(
        ppp=TrajectoryMixture((), "intensity"),
        tracks=tuple(tracks),
        global_hyps=tuple(globals_),
        window=TimeWindow(0, 9),
        mode="all",
    )


class TestMapBirthDeath:
    def test_argmax(self):
        mix = TrajectoryMixture((comp(0.7, 1, 3, [0, 0, 0]), comp(0.3, 1, 4, [0, 0, 0, 0])))
        assert map_birth_death(mix) == (1, 3)

    def test_single_component(self):
        mix = TrajectoryMixture((comp(1.0, 2, 5, np.zeros(4)),))
        assert map_birth_death(mix) == (2, 5)

    def test_equals_max_weight_component_when_support_unique(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            comps = [comp(float(w[i]), i, i + 1, np.zeros(2)) for i in range(4)]
            mix = TrajectoryMixture(tuple(comps))
            best = max(mix.components, key=lambda c: c.weight)
            assert map_birth_death(mix) == (best.b, best.e)

    def test_tie_breaks_toward_smaller_epsilon_then_beta(self):
        mix = TrajectoryMixture(
            (comp(0.4, 1, 4, np.zeros(4)), comp(0.4, 2, 3, np.zeros(2)), comp(0.2, 0, 2, np.zeros(3)))
        )
        assert map_birth_death(mix) == (2, 3)
        mix = TrajectoryMixture((comp(0.5, 2, 3, np.zeros(2)), comp(0.5, 1, 3, np.zeros(3))))
        assert map_birth_death(mix) == (1, 3)


class TestExpectedSequence:
    def test_single_component_verbatim(self):
        mix = TrajectoryMixture((comp(1.0, 0, 2, [1.0, 2.0, 3.0]),))
        np.testing.assert_allclose(expected_sequence(mix, 0, 2), [[1.0], [2.0], [3.0]])

    def test_mixture_expectation(self):
        mix = TrajectoryMixture((comp(0.25, 0, 1, [0.0, 0.0]), comp(0.75, 0, 1, [4.0, 8.0])))
        np.testing.assert_allclose(expected_sequence(mix, 0, 1), [[3.0], [6.0]])

    def test_information_form_matches_moment(self, scalar_model):
        sm = gs.MomentSeq(TimeWindow(0, 0), [0.0], [[1.0]])
        si = gs.make_seq("info", TimeWindow(0, 0), [0.0], [[1.0]])
        for z in ([0.7], None, [1.9]):
            sm = gs.predict_seq(sm, scalar_model)
            si = gs.predict_seq(si, scalar_model)
            if z is not None:
                sm = gs.update_seq(sm, scalar_model, z)
                si = gs.update_seq(si, scalar_model, z)
        mix_m = TrajectoryMixture((MixtureComponent(1.0, sm),))
        mix_i = TrajectoryMixture((MixtureComponent(1.0, si),))
        np.testing.assert_allclose(
            expected_sequence(mix_i, 0, 3), expected_sequence(mix_m, 0, 3), atol=1e-8
        )

    def test_deferred_death_component_truncates(self):
        mix = TrajectoryMixture((comp(1.0, 0, 2, [1.0, 2.0, 3.0], eps_pmf=((1, 0.5), (2, 0.5))),))
        np.testing.assert_allclose(expected_sequence(mix, 0, 1), [[1.0], [2.0]])

    def test_missing_pair_rejected(self):
        mix = TrajectoryMixture((comp(1.0, 0, 2, [1.0, 2.0, 3.0]),))
        with pytest.raises(ValueError):
            expected_sequence(mix, 1, 2)


class TestExtractSet:
    def two_track_fixture(self, r0=1.0, r1=1.0, w=(0.7, 0.3)):
        t0 = Track(0, (LocalHypothesis(r0, TrajectoryMixture((comp(1.0, 0, 1, [1.0, 2.0]),)), ((0, 0),)),))
        t1 = Track(
            1,
            (
                LocalHypothesis(r1, TrajectoryMixture((comp(1.0, 1, 1, [5.0]),)), ((1, 0),)),
                LocalHypothesis(0.4, TrajectoryMixture((comp(1.0, 1, 1, [9.0]),)), ((1, 1),)),
            ),
        )
        globals_ = (
            GlobalHypothesis(math.log(w[0]), ((0, 0), (1, 0))),
            GlobalHypothesis(math.log(w[1]), ((0, 0), (1, 1))),
        )
        return fixture(globals_, [t0, t1])

    def test_emits_all_certain_tracks(self):
        p = self.two_track_fixture()
        out = extract_set(p, r_e=1.0)
        assert [(t.beta, t.epsilon) for t in out] == [(0, 1), (1, 1)]
        np.testing.assert_allclose(out[0].states[:, 0], [1.0, 2.0])

    def test_threshold_is_inclusive_and_excludes_below(self):
        p = self.two_track_fixture(r1=0.99)
        out = extract_set(p, r_e=1.0)
        assert [(t.beta, t.epsilon) for t in out] == [(0, 1)]
        out = extract_set(p, r_e=0.99)
        assert len(out) == 2

    def test_invariant_to_weight_rescaling(self):
        p = self.two_track_fixture()
        shifted = PmbmDensity(
            p.ppp,
            p.tracks,
            tuple(GlobalHypothesis(g.log_weight + 3.7, g.choice) for g in p.global_hyps),
            p.window,
            p.mode,
        )
        a = extract_set(p, 0.5)
        b = extract_set(shifted, 0.5)
        assert [(t.beta, t.epsilon) for t in a] == [(t.beta, t.epsilon) for t in b]

    def test_tie_breaks_to_lexicographically_smallest_choice(self):
        p = self.two_track_fixture(w=(0.5, 0.5))
        out = extract_set(p, r_e=0.0)
        # choice ((0,0),(1,0)) sorts before ((0,0),(1,1))
        np.testing.assert_allclose(out[1].states[:, 0], [5.0])

    def test_empty_output_is_valid(self):
        p = self.two_track_fixture(r0=0.2, r1=0.2)
        assert extract_set(p, r_e=1.0) == ()
