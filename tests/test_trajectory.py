import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from trajpmbm import gaussseq as gs
from trajpmbm.density import GlobalHypothesis, LocalHypothesis, PmbmDensity, Track, dump_density, load_density, validate
from trajpmbm.marginal import AliveQuery, materialize_mixture
from trajpmbm.trajectory import (
    MixtureComponent,
    TimeWindow,
    Trajectory,
    TrajectoryMixture,
    birth_death_pmf,
    prune_mixture,
)

from oracles import GridSurrogate, trajectory_set_integral


def comp(w, b, e, mean=None, eps_pmf=None):
    nu = e - b + 1
    m = np.zeros(nu) if mean is None else np.asarray(mean, dtype=float)
    return MixtureComponent(w, gs.MomentSeq(TimeWindow(b, e), m, np.eye(nu)), eps_pmf)


class TestTimeWindow:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            TimeWindow(3, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TimeWindow(-1, 2)

    def test_length(self):
        assert TimeWindow(2, 5).length == 4

    def test_contains(self):
        w = TimeWindow(2, 8)
        assert w.contains(TimeWindow(3, 8))
        assert not w.contains(TimeWindow(0, 4))


class TestTrajectory:
    def test_length_must_match_window(self):
        with pytest.raises(ValueError):
            Trajectory(2, 5, np.zeros((3, 4)))

    def test_state_lookup(self):
        t = Trajectory(2, 4, np.arange(6.0).reshape(3, 2))
        assert t.length == 3
        np.testing.assert_array_equal(t.state_at(3), [2.0, 3.0])
        with pytest.raises(KeyError):
            t.state_at(5)

    def test_rejects_inverted_steps(self):
        with pytest.raises(ValueError):
            Trajectory(5, 2, np.zeros((1, 2)))


class TestBirthDeathPmfFromMixture:
    def test_single_component(self):
        mix = TrajectoryMixture((comp(1.0, 2, 5),))
        assert birth_death_pmf(mix) == {(2, 5): 1.0}

    def test_two_components(self):
        mix = TrajectoryMixture((comp(0.7, 1, 3), comp(0.3, 1, 4)))
        d = birth_death_pmf(mix)
        assert d == pytest.approx({(1, 3): 0.7, (1, 4): 0.3})

    def test_duplicate_support_sums(self):
        mix = TrajectoryMixture((comp(0.5, 2, 2), comp(0.5, 2, 2)))
        assert birth_death_pmf(mix) == pytest.approx({(2, 2): 1.0})

    def test_deferred_death_pmf_spreads_mass(self):
        mix = TrajectoryMixture((comp(1.0, 0, 2, eps_pmf=((1, 0.25), (2, 0.75))),))
        d = birth_death_pmf(mix)
        assert d == pytest.approx({(0, 1): 0.25, (0, 2): 0.75})

    def test_rejects_intensity(self):
        mix = TrajectoryMixture((comp(0.5, 0, 0),), kind="intensity")
        with pytest.raises(ValueError):
            birth_death_pmf(mix)

    def test_rejects_empty(self):
        mix = TrajectoryMixture((), kind="intensity")
        with pytest.raises(ValueError):
            birth_death_pmf(mix)

    def test_total_mass_one_for_random_mixtures(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 6)
            w = rng.dirichlet(np.ones(n))
            comps = []
            for i in range(n):
                b = int(rng.integers(0, 3))
                e = b + int(rng.integers(0, 3))
                comps.append(comp(float(w[i]), b, e))
            total = sum(birth_death_pmf(TrajectoryMixture(tuple(comps))).values())
            assert abs(total - 1.0) < 1e-12


class TestMixture:
    def test_density_weights_must_normalize(self):
        # the constructor only stores; validate() and load_density check
        h = LocalHypothesis(0.5, TrajectoryMixture((comp(0.5, 0, 0),)), ())
        p = PmbmDensity(
            TrajectoryMixture((), "intensity"), (Track(0, (h,)),), (GlobalHypothesis(0.0, ((0, 0),)),), TimeWindow(0, 0), "all"
        )
        with pytest.raises(AssertionError, match="hypothesis density weight"):
            validate(p)
        with pytest.raises(ValueError):
            load_density(dump_density(p))

    def test_materialize_expands_deferred_components(self):
        mix = TrajectoryMixture(
            (comp(1.0, 0, 2, mean=[1.0, 2.0, 3.0], eps_pmf=((0, 0.2), (2, 0.8))),)
        )
        out = materialize_mixture(mix, AliveQuery(0, 2, 0, 2))
        assert [(c.b, c.e) for c in out.components] == [(0, 0), (0, 2)]
        assert [c.weight for c in out.components] == pytest.approx([0.2, 0.8])
        np.testing.assert_allclose(out.components[0].seq.mean, [1.0])
        np.testing.assert_allclose(out.components[1].seq.mean, [1.0, 2.0, 3.0])

    def test_prune_drops_relative_to_total_and_renormalizes(self):
        mix = TrajectoryMixture((comp(0.9995, 0, 0), comp(0.0005, 1, 1)))
        out = prune_mixture(mix, 1e-3)
        assert len(out.components) == 1
        assert out.components[0].weight == pytest.approx(1.0)

    def test_prune_never_empties(self):
        mix = TrajectoryMixture((comp(1.0, 0, 0),))
        assert len(prune_mixture(mix, 0.5).components) == 1


class TestSetIntegral:
    def grid(self, lo=-8.0, hi=8.0, n=81, windows=((0, 0),)):
        pts = np.linspace(lo, hi, n).reshape(-1, 1)
        return GridSurrogate(pts, (hi - lo) / (n - 1), windows)

    def test_bernoulli_normalizes(self):
        r = 0.3
        surrogate = self.grid()

        def f(xs):
            if len(xs) == 0:
                return 1.0 - r
            if len(xs) > 1:
                return 0.0
            t = xs[0]
            if (t.beta, t.epsilon) != (0, 0):
                return 0.0
            return r * float(norm.pdf(t.states[0, 0]))

        val = trajectory_set_integral(f, 2, surrogate)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_bernoulli_on_three_point_grid(self):
        # mass exactly on the atoms: the quadrature is exact
        pts = np.array([[-1.0], [0.0], [1.0]])
        surrogate = GridSurrogate(pts, 1.0, ((0, 0),))
        dens = {-1.0: 0.2, 0.0: 0.5, 1.0: 0.3}

        def f(xs):
            if len(xs) == 0:
                return 0.7
            if len(xs) > 1:
                return 0.0
            return 0.3 * dens[float(xs[0].states[0, 0])]

        assert trajectory_set_integral(f, 3, surrogate) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_truncated_series(self):
        mu = 0.5
        surrogate = GridSurrogate(np.array([[0.0]]), 1.0, ((0, 0),))

        def f(xs):
            return math.exp(-mu) * mu ** len(xs)

        for max_n in (5, 20):
            expected = sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(max_n + 1))
            assert trajectory_set_integral(f, max_n, surrogate) == pytest.approx(expected, abs=1e-12)

    def test_empty_set_term_only(self):
        surrogate = self.grid(n=5)

        def f(xs):
            return 2.5 if len(xs) == 0 else 0.0

        assert trajectory_set_integral(f, 3, surrogate) == pytest.approx(2.5)

    def test_rejects_negative_cardinality(self):
        with pytest.raises(ValueError):
            trajectory_set_integral(lambda xs: 0.0, -1, self.grid(n=3))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridSurrogate(np.zeros((0, 1)), 1.0, ((0, 0),))
