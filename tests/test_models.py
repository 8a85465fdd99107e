import json
import math

import numpy as np
import pytest
from scipy.linalg import cholesky

from trajpmbm.models import (
    BirthComponent,
    BirthModel,
    Rectangle,
    SensorModel,
    SurvivalModel,
    birth_intensity_at,
    clutter_density,
    constant_velocity_model,
)
from trajpmbm.scenario import ScenarioConfig


def table_birth_scenario1():
    s = math.sqrt(2)
    means = [(-s, -s), (s, -s), (-s, s), (s, s), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    cov = np.diag([500.0**2, 500.0**2, 10.0**2, 10.0**2])
    return BirthModel(
        tuple(
            BirthComponent(1.0 / 9.0, [mx * 1e4 / 2, my * 1e4 / 2, 0.0, 0.0], cov)
            for mx, my in means
        )
    )


class TestBirth:
    def test_nine_component_birth(self):
        birth = table_birth_scenario1()
        mix = birth_intensity_at(birth, 5)
        assert len(mix.components) == 9
        assert mix.kind == "intensity"
        assert all(c.b == c.e == 5 for c in mix.components)
        assert all(c.weight == pytest.approx(1.0 / 9.0) for c in mix.components)
        rate = sum(c.weight for c in birth.components)
        assert mix.total_weight == pytest.approx(rate) == pytest.approx(1.0)
        np.testing.assert_allclose(
            np.asarray(mix.components[0].seq.cov), np.diag([250000.0, 250000.0, 100.0, 100.0])
        )

    def test_single_diffuse_component(self):
        birth = BirthModel((BirthComponent(0.01, np.zeros(4), np.diag([9e8, 9e8, 100.0, 100.0])),))
        mix = birth_intensity_at(birth, 0)
        assert mix.total_weight == pytest.approx(0.01)
        np.testing.assert_allclose(np.asarray(mix.components[0].seq.cov)[0, 0], 9e8)

    def test_empty_birth_model(self):
        mix = birth_intensity_at(BirthModel(()), 3)
        assert not mix.components and mix.total_weight == 0.0

    def test_scenario_configs_match_reported_parameters(self):
        cfg = ScenarioConfig.from_json("configs/scenario1.json")
        assert (cfg.K, cfg.ps, cfg.pd, cfg.mu_fa) == (100, 0.95, 0.99, 100.0)
        assert len(cfg.birth.components) == 9
        assert sum(c.weight for c in cfg.birth.components) == pytest.approx(1.0)
        cfg2 = ScenarioConfig.from_json("configs/scenario2.json")
        assert cfg2.scripted_births == tuple(range(10, 101, 10))
        assert cfg2.scripted_deaths == tuple(range(990, 899, -10))
        cfg3 = ScenarioConfig.from_json("configs/scenario3.json")
        assert (cfg3.sigma_v, cfg3.sigma_r, cfg3.mu_fa) == (0.5, 10.0, 1.0)
        assert len(cfg3.birth.components) == 3


class TestClutter:
    def test_uniform_density_large_region(self):
        s = SensorModel(pd=0.9, clutter_rate=100.0, region=Rectangle(-1e4, 1e4, -1e4, 1e4))
        assert clutter_density(s, [[0.0, 0.0]])[0] == pytest.approx(2.5e-7)

    def test_zero_rate(self):
        s = SensorModel(pd=0.9, clutter_rate=0.0, region=Rectangle(-1, 1, -1, 1))
        assert clutter_density(s, [[0.0, 0.0]])[0] == 0.0

    def test_small_region_same_density(self):
        s = SensorModel(pd=0.9, clutter_rate=1.0, region=Rectangle(-1e3, 1e3, -1e3, 1e3))
        assert clutter_density(s, [[500.0, -500.0]])[0] == pytest.approx(2.5e-7)

    def test_outside_region_is_zero(self):
        s = SensorModel(pd=0.9, clutter_rate=1.0, region=Rectangle(-1, 1, -1, 1))
        assert clutter_density(s, [[2.0, 0.0]])[0] == 0.0

    def test_scores_each_row(self):
        s = SensorModel(pd=0.9, clutter_rate=4.0, region=Rectangle(-1, 1, -1, 1))
        Z = [[0.0, 0.0], [2.0, 0.0], [0.5, -1.5], [1.0, -1.0]]
        np.testing.assert_array_equal(clutter_density(s, Z), [1.0, 0.0, 0.0, 1.0])

    def test_scalar_measurements_check_x_only(self):
        s = SensorModel(pd=0.9, clutter_rate=4.0, region=Rectangle(-1, 1, 5, 6))
        np.testing.assert_array_equal(clutter_density(s, [[0.5], [1.5]]), [2.0, 0.0])

    def test_density_integrates_to_rate(self):
        s = SensorModel(pd=0.9, clutter_rate=7.0, region=Rectangle(0.0, 2.0, -3.0, 1.0))
        assert clutter_density(s, [[1.0, 0.0]])[0] * s.region.volume == pytest.approx(7.0)


class TestValidation:
    def test_survival_probability_range(self):
        with pytest.raises(ValueError):
            SurvivalModel(1.5)

    def test_detection_probability_range(self):
        with pytest.raises(ValueError):
            SensorModel(pd=0.0, clutter_rate=1.0, region=Rectangle(-1, 1, -1, 1))

    def test_degenerate_region(self):
        with pytest.raises(ValueError):
            Rectangle(1.0, 1.0, -1.0, 1.0)

    def test_birth_covariance_must_be_pd(self):
        with pytest.raises(ValueError):
            BirthComponent(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])


class TestConstantVelocity:
    def test_shapes_and_positive_definite_noise(self):
        m = constant_velocity_model(sigma_v=0.5, sigma_r=10.0)
        assert m.nx == 4 and m.nz == 2
        cholesky(np.asarray(m.Q), lower=True)
        np.testing.assert_allclose(np.asarray(m.R), 100.0 * np.eye(2))

    def test_transition_moves_position_by_velocity(self):
        m = constant_velocity_model(1.0, 1.0)
        x = np.array([1.0, 2.0, 3.0, -4.0])
        np.testing.assert_allclose(np.asarray(m.F) @ x, [4.0, -2.0, 3.0, -4.0])
