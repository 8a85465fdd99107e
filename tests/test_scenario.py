import json

import numpy as np
import pytest

from trajpmbm.models import BirthComponent, BirthModel, Rectangle
from trajpmbm.scenario import (
    ScenarioConfig,
    generate_scenario,
    read_measurement_log,
    read_trajectory_sets,
    truth_at_step,
    write_measurement_log,
    write_trajectory_sets,
)


def small_cfg(**kw):
    base = dict(
        K=10,
        sigma_v=0.5,
        sigma_r=1.0,
        ps=0.95,
        pd=0.9,
        mu_fa=1.0,
        region=Rectangle(-50.0, 50.0, -50.0, 50.0),
        birth=BirthModel((BirthComponent(0.2, np.zeros(4), np.diag([25.0, 25.0, 1.0, 1.0])),)),
        seed=5,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestGenerate:
    def test_scripted_births_and_deaths(self):
        cfg = small_cfg(scripted_births=(0, 2, 4), scripted_deaths=(9, 7, 5))
        truth, log = generate_scenario(cfg)
        assert len(truth) == 3
        assert sorted((t.beta, t.epsilon) for t in truth) == [(0, 9), (2, 7), (4, 5)]
        assert len(log) == cfg.K

    def test_perfect_sensor_detects_every_alive_target(self):
        cfg = small_cfg(pd=1.0, mu_fa=0.0, scripted_births=(0, 3), scripted_deaths=(9, 6))
        truth, log = generate_scenario(cfg)
        for k, scan in enumerate(log):
            alive = [t for t in truth if t.beta <= k <= t.epsilon]
            assert len(scan) == len(alive)

    def test_detections_near_truth(self):
        cfg = small_cfg(pd=1.0, mu_fa=0.0, sigma_r=0.1, scripted_births=(0,), scripted_deaths=(9,))
        truth, log = generate_scenario(cfg)
        for k, scan in enumerate(log):
            z = np.asarray(scan[0])
            np.testing.assert_allclose(z, truth[0].state_at(k)[:2], atol=1.0)

    def test_bitwise_determinism(self):
        cfg = small_cfg()
        t1, l1 = generate_scenario(cfg)
        t2, l2 = generate_scenario(cfg)
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert (a.beta, a.epsilon) == (b.beta, b.epsilon)
            assert np.array_equal(np.asarray(a.states), np.asarray(b.states))
        for s1, s2 in zip(l1, l2):
            assert len(s1) == len(s2)
            for z1, z2 in zip(s1, s2):
                assert np.array_equal(z1, z2)

    def test_different_seed_differs(self):
        _, l1 = generate_scenario(small_cfg())
        _, l2 = generate_scenario(small_cfg(), seed=99)
        flat1 = [tuple(z) for s in l1 for z in s]
        flat2 = [tuple(z) for s in l2 for z in s]
        assert flat1 != flat2

    def test_poisson_birth_counts_reasonable(self):
        cfg = small_cfg(K=200, mu_fa=0.0, pd=1.0, birth=BirthModel(
            (BirthComponent(0.5, np.zeros(4), np.diag([25.0, 25.0, 1.0, 1.0])),)
        ))
        truth, _ = generate_scenario(cfg)
        # ~0.5 births per step over 200 steps
        assert 60 <= len(truth) <= 140


class TestTruthAtStep:
    def test_truncation(self):
        cfg = small_cfg(scripted_births=(0, 4), scripted_deaths=(9, 8))
        truth, _ = generate_scenario(cfg)
        at3 = truth_at_step(truth, 3)
        assert [(t.beta, t.epsilon) for t in at3] == [(0, 3)]
        at6 = truth_at_step(truth, 6)
        assert sorted((t.beta, t.epsilon) for t in at6) == [(0, 6), (4, 6)]


class TestIO:
    def test_measurement_log_roundtrip(self, tmp_path):
        log = (
            (np.array([1.0, 2.0]),),
            None,
            (),
            (np.array([3.0, 4.0]), np.array([5.0, 6.0])),
        )
        path = tmp_path / "log.jsonl"
        write_measurement_log(path, log)
        back = read_measurement_log(path)
        assert len(back) == 4
        assert back[1] is None
        assert back[2] == ()
        np.testing.assert_allclose(back[3][1], [5.0, 6.0])
        assert all(z.dtype == float for scan in back if scan for z in scan)

    def test_trajectory_sets_roundtrip(self, tmp_path):
        cfg = small_cfg(scripted_births=(0,), scripted_deaths=(9,))
        truth, _ = generate_scenario(cfg)
        sets = [truth_at_step(truth, k) for k in range(cfg.K)]
        path = tmp_path / "truth.jsonl"
        write_trajectory_sets(path, sets)
        back = read_trajectory_sets(path)
        assert len(back) == cfg.K
        np.testing.assert_allclose(np.asarray(back[5][0].states), np.asarray(sets[5][0].states))

    def test_config_json_roundtrip(self, tmp_path):
        cfg = small_cfg(scripted_births=(1, 2), scripted_deaths=(8, 9))
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "K": 10,
                    "sigma_v": 0.5,
                    "sigma_r": 1.0,
                    "ps": 0.95,
                    "pd": 0.9,
                    "mu_fa": 1.0,
                    "region": {"xmin": -50.0, "xmax": 50.0, "ymin": -50.0, "ymax": 50.0},
                    "birth": [{"weight": 0.2, "mean": [0.0] * 4, "cov": np.diag([25.0, 25.0, 1.0, 1.0]).tolist()}],
                    "seed": 5,
                    "truth_mode": {"scripted": {"births": [1, 2], "deaths": [8, 9]}},
                }
            )
        )
        back = ScenarioConfig.from_json(path)
        assert back.K == cfg.K and back.scripted_births == (1, 2)
        assert back.region == cfg.region
        np.testing.assert_allclose(
            np.asarray(back.birth.components[0].cov), np.asarray(cfg.birth.components[0].cov)
        )

    def test_non_contiguous_log_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": 0, "scan": []}\n{"k": 2, "scan": []}\n')
        with pytest.raises(ValueError):
            read_measurement_log(path)

    @pytest.mark.parametrize(
        "read,text,match",
        [
            (read_measurement_log, '{"k": 0}\n', "line 1: KeyError\\('scan'\\)"),
            (read_measurement_log, '{"k": 1, "scan": []}\n', "no record for step 0"),
            (read_trajectory_sets, '{"k": 0, "trajectories": []}\n{"k": 2, "trajectories": []}\n', "step 1"),
            (read_trajectory_sets, '{"k": 0, "trajectories": [{"beta": 0, "states": [[0.0]]}]}\n', "epsilon"),
        ],
        ids=["no-scan", "no-step-0", "gap", "no-epsilon"],
    )
    def test_malformed_record_rejected(self, tmp_path, read, text, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read(path)

    def test_config_without_a_key_rejected(self):
        with pytest.raises(ValueError, match="region"):
            ScenarioConfig.from_dict({"K": 5})
