import csv
import itertools

import numpy as np
import pytest

from trajpmbm.metrics import MetricRow, gospa_step, ospa2, trajectory_distance, write_metric_csv
from trajpmbm.trajectory import Trajectory


def line(beta, epsilon, x0, vx=1.0, y=0.0):
    states = np.array([[x0 + vx * i, y, vx, 0.0] for i in range(epsilon - beta + 1)])
    return Trajectory(beta, epsilon, states)


class TestOspa2:
    def test_identical_sets_zero(self):
        est = (line(0, 5, 0.0), line(2, 5, 10.0))
        row = ospa2(est, est, k=5)
        assert row.total == 0.0 and row.loc == 0.0 and row.card == 0.0

    def test_empty_estimate_costs_cutoff(self):
        truth = (line(0, 5, 0.0), line(0, 5, 30.0))
        row = ospa2((), truth, k=5, c=100.0)
        assert row.total == pytest.approx(100.0)
        assert row.card == pytest.approx(100.0)
        assert row.loc == 0.0

    def test_both_empty_zero(self):
        assert ospa2((), (), k=3).total == 0.0

    def test_crossing_fixture_matches_assignment_enumeration(self):
        truth = (line(0, 9, 0.0, vx=1.0), line(0, 9, 9.0, vx=-1.0))
        est = (line(0, 9, 0.5, vx=1.0), line(0, 9, 9.5, vx=-1.0))
        c, p, q, w = 10.0, 1.0, 1.0, 5
        for k in range(10):
            row = ospa2(est, truth, k, c=c, p=p, q=q, w=w)
            # brute force over both pairings
            costs = []
            for perm in itertools.permutations(range(2)):
                costs.append(
                    sum(
                        min(c, trajectory_distance(est[i], truth[perm[i]], k, w, c, p)) ** q
                        for i in range(2)
                    )
                )
            expected = (min(costs) / 2.0) ** (1.0 / q)
            assert row.total == pytest.approx(expected, abs=1e-12)

    def test_window_penalizes_lifetime_mismatch(self):
        truth = (line(0, 9, 0.0),)
        est_full = (line(0, 9, 0.0),)
        est_late = (line(5, 9, 5.0),)  # same states where it exists
        row_full = ospa2(est_full, truth, k=6, c=10.0, w=5)
        row_late = ospa2(est_late, truth, k=6, c=10.0, w=5)
        assert row_full.total == 0.0
        # steps 2..4 of the window are missing: 3 of 5 steps cost the cut-off
        assert row_late.total == pytest.approx(10.0 * 3 / 5)

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            est = tuple(line(0, 4, float(rng.uniform(-100, 100))) for _ in range(rng.integers(0, 4)))
            tru = tuple(line(0, 4, float(rng.uniform(-100, 100))) for _ in range(rng.integers(0, 4)))
            row = ospa2(est, tru, k=4, c=50.0)
            assert 0.0 <= row.total <= 50.0 + 1e-12

    def test_symmetric(self):
        a = (line(0, 5, 0.0),)
        b = (line(0, 5, 3.0), line(1, 5, -7.0))
        r1 = ospa2(a, b, k=5, c=20.0)
        r2 = ospa2(b, a, k=5, c=20.0)
        assert r1.total == pytest.approx(r2.total)


class TestGospa:
    def test_identical_zero(self):
        states = [np.array([1.0, 2.0, 0.0, 0.0]), np.array([-3.0, 4.0, 0.0, 0.0])]
        row = gospa_step(states, states, c=10.0)
        assert row.total == 0.0

    def test_one_missed_target_costs_half_cutoff(self):
        truth = [np.array([0.0, 0.0])]
        row = gospa_step([], truth, c=10.0, p=1.0)
        assert row.total == pytest.approx(5.0)
        assert row.miss == pytest.approx(5.0)
        assert row.false == 0.0

    def test_one_false_estimate(self):
        row = gospa_step([np.array([0.0, 0.0])], [], c=10.0, p=1.0)
        assert row.false == pytest.approx(5.0)

    def test_far_pair_prefers_miss_plus_false(self):
        row = gospa_step([np.array([0.0, 0.0])], [np.array([100.0, 0.0])], c=10.0, p=1.0)
        assert row.total == pytest.approx(10.0)
        assert row.loc == 0.0

    def test_matches_brute_force_small_sets(self):
        rng = np.random.default_rng(1)
        c, p = 10.0, 1.0
        for _ in range(50):
            n_e, n_t = rng.integers(0, 4), rng.integers(0, 4)
            est = [rng.uniform(-20, 20, size=2) for _ in range(n_e)]
            tru = [rng.uniform(-20, 20, size=2) for _ in range(n_t)]
            row = gospa_step(est, tru, c=c, p=p)
            best = np.inf
            for m in range(min(n_e, n_t) + 1):
                for est_idx in itertools.permutations(range(n_e), m):
                    for tru_idx in itertools.permutations(range(n_t), m):
                        loc = sum(
                            np.linalg.norm(est[i] - tru[j]) ** p for i, j in zip(est_idx, tru_idx)
                        )
                        pen = (c**p / 2.0) * ((n_e - m) + (n_t - m))
                        best = min(best, loc + pen)
            assert row.total == pytest.approx(best ** (1.0 / p), abs=1e-9)


class TestCsv:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rows = [gospa_step([np.array([0.1, 0.2])], [np.array([0.3, -0.4])], c=7.0, k=k) for k in range(3)]
        path = tmp_path / "m.csv"
        write_metric_csv(path, rows)
        with open(path) as fh:
            back = [MetricRow(**{key: float(v) for key, v in rec.items()}) for rec in csv.DictReader(fh)]
        assert back == rows
