import numpy as np
import pytest

from trajpmbm.models import BirthComponent, BirthModel, Rectangle
from trajpmbm.montecarlo import evaluate_run, run_monte_carlo
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig


def tiny_cfg(seed=3):
    return ScenarioConfig(
        K=6,
        sigma_v=0.5,
        sigma_r=1.0,
        ps=0.98,
        pd=0.95,
        mu_fa=0.5,
        region=Rectangle(-40.0, 40.0, -40.0, 40.0),
        birth=BirthModel((BirthComponent(0.2, np.zeros(4), np.diag([36.0, 36.0, 1.0, 1.0])),)),
        seed=seed,
        scripted_births=(0,),
        scripted_deaths=(5,),
    )


class TestMonteCarlo:
    def test_single_run_matches_direct_pipeline(self):
        cfg = tiny_cfg()
        out = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), mode="all", runs=1, c=20.0)
        seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        truth, log = generate_scenario(cfg, seed=np.random.SeedSequence(entropy=seed.entropy))
        tracker = PmbmTracker(
            cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode="all",
            config=TrackerConfig(murty_budget=20),
        )
        rows = evaluate_run(tracker.run(log).estimates, truth, c=20.0)
        assert list(out.rows) == rows

    def test_aggregate_is_deterministic(self):
        cfg = tiny_cfg()
        a = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), runs=3, c=20.0)
        b = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), runs=3, c=20.0)
        assert list(a.rows) == list(b.rows)
        assert a.per_run_totals == b.per_run_totals

    def test_parallel_matches_serial(self):
        cfg = tiny_cfg()
        serial = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), runs=2, c=20.0, jobs=1)
        parallel = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), runs=2, c=20.0, jobs=2)
        assert list(serial.rows) == list(parallel.rows)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_failures_carry_the_run_index(self, jobs):
        cfg = tiny_cfg()
        bad = TrackerConfig(murty_budget=20, backend="nonsense")
        with pytest.raises(RuntimeError, match="run 0"):
            run_monte_carlo(cfg, bad, runs=1, jobs=jobs)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_monte_carlo(tiny_cfg(), runs=0)

    def test_gospa_metric_path(self):
        cfg = tiny_cfg()
        out = run_monte_carlo(cfg, TrackerConfig(murty_budget=20), runs=1, metric="gospa", c=20.0)
        assert all(r.card == 0.0 for r in out.rows)
        assert all(0.0 <= r.total <= 20.0 + 1e-9 for r in out.rows)
