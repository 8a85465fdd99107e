"""The benchmark's fixed-seed workloads.

Each workload pins a scenario (its ground truth and measurements come from
the scenario's own seed, so every run tracks the same targets in the same
clutter) and a tracker configuration.  The benchmark's ``--seed`` draws the
order in which each scan reports its detections: a scan is a set, so the
estimates must not depend on that order beyond rounding, while the amount of
work stays the same from seed to seed.  Drawing whole new scenarios instead would let the
cost of one run swing by 2x with the association ambiguity of the draw.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from trajpmbm.models import BirthComponent, BirthModel, Rectangle
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def desk8_config() -> ScenarioConfig:
    """The desk scenario of acceptance criterion 8: 12 scripted targets born
    around nine birth sites, 100 false alarms per scan, 40 scans."""
    s = math.sqrt(2.0)
    sites = [(-s, -s), (s, -s), (-s, s), (s, s), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    birth = BirthModel(
        tuple(
            BirthComponent(1.0 / 9.0, [x * 5e3, y * 5e3, 0.0, 0.0], np.diag([500.0**2, 500.0**2, 100.0, 100.0]))
            for x, y in sites
        )
    )
    return ScenarioConfig(
        K=40,
        sigma_v=1.0,
        sigma_r=1.0,
        ps=0.95,
        pd=0.99,
        mu_fa=100.0,
        region=Rectangle(-1e4, 1e4, -1e4, 1e4),
        birth=birth,
        seed=900,
        scripted_births=(0, 1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24),
        scripted_deaths=(30, 12, 39, 20, 39, 16, 39, 26, 39, 28, 39, 36),
    )


def config_prefix(name: str, scans: int) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(CONFIGS / f"{name}.json")
    return dataclasses.replace(cfg, K=min(scans, cfg.K))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenario: object  # () -> ScenarioConfig
    mode: str
    config: TrackerConfig
    query_scan: int | None  # scan whose posterior answers the window queries; None = the last
    passes: int  # tracking passes per round
    query_pairs: int  # times per round the pair of window queries is asked


WORKLOADS = {
    w.name: w
    for w in (
        # The all-mode track table grows with history: Predict, gating and
        # Murty carry the run.  A query on the final posterior does not finish
        # in minutes, so the queries run on the posterior of scan 7, where a
        # pair takes about 3 s; three pairs per round steady their median.
        Workload(
            "dense-all",
            desk8_config,
            "all",
            TrackerConfig(murty_budget=50, backend="info"),
            query_scan=7,
            passes=2,
            query_pairs=3,
        ),
        # Coalescing targets in little clutter: 100 global hypotheses stay
        # alive; Murty, detection updates and the window marginal dominate.
        # The queries run on the posterior of scan 29, where they take 17 s
        # instead of the 39 s of the last scan, so that a round of six
        # passes and the queries fits in a run.
        Workload(
            "coalescence-window",
            lambda: config_prefix("scenario3", 40),
            "all",
            TrackerConfig(murty_budget=100, backend="info"),
            query_scan=29,
            passes=6,
            query_pairs=1,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Inputs:
    truth: tuple
    scans: list  # per scan, a list of measurements in the seed's order
    tracker: PmbmTracker


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Simulate the workload's scenario, order each scan's detections by the
    benchmark seed, and construct the tracker."""
    cfg = w.scenario()
    truth, log = generate_scenario(cfg)
    rng = np.random.default_rng(seed)
    scans = [None if s is None else [s[i] for i in rng.permutation(len(s))] for s in log]
    tracker = PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode=w.mode, config=w.config)
    return Inputs(truth, scans, tracker)
