"""Monte Carlo orchestration: repeated seeded simulation, tracking, scoring.

Runs are independent (per-run substreams spawned from the scenario seed) and
may execute in parallel worker processes; aggregation is a single reduction
of per-step means.  Mean cycle time is reported separately so the metric CSV
stays bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .metrics import MetricRow, gospa_step, ospa2
from .scenario import ScenarioConfig, generate_scenario, truth_at_step
from .tracker import PmbmTracker, TrackerConfig

__all__ = ["MonteCarloResult", "evaluate_run", "run_monte_carlo"]


@dataclass(frozen=True)
class MonteCarloResult:
    rows: tuple  # per-step MetricRow, averaged over runs
    mean_cycle_time: float
    per_run_totals: tuple  # mean metric total per run


def evaluate_run(estimates, truth, metric: str = "ospa2", c: float = 100.0, p: float = 1.0,
                 q: float = 1.0, w: int = 5):
    """Score per-step estimates against the full true trajectory set."""
    rows = []
    for k, est in enumerate(estimates):
        tru = truth_at_step(truth, k)
        if metric == "ospa2":
            rows.append(ospa2(est, tru, k, c=c, p=p, q=q, w=w))
        elif metric == "gospa":
            est_states = [t.state_at(k) for t in est if t.beta <= k <= t.epsilon]
            tru_states = [t.state_at(k) for t in tru if t.epsilon == k]
            rows.append(gospa_step(est_states, tru_states, c=c, p=p, k=k))
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return rows


def _single_run(args):
    cfg, tracker_cfg, mode, seed, metric, c, p, q, w = args
    truth, log = generate_scenario(cfg, seed=seed)
    tracker = PmbmTracker(cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode=mode, config=tracker_cfg)
    result = tracker.run(log)
    rows = evaluate_run(result.estimates, truth, metric, c, p, q, w)
    return rows, float(np.mean(result.cycle_times))


def run_monte_carlo(
    cfg: ScenarioConfig,
    tracker_cfg: TrackerConfig = TrackerConfig(),
    mode: str = "all",
    runs: int = 1,
    metric: str = "ospa2",
    c: float = 100.0,
    p: float = 1.0,
    q: float = 1.0,
    w: int = 5,
    jobs: int = 1,
) -> MonteCarloResult:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    children = np.random.SeedSequence(cfg.seed).spawn(runs)
    tasks = [(cfg, tracker_cfg, mode, child, metric, c, p, q, w) for child in children]
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        done = map(_single_run, tasks) if pool is None else pool.map(_single_run, tasks)
        results = []
        for i in range(len(tasks)):
            try:
                results.append(next(done))
            except Exception as exc:
                raise RuntimeError(f"monte-carlo run {i} failed") from exc
    all_rows = [r for r, _ in results]
    cycle = float(np.mean([t for _, t in results]))
    K = len(all_rows[0])
    agg = []
    for k in range(K):
        agg.append(
            MetricRow(
                k,
                float(np.mean([rows[k].loc for rows in all_rows])),
                float(np.mean([rows[k].miss for rows in all_rows])),
                float(np.mean([rows[k].false for rows in all_rows])),
                float(np.mean([rows[k].card for rows in all_rows])),
                float(np.mean([rows[k].total for rows in all_rows])),
            )
        )
    per_run = tuple(float(np.mean([r.total for r in rows])) for rows in all_rows)
    return MonteCarloResult(tuple(agg), cycle, per_run)
