"""Scenario configuration, ground-truth simulation, and file formats.

A scenario couples the motion/measurement noise, detection/survival
probabilities, clutter rate, surveillance region, and birth mixture with a
truth mode: either fully simulated (Poisson births, survival draws) or
scripted birth/death times with sampled initial states.  Everything is
deterministic given the seed.

A measurement log is a tuple of scans, one per step: a scan is a tuple of
float measurement arrays, or None for a step with no data (distinct from an
empty scan).

File formats:

* measurement log -- JSONL, one record per step:
  ``{"k": int, "scan": [[z...], ...]}``; ``"scan": null`` marks a step with
  no data.
* trajectory sets (truth and estimates) -- JSONL, one record per step:
  ``{"k": int, "trajectories": [{"beta", "epsilon", "states"}, ...]}``.

The readers raise ValueError on a malformed record or a gap in the steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import cholesky

from .models import BirthComponent, BirthModel, Rectangle, SensorModel, SurvivalModel, constant_velocity_model
from .trajectory import Trajectory

__all__ = [
    "ScenarioConfig",
    "generate_scenario",
    "truth_at_step",
    "write_measurement_log",
    "read_measurement_log",
    "write_trajectory_sets",
    "read_trajectory_sets",
]


@dataclass(frozen=True)
class ScenarioConfig:
    K: int
    sigma_v: float
    sigma_r: float
    ps: float
    pd: float
    mu_fa: float
    region: Rectangle
    birth: BirthModel
    seed: int = 0
    scripted_births: Optional[tuple] = None  # birth step per scripted target
    scripted_deaths: Optional[tuple] = None  # last step per scripted target

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if (self.scripted_births is None) != (self.scripted_deaths is None):
            raise ValueError("scripted mode needs both birth and death lists")
        if self.scripted_births is not None:
            b = tuple(int(x) for x in self.scripted_births)
            d = tuple(int(x) for x in self.scripted_deaths)
            if len(b) != len(d) or any(bb > dd for bb, dd in zip(b, d)):
                raise ValueError("invalid scripted birth/death lists")
            object.__setattr__(self, "scripted_births", b)
            object.__setattr__(self, "scripted_deaths", d)

    @property
    def scripted(self) -> bool:
        return self.scripted_births is not None

    def model(self):
        return constant_velocity_model(self.sigma_v, self.sigma_r)

    def sensor(self) -> SensorModel:
        return SensorModel(self.pd, self.mu_fa, self.region)

    def survival(self) -> SurvivalModel:
        return SurvivalModel(self.ps)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Raises ValueError when an entry is missing or of the wrong type."""
        try:
            region = Rectangle(**d["region"])
            birth = BirthModel(
                tuple(BirthComponent(c["weight"], np.array(c["mean"]), np.array(c["cov"])) for c in d["birth"])
            )
            mode = d.get("truth_mode", "simulated")
            births = deaths = None
            if isinstance(mode, dict) and "scripted" in mode:
                births = tuple(mode["scripted"]["births"])
                deaths = tuple(mode["scripted"]["deaths"])
            elif mode != "simulated":
                raise ValueError(f"unknown truth mode {mode!r}")
            return cls(
                K=int(d["K"]),
                sigma_v=float(d["sigma_v"]),
                sigma_r=float(d["sigma_r"]),
                ps=float(d["ps"]),
                pd=float(d["pd"]),
                mu_fa=float(d["mu_fa"]),
                region=region,
                birth=birth,
                seed=int(d.get("seed", 0)),
                scripted_births=births,
                scripted_deaths=deaths,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario config: {exc!r}") from exc

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _draw_state(c: BirthComponent, rng: np.random.Generator) -> np.ndarray:
    L = cholesky(np.asarray(c.cov), lower=True)
    return np.asarray(c.mean) + L @ rng.standard_normal(len(c.mean))


def _sample_birth(birth: BirthModel, rng: np.random.Generator) -> np.ndarray:
    w = np.array([c.weight for c in birth.components])
    idx = rng.choice(len(w), p=w / w.sum())
    return _draw_state(birth.components[idx], rng)


def generate_scenario(cfg: ScenarioConfig, seed: Optional[int] = None):
    """Simulate ground truth and measurements.

    Returns (truth, log): the set of true trajectories over the full run and
    the per-step measurement log.  The draw order per step is fixed (births,
    motion, survival, detections, clutter) so outputs are reproducible.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    model = cfg.model()
    F, Q, H, R = (np.asarray(model.F), np.asarray(model.Q), np.asarray(model.H), np.asarray(model.R))
    Lq = cholesky(Q, lower=True)
    Lr = cholesky(R, lower=True)

    alive = []  # [beta, states list, scripted death or None]
    done = []
    scans = []
    for k in range(cfg.K):
        # births
        if cfg.scripted:
            for i, b in enumerate(cfg.scripted_births):
                if b == k:
                    alive.append([k, [_sample_birth(cfg.birth, rng)], cfg.scripted_deaths[i]])
        else:
            for c in cfg.birth.components:
                for _ in range(rng.poisson(c.weight)):
                    alive.append([k, [_draw_state(c, rng)], None])
        # motion for targets born before this step
        for t in alive:
            if t[0] < k and len(t[1]) == k - t[0]:
                t[1].append(F @ t[1][-1] + Lq @ rng.standard_normal(F.shape[0]))
        # detections
        scan = []
        for t in alive:
            if rng.uniform() <= cfg.pd:
                scan.append(H @ t[1][-1] + Lr @ rng.standard_normal(H.shape[0]))
        # clutter
        n_fa = rng.poisson(cfg.mu_fa)
        for _ in range(n_fa):
            scan.append(
                np.array(
                    [
                        rng.uniform(cfg.region.xmin, cfg.region.xmax),
                        rng.uniform(cfg.region.ymin, cfg.region.ymax),
                    ]
                )
            )
        scans.append(tuple(scan))
        # survival to the next step
        survivors = []
        for t in alive:
            if cfg.scripted:
                lives = k < t[2]
            else:
                lives = k + 1 < cfg.K and rng.uniform() <= cfg.ps
            if lives and k + 1 < cfg.K:
                survivors.append(t)
            else:
                done.append(t)
        alive = survivors
    done.extend(alive)
    truth = tuple(
        sorted(
            (Trajectory(b, b + len(states) - 1, np.array(states)) for b, states, _ in done),
            key=lambda t: (t.beta, t.epsilon, tuple(t.states[0])),
        )
    )
    return truth, tuple(scans)


def truth_at_step(truth, k: int):
    """The all-trajectories ground truth at step k: every trajectory born by
    k, truncated to its states up to k."""
    out = []
    for t in truth:
        if t.beta > k:
            continue
        e = min(t.epsilon, k)
        out.append(Trajectory(t.beta, e, t.states[: e - t.beta + 1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_measurement_log(path, log) -> None:
    with open(path, "w") as fh:
        for k, scan in enumerate(log):
            rec = {"k": k, "scan": None if scan is None else [np.asarray(z).tolist() for z in scan]}
            fh.write(json.dumps(rec) + "\n")


def _records(path, what: str, read) -> tuple:
    """``read(record)`` of each JSONL record of ``path``, in step order;
    raises ValueError on a malformed record or a step missing from 0 on."""
    out = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            d = json.loads(line)
            try:
                out[int(d["k"])] = read(d)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed {what} record on line {n}: {exc!r}") from exc
    missing = sorted(set(range(len(out))) - set(out))
    if missing:
        raise ValueError(f"{what} has no record for step {missing[0]}")
    return tuple(out[k] for k in range(len(out)))


def read_measurement_log(path) -> tuple:
    return _records(
        path,
        "measurement log",
        lambda d: None if d["scan"] is None else tuple(np.array(z, dtype=float) for z in d["scan"]),
    )


def _traj_dict(t: Trajectory) -> dict:
    return {"beta": t.beta, "epsilon": t.epsilon, "states": np.asarray(t.states).tolist()}


def write_trajectory_sets(path, sets) -> None:
    """One record per step: the trajectory set estimated (or true) at k."""
    with open(path, "w") as fh:
        for k, ts in enumerate(sets):
            fh.write(json.dumps({"k": k, "trajectories": [_traj_dict(t) for t in ts]}) + "\n")


def read_trajectory_sets(path):
    return _records(
        path,
        "trajectory set",
        lambda d: tuple(
            Trajectory(td["beta"], td["epsilon"], np.array(td["states"], dtype=float)) for td in d["trajectories"]
        ),
    )
