"""Standard point-target models lifted to trajectories.

Birth is a Poisson process whose trajectory intensity puts all mass on
single-step trajectories born at the current scan; survival and detection are
state-independent constants; clutter is uniform over a rectangular
surveillance region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from . import gaussseq
from .trajectory import MixtureComponent, TimeWindow, TrajectoryMixture, _frozen_array

__all__ = [
    "BirthComponent",
    "BirthModel",
    "SensorModel",
    "SurvivalModel",
    "Rectangle",
    "birth_intensity_at",
    "clutter_density",
    "constant_velocity_model",
]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned surveillance region."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("degenerate surveillance region")

    @property
    def volume(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, Z) -> np.ndarray:
        """Which rows of Z have their leading position coordinates in the
        region (scalar measurement spaces check the x interval only)."""
        Z = np.asarray(Z, dtype=float)[:, :2]
        lo, hi = (self.xmin, self.ymin)[: Z.shape[1]], (self.xmax, self.ymax)[: Z.shape[1]]
        return ((lo <= Z) & (Z <= hi)).all(axis=1)


@dataclass(frozen=True)
class BirthComponent:
    weight: float  # expected births per step for this component
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("negative birth weight")
        mean = _frozen_array(np.asarray(self.mean, dtype=float).reshape(-1))
        cov = _frozen_array(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        try:
            cholesky(np.asarray(cov), lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("birth covariance not positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class BirthModel:
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class SensorModel:
    pd: float
    clutter_rate: float  # mean number of false alarms per scan
    region: Rectangle
    gate_prob: float = 0.9999

    def __post_init__(self):
        if not 0.0 < self.pd <= 1.0:
            raise ValueError("detection probability must lie in (0, 1]")
        if self.clutter_rate < 0:
            raise ValueError("negative clutter rate")
        if not 0.0 < self.gate_prob <= 1.0:
            raise ValueError("gate probability must lie in (0, 1]")


@dataclass(frozen=True)
class SurvivalModel:
    ps: float

    def __post_init__(self):
        if not 0.0 <= self.ps <= 1.0:
            raise ValueError("survival probability must lie in [0, 1]")


def birth_intensity_at(b: BirthModel, k: int, backend: str = "moment", L: int = 1) -> TrajectoryMixture:
    """Trajectory birth intensity at scan k: one single-step component per
    birth component, all pinned to (k, k)."""
    comps = tuple(
        MixtureComponent(
            c.weight,
            gaussseq.make_seq(backend, TimeWindow(k, k), c.mean, c.cov, L=L),
        )
        for c in b.components
    )
    return TrajectoryMixture(comps, kind="intensity")


def clutter_density(s: SensorModel, Z) -> np.ndarray:
    """Spatial clutter intensity at each row of Z: uniform clutter_rate /
    region volume, zero outside the region."""
    return np.where(s.region.contains(Z), s.clutter_rate / s.region.volume, 0.0)


def constant_velocity_model(sigma_v: float, sigma_r: float, dt: float = 1.0) -> gaussseq.ModelLG:
    """Planar constant-velocity model with position measurements.

    State is (x, y, vx, vy).  Process noise uses the continuous white-noise
    acceleration form, which keeps Q nonsingular as required by the
    information-form backend.
    """
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    q = sigma_v**2
    Qa = q * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    Q = np.zeros((4, 4))
    Q[np.ix_([0, 2], [0, 2])] = Qa
    Q[np.ix_([1, 3], [1, 3])] = Qa
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    R = sigma_r**2 * np.eye(2)
    return gaussseq.ModelLG(F, Q, H, R)
