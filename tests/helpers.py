"""Shared glue: tracker setups, comparisons against the reference oracles,
and small views of library values that only tests need."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trajpmbm import gaussseq as gs
from trajpmbm.density import GlobalHypothesis, LocalHypothesis, PmbmDensity, Track, TrajectoryMixture
from trajpmbm.models import BirthComponent, BirthModel, Rectangle, SensorModel, SurvivalModel
from trajpmbm.tracker import PmbmTracker, TrackerConfig, TrackerState
from trajpmbm.trajectory import MixtureComponent, TimeWindow, birth_death_pmf, epsilon_pmf_miss_update, epsilon_pmf_predict

SCALAR_REGION = Rectangle(-50.0, 50.0, -1.0, 1.0)


def scalar_setup(ps=0.9, pd=0.9, clutter_rate=1.0, birth_w=0.3, mode="all", backend="moment", exact=True, **config):
    """1-d tracker; ``exact`` drops the Murty budget, which exhausts the
    enumeration and disables pruning; ``config`` holds further
    :class:`TrackerConfig` fields."""
    model = gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
    birth = BirthModel((BirthComponent(birth_w, [0.0], [[4.0]]),))
    sensor = SensorModel(pd=pd, clutter_rate=clutter_rate, region=SCALAR_REGION, gate_prob=1.0)
    cfg = TrackerConfig(murty_budget=None if exact else 100, backend=backend, **config)
    return PmbmTracker(model, birth, sensor, SurvivalModel(ps), mode=mode, config=cfg)


def tracker_global_table(state: TrackerState):
    """Canonical view keyed by the chosen measurement histories: per global,
    (weight, {history: (r, alive-conditioned last mean, (b, e) pmf)})."""
    p, k = state.density, state.k
    out = {}
    for g in p.global_hyps:
        info = {}
        for tid, hidx in g.choice:
            h = p.track_by_id(tid).hypotheses[hidx]
            if h.r <= 0.0 or h.density is None:
                continue
            pmf = birth_death_pmf(h.density)
            num, den = 0.0, 0.0
            for c in h.density.components:
                a = c.alive_mass(k)
                if a > 0.0:
                    m, _ = gs.last_state_moments(c.seq)
                    num = num + c.weight * a * m
                    den += c.weight * a
            mean = num / den if den > 0 else None
            info[h.meas_history] = (h.r, mean, pmf)
        out[frozenset(info)] = (math.exp(g.log_weight), info)
    return out


def assert_tables_match(actual, expected, tol=1e-9):
    assert set(actual) == set(expected)
    for key in expected:
        w_a, info_a = actual[key]
        w_e, info_e = expected[key]
        assert w_a == pytest.approx(w_e, abs=tol)
        assert set(info_a) == set(info_e)
        for hist in info_e:
            r_a, mean_a, pmf_a = info_a[hist]
            r_e, mean_e, pmf_e = info_e[hist]
            assert r_a == pytest.approx(r_e, abs=tol)
            if mean_e is None:
                assert mean_a is None
            else:
                np.testing.assert_allclose(mean_a, mean_e, atol=tol)
            assert set(pmf_a) == set(pmf_e)
            for be in pmf_e:
                assert pmf_a[be] == pytest.approx(pmf_e[be], abs=tol)


def gate(seq, m, z, gate_prob: float) -> bool:
    """Whether z passes the ellipsoidal gate of ``seq``'s last state."""
    if not 0.0 < gate_prob <= 1.0:
        raise ValueError("gate probability must lie in (0, 1]")
    mask, _ = gs.gate_likelihoods(seq, m, np.asarray(z, dtype=float).reshape(1, -1), gate_prob)
    return bool(mask[0])


def nonzero_counts(s) -> tuple:
    """(mean, covariance) nonzero-entry counts of the stored representation."""
    if isinstance(s, gs.InfoSeq):
        ivec, diag, off = s.band()
        return int(np.count_nonzero(ivec)), int(diag.shape[0] + 2 * off.shape[0]) * s.nx**2
    return s.mean.size, int(len(s.old_blocks) * s.nx**2 + s.cov.size)


def epsilon_bookkeeping(state: TrackerState, track_id: int, hyp_index: int):
    """Compact death-time bookkeeping of one hypothesis as a (b, e) pmf.

    Only meaningful in all-trajectories mode, where runs of missed
    detections are carried as a pmf instead of materialized components.
    """
    if state.density.mode != "all":
        raise ValueError("death-time bookkeeping exists only in all-trajectories mode")
    h = state.density.track_by_id(track_id).hypotheses[hyp_index]
    if h.density is None:
        raise ValueError("hypothesis carries no density")
    return birth_death_pmf(h.density)


def epsilon_pmf_recursive(prev: tuple, ps: float, pd: float, k: int) -> tuple:
    """The tracker's death-time pmf step on its stored form, sorted
    (eps, mass) pairs: survival split to scan k, then the missed-detection
    conditioning."""
    if abs(sum(m for _, m in prev) - 1.0) > 1e-9:
        raise ValueError("input pmf not normalized")
    return epsilon_pmf_miss_update(epsilon_pmf_predict(prev, ps, k), pd, k)


def epsilon_marginal(pmf) -> dict:
    """Death-time marginal of a (birth, death) pmf."""
    out: dict = {}
    for (_, e), m in pmf.items():
        out[e] = out.get(e, 0.0) + m
    return out


def death_time_estimate(pmf: dict, method: str = "map") -> int:
    """Death-time point estimate: ``map`` takes the highest-mass step (ties
    toward the earlier step), ``mean`` rounds the expected death time."""
    if not pmf:
        raise ValueError("empty pmf")
    if method == "map":
        return max(sorted(pmf), key=lambda e: pmf[e])
    if method == "mean":
        return int(round(sum(e * m for e, m in pmf.items())))
    raise ValueError(f"unknown method {method!r}")
