"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import sys
import time
from functools import wraps

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from trajpmbm import gaussseq as gs
from trajpmbm.association import murty_kbest
from trajpmbm.density import (
    GlobalHypothesis,
    LocalHypothesis,
    PmbmDensity,
    PruneThresholds,
    Track,
    validate,
)
from trajpmbm.estimate import extract_set
from trajpmbm.marginal import (
    AliveQuery,
    marginalize_bernoulli,
    marginalize_pmbm,
    marginalize_ppp,
)
from trajpmbm.models import (
    BirthComponent,
    BirthModel,
    Rectangle,
    SensorModel,
    SurvivalModel,
    constant_velocity_model,
)
from trajpmbm.montecarlo import evaluate_run
from trajpmbm.scenario import ScenarioConfig, generate_scenario
from trajpmbm.tracker import PmbmTracker, TrackerConfig
from trajpmbm.trajectory import MixtureComponent, TimeWindow, TrajectoryMixture

from conftest import run_pipeline, random_spd
from helpers import (
    SCALAR_REGION,
    assert_tables_match,
    condition,
    epsilon_pmf_recursive,
    scalar_setup,
    tracker_global_table,
    validated_run,
)
from oracles import OracleTracker, PointPmbmOracle, enumerate_assignments, epsilon_pmf_closed


def criterion(number, name, budget_s=None):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL", file=sys.stderr)
                raise
            dt = time.perf_counter() - t0
            print(f"[ACCEPTANCE] criterion {number} ({name}): PASS ({dt:.1f} s)")
            if budget_s is not None:
                assert dt < budget_s, f"criterion {number} exceeded its {budget_s} s budget ({dt:.1f} s)"

        return wrapper

    return deco


# -- 1 -----------------------------------------------------------------------


@criterion(1, "posterior matches exhaustive association enumeration", budget_s=10.0)
def test_criterion_1_conjugacy_oracle():
    fixtures = [
        # one dominant target plus clutter, empty scan in the middle
        dict(
            ps=0.85, pd=0.75, clutter_rate=0.8, birth_w=0.25,
            scans=[[[0.4]], [[0.9], [6.0]], [], [[2.1]], [[2.9], [-4.0]], [[3.5]]],
        ),
        # two well-separated targets
        dict(
            ps=0.9, pd=0.8, clutter_rate=0.5, birth_w=0.3,
            scans=[[[-3.0], [3.0]], [[-2.6], [3.4]], [[-2.2]], [[3.9]], []],
        ),
    ]
    for fx in fixtures:
        for mode in ("all", "current"):
            tracker = scalar_setup(
                ps=fx["ps"], pd=fx["pd"], clutter_rate=fx["clutter_rate"], birth_w=fx["birth_w"], mode=mode
            )
            oracle = OracleTracker(
                tracker.model,
                [(fx["birth_w"], [0.0], [[4.0]])],
                ps=fx["ps"],
                pd=fx["pd"],
                clutter_intensity=fx["clutter_rate"] / SCALAR_REGION.volume,
                mode=mode,
            )
            state = tracker.initial()
            for k, scan in enumerate(fx["scans"]):
                if k:
                    state = tracker.predict(state)
                    oracle.predict()
                state = tracker.update(state, scan)
                oracle.update(scan)
                assert_tables_match(tracker_global_table(state), oracle.global_table(), tol=1e-9)


# -- 2 -----------------------------------------------------------------------


@criterion(2, "sequence backends agree", budget_s=30.0)
def test_criterion_2_backend_equivalence():
    cv = constant_velocity_model(1.0, 1.0)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        mean = rng.standard_normal(4)
        cov = random_spd(rng, 4, 0.5)
        slots = set(rng.choice(50, size=20, replace=False))
        events = [rng.standard_normal(2) * 3.0 if i in slots else None for i in range(50)]
        sm, llm = run_pipeline("moment", cv, TimeWindow(0, 0), mean, cov, events)
        si, lli = run_pipeline("info", cv, TimeWindow(0, 0), mean, cov, events)
        np.testing.assert_allclose(gs.mean_sequence(si), sm.mean, atol=1e-8)
        np.testing.assert_allclose(lli, llm, atol=1e-8)
        m_i, c_i = gs.last_state_moments(si)
        m_m, c_m = gs.last_state_moments(sm)
        np.testing.assert_allclose(m_i, m_m, atol=1e-8)
        np.testing.assert_allclose(c_i, c_m, atol=1e-8)
        # full-window L reproduces the moment form through shared arithmetic
        sl, _ = run_pipeline("lscan", cv, TimeWindow(0, 0), mean, cov, events, L=51)
        assert np.max(np.abs(np.asarray(sl.mean) - np.asarray(sm.mean))) <= 1e-12
        assert np.max(np.abs(np.asarray(sl.cov) - np.asarray(sm.cov))) <= 1e-12
        for L in (1, 2, 5):
            sL, _ = run_pipeline("lscan", cv, TimeWindow(0, 0), mean, cov, events, L=L)
            m_l, c_l = gs.last_state_moments(sL)
            np.testing.assert_allclose(m_l, m_m, atol=1e-8)
            np.testing.assert_allclose(c_l, c_m, atol=1e-8)


# -- 3 -----------------------------------------------------------------------


@criterion(3, "death-time pmf recursion vs closed form and geometric tail", budget_s=5.0)
def test_criterion_3_epsilon_pmf():
    grid = np.linspace(0.1, 0.99, 10)
    for ps in grid:
        for pd in grid:
            pmf = ((0, 1.0),)
            for k in range(1, 51):
                pmf = epsilon_pmf_recursive(pmf, ps, pd, k)
                ref = epsilon_pmf_closed(0, k, ps, pd)
                assert [e for e, _ in pmf] == sorted(ref)
                for e, mass in pmf:
                    assert abs(mass - ref[e]) < 1e-12
            qdps = (1.0 - pd) * ps
            limit = epsilon_pmf_closed(0, 200, ps, pd)
            tv = sum(abs(limit.get(i, 0.0) - qdps**i * (1.0 - qdps)) for i in range(201))
            assert 0.5 * tv < 1e-6


# -- 4 -----------------------------------------------------------------------


@criterion(4, "k-best assignments equal brute force", budget_s=10.0)
def test_criterion_4_murty():
    rng = np.random.default_rng(7)
    for trial in range(500):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, rows + 1))
        integer = trial % 2 == 0
        if integer:
            mat = rng.integers(0, 8, size=(rows, cols)).astype(float)
        else:
            mat = rng.random((rows, cols)) * 10.0
        ref = enumerate_assignments(mat)
        M = int(rng.integers(1, len(ref) + 2))
        out = murty_kbest(mat, M)
        assert len(out) == min(M, len(ref))
        for a, (cost, _) in zip(out, ref):
            if integer:
                assert a.cost == cost
            else:
                assert abs(a.cost - cost) < 1e-12


# -- 5 -----------------------------------------------------------------------


@criterion(5, "tracker+marginalize commutes with the point-target filter", budget_s=10.0)
def test_criterion_5_commutation():
    ps, pd, clutter = 0.9, 0.8, 0.6
    scans = [[[0.4]], [], [[1.0], [6.0]], [], [[2.0]], [], [[2.9]], [], [[3.8]], []]
    tracker = scalar_setup(ps=ps, pd=pd, clutter_rate=clutter, birth_w=0.3, mode="all")
    point = PointPmbmOracle(tracker.model, [(0.3, [0.0], [[4.0]])], ps, pd, clutter / SCALAR_REGION.volume)
    state = tracker.initial()
    for k, scan in enumerate(scans):
        if k:
            state = tracker.predict(state)
            point.predict()
        state = tracker.update(state, scan)
        point.update(scan)
        marg = marginalize_pmbm(state.density, AliveQuery(k, k, k, k))
        got = {}
        for g in marg.global_hyps:
            info = {}
            for tid, hidx in g.choice:
                h = marg.track_by_id(tid).hypotheses[hidx]
                if h.r <= 0.0:
                    continue
                mean = sum(c.weight * gs.mean_sequence(c.seq) for c in h.density.components)
                info[frozenset(h.history)] = (h.r, mean)
            got[frozenset(info)] = (math.exp(g.log_weight), info)
        ref = point.global_table()
        assert set(got) == set(ref)
        for key in ref:
            assert got[key][0] == pytest.approx(ref[key][0], abs=1e-9)
            for hist, (r_e, m_e) in ref[key][1].items():
                r_a, m_a = got[key][1][hist]
                assert r_a == pytest.approx(r_e, abs=1e-9)
                np.testing.assert_allclose(m_a, m_e, atol=1e-9)
        got_ppp = sorted((c.weight, float(gs.mean_sequence(c.seq)[0])) for c in marg.ppp.components)
        ref_ppp = sorted((w, float(m[0])) for w, m, _ in point.ppp)
        np.testing.assert_allclose(got_ppp, ref_ppp, atol=1e-9)


# -- 6 -----------------------------------------------------------------------

GRID = np.linspace(-20.0, 20.0, 161)
VOL = GRID[1] - GRID[0]


def _scalar_chain(seed, n_steps, meas):
    """Correlated scalar moment sequence over steps 0..n_steps."""
    model = gs.ModelLG(F=[[1.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]])
    s = gs.MomentSeq(TimeWindow(0, 0), [0.3 * seed], [[1.0 + 0.2 * seed]])
    for i in range(n_steps):
        s = gs.predict_seq(s, model)
        if i in meas:
            s = condition(s, model, [meas[i]])
    return s


def _grid_marginal(seq, keep, states):
    """Riemann marginalization of a moment sequence onto kept steps."""
    nu = seq.window.length
    keep_idx = [k - seq.window.alpha for k in range(keep.alpha, keep.gamma + 1)]
    drop_idx = [i for i in range(nu) if i not in keep_idx]
    mean, cov = np.asarray(seq.mean), np.asarray(seq.cov)
    if not drop_idx:
        return float(multivariate_normal.pdf(states, mean=mean, cov=cov))
    total = 0.0
    grids = [GRID] * len(drop_idx)
    pts = np.array(list(itertools.product(*grids)))
    full = np.empty((len(pts), nu))
    full[:, keep_idx] = np.asarray(states)
    full[:, drop_idx] = pts
    vals = multivariate_normal.pdf(full, mean=mean, cov=cov)
    return float(np.sum(vals) * VOL ** len(drop_idx))


def _mix_pdf(mix, b, e, states):
    """Analytic mixture density at a trajectory probe (b, e, states)."""
    val = 0.0
    for c in mix.components:
        if (c.b, c.e) != (b, e):
            continue
        m = gs.to_moment(c.seq)
        val += c.weight * float(multivariate_normal.pdf(states, mean=np.asarray(m.mean), cov=np.asarray(m.cov)))
    return val


@criterion(6, "window restriction matches discrete-surrogate integrals", budget_s=60.0)
def test_criterion_6_marginalization_surrogate():
    # worked existence split reproduced exactly: half the mass lives in 4..6
    early = _scalar_chain(1, 2, {0: 0.5})  # window (0, 2), representing (1, 3)
    early = gs.MomentSeq(TimeWindow(1, 3), early.mean, early.cov)
    late = _scalar_chain(2, 2, {1: -0.5})
    late = gs.MomentSeq(TimeWindow(4, 6), late.mean, late.cov)
    hyp = LocalHypothesis(
        0.8,
        TrajectoryMixture((MixtureComponent(0.5, early), MixtureComponent(0.5, late))),
        ((0, 0),),
    )
    out = marginalize_bernoulli(hyp, AliveQuery(0, 6, 4, 6))
    assert out.r == 0.8 * 0.5
    assert [(c.b, c.e, c.weight) for c in out.density.components] == [(4, 6, 1.0)]

    # Bernoulli restriction against grid integration
    comp_a = MixtureComponent(0.6, _scalar_chain(1, 3, {0: 0.5, 2: -1.0}))  # window (0, 3)
    comp_b = MixtureComponent(0.4, gs.MomentSeq(TimeWindow(1, 1), [2.0], [[1.5]]))
    bern = LocalHypothesis(0.8, TrajectoryMixture((comp_a, comp_b)), ((0, 0),))
    q = AliveQuery(0, 2, 2, 2)
    restricted = marginalize_bernoulli(bern, q)
    assert restricted.r == pytest.approx(0.8 * 0.6, abs=1e-15)
    keep = TimeWindow(0, 2)
    rng = np.random.default_rng(0)
    for _ in range(6):
        probe = GRID[rng.integers(0, len(GRID), size=3)]
        closed_form = _mix_pdf(restricted.density, 0, 2, probe)
        numeric = _grid_marginal(comp_a.seq, keep, probe)  # comp_b is dead in the query
        assert closed_form == pytest.approx(numeric, rel=1e-6, abs=1e-12)

    # Poisson restriction against grid integration
    ppp = TrajectoryMixture(
        (MixtureComponent(0.5, comp_a.seq), MixtureComponent(0.7, comp_b.seq)), "intensity"
    )
    rppp = marginalize_ppp(ppp, q)
    assert [c.weight for c in rppp.components] == [0.5]
    for _ in range(4):
        probe = GRID[rng.integers(0, len(GRID), size=3)]
        closed_form = _mix_pdf(rppp, 0, 2, probe)
        numeric = 0.5 * _grid_marginal(comp_a.seq, keep, probe)
        assert closed_form == pytest.approx(numeric, rel=1e-6, abs=1e-12)

    # two-track set density at cardinality <= 2
    t1 = Track(
        0,
        (
            LocalHypothesis(0.9, TrajectoryMixture((MixtureComponent(1.0, comp_a.seq),)), ((0, 0),)),
            LocalHypothesis(0.6, TrajectoryMixture((MixtureComponent(1.0, _scalar_chain(3, 3, {1: 1.0})),)), ((1, 0),)),
        ),
    )
    t2 = Track(
        1,
        (LocalHypothesis(0.5, TrajectoryMixture((MixtureComponent(0.5, _scalar_chain(4, 3, {0: -0.7})), MixtureComponent(0.5, comp_b.seq))), ((2, 0),)),),
    )
    p = PmbmDensity(
        ppp=TrajectoryMixture((), "intensity"),
        tracks=(t1, t2),
        global_hyps=(
            GlobalHypothesis(math.log(0.7), ((0, 0), (1, 0))),
            GlobalHypothesis(math.log(0.3), ((0, 1), (1, 0))),
        ),
        window=TimeWindow(0, 3),
        mode="all",
    )
    marg = marginalize_pmbm(p, q)
    assert [g.log_weight for g in marg.global_hyps] == [g.log_weight for g in p.global_hyps]

    def numeric_restriction(h):
        """(r, pdf-evaluator) of a restricted Bernoulli via grid sums."""
        alive = [c for c in h.density.components if c.b <= q.zeta and q.eta <= c.e]
        r = h.r * sum(c.weight for c in alive)
        if not alive:
            return 0.0, None

        def pdf(b, e, states):
            total = 0.0
            for c in alive:
                if (max(c.b, q.alpha), min(c.e, q.gamma)) != (b, e):
                    continue
                kept = TimeWindow(b, e)
                total += c.weight * _grid_marginal(c.seq, kept, states)
            return total / sum(c.weight for c in alive)

        return r, pdf

    def set_density(globals_, berns, probes):
        """PMBM value at a probe set for two Bernoulli components."""
        out = 0.0
        for w_a, (r1, f1), (r2, f2) in zip(
            [math.exp(g.log_weight) for g in globals_], berns[0], berns[1]
        ):
            if len(probes) == 0:
                out += w_a * (1 - r1) * (1 - r2)
            elif len(probes) == 1:
                y = probes[0]
                v1 = r1 * f1(*y) * (1 - r2) if f1 else 0.0
                v2 = (1 - r1) * r2 * f2(*y) if f2 else 0.0
                out += w_a * (v1 + v2)
            else:
                y1, y2 = probes
                if f1 and f2:
                    out += w_a * (r1 * f1(*y1) * r2 * f2(*y2) + r1 * f1(*y2) * r2 * f2(*y1))
        return out

    # library route: analytic evaluation of the restricted parameters
    def analytic(h):
        if h.r == 0.0:
            return 0.0, None
        return h.r, (lambda b, e, states, mix=h.density: _mix_pdf(mix, b, e, states))

    lib_berns = [[], []]
    num_berns = [[], []]
    for g in p.global_hyps:
        for slot, tid in enumerate((0, 1)):
            lib_berns[slot].append(analytic(marg.track_by_id(tid).hypotheses[dict(g.choice)[tid]]))
            num_berns[slot].append(numeric_restriction(p.track_by_id(tid).hypotheses[dict(g.choice)[tid]]))
    probes = [
        (),
        ((0, 2, GRID[rng.integers(0, len(GRID), size=3)]),),
        (
            (0, 2, GRID[rng.integers(0, len(GRID), size=3)]),
            (0, 2, GRID[rng.integers(0, len(GRID), size=3)]),
        ),
    ]
    for pr in probes:
        lib_val = set_density(p.global_hyps, lib_berns, pr)
        num_val = set_density(p.global_hyps, num_berns, pr)
        assert lib_val == pytest.approx(num_val, rel=1e-6, abs=1e-12)


# -- 7 & 8 -------------------------------------------------------------------


def desk_scenario3(seed):
    cov = np.diag([150.0**2, 150.0**2, 100.0, 100.0])
    birth = BirthModel(
        tuple(
            BirthComponent(0.1, [mx, my, 0.0, 0.0], cov)
            for mx, my in [(-335.0, 45.0), (-335.0, -45.0), (-430.0, 0.0)]
        )
    )
    return ScenarioConfig(
        K=40,
        sigma_v=0.5,
        sigma_r=10.0,
        ps=0.99,
        pd=0.98,
        mu_fa=1.0,
        region=Rectangle(-1e3, 1e3, -1e3, 1e3),
        birth=birth,
        seed=seed,
        scripted_births=(0, 2, 4),
        scripted_deaths=(39, 39, 37),
    )


@criterion(7, "information form outperforms the 1-scan approximation", budget_s=300.0)
def test_criterion_7_statistical_ordering():
    totals = {"info": [], "lscan": []}
    for seed in range(20):
        cfg = desk_scenario3(500 + seed)
        truth, log = generate_scenario(cfg)
        for backend in ("info", "lscan"):
            tracker = PmbmTracker(
                cfg.model(),
                cfg.birth,
                cfg.sensor(),
                cfg.survival(),
                mode="all",
                config=TrackerConfig(murty_budget=50, backend=backend, L=1),
            )
            result = tracker.run(log)
            rows = evaluate_run(result.estimates, truth, metric="ospa2", c=100.0, p=1.0, q=1.0, w=5)
            totals[backend].append(np.mean([r.total for r in rows]))
    mean_if = float(np.mean(totals["info"]))
    mean_l1 = float(np.mean(totals["lscan"]))
    print(f"    mean OSPA(2): information form {mean_if:.4f} vs 1-scan {mean_l1:.4f}")
    assert mean_if <= mean_l1 + 1e-6


@criterion(8, "desk-scale dense-clutter sanity", budget_s=480.0)
def test_criterion_8_sanity():
    s = math.sqrt(2)
    means = [(-s, -s), (s, -s), (-s, s), (s, s), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    birth = BirthModel(
        tuple(
            BirthComponent(1.0 / 9.0, [mx * 5e3, my * 5e3, 0.0, 0.0], np.diag([500.0**2, 500.0**2, 100.0, 100.0]))
            for mx, my in means
        )
    )
    births = (0, 1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24)
    deaths = (30, 12, 39, 20, 39, 16, 39, 26, 39, 28, 39, 36)
    hits = 0
    for seed in range(20):
        cfg = ScenarioConfig(
            K=40,
            sigma_v=1.0,
            sigma_r=1.0,
            ps=0.95,
            pd=0.99,
            mu_fa=100.0,
            region=Rectangle(-1e4, 1e4, -1e4, 1e4),
            birth=birth,
            seed=900 + seed,
            scripted_births=births,
            scripted_deaths=deaths,
        )
        truth, log = generate_scenario(cfg)
        tracker = PmbmTracker(
            cfg.model(),
            cfg.birth,
            cfg.sensor(),
            cfg.survival(),
            mode="all",
            config=TrackerConfig(murty_budget=50, backend="info"),
        )
        for state in validated_run(tracker, log):
            pass
        n_est = len(tracker.estimate(state))
        if abs(n_est - len(truth)) <= 0.2 * len(truth):
            hits += 1
    print(f"    final-step cardinality within 20% in {hits}/20 runs")
    assert hits >= 16
