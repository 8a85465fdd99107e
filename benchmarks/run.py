#!/usr/bin/env python3
"""Fixed-seed benchmark of the trajectory PMBM trackers.

Run from the repository root:

    python3 benchmarks/run.py --workload dense-all --seed 1 --seconds 45 --trace 0

One run simulates the workload's scenario, then repeats whole rounds while
another round fits in ``--seconds``: a round tracks every scan in the
workload's number of passes and then asks its pair of window queries the
workload's number of times.  It
checks the outputs (see ``checks.py``) and prints, as the last line of
standard output, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics, writing per-scan state sizes
to ``benchmarks/out/``.

Every end-to-end time is scaled to the speed of a reference machine by
slices of a fixed kernel timed next to it (see ``speed.py``).

BLAS runs on one thread: on a 2-core machine a threaded BLAS on 4x4
matrices only adds scheduler noise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

try:
    import trajpmbm
except ImportError as exc:
    sys.exit(f"benchmark: cannot import trajpmbm from {ROOT / 'src'}: {exc}")
if Path(trajpmbm.__file__).resolve().parent != ROOT / "src" / "trajpmbm":
    sys.exit(f"benchmark: trajpmbm was imported from {trajpmbm.__file__}, not from {ROOT / 'src'}")

import numpy as np
from scipy.stats.mstats import hdquantiles

import checks
import speed
from trajpmbm import density, marginal, metrics
from trajpmbm.marginal import AliveQuery
from trajpmbm.scenario import truth_at_step
from tracing import Tracer
from workloads import WORKLOADS, make_inputs

SETUP_PROBES = 3
VALIDATE_EVERY = 10  # scans between density.validate calls in the first pass
METRIC_C = 100.0  # OSPA(2) and GOSPA cut-off
OSPA_WINDOW = 5
LIVE_MASS = 1e-4  # r x alive mass above which a track counts as live
OUT = HERE / "out"


@dataclass
class Pass:
    """One tracking pass over the workload's scans."""

    estimates: list = field(default_factory=list)
    cycle_s: list = field(default_factory=list)  # per scan: predict + update + estimate
    spans: list = field(default_factory=list)  # per scan, (start, end) of its cycle on the pass's clock
    sizes: list = field(default_factory=list)  # per scan, state sizes after the update
    final: object = None  # TrackerState after the last scan; None if the pass aborted
    queried: object = None  # TrackerState whose posterior answers the window queries
    errors: list = field(default_factory=list)  # failed checks
    aborted: str = ""  # why the pass stopped before its end


@dataclass
class Round:
    """The workload's tracking passes, then its window query pairs."""

    passes: list = field(default_factory=list)
    query_spans: list = field(default_factory=list)  # per query pair, the (start, end) of each query
    errors: list = field(default_factory=list)
    aborted: str = ""
    failed: int = 0  # operations that failed or were not reached
    moment_drift: float = 0.0  # worst current-set moment error (see checks.check_queries)


def window_query(state, which: int, clock):
    """One window query on the posterior at scan k, restricted and dumped:
    ``which`` 0 asks for the current set (states at k, alive at k), 1 for
    the full history of the trajectories alive at k (states 0..k).  Returns
    the query's (start, end) on ``clock`` and its answer."""
    k = state.k
    q = AliveQuery(k, k, k, k) if which == 0 else AliveQuery(0, k, k, k)
    t0 = clock()
    answer = marginal.marginalize_pmbm(state.density, q)
    density.dump_density(answer)
    return (t0, clock()), answer


def state_sizes(p) -> dict:
    hyps = [h for t in p.tracks for h in t.hypotheses]
    return {
        "tracks": len(p.tracks),
        "local_hyps": len(hyps),
        "globals": len(p.global_hyps),
        "ppp_components": len(p.ppp.components),
        "mixture_components": len(p.ppp.components)
        + sum(len(h.density.components) for h in hyps if h.density is not None),
    }


def track_pass(w, inp, clock, validate: bool, sizes: bool) -> Pass:
    """One pass over the scans, mirroring ``PmbmTracker.run``: each cycle
    (predict, update, estimate) is timed alone on ``clock``; validation and
    bookkeeping happen outside the timed region."""
    tr, r = inp.tracker, Pass()
    query_k = len(inp.scans) - 1 if w.query_scan is None else w.query_scan
    gc.collect()  # start every pass from the same heap, so collections fall on the same scans
    state = tr.initial()
    for k, scan in enumerate(inp.scans):
        try:
            t0 = clock()
            if k > 0:
                state = tr.predict(state)
            if scan is not None:
                state = tr.update(state, scan)
            r.estimates.append(tr.estimate(state))
            t1 = clock()
            r.spans.append((t0, t1))
            r.cycle_s.append(t1 - t0)
        except Exception as exc:  # an aborted run counts what it did not reach
            r.aborted = f"scan {k} aborted the run: {exc!r}"
            return r
        if sizes:
            r.sizes.append(state_sizes(state.density))
        if validate and k % VALIDATE_EVERY == VALIDATE_EVERY - 1:
            r.errors += checks.check_posterior(state.density, f"at scan {k}")
        if k == query_k:
            r.queried = state
    r.final = state
    return r


def outcome(r: Pass) -> str:
    return checks.fingerprint((r.final.density, r.estimates))


def run_round(w, inp, clock, validate: bool = False) -> Round:
    """``w.passes`` tracking passes, which must agree bit for bit, then
    ``w.query_pairs`` times the workload's two window queries."""
    n, r = len(inp.scans), Round()
    for i in range(w.passes):
        p = track_pass(w, inp, clock, validate and i == 0, sizes=False)
        r.passes.append(p)
        r.errors += p.errors
        if p.aborted:
            r.aborted = p.aborted
            r.failed = n - len(p.cycle_s) + (w.passes - 1 - i) * n + 2 * w.query_pairs
            return r
    if any(outcome(p) != outcome(r.passes[0]) for p in r.passes[1:]):
        r.errors.append("repeated passes gave different posteriors or estimates")
    for _ in range(w.query_pairs):
        check_answers(p.queried, [window_query(p.queried, 0, clock), window_query(p.queried, 1, clock)], r)
    return r


def check_answers(state, pair, r: Round) -> None:
    """Record and check one answered query pair."""
    r.query_spans.append((pair[0][0], pair[1][0]))
    errors, drift = checks.check_queries(state.density, pair[0][1], pair[1][1], state.k)
    r.errors += errors
    r.moment_drift = max(r.moment_drift, drift)
    if drift > checks.REL_TOL:  # the current-set answer is wrong: that query failed
        r.failed += 1


def check_pass(w, inp, r: Pass) -> tuple:
    """Correctness checks of a complete pass; returns (errors, ospa2, gospa)."""
    errors = checks.check_posterior(r.final.density, "on the final posterior")
    ospa, gospa = [], []
    for k, est in enumerate(r.estimates):
        tru = truth_at_step(inp.truth, k)
        if w.mode == "current":  # the current tracker estimates the trajectories alive now
            tru = tuple(t for t in tru if t.epsilon == k)
        ospa.append(metrics.ospa2(est, tru, k, c=METRIC_C, p=1.0, q=1.0, w=OSPA_WINDOW).total)
        est_now = [t.state_at(k) for t in est if t.beta <= k <= t.epsilon]
        tru_now = [t.state_at(k) for t in tru if t.epsilon == k]
        gospa.append(metrics.gospa_step(est_now, tru_now, c=METRIC_C, p=1.0, k=k).total)
    ospa2_mean, gospa_mean = float(np.mean(ospa)), float(np.mean(gospa))
    errors += checks.check_estimates(w.mode, r.estimates, inp.truth, ospa2_mean, gospa_mean, METRIC_C)
    return errors, ospa2_mean, gospa_mean


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its first scan is
    ready (imports, config, simulation and tracker construction), at the
    reference speed."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    before = speed.bracket()
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return (float(out.stdout.split()[-1]) - t0) * speed.scale(before + speed.bracket())


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_end_to_end(w, inp, args, setup_s: float) -> dict:
    rounds = []
    t_start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(w, inp, sampler.clock, validate=not rounds))
            last = time.perf_counter() - t0
            if rounds[-1].aborted or time.perf_counter() - t_start + last > args.seconds:
                break
    errors = [e for r in rounds for e in r.errors]
    first = rounds[0].passes[0]
    ospa2_mean = gospa_mean = 0.0
    if first.final is not None:
        check_errors, ospa2_mean, gospa_mean = check_pass(w, inp, first)
        errors += check_errors
        if any(r.passes[0].final is not None and outcome(r.passes[0]) != outcome(first) for r in rounds[1:]):
            errors.append("repeated rounds gave different posteriors or estimates")
    # every cycle scaled to the reference speed; the rate takes each scan's
    # median over the run's passes.  The percentiles pool all cycles and are
    # Harrell-Davis estimates, weighted sums of all order statistics: cycle
    # time climbs steeply with k, so a single order statistic would jump
    # between neighbouring scans from run to run
    complete = [[sampler.scaled(*s) for s in p.spans] for r in rounds for p in r.passes if p.final is not None]
    cycle_s = np.median(complete, axis=0) if complete else np.array(first.cycle_s or [0.0])
    p50, p75 = hdquantiles(np.concatenate(complete) if complete else cycle_s, prob=[0.5, 0.75])
    for r in rounds:
        if r.aborted:
            print(f"ABORTED: {r.aborted}", file=sys.stderr)
        if r.moment_drift > checks.REL_TOL:
            print(f"FAILED: current-set query moments differ from their sources by {r.moment_drift:.3g}"
                  f" relative (limit {checks.REL_TOL:g})", file=sys.stderr)
    query_s = [sum(sampler.scaled(*s) for s in pair) for r in rounds for pair in r.query_spans]
    print(f"{w.name}: {len(rounds)} round(s), {len(sampler.slices)} reference slices,"
          f" median {1e3 * statistics.median(sampler.slices):.3f} ms", file=sys.stderr)
    for r in rounds:
        for p in r.passes:
            print(f"  pass {sum(p.cycle_s):.3f} s wall, {sum(sampler.scaled(*s) for s in p.spans):.3f} s scaled",
                  file=sys.stderr)
        for pair in r.query_spans:
            print(f"  queries {[round(sampler.scaled(*s), 3) for s in pair]} s scaled", file=sys.stderr)
    return {
        "attempted": len(rounds) * (w.passes * len(inp.scans) + 2 * w.query_pairs),
        "failed": sum(r.failed for r in rounds),
        "errors": errors,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "scans_per_s": metric(len(cycle_s) / cycle_s.sum(), "scans/s"),
            "cycle_ms_p50": metric(1e3 * p50, "ms"),
            "cycle_ms_p75": metric(1e3 * p75, "ms"),
            "query_s": metric(statistics.median(query_s or [0.0]), "s"),
            "ospa2_mean": metric(ospa2_mean, "m"),
            "gospa_mean": metric(gospa_mean, "m"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }


def run_traced(w, inp, args) -> dict:
    n = len(inp.scans)
    attempted = 2 * n + 2
    ref = track_pass(w, inp, time.perf_counter, validate=False, sizes=False)
    if ref.aborted:
        print(f"ABORTED: {ref.aborted}", file=sys.stderr)
        return {"attempted": attempted, "failed": attempted - len(ref.cycle_s), "errors": [], "metrics": {}}
    rnd, tracer = Round(), Tracer()
    with tracer:
        r = track_pass(w, inp, time.perf_counter, validate=False, sizes=True)
        constructions = tracer.counts["trajectory.MixtureComponent.constructions"]
        if not r.aborted:
            pair = [window_query(r.queried, which, time.perf_counter) for which in (0, 1)]
            check_answers(r.queried, pair, rnd)
    if r.aborted:
        print(f"ABORTED: {r.aborted}", file=sys.stderr)
        return {"attempted": attempted, "failed": attempted - n - len(r.cycle_s), "errors": [], "metrics": {}}
    errors = rnd.errors
    if outcome(ref) != outcome(r):
        errors.append("the traced pass's posterior or estimates differ from the untraced pass's")

    s, c, calls = tracer.seconds, tracer.counts, tracer.calls
    p, k = r.final.density, r.final.k
    live = sum(
        1
        for t in p.tracks
        if any(
            h.density is not None
            and h.r * sum(x.weight * checks.alive_mass(x, k) for x in h.density.components) >= LIVE_MASS
            for h in t.hypotheses
        )
    )
    kept = sum(state_sizes(answer)["mixture_components"] for _, answer in pair)
    untraced = len(ref.cycle_s) / sum(ref.cycle_s)
    traced = len(r.cycle_s) / sum(r.cycle_s)

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "tracker.predict.s": metric(s["tracker.predict"], "s"),
        "tracker.update.s": metric(s["tracker.update"], "s"),
        "tracker.update.self_s": metric(tracer.self_seconds["tracker.update"], "s"),
        "tracker.children_kept_share": metric(
            share(c["tracker.globals_kept"], c["association.murty_kbest.solutions"]), "ratio"
        ),
        "association.scan_weight_tables.s": metric(s["association.scan_weight_tables"], "s"),
        "association.gated_pairs": metric(c["association.gated_pairs"], "count"),
        "association.murty_kbest.s": metric(s["association.murty_kbest"], "s"),
        "association.murty_kbest.calls": metric(calls["association.murty_kbest"], "count"),
        "association.murty_kbest.solutions": metric(c["association.murty_kbest.solutions"], "count"),
        "association.matrix_cells": metric(c["association.matrix_cells"], "count"),
    }
    for name in ("miss_update", "detect_update", "new_track_hypotheses"):
        out[f"bernoulli.{name}.s"] = metric(s[f"bernoulli.{name}"], "s")
        out[f"bernoulli.{name}.calls"] = metric(calls[f"bernoulli.{name}"], "count")
    out["bernoulli.thin_ppp.s"] = metric(s["bernoulli.thin_ppp"], "s")
    out["bernoulli.hyps_kept_share"] = metric(share(c["bernoulli.hyps_kept"], c["bernoulli.hyps_created"]), "ratio")
    for name in ("gate_likelihoods", "update_seq", "predict_seq", "mean_sequence", "marginalize_steps"):
        out[f"gaussseq.{name}.s"] = metric(s[f"gaussseq.{name}"], "s")
        out[f"gaussseq.{name}.calls"] = metric(calls[f"gaussseq.{name}"], "count")
    for name in ("normalize", "prune", "dump_density"):
        out[f"density.{name}.s"] = metric(s[f"density.{name}"], "s")
    for key in ("tracks", "local_hyps", "globals", "ppp_components", "mixture_components"):
        out[f"density.{key}_peak"] = metric(max(x[key] for x in r.sizes), "count")
    out["density.live_track_share"] = metric(share(live, len(p.tracks)), "ratio")
    out["estimate.extract_set.s"] = metric(s["estimate.extract_set"], "s")
    out["estimate.trajectories"] = metric(c["estimate.trajectories"], "count")
    out["marginal.marginalize_pmbm.s"] = metric(s["marginal.marginalize_pmbm"], "s")
    out["marginal.components_materialized"] = metric(c["marginal.components_materialized"], "count")
    out["marginal.kept_share"] = metric(share(kept, c["marginal.components_materialized"]), "ratio")
    out["trajectory.MixtureComponent.constructions"] = metric(constructions, "count")
    out["trace.scans_per_s"] = metric(traced, "scans/s")
    out["trace.untraced_scans_per_s"] = metric(untraced, "scans/s")
    out["trace.overhead_share"] = metric(untraced / traced - 1.0, "ratio")

    OUT.mkdir(exist_ok=True)
    series = {"workload": w.name, "seed": args.seed, "sizes_per_scan": r.sizes,
              "cycle_s_traced": r.cycle_s, "cycle_s_untraced": ref.cycle_s}
    (OUT / f"{w.name}-seed{args.seed}-trace.json").write_text(json.dumps(series) + "\n")
    return {"attempted": attempted, "failed": rnd.failed, "errors": errors, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        make_inputs(w, args.seed).tracker.initial()
        print(time.monotonic())
        return 0

    speed.bracket()  # warm the reference kernel up before its slices count
    if args.trace:
        res = run_traced(w, make_inputs(w, args.seed), args)
    else:
        setup_s = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
        res = run_end_to_end(w, make_inputs(w, args.seed), args, setup_s)
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
