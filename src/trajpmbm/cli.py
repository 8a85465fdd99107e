"""Command-line interface.

Subcommands:

* ``pmbm simulate``    -- generate a measurement log and ground truth
* ``pmbm track``       -- run a tracker over a measurement log
* ``pmbm evaluate``    -- score estimates against truth (OSPA(2) or GOSPA)
* ``pmbm mc``          -- Monte Carlo simulate+track+evaluate aggregation
* ``pmbm marginalize`` -- window-restrict a dumped posterior
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .density import PruneThresholds, dump_density, load_density
from .marginal import AliveQuery, marginalize_pmbm
from .metrics import write_metric_csv
from .montecarlo import evaluate_run, run_monte_carlo
from .scenario import (
    ScenarioConfig,
    generate_scenario,
    read_measurement_log,
    read_trajectory_sets,
    truth_at_step,
    write_measurement_log,
    write_trajectory_sets,
)
from .tracker import PmbmTracker, TrackerConfig


def _tracker_config(args) -> TrackerConfig:
    return TrackerConfig(
        murty_budget=args.M,
        backend=args.seq_backend,
        L=args.L,
        thresholds=PruneThresholds(cap_M=args.M),
    )


def _add_tracker_args(sub):
    sub.add_argument("--mode", choices=["all", "current"], default="all")
    sub.add_argument("--seq-backend", choices=["moment", "info", "lscan"], default="info")
    sub.add_argument("--L", type=int, default=1)
    sub.add_argument("--M", type=int, default=100, help="global hypothesis budget")


def cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    truth, log = generate_scenario(cfg, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_measurement_log(out / "measurements.jsonl", log)
    write_trajectory_sets(out / "truth.jsonl", [truth_at_step(truth, k) for k in range(cfg.K)])
    print(f"wrote {len(log)} scans and {len(truth)} true trajectories to {out}")
    return 0


def cmd_track(args) -> int:
    cfg = ScenarioConfig.from_json(args.scenario)
    log = read_measurement_log(args.measurements)
    if not log:
        raise ValueError(f"measurement log {args.measurements} holds no scan")
    tracker = PmbmTracker(
        cfg.model(), cfg.birth, cfg.sensor(), cfg.survival(), mode=args.mode, config=_tracker_config(args)
    )
    result = tracker.run(log)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_sets(out / "estimates.jsonl", result.estimates)
    if args.dump_posterior:
        Path(args.dump_posterior).write_text(json.dumps(dump_density(result.final_state.density)))
    print(
        f"tracked {len(log)} scans ({args.mode} mode, {args.seq_backend} backend); "
        f"mean cycle {np.mean(result.cycle_times) * 1e3:.2f} ms"
    )
    return 0


def cmd_evaluate(args) -> int:
    est = read_trajectory_sets(args.est)
    truth_sets = read_trajectory_sets(args.truth)
    if not truth_sets or len(est) != len(truth_sets):
        raise ValueError(f"estimate and truth logs need equal, nonzero lengths, got {len(est)} and {len(truth_sets)}")
    # the last record holds every true trajectory with its full extent
    truth = truth_sets[-1]
    rows = evaluate_run(est, truth, metric=args.metric, c=args.c, p=args.p, q=args.q, w=args.w)
    if args.out:
        write_metric_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        _print_csv(rows)
    return 0


def _print_csv(rows) -> None:
    print("k,loc,miss,false,card,total")
    for r in rows:
        print(f"{r.k},{r.loc!r},{r.miss!r},{r.false!r},{r.card!r},{r.total!r}")


def cmd_mc(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    result = run_monte_carlo(
        cfg,
        tracker_cfg=_tracker_config(args),
        mode=args.mode,
        runs=args.runs,
        metric=args.metric,
        c=args.c,
        p=args.p,
        q=args.q,
        w=args.w,
        jobs=args.jobs,
    )
    if args.out:
        write_metric_csv(args.out, result.rows)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    else:
        _print_csv(result.rows)
    print(f"mean cycle time: {result.mean_cycle_time * 1e3:.2f} ms over {args.runs} runs")
    return 0


def cmd_marginalize(args) -> int:
    density = load_density(json.loads(Path(args.dump).read_text()))
    query = AliveQuery(args.alpha, args.gamma, args.eta, args.zeta)
    out = marginalize_pmbm(density, query)
    Path(args.out).write_text(json.dumps(dump_density(out)))
    kept = sum(1 for t in out.tracks for h in t.hypotheses if h.r > 0)
    print(f"marginalized to states {args.alpha}..{args.gamma}, alive {args.eta}..{args.zeta}; "
          f"{len(out.ppp.components)} undetected components, {kept} existing hypotheses")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pmbm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate measurements and truth")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    trk = subs.add_parser("track", help="run a tracker over a measurement log")
    trk.add_argument("--scenario", required=True)
    trk.add_argument("--measurements", required=True)
    _add_tracker_args(trk)
    trk.add_argument("--out", required=True)
    trk.add_argument("--dump-posterior", default=None, help="write the final posterior as JSON")
    trk.set_defaults(func=cmd_track)

    ev = subs.add_parser("evaluate", help="score estimates against truth")
    ev.add_argument("--est", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--metric", choices=["ospa2", "gospa"], default="ospa2")
    ev.add_argument("-c", type=float, default=100.0)
    ev.add_argument("-p", type=float, default=1.0)
    ev.add_argument("-q", type=float, default=1.0)
    ev.add_argument("-w", type=int, default=5)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_evaluate)

    mc = subs.add_parser("mc", help="Monte Carlo evaluation")
    mc.add_argument("--config", required=True)
    mc.add_argument("--runs", type=int, required=True)
    _add_tracker_args(mc)
    mc.add_argument("--metric", choices=["ospa2", "gospa"], default="ospa2")
    mc.add_argument("-c", type=float, default=100.0)
    mc.add_argument("-p", type=float, default=1.0)
    mc.add_argument("-q", type=float, default=1.0)
    mc.add_argument("-w", type=int, default=5)
    mc.add_argument("--jobs", type=int, default=1)
    mc.add_argument("--out", default=None)
    mc.set_defaults(func=cmd_mc)

    mg = subs.add_parser("marginalize", help="window-restrict a posterior dump")
    mg.add_argument("--dump", required=True)
    mg.add_argument("--alpha", type=int, required=True)
    mg.add_argument("--gamma", type=int, required=True)
    mg.add_argument("--eta", type=int, required=True)
    mg.add_argument("--zeta", type=int, required=True)
    mg.add_argument("--out", required=True)
    mg.set_defaults(func=cmd_marginalize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run(argv=None) -> int:
    """The ``pmbm`` command: ``main``, reporting a ValueError (malformed
    input, an invalid setting) or an OSError (an unreadable file) as one
    ``error:`` line and exit status 1."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
