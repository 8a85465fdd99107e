"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``trajpmbm`` modules, at the
names their callers look up, with wrappers that time each call, count it and
derive work counts from its arguments and result.  A wrapper passes its
arguments and result through untouched; ``run.py`` checks that the traced
posterior and estimates are bit-identical to an untraced run.  Spans nest:
a span's time also counts as child time of the span it ran inside, which
gives the update its self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import trajpmbm.bernoulli as bernoulli
import trajpmbm.density as density
import trajpmbm.estimate as estimate
import trajpmbm.gaussseq as gaussseq
import trajpmbm.marginal as marginal
import trajpmbm.tracker as tracker
import trajpmbm.trajectory as trajectory


def _murty_counts(args, result):
    rows, cols = args[0].shape
    return {"association.matrix_cells": rows * cols, "association.murty_kbest.solutions": len(result)}


def _update_counts(args, result):
    # what prune left of the scan's children; the miss, detect and new-track
    # wrappers count the local hypotheses created
    p = result.density
    return {
        "tracker.globals_kept": len(p.global_hyps),
        "bernoulli.hyps_kept": sum(len(t.hypotheses) for t in p.tracks),
    }


# (module or class, attribute, span name or None, counts from (args, result))
TARGETS = (
    (tracker.PmbmTracker, "predict", "tracker.predict", None),
    (tracker.PmbmTracker, "update", "tracker.update", _update_counts),
    (tracker, "scan_weight_tables", "association.scan_weight_tables",
     lambda a, r: {"association.gated_pairs": len(r.det_log)}),
    (tracker, "murty_kbest", "association.murty_kbest", _murty_counts),
    (bernoulli, "miss_update", "bernoulli.miss_update", lambda a, r: {"bernoulli.hyps_created": 1}),
    (bernoulli, "detect_update", "bernoulli.detect_update", lambda a, r: {"bernoulli.hyps_created": 1}),
    (bernoulli, "new_track_hypotheses", "bernoulli.new_track_hypotheses", lambda a, r: {"bernoulli.hyps_created": 2}),
    (bernoulli, "thin_ppp", "bernoulli.thin_ppp", None),
    (gaussseq, "gate_likelihoods", "gaussseq.gate_likelihoods", None),
    (gaussseq, "update_seq", "gaussseq.update_seq", None),
    (gaussseq, "predict_seq", "gaussseq.predict_seq", None),
    (gaussseq, "mean_sequence", "gaussseq.mean_sequence", None),
    (gaussseq, "marginalize_steps", "gaussseq.marginalize_steps", None),
    (tracker, "normalize", "density.normalize", None),
    (tracker, "prune", "density.prune", None),
    (density, "dump_density", "density.dump_density", None),
    (estimate, "extract_set", "estimate.extract_set", lambda a, r: {"estimate.trajectories": len(r)}),
    (marginal, "marginalize_pmbm", "marginal.marginalize_pmbm", None),
    (marginal, "materialize_mixture", None, lambda a, r: {"marginal.components_materialized": len(r.components)}),
)


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._child = []  # per open span, the time its child spans took
        self._saved = []

    def _wrap(self, fn, name, counts):
        child = self._child

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
            if name is not None:
                self.seconds[name] += dt
                self.self_seconds[name] += dt - inner
                self.calls[name] += 1
            if counts is not None:
                for key, n in counts(args, result).items():
                    self.counts[key] += n
            return result

        return traced

    def _count_construction(self, post_init):
        def counted(obj):
            self.counts["trajectory.MixtureComponent.constructions"] += 1
            post_init(obj)

        return counted

    def install(self) -> None:
        for owner, attr, name, counts in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))
        post_init = trajectory.MixtureComponent.__post_init__
        self._saved.append((trajectory.MixtureComponent, "__post_init__", post_init))
        trajectory.MixtureComponent.__post_init__ = self._count_construction(post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
