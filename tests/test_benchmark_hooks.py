"""The benchmark's tracer replaces library functions at the names their
callers look up; a renamed or moved name must fail here, not silently in a
traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from trajpmbm import density, marginal
from trajpmbm.marginal import AliveQuery

from helpers import scalar_setup

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracing = load_tracing()
    hooks = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    hooks.append((tracing.trajectory.MixtureComponent, "__post_init__"))
    before = [owner.__dict__[attr] for owner, attr in hooks]
    tracer = tracing.Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(hooks, before))
        tracker = scalar_setup(exact=False)
        final = tracker.run([[[0.5]], [[1.0], [8.0]], []]).final_state.density
        density.dump_density(final)
        marginal.marginalize_pmbm(final, AliveQuery(0, 2, 0, 2))
    assert [owner.__dict__[attr] for owner, attr in hooks] == before
    # a layer the library stopped calling through its traced name reads 0 s
    silent = [name for _, _, name, _ in tracing.TARGETS if name is not None and tracer.calls[name] == 0]
    assert silent == []
    assert tracer.counts["association.matrix_cells"] > 0


def test_gating_is_one_batch_per_scan_with_measurements():
    """A scan's alive components are gated in one call: a traced run makes
    at most one gating call per scan that has measurements."""
    tracing = load_tracing()
    scans = [[[0.5]], [[1.0], [8.0]], [], [[1.5], [-3.0], [9.0]], [[2.0], [8.5]]]
    tracer = tracing.Tracer()
    with tracer:
        scalar_setup(exact=False).run(scans)
    assert 0 < tracer.calls["gaussseq.gate_likelihoods"] <= sum(1 for s in scans if s)


def test_one_inverse_per_scan_with_measurements(monkeypatch):
    """The gains of a scan's updates come from one inverse of the gating
    batch's stacked S: an update makes at most one ``np.linalg.inv`` call,
    and none when the scan has no measurements."""
    calls = []
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.ndim(a)) or real(a))
    tracker = scalar_setup(exact=False, backend="info")
    scans = [[[0.5]], [[1.0], [8.0]], [], [[1.5], [-3.0], [9.0]], [[2.0], [8.5]]]
    state, per_scan = tracker.initial(), []
    for k, scan in enumerate(scans):
        if k:
            state = tracker.predict(state)  # new births convert their moments with one 2-d inverse each
        before = len(calls)
        state = tracker.update(state, scan)
        per_scan.append(calls[before:])
    assert per_scan == [[3] if s else [] for s in scans]  # one inverse, of a stack
