"""The benchmark's tracer replaces library functions at the names their
callers look up; a renamed or moved name must fail here, not silently in a
traced benchmark run."""

import importlib.util
from pathlib import Path

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
