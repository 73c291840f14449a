"""The benchmark's span tracer (perfbench/tracing.py) swaps functions in and
out through ``vars(owner)``.  Each name it targets must stay bound on that
owner, or ``perfbench/run.py --trace 1`` fails at its first traced request."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def test_every_tracer_target_resolves_through_vars():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._TARGETS
    unbound = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _name, _hot in tracing._TARGETS
               if not callable(vars(owner).get(attr))]
    assert unbound == []
