"""The benchmark under perfbench/ drives the package through its public names.
These checks fail in tier-1 when a change removes or unbinds one of them,
instead of only when the benchmark itself is run.

The span tracer (perfbench/tracing.py) swaps functions in and out through
``vars(owner)``.  Each name it targets must stay bound on that owner, or
``perfbench/run.py --trace 1`` fails at its first traced request."""

import ast
import importlib
import pathlib
import sys
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("pace", "tracing", "workloads", "run")


def load_perfbench(name: str):
    """Import perfbench/<name>.py afresh.  perfbench/ is on sys.path, and
    its modules are in sys.modules, only for the import."""
    path = list(sys.path)
    saved = {m: sys.modules.pop(m) for m in MODULES if m in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = path
        for m in MODULES:
            sys.modules.pop(m, None)
        sys.modules.update(saved)


def test_every_tracer_target_resolves_through_vars():
    tracing = load_perfbench("tracing")
    assert tracing._TARGETS
    unbound = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _name, _hot in tracing._TARGETS
               if not callable(vars(owner).get(attr))]
    assert unbound == []


@pytest.mark.parametrize("name", ["workloads", "run"])
def test_benchmark_imports_and_package_attributes_resolve(name):
    """Importing checks every name the module imports from ecdtls; a walk
    of its source checks every ``<ecdtls module>.<attr>`` it reads later,
    such as ``energy.default_model``."""
    module = load_perfbench(name)
    tree = ast.parse((PERFBENCH / (name + ".py")).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            owner = vars(module).get(node.value.id)
            if isinstance(owner, types.ModuleType) and \
                    owner.__name__.startswith("ecdtls") and \
                    not hasattr(owner, node.attr):
                missing.append("%s.%s" % (node.value.id, node.attr))
    assert missing == []
