"""The benchmark under perfbench/ drives the package through its public names.
These checks fail in tier-1 when a change removes or unbinds one of them, or
breaks a handshake or echo the way the benchmark runs them, instead of only
when the benchmark itself is run.

The span tracer (perfbench/tracing.py) swaps functions in and out through
``vars(owner)``.  Each name it targets must stay bound on that owner, or
``perfbench/run.py --trace 1`` fails at its first traced request."""

import ast
import importlib
import pathlib
import sys
import types

import pytest

from ecdtls import energy

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("pace", "tracing", "workloads", "run")

# Counter kinds perfbench/run.py reads that the energy model does not price,
# and why each may be read.  An entry whose kind is no longer read fails
# too, so the exemptions stay current.
_PER_LAYER_COMB = ("the per-layer comb metrics read it until ROADMAP item 7 "
                   "switches them to ecsm_comb, ecsm_window and "
                   "comb_precompute; nothing records it, so they read 0")
UNPRICED_READS = {
    "comb_cache_hit": _PER_LAYER_COMB,
    "comb_cache_miss": _PER_LAYER_COMB,
}


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


def counter_kinds_read(tree) -> set:
    """The kinds a module reads as ``counts["<kind>"]`` or
    ``count("<kind>", ...)``."""
    kinds = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "counts":
            args = [node.slice]
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "count":
            args = node.args
        else:
            continue
        kinds |= {a.value for a in args if isinstance(a, ast.Constant)}
    return kinds


def test_every_counter_kind_the_benchmark_reads_is_priced():
    """A kind the benchmark reads is a priced kind or one of its own
    ``drop.<reason>`` kinds; otherwise it silently reads 0."""
    read = counter_kinds_read(ast.parse((PERFBENCH / "run.py").read_text()))
    assert {"mod_mul", "cert_cache_hit", "drop.replay"} <= read
    unpriced = {kind for kind in read if kind not in energy.PRICED_KINDS
                and not kind.startswith("drop.")}
    assert sorted(unpriced) == sorted(UNPRICED_READS)


@pytest.mark.parametrize("name", ["hs-full-cold", "hs-cached-warm"])
def test_workload_fixture_handshakes_and_echoes(name):
    """One handshake and one 64 B echo of a workload's fixture, on a small
    curve, pass the benchmark's own correctness checks."""
    workloads = load_perfbench("workloads")
    fixture = workloads.Fixture(workloads.WORKLOADS[name], 7, "secp160r1",
                                energy.default_model())
    link = fixture.handshake()
    assert link.ok, link.reason
    tally = workloads.Tally()
    workloads.echo(fixture, link, workloads.SMALL, tally, workloads.Pace())
    assert (tally.records, tally.records_failed, tally.failures) == (2, 0, [])
