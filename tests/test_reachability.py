"""Every module of the package is reached from its public API, every name
a module imports is read, and every public name of the package is read by
the program.

perfbench/README.md names the API the benchmark drives: `handshake`,
`transport`, `credentials` and `energy`.  Walking the relative imports from
those four modules must reach every module under src/ecdtls; a module that
is left over is code nothing reaches.

`merkle` is the one known leftover, kept with its tests until its deletion
lands on its own; the check requires the leftover set to be exactly that, so
a newly unreached module fails it and so does deleting `merkle` without
updating it.

The import check walks the package, perfbench/ and the tests with `ast`,
since no linter is installed.  A name bound by `import` or
`from ... import` that the module never loads fails it; `__future__`
imports are exempt.

No module of the package imports an `_`-prefixed name from a sibling: what
one module shares with another is public.  The tests are exempt, since they
import private tables as oracles.

For the public-name check, a public function, class or constant of a module,
or a public method or class attribute of one of its classes, must be read by
some module under src/ecdtls or perfbench/.  A read is a load of the name or
of an attribute of that name, or an imported name; under perfbench/ a string
constant counts too, since perfbench/tracing.py names the functions it wraps
as strings.  What only the tests read is dead code; a helper a test needs
lives in the test.  Dunder methods are out of scope (the language calls
them), and so are the modules in UNREACHED_PENDING_DELETION, both as
definers and as readers.  The check goes by name alone, so a dead method
that shares its name with an attribute read elsewhere still passes: a
`CertCache.load` would pass against `json.load`.  ALLOWED_UNREAD names the
exceptions, each with its reason, and each must still be a public name the
scan would flag, so an entry does not outlive its name or its exemption."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecdtls"
PERFBENCH = ROOT / "perfbench"
ROOTS = ("handshake", "transport", "credentials", "energy")
UNREACHED_PENDING_DELETION = ["merkle"]

# Public names nothing under src/ecdtls or perfbench/ reads yet, and why
# each stays.
ALLOWED_UNREAD = {
    "transport.run_udp_handshake":
        "the UDP driver that OpenSSL interop and retransmission "
        "(ROADMAP items 2 and 4) build on",
    "transport.UdpEndpoint.address":
        "the bound port, which a peer needs when binding to port 0 "
        "(ROADMAP items 2 and 4)",
    "drbg.HmacDrbg.reseed":
        "part of the SP 800-90A interface, exercised by the reseed test "
        "vectors in test_drbg.py",
    "curve.CurveRegistry.names":
        "the tests parametrise over the registered curves with it",
    "energy.CAL_HANDSHAKE_J":
        "the paper's whole-handshake anchor, which ROADMAP item 6 checks "
        "the model against",
    "energy.CAL_APPDATA_J_PER_BYTE":
        "the paper's per-byte application-data anchor, which ROADMAP "
        "item 6 checks the model against",
}


def relative_imports(name: str) -> set:
    """Sibling modules named by `from . import x` or `from .x import y`,
    at any depth of the module (function-local imports included)."""
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_reached_from_public_api():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert set(ROOTS) <= modules
    reached = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(relative_imports(name) & modules)
    assert sorted(modules - reached) == UNREACHED_PENDING_DELETION


def test_public_api_loads_no_socket_or_calendar():
    """Loopback users never open a socket, and UTCTime needs no calendar
    (which loads datetime and locale): neither is imported."""
    code = ("import sys; sys.path.insert(0, %r); "
            "from ecdtls import %s; "
            "print(sorted({'socket', 'calendar'} & set(sys.modules)))"
            % (str(PACKAGE.parent), ", ".join(ROOTS)))
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def unread_imports(path: pathlib.Path) -> list:
    """Names the module at path imports but never loads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    unread = {str(path.relative_to(ROOT)): names for path in paths
              for names in [unread_imports(path)] if names}
    assert unread == {}


def private_sibling_imports(name: str) -> list:
    """`_`-prefixed names the module imports from a sibling module."""
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and (
                      node.level == 1 or
                      (node.module or "").split(".")[0] == "ecdtls")
                  for alias in node.names if alias.name.startswith("_"))


def test_no_private_sibling_imports():
    found = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
             for names in [private_sibling_imports(path.stem)] if names}
    assert found == {}


def public_definitions(path: pathlib.Path) -> list:
    """(qualified name, name) of each public function, class and constant
    of the module at path, and of each public method and class attribute of
    its classes."""
    def bound(node) -> list:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            return [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            return [node.target.id]
        return []

    found = []
    for node in ast.parse(path.read_text()).body:
        found += [(path.stem + "." + name, name) for name in bound(node)]
        if isinstance(node, ast.ClassDef):
            found += [("%s.%s.%s" % (path.stem, node.name, name), name)
                      for item in node.body for name in bound(item)]
    return [(qualified, name) for qualified, name in found
            if not name.startswith("_")]


def names_read(path: pathlib.Path, strings: bool) -> set:
    """Names the module at path loads, as a name or an attribute, or
    imports; with strings, also its string constants."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and \
                isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(package: pathlib.Path, readers: pathlib.Path,
                        allowed=(), skipped=()) -> list:
    """Qualified public names of the modules in package that neither a
    module of package nor one of readers reads, less the allowed ones.  The
    skipped modules neither define nor read."""
    sources = [path for path in sorted(package.glob("*.py"))
               if path.stem not in skipped]
    read = set().union(
        *(names_read(path, strings=False) for path in sources),
        *(names_read(path, strings=True)
          for path in sorted(readers.glob("*.py"))))
    return sorted(qualified for path in sources
                  for qualified, name in public_definitions(path)
                  if name not in read and qualified not in allowed)


def test_every_public_name_is_read():
    assert unread_public_names(PACKAGE, PERFBENCH, ALLOWED_UNREAD,
                               UNREACHED_PENDING_DELETION) == []


def test_every_allowed_unread_name_is_defined_and_unread():
    assert unread_public_names(PACKAGE, PERFBENCH, (),
                               UNREACHED_PENDING_DELETION) == \
        sorted(ALLOWED_UNREAD)


def test_public_name_scan_flags_exactly_the_unread(tmp_path):
    package = tmp_path / "package"
    bench = tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text('''
UNREAD_CONSTANT = 1
READ_CONSTANT = 2
KEPT_ON_PURPOSE = 3
_MESSAGE = "named_in_package_string"


def unread_function():
    return READ_CONSTANT


def named_in_package_string():
    pass


def named_in_bench_string():
    pass


def imported_by_bench():
    pass


def _private():
    pass


class Thing:
    unread_attribute = 1
    read_attribute = 2

    def __len__(self):
        return 0

    def unread_method(self):
        return self.read_attribute

    def _private_method(self):
        pass
''')
    (package / "leftover.py").write_text('''
from .mod import UNREAD_CONSTANT


def leftover_function():
    return UNREAD_CONSTANT
''')
    (bench / "run.py").write_text('''
from package import mod
from package.mod import imported_by_bench

TARGETS = ("named_in_bench_string",)
print(mod.Thing, imported_by_bench, TARGETS)
''')
    assert unread_public_names(package, bench, {"mod.KEPT_ON_PURPOSE"},
                               ["leftover"]) == [
        "mod.Thing.unread_attribute", "mod.Thing.unread_method",
        "mod.UNREAD_CONSTANT", "mod.named_in_package_string",
        "mod.unread_function"]
