"""Every module of the package is reached from its public API, and every
name a module imports is read.

perfbench/README.md names the API the benchmark drives: `handshake`,
`transport`, `credentials` and `energy`.  Walking the relative imports from
those four modules must reach every module under src/ecdtls; a module that
is left over is code nothing reaches.

`merkle` is the one known leftover, kept with its tests until its deletion
lands on its own; the check requires the leftover set to be exactly that, so
a newly unreached module fails it and so does deleting `merkle` without
updating it.

The import check walks the package and the tests with `ast`, since no
linter is installed.  A name bound by `import` or `from ... import` that the
module never loads fails it; `__future__` imports are exempt.

No module of the package imports an `_`-prefixed name from a sibling: what
one module shares with another is public.  The tests are exempt, since they
import private tables as oracles."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecdtls"
ROOTS = ("handshake", "transport", "credentials", "energy")
UNREACHED_PENDING_DELETION = ["merkle"]


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
    paths = sorted(PACKAGE.glob("*.py")) + \
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
