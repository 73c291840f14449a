"""Every module of the package is reached from its public API, every name
a module imports is read, and every public name of the package is read by
the program.

perfbench/README.md names the API the benchmark drives: `handshake`,
`transport`, `credentials` and `energy`.  Walking the relative imports from
those four modules must reach every module under src/ecdtls; a module that
is left over is code nothing reaches, and fails the check.

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
of an attribute of that name, or an imported name.  A string constant is not
a read, even where perfbench/tracing.py names the functions it wraps: a
function only a tracer wraps is one nothing calls.  What only the tests read
is dead code; a helper a test needs lives in the test.  Dunder methods are
out of scope (the language calls them).  The check goes by name alone, so a
dead method that shares its name with an attribute read elsewhere still
passes: a `CertCache.load` would pass against `json.load`.  ALLOWED_UNREAD
names the exceptions, each with its reason, and each must still be a public
name the scan would flag, so an entry does not outlive its name or its
exemption.

For the knob check, each defaulted parameter of a public function, of a
public method of a public class or of a public class's `__init__` must be
passed, by position or by keyword, by some call under src/ecdtls or
perfbench/.  A parameter no caller sets is a knob nobody turns: its default
is the only value the program runs.  Calls match definitions by name alone,
as in the public-name check, but for a call through a class's name: there
`KeyPair.generate(...)` counts only for `KeyPair`'s own `generate`.  The
blind spots that remain:
- a call `x.generate(...)` on anything but a class name counts for every
  function or method named `generate`;
- a class's `__init__` is matched by calls of the class's name only, not by
  `cls(...)` or `super().__init__(...)`;
- a method's positional arguments bind after `self` or `cls`, a
  `@staticmethod`'s from its first parameter, so an unbound
  `Class.method(obj, ...)` call is misread;
- a call with `*args` or `**kwargs` passes every parameter.
ALLOWED_UNPASSED names the exceptions, each with its reason, and each must
still be flagged.

For the attribute-store check, each attribute a method of a class under
src/ecdtls stores on `self` must be loaded, as `.<name>`, by some module
under src/ecdtls or perfbench/.  A store nothing loads is a copy nobody
reads.  It matches by name alone, as the other checks do, so a store whose
name is loaded from some other object passes: a `SessionConfig.ca_der`
nothing reads would pass, since other modules load `pki.ca_der`.
ALLOWED_UNLOADED names the exceptions, each with its reason, and each must
still be flagged."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecdtls"
PERFBENCH = ROOT / "perfbench"
ROOTS = ("handshake", "transport", "credentials", "energy")

# Public names nothing under src/ecdtls or perfbench/ reads yet, and why
# each stays.
ALLOWED_UNREAD = {
    "curve.CurveRegistry.load_text":
        "the eager, all-or-none load of a caller's own curves, whose "
        "refusals the registry tests pin; the shipped file is proved record "
        "by record at first lookup, so no module of the package calls it",
    "energy.CAL_HANDSHAKE_J":
        "the paper's whole-handshake anchor, which ROADMAP item 6 checks "
        "the model against",
    "energy.CAL_APPDATA_J_PER_BYTE":
        "the paper's per-byte application-data anchor, which ROADMAP "
        "item 6 checks the model against",
}

# Defaulted parameters no call under src/ecdtls or perfbench/ passes yet,
# and why each stays.
ALLOWED_UNPASSED = {
    "counters.scope.trace":
        "the uniform-trace tests record the order of operations with it "
        "(aim 3)",
}

# Attributes stored on self that nothing under src/ecdtls or perfbench/
# loads yet, and why each stays.
ALLOWED_UNLOADED = {
    "x509.Certificate.serial":
        "a parse result the X.509 tests check",
    "x509.Certificate.is_ca":
        "a parse result the X.509 tests check",
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
    assert sorted(modules - reached) == []


def test_public_api_loads_no_socket_or_calendar():
    """The public API opens no socket, and UTCTime needs no calendar
    (which loads datetime and locale): neither is imported."""
    code = ("import sys; sys.path.insert(0, %r); "
            "from ecdtls import %s; "
            "print(sorted({'socket', 'calendar'} & set(sys.modules)))"
            % (str(PACKAGE.parent), ", ".join(ROOTS)))
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


ONE_SECP256R1_PAIR = """
import sys
sys.path.insert(0, %r)
from ecdtls import credentials, energy, handshake, transport
from ecdtls.curve import CurveParams, builtin_registry
energy.default_model()
curve = builtin_registry().get("secp256r1")
pki = credentials.generate_pki(curve, bytes(32))
def session(role, own, peer_cn):
    return handshake.HandshakeSession(handshake.SessionConfig(
        role=role, curve=curve, own_cert_der=own.cert_der,
        own_key_d=own.key.d, ca_der=pki.ca_der, entropy=role.encode() * 8,
        expected_peer_cn=peer_cn, clock=lambda: 1754784000.0))
result = transport.run_loopback(
    session("client", pki.client, credentials.SERVER_CN),
    session("server", pki.server, credentials.CLIENT_CN))
assert result.established
print(sorted(name for name, entry in builtin_registry()._curves.items()
             if isinstance(entry, CurveParams)))
"""


def test_a_secp256r1_process_proves_only_secp256r1():
    """A process proves only the curves it names: the energy fit and one
    secp256r1 handshake pair leave every other shipped record unproved."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", ONE_SECP256R1_PAIR % str(PACKAGE.parent)],
        check=True, capture_output=True, text=True).stdout
    assert out.strip() == "['secp256r1']"


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


def test_only_the_record_layer_reads_record_framing():
    """No module of the package but record.py reads the record header or
    its length: the others deal in payloads.  perfbench/ and the tests are
    exempt."""
    framing = {"RecordHeader", "HEADER_LEN"}
    found = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
             for names in [sorted(framing & names_read(path))]
             if names and path.stem != "record"}
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


def names_read(path: pathlib.Path) -> set:
    """Names the module at path loads, as a name or an attribute, or
    imports."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(package: pathlib.Path, readers: pathlib.Path,
                        allowed=()) -> list:
    """Qualified public names of the modules in package that neither a
    module of package nor one of readers reads, less the allowed ones."""
    sources = sorted(package.glob("*.py"))
    read = set().union(*(names_read(path) for path in
                         sources + sorted(readers.glob("*.py"))))
    return sorted(qualified for path in sources
                  for qualified, name in public_definitions(path)
                  if name not in read and qualified not in allowed)


def test_every_public_name_is_read():
    assert unread_public_names(PACKAGE, PERFBENCH, ALLOWED_UNREAD) == []


def test_every_allowed_unread_name_is_defined_and_unread():
    assert unread_public_names(PACKAGE, PERFBENCH) == sorted(ALLOWED_UNREAD)


def test_public_name_scan_flags_exactly_the_unread(tmp_path):
    package = tmp_path / "package"
    bench = tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text('''
UNREAD_CONSTANT = 1
READ_CONSTANT = 2
KEPT_ON_PURPOSE = 3
IMPORTED_BY_SIBLING = 4
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
    (package / "sibling.py").write_text('''
from .mod import IMPORTED_BY_SIBLING


def sibling_function():
    return IMPORTED_BY_SIBLING
''')
    (bench / "run.py").write_text('''
from package import mod
from package.mod import imported_by_bench

TARGETS = ("named_in_bench_string",)
print(mod.Thing, imported_by_bench, TARGETS)
''')
    assert unread_public_names(package, bench, {"mod.KEPT_ON_PURPOSE"}) == [
        "mod.Thing.unread_attribute", "mod.Thing.unread_method",
        "mod.UNREAD_CONSTANT", "mod.named_in_bench_string",
        "mod.named_in_package_string", "mod.unread_function",
        "sibling.sibling_function"]


EVERY = "*"   # what a call with *args or **kwargs passes
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(path: pathlib.Path) -> list:
    """(qualified name, called names, parameter, position) of each defaulted
    parameter of the module's public functions, and of the public methods
    and the `__init__` of its public classes.  The called names are the
    keys of `passed_arguments` whose calls reach the definition: the class
    name for an `__init__`, the method name and (class, method) for another
    method.  The position is the index of the positional argument a call
    binds to the parameter, None if it is keyword-only."""
    def params(fn, skip: int) -> list:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        return [(arg.arg, i - skip) for i, arg in enumerate(positional)
                if i >= first] + \
            [(arg.arg, None) for arg, default in
             zip(args.kwonlyargs, args.kw_defaults) if default is not None]

    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
            found += [("%s.%s.%s" % (path.stem, node.name, param),
                       (node.name,), param, position)
                      for param, position in params(node, 0)]
        elif isinstance(node, ast.ClassDef) and \
                not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, _FUNCTIONS) or (
                        item.name.startswith("_") and
                        item.name != "__init__"):
                    continue
                called = (node.name,) if item.name == "__init__" else \
                    (item.name, (node.name, item.name))
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                found += [("%s.%s.%s.%s" % (path.stem, node.name, item.name,
                                            param), called, param, position)
                          for param, position in params(item, 1 - static)]
    return found


def passed_arguments(paths: list) -> dict:
    """For each name that a call under paths calls, as a name or an
    attribute, the positions and keywords its calls pass, and EVERY if one
    of them passes *args or **kwargs.  A call through the name of a class
    defined under paths, `C.m(...)` or `mod.C.m(...)`, is filed under
    (C, m), not m."""
    trees = [ast.parse(path.read_text()) for path in paths]
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    passed: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            owner = getattr(func, "value", None)
            owner = getattr(owner, "id", getattr(owner, "attr", None))
            if owner in classes:
                name = (owner, name)
            got = passed.setdefault(name, set())
            got.update(range(len(node.args)))
            got.update(kw.arg or EVERY for kw in node.keywords)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                got.add(EVERY)
    return passed


def unpassed_parameters(package: pathlib.Path, readers: pathlib.Path,
                        allowed=()) -> list:
    """Qualified defaulted parameters of the modules in package that no
    call in package or readers passes, less the allowed ones."""
    sources = sorted(package.glob("*.py"))
    passed = passed_arguments(sources + sorted(readers.glob("*.py")))
    return sorted(qualified for path in sources
                  for qualified, called, param, position in
                  defaulted_parameters(path)
                  if not {param, position, EVERY} & set().union(
                      *(passed.get(name, ()) for name in called))
                  and qualified not in allowed)


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(PACKAGE, PERFBENCH, ALLOWED_UNPASSED) == []


def test_every_allowed_unpassed_parameter_is_flagged():
    assert unpassed_parameters(PACKAGE, PERFBENCH) == sorted(ALLOWED_UNPASSED)


def test_parameter_scan_flags_exactly_the_unpassed(tmp_path):
    package = tmp_path / "package"
    bench = tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text('''
LIMIT = 1


def knob(a, b=1, c=2, *, d=3, e=4, f=5):
    return a + b + c + d + e + f


def spread(a=1, b=2):
    return a + b


def by_mapping(a=1):
    return a


def _private(a=1):
    return a


class Thing:
    size = LIMIT

    def __init__(self, a=1, b=2, c=3):
        self.total = a + b + c

    def method(self, a=1, b=2):
        return knob(a, c=b)

    def _private_method(self, a=1):
        return a


class _Hidden:
    def __init__(self, a=1):
        self.a = a


class Pair:
    @staticmethod
    def build(a, b=1, c=2):
        return a + b + c


class Stream:
    def build(self, n, extra=b""):
        return n + len(extra)


def caller():
    args, kwargs = (1, 2), {"a": 1}
    return spread(*args), by_mapping(**kwargs), Thing(5).method(6), \\
        knob(0, 1, d=2), Pair.build(1, 2)
''')
    (bench / "run.py").write_text('''
from package.mod import Thing

print(Thing(b=3))
''')
    # Pair.build(1, 2) binds a and b, not c, and passes nothing to
    # Stream.build, though that method shares the name
    assert unpassed_parameters(package, bench, {"mod.knob.f"}) == [
        "mod.Pair.build.c", "mod.Stream.build.extra", "mod.Thing.__init__.c",
        "mod.Thing.method.b", "mod.knob.e"]


def attribute_stores(path: pathlib.Path) -> list:
    """(qualified name, name) of each attribute that code inside a class of
    the module at path stores on `self`."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            found += [("%s.%s.%s" % (path.stem, node.name, sub.attr),
                       sub.attr) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and
                      isinstance(sub.ctx, ast.Store) and
                      getattr(sub.value, "id", None) == "self"]
    return found


def unloaded_attributes(package: pathlib.Path, readers: pathlib.Path,
                        allowed=()) -> list:
    """Qualified attributes stored on self in the modules of package that
    no module of package or readers loads, less the allowed ones."""
    sources = sorted(package.glob("*.py"))
    loaded = {node.attr for path in sources + sorted(readers.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and
              isinstance(node.ctx, ast.Load)}
    return sorted({qualified for path in sources
                   for qualified, name in attribute_stores(path)
                   if name not in loaded and qualified not in allowed})


def test_every_stored_attribute_is_loaded():
    assert unloaded_attributes(PACKAGE, PERFBENCH, ALLOWED_UNLOADED) == []


def test_every_allowed_unloaded_attribute_is_flagged():
    assert unloaded_attributes(PACKAGE, PERFBENCH) == sorted(ALLOWED_UNLOADED)


def test_attribute_scan_flags_exactly_the_unloaded(tmp_path):
    package = tmp_path / "package"
    bench = tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text('''
class Config:
    def __init__(self, key, anchor, name):
        self.key = key
        self.anchor = anchor
        self.name = self.label = name
        self.kept = True
        self.first, self.second = key

    def describe(self):
        return self.name, self.first
''')
    (bench / "run.py").write_text('''
from package.mod import Config

print(Config(1, 2, 3).anchor, {"label": 1}["label"])
''')
    # a subscript or a string is not a load of the attribute
    assert unloaded_attributes(package, bench, {"mod.Config.kept"}) == [
        "mod.Config.key", "mod.Config.label", "mod.Config.second"]
