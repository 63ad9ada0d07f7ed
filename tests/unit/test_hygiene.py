"""Repository hygiene: every public module and symbol is documented."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.analysis.wholeprogram.callgraph import ModuleInfo, Project


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing a __main__ module executes it
        yield info.name


ALL_MODULES = sorted(_walk_modules())


class TestDocumentation:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        names = exported if exported is not None else [
            n for n in dir(module) if not n.startswith("_")
        ]
        for name in names:
            obj = getattr(module, name, None)
            if obj is None or not callable(obj):
                continue
            if getattr(obj, "__module__", "").startswith("repro"):
                assert inspect.getdoc(obj), f"{module_name}.{name}"

    def test_all_lists_are_accurate(self):
        for module_name in ALL_MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.__all__: {name}"


class TestPackageSurface:
    def test_top_level_import(self):
        assert repro.__version__

    def test_every_subpackage_importable(self):
        for package in ("crypto", "pir", "oram", "netsim", "costmodel",
                        "workloads", "loadgen", "obs", "analysis", "cli"):
            importlib.import_module(f"repro.{package}")
        importlib.import_module("repro.core.zltp")
        importlib.import_module("repro.core.lightweb")


# -- reachability ------------------------------------------------------------
#
# Code must be used to stay. A ``repro`` module that no entry point
# imports, or a public top-level function, class or method that only
# ``tests/`` names, is a finding; each is deleted or listed below with its
# reason. So is a name a ``repro``, ``benchmarks`` or ``examples`` module
# imports and never reads.

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Trees whose code ships or runs outside the test suite.
OUTSIDE_TESTS = ("src", "bench", "benchmarks", "examples")

#: Modules no entry point imports, kept on purpose.
MODULE_ALLOWLIST = {
    "repro.netsim.deanon": "paper §6 reproduction, run only by benchmark A5",
}

#: Public top-level functions and classes that only tests name.
SYMBOL_ALLOWLIST = {
    "repro.crypto.dpf:eval_dpf":
        "test reference: single-point DPF evaluation that the full-domain "
        "and split evaluations are checked against",
    "repro.analysis.rules:analyze_source":
        "test harness: runs the one lint engine on a source string, which "
        "is how the analyzer's rule tests drive it",
    "repro.core.backend:unregister_backend":
        "test isolation: undoes register_backend, so registry tests remove "
        "the toy backends they add",
    "repro.netsim.fingerprint:KnnFingerprinter":
        "second traffic-analysis attacker: tier-1 checks benchmark A2's "
        "chance-level result for lightweb traces against it",
}

#: Public methods that only tests name: oracles for a property the paper or
#: the ROADMAP north star names, and groundwork for a parked ROADMAP item.
METHOD_ALLOWLIST = {
    "repro.netsim.adversary:PassiveAdversary.paths_seen":
        "§2.1 leakage oracle: test_leakage.py::TestWhatLeaks::"
        "test_adversary_sees_universe_endpoints_only",
    "repro.netsim.adversary:PassiveAdversary.request_signature":
        "§2.1 leakage oracle: test_leakage.py::TestWhatDoesNotLeak "
        "compares signatures across pages, hits and misses",
    "repro.crypto.lwe:LwePirServer.query_bytes":
        "PROTOCOL.md's wire-size reference: test_singleserver.py::"
        "TestValidationAndSizes::test_payloads_match_the_accounting",
    "repro.crypto.lwe:LwePirServer.answer_bytes":
        "PROTOCOL.md's wire-size reference: test_singleserver.py::"
        "TestValidationAndSizes::test_payloads_match_the_accounting",
    "repro.oram.trace:MemoryTrace.addresses":
        "ORAM obliviousness oracle: test_path_oram.py::TestObliviousness and "
        "test_prop_oram.py::test_address_trace_same_for_data_variants",
    "repro.pir.twoserver:TwoServerPirClient.reconstruct":
        "answer0 XOR answer1 reference: test_twoserver.py::TestProtocol and "
        "test_prop_pir.py",
    "repro.oram.position_map:RecursivePathOram.trusted_state_entries":
        "small-trusted-state oracle: test_position_map.py::"
        "TestRecursivePathOram::test_trusted_state_is_small",
    "repro.core.resilience:ReconnectingTransport.unacked_frames":
        "journal drain oracle: test_resilience_unit.py::"
        "TestReconnectingTransport::test_burst_is_journaled_frame_by_frame",
    "repro.core.zltp.modes:LweModeServer.update_slot":
        "groundwork for ROADMAP's parked mutable web (hint deltas): "
        "test_lwe_updates.py::TestBlobLevelUpdates",
    "repro.core.lightweb.browser:LightwebBrowser.dummy_page_view":
        "cover traffic: test_page_burst.py::TestPageBurst::"
        "test_every_page_view_has_one_wire_shape pins it to a visit",
    "repro.costmodel.datasets:DatasetSpec.suggested_domain_bits":
        "§5.1's 2^22 sizing rule: test_costmodel.py::TestDatasets::"
        "test_suggested_domain_matches_paper",
}

#: Decorators that wrap a definition without registering it anywhere.
_WRAPPERS = {"dataclass", "contextmanager"}
#: Decorators that leave a method reachable by its own name.
_METHOD_WRAPPERS = {"property", "staticmethod", "classmethod"}
_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse_tree(*dirs, mentioning=""):
    """Parse every ``.py`` file under ``dirs`` whose text contains
    ``mentioning``, named as the analyzer names modules."""
    project = Project()
    for directory in dirs:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            source = path.read_text()
            if mentioning in source:
                project.add_module(str(path), source, ast.parse(source))
    return project


def _imports(info):
    """``(base, names)`` per import statement: ``import a.b`` is
    ``("a.b", [])``, ``from a.b import c, d`` is ``("a.b", ["c", "d"])``."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            base = Project._import_base(info, node)
            if base is not None:
                yield base, [alias.name for alias in node.names]


def _imported_modules(project, info):
    """Every project module one module's import statements execute."""
    out = set()
    for base, names in _imports(info):
        for dotted in [base] + [f"{base}.{name}" for name in names]:
            parts = dotted.split(".")
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                if prefix in project.modules:
                    out.add(prefix)
    return out


def _entry_points(project, suite):
    """The console scripts, every ``repro.cli`` module, everything in
    ``bench/`` and ``examples/``, and the ``benchmarks/`` scripts that
    ``tests/`` imports (the ones tier-1 runs)."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    roots = set(re.findall(r'"([\w.]+):\w+"', scripts))
    for name, info in project.modules.items():
        top = Path(info.path).relative_to(REPO_ROOT).parts[0]
        if top in ("bench", "examples") or name == "repro.cli" \
                or name.startswith("repro.cli."):
            roots.add(name)
    for info in suite.modules.values():
        roots.update(name for name in _imported_modules(project, info)
                     if name.startswith("benchmarks."))
    return roots


def unreached_modules(project, suite):
    """``repro`` modules no entry point reaches by import."""
    seen = set()
    todo = list(_entry_points(project, suite))
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imported_modules(project, project.modules[name]))
    return sorted(name for name in project.modules
                  if name.startswith("repro.") and name not in seen)


def _registers(definition):
    """A decorator other than a plain wrapper hands the definition to a
    registry, which is a use no name search sees."""
    for decorator in definition.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if not (isinstance(target, ast.Name) and target.id in _WRAPPERS):
            return True
    return False


def _references(tree, reexports=False):
    """Identifiers a statement uses: names, attributes, imported names
    (not a package's re-exports) and names inside string annotations.
    Docstrings, comments and other strings never count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            names.update(alias.name for alias in node.names)
        for annotation in _string_annotations(node):
            names |= _references(annotation)
    return names


def _string_annotations(node):
    """The string annotations (``x: "Optional[int]"``) a definition, an
    argument or an annotated name carries, parsed."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    elif isinstance(node, (ast.arg, ast.AnnAssign)):
        annotation = node.annotation
    else:
        return
    for const in ast.walk(annotation) if annotation else ():
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            yield ast.parse(const.value, mode="eval")


def unused_symbols(project):
    """``module:name`` of each public top-level function or class in
    ``repro``, not registered by a decorator, that no code in the
    project references."""
    used = set()
    for info in project.modules.values():
        for stmt in info.tree.body:
            names = _references(stmt, reexports=info.is_package)
            if isinstance(stmt, _DEFS):
                names.discard(stmt.name)  # its own body, e.g. recursion
            used |= names
    return sorted(
        f"{name}:{stmt.name}"
        for name, info in project.modules.items() if name.startswith("repro")
        for stmt in info.tree.body
        if isinstance(stmt, _DEFS) and not _registers(stmt)
        and not stmt.name.startswith("_") and stmt.name not in used)


def _plain_method(definition):
    """Undecorated, or only a property, static or class method, or a
    ``<name>.setter``; any other decorator registers the method."""
    for decorator in definition.decorator_list:
        setter = (isinstance(decorator, ast.Attribute)
                  and decorator.attr == "setter"
                  and isinstance(decorator.value, ast.Name))
        if not (setter or isinstance(decorator, ast.Name)
                and decorator.id in _METHOD_WRAPPERS):
            return False
    return True


def _identifiers(tree):
    """Every identifier code can reach a method by: loaded names and
    attributes, keyword-argument names, imported names, and identifiers
    inside strings (``getattr`` dispatch). A string statement is a
    docstring, not code, and never counts; nor does the ``<name>`` of a
    ``<name>.setter`` decorator, or every property with a setter would
    keep itself."""
    docstrings = set()
    setters = set()
    names = set()
    for node in ast.walk(tree):  # breadth first: a statement before its value
        if isinstance(node, ast.Expr):
            docstrings.add(id(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            setters.update(id(decorator.value)
                           for decorator in node.decorator_list
                           if isinstance(decorator, ast.Attribute)
                           and decorator.attr == "setter")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and id(node) not in setters:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names
                         for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            names.update(_WORD.findall(node.value))
    return names


def unused_methods(project):
    """``module:Class.method`` of each public method in a ``repro`` class
    body, undecorated or only a property, static or class method, whose
    name no code in the project uses. By name on purpose: any same-named
    use keeps every method of that name, so duck typing cannot hide a
    caller."""
    used = set()
    for info in project.modules.values():
        used |= _identifiers(info.tree)
    return sorted(
        f"{name}:{cls.name}.{method.name}"
        for name, info in project.modules.items() if name.startswith("repro")
        for cls in ast.walk(info.tree) if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_") and _plain_method(method)
        and method.name not in used)


def _reads(tree):
    """Names a module reads: loaded names (not attributes), names inside
    string annotations, and the entries of ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])):
            names.update(const.value for const in ast.walk(node.value)
                         if isinstance(const, ast.Constant))
        for annotation in _string_annotations(node):
            names |= _reads(annotation)
    return names


#: Script trees held to the import rule besides ``repro``. ``bench/`` is
#: not: ``bench/ladder.py`` reads names ``bench/adapters.py`` imports as
#: attributes (``adapters.encode_message``), and the rule counts only a
#: ``from ... import`` of a name as its re-export, not an attribute read.
_IMPORT_RULE_DIRS = ("benchmarks", "examples")


def unused_imports(project):
    """``module:name`` of each name a ``repro``, ``benchmarks`` or
    ``examples`` module imports and never reads. A package's imports are
    its re-exports, a name another module imports from this one is a
    re-export too, an import marked ``# noqa`` runs for its side effect (a
    registry filling itself), and ``__future__`` imports bind nothing."""
    reexported = {(base, name) for info in project.modules.values()
                  for base, names in _imports(info) for name in names}
    found = []
    for module, info in project.modules.items():
        checked = (module.startswith("repro")
                   or Path(info.path).parent.name in _IMPORT_RULE_DIRS)
        if not checked or info.is_package:
            continue
        reads = _reads(info.tree)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
            else:
                continue
            if "# noqa" in info.source.splitlines()[node.lineno - 1]:
                continue
            found.extend(f"{module}:{name}" for name in bound
                         if name not in reads
                         and (module, name) not in reexported)
    return sorted(found)


def _top_level_names(info):
    """Names a module binds at import time (also under top-level if/try)."""
    names = set()
    todo = list(info.tree.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, _DEFS):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(stmt, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                todo.extend(getattr(stmt, field, []))
        elif isinstance(stmt, ast.ExceptHandler):
            todo.extend(stmt.body)
    return names


def broken_imports(project):
    """``from repro... import`` lines outside ``src/`` that name a module
    or symbol that does not exist."""
    broken = []
    for info in project.modules.values():
        if info.name.startswith("repro"):
            continue  # importing every repro module is tier-1 already
        for base, names in _imports(info):
            if base != "repro" and not base.startswith("repro."):
                continue
            target = project.modules.get(base)
            if target is None:
                broken.append(f"{info.name}: {base}")
                continue
            bound = _top_level_names(target)
            broken.extend(f"{info.name}: {base}.{name}" for name in names
                          if name not in bound
                          and f"{base}.{name}" not in project.modules)
    return sorted(broken)


#: A planted module and its one caller, for the method rule's self-test.
_TOY_SHIPPED = """
REGISTRY = {}

def register(method):
    REGISTRY[method.__name__] = method
    return method

class Widget:
    def planted(self):
        pass

    def dispatched(self):
        pass

    @register
    def registered(self):
        pass

    @property
    def size(self):
        return 0

    @size.setter
    def size(self, value):
        pass

    def docstring_only(self):
        pass
"""
_TOY_CALLER = '''
"""Calls Widget.docstring_only, but only in this docstring."""

def drive(widget, action="dispatched"):
    getattr(widget, action)()
    return widget.size
'''

#: One clause of the method rule each: ``repro.toy`` source, ``bench.toy``
#: source, and the findings ``unused_methods`` must report for them.
_METHOD_RULE_CASES = {
    "never-named": (
        "class Widget:\n    def method(self): pass\n", "",
        ["repro.toy:Widget.method"]),
    "called-outside-src": (
        "class Widget:\n    def method(self): pass\n",
        "def drive(widget):\n    widget.method()\n", []),
    "called-inside-src": (
        "class Widget:\n    def method(self): pass\n"
        "    def other(self): self.method()\n", "",
        ["repro.toy:Widget.other"]),
    "loaded-name": (
        "class Widget:\n    def method(self): pass\n",
        "def drive():\n    return method\n", []),
    "keyword-argument": (
        "class Widget:\n    def method(self): pass\n",
        "def drive(build):\n    build(method=1)\n", []),
    "imported-name": (
        "class Widget:\n    def method(self): pass\n",
        "from elsewhere import method\n", []),
    "getattr-string": (
        "class Widget:\n    def method(self): pass\n",
        "def drive(widget):\n    getattr(widget, 'method')()\n", []),
    "string-in-a-table": (
        "class Widget:\n    def method(self): pass\n",
        "ACTIONS = ['open', 'widget.method']\n", []),
    "module-docstring-only": (
        "class Widget:\n    def method(self): pass\n",
        '"""Calls Widget.method."""\n',
        ["repro.toy:Widget.method"]),
    "function-docstring-only": (
        "class Widget:\n    def method(self): pass\n",
        'def drive(widget):\n    """Calls widget.method()."""\n'
        "    return widget\n",
        ["repro.toy:Widget.method"]),
    "comment-only": (
        "class Widget:\n    def method(self): pass\n",
        "# widget.method()\nX = 1\n",
        ["repro.toy:Widget.method"]),
    "assigned-never-read": (
        "class Widget:\n    def method(self): pass\n",
        "def drive(widget):\n    widget.method = None\n",
        ["repro.toy:Widget.method"]),
    "private": (
        "class Widget:\n    def _method(self): pass\n", "", []),
    "async": (
        "class Widget:\n    async def method(self): pass\n", "",
        ["repro.toy:Widget.method"]),
    "registry-decorator": (
        "def register(f): return f\n"
        "class Widget:\n    @register\n    def method(self): pass\n",
        "", []),
    "dotted-decorator": (
        "import functools\n"
        "class Widget:\n    @functools.lru_cache\n"
        "    def method(self): pass\n", "", []),
    "property": (
        "class Widget:\n    @property\n    def method(self): pass\n", "",
        ["repro.toy:Widget.method"]),
    "staticmethod": (
        "class Widget:\n    @staticmethod\n    def method(): pass\n", "",
        ["repro.toy:Widget.method"]),
    "classmethod": (
        "class Widget:\n    @classmethod\n    def method(cls): pass\n", "",
        ["repro.toy:Widget.method"]),
    "property-with-setter": (
        "class Widget:\n    @property\n    def method(self): pass\n"
        "    @method.setter\n    def method(self, value): pass\n", "",
        ["repro.toy:Widget.method", "repro.toy:Widget.method"]),
    "property-with-setter-read": (
        "class Widget:\n    @property\n    def method(self): pass\n"
        "    @method.setter\n    def method(self, value): pass\n",
        "def drive(widget):\n    return widget.method\n", []),
    "function-in-a-method": (
        "class Widget:\n    def outer(self):\n"
        "        def method(): pass\n",
        "def drive(widget):\n    widget.outer()\n", []),
    "nested-class": (
        "class Widget:\n    class Inner:\n        def method(self): pass\n",
        "", ["repro.toy:Inner.method"]),
    "class-outside-repro": (
        "", "class Helper:\n    def method(self): pass\n", []),
}


#: ``(shipped source, caller source, findings)`` per clause of the import
#: rule; the ``package-reexport`` case plants ``repro.toy`` as a package.
_IMPORT_RULE_CASES = {
    "unused-import": ("import json\n", "", ["repro.toy:json"]),
    "unused-from-import": (
        "from typing import Optional\n", "", ["repro.toy:Optional"]),
    "unused-alias": ("import numpy as np\n", "", ["repro.toy:np"]),
    "unused-dotted-import": ("import os.path\n", "", ["repro.toy:os"]),
    "unused-in-a-function": (
        "def run():\n    import json\n", "", ["repro.toy:json"]),
    "attribute-of-the-same-name": (
        "from dataclasses import field\n"
        "def run(spec):\n    return spec.field\n", "",
        ["repro.toy:field"]),
    "docstring-mention": (
        "from typing import Optional\n"
        "def run():\n    \"\"\"Returns an Optional.\"\"\"\n", "",
        ["repro.toy:Optional"]),
    "loaded": ("import json\nDUMP = json.dumps\n", "", []),
    "loaded-alias": ("import numpy as np\nZERO = np.zeros\n", "", []),
    "loaded-in-a-function": (
        "def run():\n    import json\n    return json\n", "", []),
    "annotation": (
        "from typing import Optional\ndef run(x: Optional[int]): pass\n",
        "", []),
    "string-annotation": (
        "from typing import Optional\ndef run(x: 'Optional[int]'): pass\n",
        "", []),
    "string-return-annotation": (
        "from typing import Optional\ndef run() -> 'Optional[int]': pass\n",
        "", []),
    "kept-by-all": (
        "from repro.other import thing\n__all__ = ['thing']\n", "", []),
    "kept-by-all-extended": (
        "from repro.other import thing\n__all__ = []\n__all__ += ['thing']\n",
        "", []),
    "package-reexport": ("from repro.other import thing\n", "", []),
    "imported-from-this-module": (
        "from repro.other import thing\n",
        "from repro.toy import thing\n", []),
    "future-import": ("from __future__ import annotations\n", "", []),
    "side-effect-import": (
        "def load():\n    import repro.other  # noqa: F401 (registers)\n",
        "", []),
    "import-outside-repro": ("", "import json\n", []),
}


def _planted_project(shipped_source, caller_source, package=False):
    """A project of one ``repro`` module (or package) and one ``bench``
    module."""
    project = Project()
    for name, source, is_package in (
            ("repro.toy", shipped_source, package),
            ("bench.toy", caller_source, False)):
        project.modules[name] = ModuleInfo(
            name=name, path=f"{name}.py", source=source,
            tree=ast.parse(source), is_package=is_package)
    return project



@pytest.fixture(scope="module")
def shipped():
    return _parse_tree(*OUTSIDE_TESTS)


@pytest.fixture(scope="module")
def suite():
    return _parse_tree("tests", mentioning="benchmarks")


class TestReachability:
    def test_every_module_is_reachable_from_an_entry_point(self, shipped, suite):
        assert unreached_modules(shipped, suite) == sorted(MODULE_ALLOWLIST)

    def test_every_public_symbol_is_used_outside_tests(self, shipped):
        assert unused_symbols(shipped) == sorted(SYMBOL_ALLOWLIST)

    def test_every_public_method_is_used_outside_tests(self, shipped):
        assert unused_methods(shipped) == sorted(METHOD_ALLOWLIST)

    def test_method_rule_on_a_planted_project(self):
        project = _planted_project(_TOY_SHIPPED, _TOY_CALLER)
        assert unused_methods(project) == [
            "repro.toy:Widget.docstring_only", "repro.toy:Widget.planted"]

    @pytest.mark.parametrize("shipped_source, caller_source, expected",
                             _METHOD_RULE_CASES.values(),
                             ids=_METHOD_RULE_CASES.keys())
    def test_method_rule_clause(self, shipped_source, caller_source, expected):
        project = _planted_project(shipped_source, caller_source)
        assert unused_methods(project) == expected

    def test_every_import_is_read(self, shipped):
        assert unused_imports(shipped) == []

    @pytest.mark.parametrize("shipped_source, caller_source, expected",
                             _IMPORT_RULE_CASES.values(),
                             ids=_IMPORT_RULE_CASES.keys())
    def test_import_rule_clause(self, request, shipped_source, caller_source,
                                expected):
        package = request.node.callspec.id == "package-reexport"
        project = _planted_project(shipped_source, caller_source, package)
        assert unused_imports(project) == expected

    @pytest.mark.parametrize("module, path, expected", [
        ("benchmarks.toy", "benchmarks/toy.py", ["benchmarks.toy:json"]),
        ("toy", "examples/toy.py", ["toy:json"]),
        ("bench.toy", "bench/toy.py", []),
    ], ids=["benchmarks", "examples", "bench-out-of-scope"])
    def test_import_rule_covers_scripts(self, module, path, expected):
        """A ``benchmarks`` or ``examples`` script is held to the rule by
        its directory (an example has no package name); ``bench/`` is not."""
        project = Project()
        project.modules[module] = ModuleInfo(
            name=module, path=path, source="import json\n",
            tree=ast.parse("import json\n"), is_package=False)
        assert unused_imports(project) == expected

    def test_every_allowlist_entry_has_a_reason(self):
        for reason in {**MODULE_ALLOWLIST, **SYMBOL_ALLOWLIST,
                       **METHOD_ALLOWLIST}.values():
            assert reason.strip()

    def test_scripts_import_only_what_exists(self, shipped):
        assert broken_imports(shipped) == []
