"""Static checks that stand in for a linter: no module under ``src/`` or
``tests/`` imports a name it never uses, no module under ``src/`` defines a
top-level private name (``_name``) that it never reads, every defaulted
parameter of a top-level private function in ``src/`` is set by some call
and left unset by another, every public name in ``src/`` is read by the
program, not only by the tests, only ``semvid.parallel`` starts threads
and only ``semvid.pipeline`` calls its ``parallel_map``, and no string
literal in ``src/`` or ``tests/`` holds 64 hex digits (a SHA-256 digest):
pinned values live in ``tests/pins.json``, which names the
same pins as the table in ``tests/pins.py``, and every backticked
``semvid.``-qualified name in ``README.md`` resolves.  Package ``__init__`` modules
re-export what they import and are exempt from the import check, as is an
import on a line marked ``# noqa: F401``.

A public name (a top-level function, class or constant, or a method or
property of a top-level class) counts as read when code outside ``tests/``
reads it: a module of ``src/`` other than a package ``__init__``, any module
of ``perfbench/``, or the attributes the benchmark's tracer patches (its
``LAYERS``).  A name listed in a package ``__all__`` is public API and
counts as read too.  A method or property counts only when read as an
attribute, so a local variable of the same name does not hide it.  Dataclass
fields are not checked."""

import ast
import importlib.util
import json
import re
from collections import defaultdict
from pathlib import Path

import pytest

import pins

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def top_level_names(tree: ast.Module) -> dict:
    """The line of each function, class and assignment target at the top
    level of a module."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[n.id] = node.lineno
    return defined


def unread_private_names(source: str) -> list:
    """(line, name) of each top-level ``_name`` (function, class or
    assignment target, dunders aside) that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in top_level_names(tree).items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom a.b import c, d as e\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unread_private_name_is_found():
    source = ("_A = 1\n_B, c = 2, 3\n__all__ = []\n\n\ndef _f():\n    return _B\n\n\n"
              "class _C:\n    _d = 4\n\n\nprint(_f)\n")
    assert unread_private_names(source) == [(1, "_A"), (10, "_C")]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def calls_by_name(sources) -> dict:
    """Every call in ``sources``, keyed by the called name: ``f`` for both
    ``f(...)`` and ``m.f(...)``."""
    calls = defaultdict(list)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    return calls


def idle_defaults(source: str, calls: dict) -> list:
    """(line, "function.parameter") of each defaulted parameter of a
    top-level private function in ``source`` that ``calls`` (as
    ``calls_by_name`` keys them) never set, or never leave unset: the first
    default is a constant in disguise, the second is never used."""
    found = []
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_"):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        for index, name in defaulted:
            set_by = [(index is not None and index < len(c.args))
                      or name in {k.arg for k in c.keywords} for c in calls[fn.name]]
            if not (any(set_by) and not all(set_by)):
                found.append((fn.lineno, f"{fn.name}.{name}"))
    return found


def test_idle_default_is_found():
    source = ("def _f(a, b=1, c=2, *, d=3):\n    return a\n\n\n"
              "def _g(e=4):\n    return e\n\n\ndef h(i=5):\n    return i\n")
    calls = calls_by_name([source, "_f(0, 1)\n_f(0, d=3)\n_f(0)\nm._g(e=1)\nh()\n"])
    assert idle_defaults(source, calls) == [(1, "_f.c"), (5, "_g.e")]


SRC_AND_TEST_CALLS = calls_by_name(
    p.read_text() for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_idle_defaults(path):
    assert idle_defaults(path.read_text(), SRC_AND_TEST_CALLS) == []


def names_read(sources) -> tuple:
    """The bare names and the attribute names that ``sources`` load."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def unread_public_names(source: str, names: set, attributes: set) -> list:
    """(line, name) of each public top-level function, class or constant in
    ``source`` that is in neither ``names`` nor ``attributes``, and of each
    public method or property of its top-level classes (as
    ``"Class.name"``) that is not in ``attributes``."""
    tree = ast.parse(source)
    found = [(line, name) for name, line in top_level_names(tree).items()
             if not name.startswith("_") and name not in names | attributes]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        found += [(m.lineno, f"{cls.name}.{m.name}") for m in cls.body
                  if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                  and m.name not in attributes]
    return sorted(found)


def test_public_name_only_tests_read_is_found():
    source = ("A, b = 1, 2\n_C = 3\n\n\ndef f():\n    return 4\n\n\nclass K:\n"
              "    field: int = 5\n\n    @property\n    def p(self):\n        return 6\n\n"
              "    def m(self):\n        return 7\n\n    def _n(self):\n        return 8\n")
    names, attributes = names_read(["print(A, m)\nk = mod.f\nk.K\n"])
    assert unread_public_names(source, names, attributes) == [(1, "b"), (13, "K.p"), (16, "K.m")]


def _program_reads() -> tuple:
    """``names_read`` over the code outside ``tests/``, with the attributes
    the tracer patches and the names in each package ``__all__`` added to
    the bare names."""
    names, attributes = names_read(
        [p.read_text() for p in SRC_MODULES if p.name != "__init__.py"]
        + [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")])
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names |= {attribute for _, attribute, *_ in tracer.LAYERS}
    for init in (p for p in SRC_MODULES if p.name == "__init__.py"):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                names |= {e.value for e in node.value.elts}
    return names, attributes


PROGRAM_READS = _program_reads()


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_public_name_only_tests_read(path):
    assert unread_public_names(path.read_text(), *PROGRAM_READS) == []


def calls_to(source: str, names) -> list:
    """(line, name) of each call of a function or class named in ``names``,
    under whatever name it was imported, plain or as a module attribute."""
    tree = ast.parse(source)
    imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            name = imported.get(name, name)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


THREAD_CLASSES = ("ThreadPoolExecutor", "Thread")


def test_thread_construction_is_found():
    source = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor as Pool\n"
              "from threading import Thread\n\nthreading.Thread(target=print)\n"
              "with Pool(2) as pool:\n    Thread().start()\nthreading.Lock()\n")
    assert calls_to(source, THREAD_CLASSES) == [(5, "Thread"), (6, "ThreadPoolExecutor"),
                                                (7, "Thread")]


# semvid.parallel is the program's one parallelism mechanism
@pytest.mark.parametrize("path", [p for p in SRC_MODULES if p.name != "parallel.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_threads_only_in_parallel_module(path):
    assert calls_to(path.read_text(), THREAD_CLASSES) == []


def test_parallel_map_call_is_found():
    source = ("from semvid import parallel\nfrom semvid.parallel import parallel_map as pmap\n\n"
              "parallel.parallel_map(len, [])\npmap(len, [])\nparallel._worker_count()\n")
    assert calls_to(source, ("parallel_map",)) == [(4, "parallel_map"), (5, "parallel_map")]


# the SNR sweep is the program's one level of threads: a parallel_map call
# elsewhere could run inside one of its workers and open a pool per point
@pytest.mark.parametrize("path", [p for p in SRC_MODULES if p.name != "pipeline.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parallel_map_only_in_pipeline(path):
    assert calls_to(path.read_text(), ("parallel_map",)) == []


def digest_literals(source: str) -> list:
    """(line, text) of each string literal that holds 64 hex digits."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.search("[0-9a-fA-F]{64}", node.value))


def test_digest_literal_is_found():
    digest = "0123456789abcdef" * 4
    source = f'A = "{digest}"\nB = "{digest[1:]}"\n"""\nsha256: {digest.upper()}\n"""\n'
    assert digest_literals(source) == [(1, digest), (3, f"\nsha256: {digest.upper()}\n")]


def test_digests_only_in_the_pin_registry():
    found = {str(p.relative_to(ROOT)): digest_literals(p.read_text())
             for p in sorted({*MODULES, *SRC_MODULES})}
    assert {path: literals for path, literals in found.items() if literals} == {}


def test_pin_table_and_file_agree():
    # a pin in pins.json that the table lacks, or the reverse, fails here
    assert json.loads(pins.PINS_FILE.read_text()).keys() == pins.TABLE.keys()


def unresolved_names(text: str) -> list:
    """Each backticked ``semvid.``-qualified name in ``text`` that does not
    resolve: its longest prefix that imports as a module, then ``getattr``
    for each name after it."""
    def resolves(name):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            for attr in parts[cut:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        return False

    return [name for name in sorted(set(re.findall(r"`(semvid(?:\.\w+)+)", text)))
            if not resolves(name)]


def test_unresolved_name_is_found():
    text = ("`semvid.channel.awgn(symbols, snr_db, seed)`, `semvid.recon.GaussianScene`, "
            "`semvid.channel.NoSuchName`, `semvid.no_such_module.f` and "
            "semvid.channel.Unquoted")
    assert unresolved_names(text) == ["semvid.channel.NoSuchName", "semvid.no_such_module.f"]


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text()
    assert re.search(r"`semvid\.\w+\.\w+", text)  # the premise: README names some
    assert unresolved_names(text) == []
