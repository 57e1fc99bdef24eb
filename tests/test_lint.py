"""Static checks that stand in for a linter: no module under ``src/`` or
``tests/`` imports a name it never uses, no module under ``src/`` defines a
top-level private name (``_name``) that it never reads, and every defaulted
parameter of a top-level private function in ``src/`` is set by some call
and left unset by another.  Package ``__init__`` modules re-export what they
import and are exempt from the import check, as is an import on a line
marked ``# noqa: F401``."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

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


def unread_private_names(source: str) -> list:
    """(line, name) of each top-level ``_name`` (function, class or
    assignment target, dunders aside) that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[n.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
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
