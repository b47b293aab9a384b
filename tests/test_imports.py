"""Every name a module imports is read somewhere in that module, and
every method of a ``finsite`` class is read somewhere.

Each file of ``src/finsite`` and ``tests`` is parsed with :mod:`ast`; a
name bound by an ``import`` that no expression loads is reported.  The
check ignores scope, so an import read only inside a function passes.
``__init__.py`` re-exports its imports and is skipped, as is the
``annotations`` of ``from __future__ import annotations``.  A method of a
class in ``src/finsite``, dunders aside, whose name no attribute read in
``src/finsite`` or ``tests`` loads is reported; the check ignores the
receiver's type, so a read of any attribute of that name counts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((*(ROOT / "src" / "finsite").glob("*.py"), *(ROOT / "tests").glob("*.py")))
MODULES = [path for path in FILES if path.name != "__init__.py"]


def unread_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read and name != "annotations"
    ]


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unread_imports(source) == ["line 2: os", "line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def read_attributes(sources) -> set[str]:
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_methods(source: str, read: set[str]) -> list[str]:
    return [
        f"line {node.lineno}: {cls.name}.{node.name}"
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]


def test_unread_methods_are_found():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.f()\n"
        "    def f(self):\n"
        "        self.h = 1\n"
        "    def g(self):\n"
        "        pass\n"
        "    def h(self):\n"
        "        pass\n"
    )
    assert unread_methods(source, read_attributes([source])) == [
        "line 6: A.g",
        "line 8: A.h",
    ]


@pytest.fixture(scope="module")
def read_anywhere():
    return read_attributes(path.read_text(encoding="utf-8") for path in FILES)


@pytest.mark.parametrize(
    "path",
    [path for path in FILES if path.parent.name == "finsite"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_module_methods_are_read(path, read_anywhere):
    assert unread_methods(path.read_text(encoding="utf-8"), read_anywhere) == []
