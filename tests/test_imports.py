"""Every name a module imports is read somewhere in that module.

Each file of ``src/finsite`` and ``tests`` is parsed with :mod:`ast`; a
name bound by an ``import`` that no expression loads is reported.  The
check ignores scope, so an import read only inside a function passes.
``__init__.py`` re-exports its imports and is skipped, as is the
``annotations`` of ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in (*(ROOT / "src" / "finsite").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if path.name != "__init__.py"
)


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
