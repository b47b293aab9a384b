"""The layout of the oracles: they live in ``oracles.py``, and each names a
``finsite`` function that still exists."""

import ast
import importlib
import re
from pathlib import Path

import oracles

TESTS = Path(__file__).parent
GUARDED = re.compile(r"``finsite\.(\w+)\.([\w.]+)``")


def top_level_oracles(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("oracle_")
    ]


def test_oracles_are_defined_only_in_the_oracles_module():
    elsewhere = {
        path.name: names
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "oracles.py"
        and (names := top_level_oracles(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert elsewhere == {}


def test_every_oracle_names_the_function_it_guards():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    names = top_level_oracles(tree)
    assert names
    unresolved = {}
    for name in names:
        doc = getattr(oracles, name).__doc__ or ""
        match = GUARDED.search(doc.split("\n", 1)[0])
        if match is None:
            unresolved[name] = "no ``finsite.<module>.<name>`` on the first line"
            continue
        try:
            target = importlib.import_module(f"finsite.{match[1]}")
            for part in match[2].split("."):
                target = getattr(target, part)
        except (ImportError, AttributeError):
            unresolved[name] = f"finsite.{match[1]}.{match[2]} does not resolve"
    assert unresolved == {}
