"""Package hygiene: every name a program module imports is used there."""

import ast
from pathlib import Path

import twrelay

MODULES = sorted(p for p in Path(twrelay.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_no_unused_imports():
    probe = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b\nb()\n"
    assert _unused_imports(probe) == [(2, "math"), (3, "os"), (4, "a")]
    # __init__.py is skipped: its imports are the package's re-exports
    assert MODULES
    unused = {p.name: _unused_imports(p.read_text()) for p in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}
