"""Package hygiene: every name a program module imports is used there, and
importing the package loads no heavy scipy subpackage."""

import ast
import subprocess
import sys
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


def test_import_loads_no_scipy_optimize_or_integrate():
    # importing scipy.optimize alone takes over half as long as importing
    # the package; the high-SNR weights use a hand-written golden section
    probe = ("import sys, twrelay; print(sorted(m for m in ('scipy.optimize', 'scipy.integrate')"
             " if m in sys.modules))")
    src = str(Path(twrelay.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=src, check=True)
    assert proc.stdout.strip() == "[]"
