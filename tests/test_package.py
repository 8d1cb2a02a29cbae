"""Package hygiene: every name a program or test module imports is used
there, every public function a program module defines is a plain function,
no program module reaches past `lowerbound`'s public names, only
`analysis` builds a `lowerbound.Direction` or reads the unified SNR
constants, only `validate` reads the closed form's assembly, one function
calls `hyp2f1`, one writes the trapezoid ladder's nodes, one states the
integrals' stop rule, and importing the package loads no heavy scipy
subpackage."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import twrelay

MODULES = sorted(p for p in Path(twrelay.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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
    # an import whose line says "# noqa: F401" is kept on purpose
    lines = source.splitlines()
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded and "# noqa: F401" not in lines[line - 1])


def test_no_unused_imports():
    probe = ("from __future__ import annotations\nimport math\nimport os.path\nfrom x import a, b\n"
             "import sys  # noqa: F401\nb()\n")
    assert _unused_imports(probe) == [(2, "math"), (3, "os"), (4, "a")]
    # __init__.py is skipped: its imports are the package's re-exports
    assert MODULES and TEST_MODULES
    unused = {p.name: _unused_imports(p.read_text()) for p in MODULES + TEST_MODULES}
    assert {name: found for name, found in unused.items() if found} == {}


def _wrapped_public_functions(source: str, namespace: dict) -> list:
    # public functions defined at the top of source whose name in the
    # module's namespace is not a plain function (a cache or other wrapper)
    defined = [node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    return sorted(name for name in defined if not inspect.isfunction(namespace[name]))


def test_public_functions_are_plain():
    # a tracer or profiler that wraps a package's functions finds them by
    # inspect.isfunction, so a public function keeps any cache behind a
    # private helper
    probe = ("import functools\n@functools.cache\ndef a():\n    pass\n"
             "def b():\n    return _c()\n@functools.cache\ndef _c():\n    pass\n"
             "class D:\n    @functools.cache\n    def e(self):\n        pass\n")
    namespace = {}
    exec(probe, namespace)
    assert _wrapped_public_functions(probe, namespace) == ["a"]
    wrapped = {p.name: _wrapped_public_functions(
        p.read_text(), vars(importlib.import_module(f"twrelay.{p.stem}"))) for p in MODULES}
    assert {name: found for name, found in wrapped.items() if found} == {}


def _private_lowerbound_names(source: str) -> list:
    # underscore names imported from lowerbound, or read as its attributes
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lowerbound"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "lowerbound" and node.attr.startswith("_")):
            found.append(node.attr)
    return sorted(found)


def test_lowerbound_law_behind_public_names():
    # the per-link law and its summaries live in lowerbound; other modules
    # use only its public names
    probe = ("from .lowerbound import _gauss_legendre, link_laws\n"
             "from . import lowerbound\nlowerbound._norm(1, 1)\nlowerbound.link_cdf_pdf\n")
    assert _private_lowerbound_names(probe) == ["_gauss_legendre", "_norm"]
    private = {p.name: _private_lowerbound_names(p.read_text()) for p in MODULES}
    assert {name: found for name, found in private.items() if found} == {}


def _direction_constructions(source: str) -> list:
    # calls of lowerbound's Direction or Link: by a name imported from
    # lowerbound (under any alias) or as lowerbound's attributes
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lowerbound")
                for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = imported.get(func.id)
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == "lowerbound"):
            name = func.attr
        else:
            continue
        if name in ("Direction", "Link"):
            found.append(name)
    return sorted(found)


def test_one_map_to_direction_scales():
    # a direction's law is two link shapes and two scales, k_s = C / (A rho_s)
    # and k_f = B / (A rho_f); analysis._direction is the one place that
    # builds them from a coefficient set and link SNRs, so no other program
    # module constructs a lowerbound.Direction or Link
    probe = ("from .lowerbound import Direction as D, Link\nfrom . import lowerbound\n"
             "D(Link(2, 1), lowerbound.Link(2, 1), 1.0, 2.0)\nLink._fields\nDirection(1)\n")
    assert _direction_constructions(probe) == ["Direction", "Link", "Link"]
    built = {p.name: _direction_constructions(p.read_text()) for p in MODULES}
    assert built.pop("analysis.py") == ["Direction", "Link", "Link"]
    built.pop("lowerbound.py")
    assert {name: found for name, found in built.items() if found} == {}


UNIFIED_CONSTANTS = ("a_arb", "b_arb", "c_arb", "a_bra", "b_bra", "c_bra")


def _unified_constant_reads(source: str) -> list:
    # the CoefficientSet fields read as an attribute of any object
    return sorted(node.attr for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in UNIFIED_CONSTANTS)


def test_one_reader_of_the_unified_constants():
    # each direction's end-to-end SNR law is stated once, by
    # analysis.direction_scales, which alone turns the constants A, B, C into
    # scales; validate reads them for its single-antenna eta oracle and its
    # CDF threshold, and no other program module reads them
    probe = "c.a_arb + coeffs.c_bra\nx.a_arbx\na_bra = 1\n"
    assert _unified_constant_reads(probe) == ["a_arb", "c_bra"]
    reads = {p.name: _unified_constant_reads(p.read_text()) for p in MODULES}
    assert reads.pop("analysis.py")
    assert reads.pop("validate.py")
    assert {name: found for name, found in reads.items() if found} == {}


def _reads_of(source: str, name: str) -> int:
    # the places that read name: an import of it, a load of it, or an
    # attribute of that name; its definition is not a read
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            count += sum(alias.name == name for alias in node.names)
        elif isinstance(node, ast.Name):
            count += node.id == name and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute):
            count += node.attr == name
    return count


def test_one_reader_of_the_closed_form_assembly():
    # the paper's closed form, assembled in double precision, is validate's
    # reference for the lower-bound integral: no command's value comes from
    # it, so no other program module reads it
    probe = ("from .analysis import _closed_form_f64 as f\nanalysis._closed_form_f64(1)\n"
             "def _closed_form_f64():\n    pass\n_closed_form_f64()\n")
    assert _reads_of(probe, "_closed_form_f64") == 3
    readers = {p.name: _reads_of(p.read_text(), "_closed_form_f64") for p in MODULES}
    assert sorted(name for name, count in readers.items() if count) == ["validate.py"]


def _owners(source: str, match) -> list:
    # the innermost function around each node for which match(node) holds,
    # "<module>" outside any function
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append(owner)
            visit(child, owner)
    visit(ast.parse(source), "<module>")
    return sorted(found)


def _hyp2f1_callers(source: str) -> list:
    # the functions around each call of hyp2f1, by a name imported under any
    # alias or as an attribute
    names = {alias.asname or alias.name for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name == "hyp2f1"}

    def call(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return ((isinstance(func, ast.Name) and func.id in names)
                or (isinstance(func, ast.Attribute) and func.attr == "hyp2f1"))
    return _owners(source, call)


def test_one_statement_of_the_bessel_moment():
    # the Bessel moment's Gamma-2F1 form (G&R 6.621.3) is written once: the
    # closed form's batched assembly reaches it through the one hyp2f1 call
    # in _ln_bessel_moment
    probe = ("from scipy.special import hyp2f1 as F\nimport scipy.special as sp\n"
             "def a():\n    def b():\n        return F(1, 1, 1, 0)\n"
             "    return sp.hyp2f1(1, 1, 1, 0)\nF(0, 0, 0, 0)\n")
    assert _hyp2f1_callers(probe) == ["<module>", "a", "b"]
    callers = {p.name: _hyp2f1_callers(p.read_text()) for p in MODULES}
    assert {name: found for name, found in callers.items() if found} == {
        "analysis.py": ["_ln_bessel_moment"]}


def _lattice_sums(source: str) -> list:
    # the functions around each sum of _LO and a product, h * k or
    # np.multiply.outer(h, k), on either side
    def product(node):
        return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "outer"))

    def lattice_sum(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        sides = (node.left, node.right)
        return any(isinstance(lo, ast.Name) and lo.id == "_LO" and product(step)
                   for lo, step in (sides, sides[::-1]))
    return _owners(source, lattice_sum)


def test_one_statement_of_the_ladder_lattice():
    # the trapezoid nodes s = _LO + h k of both lower-bound integrals, the
    # sum-BER grid's axes and the end-to-end CDF's inner integrals, and of
    # the grid's erfc factor are written once, in lowerbound._lattice
    probe = ("def a():\n    return _LO + h * k\n"
             "def b():\n    return np.multiply.outer(h, k) + _LO\n"
             "_LO + 1.0 - w\n_LO - h * k\nx = k * h + _LO\n")
    assert _lattice_sums(probe) == ["<module>", "a", "b"]
    source = (Path(twrelay.__file__).parent / "lowerbound.py").read_text()
    assert _lattice_sums(source) == ["_lattice"]


def _stop_rule_reads(source: str) -> tuple:
    # (the functions around each read of REL_ROUNDING, those around each
    # comparison that involves REL_TOL)
    def named(node, name):
        return isinstance(node, ast.Name) and node.id == name

    rounding = _owners(source, lambda node: named(node, "REL_ROUNDING")
                       and isinstance(node.ctx, ast.Load))
    tol = _owners(source, lambda node: isinstance(node, ast.Compare)
                  and any(named(inner, "REL_TOL") for inner in ast.walk(node)))
    return rounding, tol


def test_one_statement_of_the_stop_rule():
    # both lower-bound integrals, the sum-BER grid and the end-to-end CDF's
    # inner integrals, stop and floor their reported error by one rule,
    # lowerbound._settle: no other function compares against REL_TOL or
    # reads REL_ROUNDING (an error message may still name REL_TOL)
    probe = ("REL_ROUNDING = 1e-14\ndef a():\n    return max(e, REL_ROUNDING * v), e <= REL_TOL * v\n"
             "def b():\n    return f'{REL_TOL:g}', REL_TOL > 0 if x else 0\n"
             "def c():\n    return REL_ROUNDING\n")
    assert _stop_rule_reads(probe) == (["a", "c"], ["a", "b"])
    source = (Path(twrelay.__file__).parent / "lowerbound.py").read_text()
    assert _stop_rule_reads(source) == (["_settle"], ["_settle"])


def test_import_loads_no_scipy_optimize_or_integrate():
    # importing scipy.optimize alone adds about two fifths to the import
    # time of the package; the high-SNR weights use a hand-written golden
    # section, and no module integrates with scipy
    src = str(Path(twrelay.__file__).parent.parent)
    for module in ("twrelay", "twrelay.cli", "twrelay.validate"):
        probe = (f"import sys, {module}; print(sorted(m for m in ('scipy.optimize', "
                 "'scipy.integrate') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=src, check=True)
        assert proc.stdout.strip() == "[]", module
