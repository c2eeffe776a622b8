"""Source invariants of the package.

Broken invariants must raise, never assert: `python -O` strips asserts.
Q(zeta_p) arithmetic is exact: no floats in the cyclotomic module.
Sweeps over residues read `legendre_table`: no Jacobi call in a loop.
Sweeps take the O(n^2) Toeplitz route: `verify.py` never calls the dense `det`,
and the cyclotomic module, whose shifted matrix is Toeplitz below row 0,
never names `_bareiss`.
"""
import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "legdet").glob("*.py"))


def test_package_source_has_no_assert():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cyclotomic_module_has_no_floats():
    path = next(p for p in SOURCES if p.name == "cyclotomic.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            names = []
        found += [f"import {n}:{node.lineno}" for n in names if n == "cmath"]
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"float literal {node.value!r}:{node.lineno}")
    assert found == []


def _calls_legendre(node) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and (getattr(sub.func, "id", None) == "legendre"
             or getattr(sub.func, "attr", None) == "legendre")
        for sub in ast.walk(node)
    )


def test_no_legendre_call_in_a_loop():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                repeated = node.body
            elif isinstance(node, ast.While):
                repeated = [node.test, *node.body]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                repeated = [node]
            else:
                continue
            if any(_calls_legendre(part) for part in repeated):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_verify_makes_no_dense_det_call():
    path = next(p for p in SOURCES if p.name == "verify.py")
    found = [
        f"verify.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "det"
             or getattr(node.func, "attr", None) == "det")
    ]
    assert found == []


def test_mtilde_takes_no_bareiss_route():
    path = next(p for p in SOURCES if p.name == "cyclotomic.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if "_bareiss" in names:
            found.append(f"cyclotomic.py:{node.lineno}")
    assert found == []
