"""Source invariants of the package.

Broken invariants must raise, never assert: `python -O` strips asserts.
Q(zeta_p) arithmetic is exact: no floats in the cyclotomic module.
The integer kernels are exact: the exact linear algebra module makes no float
call (`float`, `math.log*`, `math.sqrt`, true division, float dtypes), so
the multimodular Hadamard bound stays integer arithmetic.
Sweeps over residues read `legendre_array`: no Jacobi call in a loop.
The O(p) float routes of the class numbers and the decomposition
diagnostic are numpy calls: no scalar `math` or `cmath` call in a loop of
the quadratic-field or the `vsemirnov` module.
Each object is built once: no module defines or names the list form
`legendre_table`, the second autocorrelation kernel `_cyclic_square` or
the diagnostic's old root list `_roots`.
Sweeps take the O(n^2) Toeplitz route: `verify.py` never calls the dense `det`
or the dense Faddeev-LeVerrier `charpoly` (carlitz reads the structure of
C_p^2 off the symbol table), and the cyclotomic module, whose shifted matrix
is Toeplitz below row 0, never names `_bareiss`.
Every Toeplitz determinant runs on the integer lanes: no module of the
package defines or names the bigint PRS (`toeplitz_det`, `_prem_window`,
`_lstrip0`, `_exact_div`) or a dimension threshold in front of it
(`_toeplitz`, `_LANES_FROM`); the PRS lives on in `tests/bigint_toeplitz.py`
as the reference.  The cyclotomic module's Z[tau] determinant never names
the ring class `QuadElem`.
No module of the package names the shift-subtract products
`exact_product_one/two`: Lemma 3.2 and the mtilde closed form are decided by
evaluation at primes q = 1 (mod p).
No module of the package names `CycElem`: an element of Q(zeta_p) is an
exponent vector, and the power-basis class is the tests' reference.
No module of the package defines or names `adjugate`, `_minor`, `_pell_unit`,
`_icbrt` or a dense `charpoly`: Bareiss is the one dense kernel, and the unit
comes from one continued fraction.
Nor does any name the tests' `all_embeddings`: the split-prime identities lie
in Q(sqrt(p*)), and two embeddings decide them, not p - 1.
Nor does any name `rank_one_update_det` or `_jacobi`: no verdict reads the
rank-one update, and `legendre` is Euler's criterion; the tests keep both as
references.
`verify.py` imports no private (underscore) name from the cyclotomic module.
No module of the package reads the environment (`os.environ`, `getenv`):
routes and caps are fixed in code, never switched by a knob.
Only `arith.py` names `is_prime` or writes the prime limit `1 << 30` (the
package's `__init__` re-exports `is_prime`): one module chooses the modular
primes of every route, by one limit, one stream and one rule.
No interpolation is left in the package: no module defines or names
`toeplitz_charpoly`, `_SPARE_POINTS`, `IntPolynomial`, `poly_mul` or
`poly_pow`, and no call passes an `even` flag; the evaluation route lives
on in `tests/lane_charpoly.py`.  `charpoly_cp` decides from the symbol
table alone: it and its helpers never build C_p or take a determinant.
The multimodular lanes have one axis and no vote: the exact linear algebra
module names no `alive`, `keep` or `bincount`, so every lane run follows
one degree sequence and a disagreeing lane is unlucky, never outvoted.
No module of the package defines or names `_lane_reduce` or
`_REDUCE_BY_PRIME_FROM`: every array of residues is reduced by one `%`.
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


_FLOAT_DTYPES = {"float16", "float32", "float64", "float128", "floating", "half",
                 "single", "double", "longdouble", "complex64", "complex128",
                 "complexfloating", "csingle", "cdouble", "clongdouble"}


def test_exactlinalg_module_has_no_floats():
    path = next(p for p in SOURCES if p.name == "exactlinalg.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"{node.id}:{line}")
        elif isinstance(node, ast.Attribute) and (
            node.attr in _FLOAT_DTYPES
            or (getattr(node.value, "id", None) == "math"
                and (node.attr.startswith("log") or node.attr == "sqrt"))
        ):
            found.append(f"{node.attr}:{line}")
        elif isinstance(node, ast.Constant) and (
            isinstance(node.value, (float, complex))
            or (isinstance(node.value, str) and node.value in _FLOAT_DTYPES)
        ):
            found.append(f"constant {node.value!r}:{line}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"true division:{line}")
    assert found == []


def _calls_legendre(node) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and (getattr(sub.func, "id", None) == "legendre"
             or getattr(sub.func, "attr", None) == "legendre")
        for sub in ast.walk(node)
    )


def _calls_scalar_float(node) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and getattr(sub.func.value, "id", None) in ("math", "cmath")
        for sub in ast.walk(node)
    )


def _loops_calling(path: Path, calls) -> list:
    """Loops and comprehensions of one source whose repeated part has a
    call that `calls` flags."""
    found = []
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
        if any(calls(part) for part in repeated):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_lanes_take_no_vote():
    # any name, attribute, argument or definition, so that a row axis with
    # a majority vote over it cannot come back
    path = next(p for p in SOURCES if p.name == "exactlinalg.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = [getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None), getattr(node, "arg", None)]
        found += [f"exactlinalg.py:{node.lineno} {name}" for name in names
                  if name in ("alive", "keep", "bincount")]
    assert found == []


def test_lanes_reduce_with_no_per_prime_path():
    # any name, attribute, argument, definition or import, so that every
    # array of residues, the Toeplitz lanes and the split-prime embeddings
    # alike, is reduced by one % against its moduli
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("_lane_reduce", "_REDUCE_BY_PRIME_FROM")]
    assert found == []


def test_no_legendre_call_in_a_loop():
    assert [loc for path in SOURCES for loc in _loops_calling(path, _calls_legendre)] == []


def test_quadfield_float_routes_are_vectorised():
    # and the decomposition diagnostic's: no scalar math or cmath call in a
    # loop of either module
    paths = [p for p in SOURCES if p.name in ("quadfield.py", "vsemirnov.py")]
    assert len(paths) == 2
    assert [loc for path in paths for loc in _loops_calling(path, _calls_scalar_float)] == []


def test_package_names_no_second_table():
    # any definition, name, attribute, argument or import of the list form
    # of the character, of the windowed cyclic square (tests/cyclic_square.py
    # keeps it as the reference for tau^2) or of a per-call table of roots
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("legendre_table", "_cyclic_square", "_roots")]
    assert found == []


def _verify_calls_to(name: str) -> list:
    path = next(p for p in SOURCES if p.name == "verify.py")
    return [
        f"verify.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name
             or getattr(node.func, "attr", None) == name)
    ]


def test_verify_makes_no_dense_det_call():
    assert _verify_calls_to("det") == []


def test_verify_makes_no_dense_charpoly_call():
    assert _verify_calls_to("charpoly") == []


_BIGINT_TOEPLITZ = {"toeplitz_det", "_prem_window", "_lstrip0", "_exact_div", "_toeplitz",
                    "_LANES_FROM"}


def test_cyclotomic_takes_no_bigint_or_ring_toeplitz_route():
    # any definition, name, attribute, argument, import or exported string
    # of the bigint PRS or of a threshold in front of it, in every module;
    # and QuadElem in the cyclotomic module
    found = []
    for path in SOURCES:
        forbidden = _BIGINT_TOEPLITZ | ({"QuadElem"} if path.name == "cyclotomic.py" else set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.append(node.value)
            found += [f"{path.name}:{getattr(node, 'lineno', '?')} {name}" for name in names
                      if name in forbidden]
    assert found == []


def test_package_names_no_exact_product():
    # lemma32_check and mtilde_det_check decide by evaluation at split
    # primes; the shift-subtract products live in tests/exact_products.py
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
            if isinstance(node, ast.ImportFrom):
                names += [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name and (name.startswith("exact_product")
                                   or name == "_times_difference")]
    assert found == []


def test_package_names_no_cycelem():
    # exponent vectors are the package's one form of an element; the
    # power-basis CycElem lives in tests/exact_products.py
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.append(node.value)
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "CycElem"]
    assert found == []


_SECOND_ROUTES = {"adjugate", "_minor", "_pell_unit", "_icbrt", "charpoly",
                  "_numeric_product_one", "all_embeddings", "rank_one_update_det",
                  "_jacobi"}


def test_package_names_no_second_route():
    # Faddeev-LeVerrier lives in tests/faddeev_leverrier.py, the Pell unit
    # in tests/pell_unit.py, the numeric P1 and the all-embedding
    # evaluation in tests/exact_products.py, the rank-one update in
    # tests/rank_one.py and the Jacobi loop in tests/test_arith.py;
    # toeplitz_charpoly, charpoly_cp and the CLI's "charpoly" command are
    # other names (strings are not read)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in _SECOND_ROUTES]
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


def test_verify_imports_no_cyclotomic_private():
    path = next(p for p in SOURCES if p.name == "verify.py")
    found = [
        f"verify.py:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "cyclotomic"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_package_reads_no_environment():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in ("environ", "getenv") for alias in node.names))
    ]
    assert found == []


def _is_two_to_the_30(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == 1 << 30
    return (isinstance(node, ast.BinOp)
            and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant)
            and (node.left.value, type(node.op), node.right.value)
            in ((1, ast.LShift, 30), (2, ast.Pow, 30)))


def test_only_arith_chooses_modular_primes():
    found = []
    for path in SOURCES:
        if path.name == "arith.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names += [alias.name for alias in node.names]
            if "is_prime" in names:
                found.append(f"{path.name}:{node.lineno} is_prime")
            if _is_two_to_the_30(node):
                found.append(f"{path.name}:{node.lineno} 2^30")
    assert found == []


_INTERPOLATION = {"toeplitz_charpoly", "_SPARE_POINTS", "IntPolynomial", "poly_mul",
                  "poly_pow"}


def test_package_has_no_interpolation_route():
    # any definition, name, attribute or import of the evaluation route and
    # its polynomial type, and any call with an `even` keyword (or a ** that
    # could carry one)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in _INTERPOLATION]
            if isinstance(node, ast.Call) and any(kw.arg in ("even", None)
                                                  for kw in node.keywords):
                found.append(f"{path.name}:{node.lineno} even")
    assert found == []


_MATRIX_ROUTES = {"build_cp", "IntMatrix", "det", "det_cp", "toeplitz_det",
                  "toeplitz_det_mod", "_toeplitz", "_lane_run"}


def test_charpoly_cp_builds_no_matrix():
    path = next(p for p in SOURCES if p.name == "matrices.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    found = [
        f"{name}:{node.lineno} {getattr(node, 'id', None) or node.attr}"
        for name in ("charpoly_cp", "_cyclic_autocorrelation", "_gram")
        for node in ast.walk(functions[name])
        if getattr(node, "id", None) in _MATRIX_ROUTES
        or getattr(node, "attr", None) in _MATRIX_ROUTES
    ]
    assert found == []
