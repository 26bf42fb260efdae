"""Source hygiene: no package module imports a name it never uses, every
top-level definition of the package and of the test oracles, and every
non-dunder method of a top-level class, is used somewhere, only ``reports`` builds a ``Failure``,
only ``MultiMap._from_terms`` raises ``ArityCapExceeded`` and nothing takes an
``arity_cap``, only ``linalg`` compares a ``.rows`` or ``.cols`` (every other
shape check is ``Matrix.require_shape``), only ``linalg.Flat`` defines entrywise
arithmetic, only ``linalg`` calls the dense-matrix solvers, no module
divides with ``/``, only ``linalg.frac`` calls ``Fraction``, no module
raises a builtin exception class but the protocol methods of
``linalg.Record``, only ``algebras`` reads ``_derivation_rows`` and no module
defines a ``leibniz_residual``, the only module-level caches are the two verification
caches and ``graded.shuffles``, importing the CLI loads neither
``dataclasses`` nor ``inspect``, and no subscript unpacks a starred item
outside parentheses (Python 3.11 syntax; the package supports 3.10)."""
import ast
import builtins
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "embtens"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("from x import a, b\nimport c.d\nprint(a, c)\n") == ["b (line 1)"]


def references(tree: ast.AST) -> Counter:
    """Names read, imported or spelled as a dotted string in a syntax tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            names.update(node.value.split("."))
    return names


def dead_definitions(source: str, corpus: Counter) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of those
    classes, named nowhere outside their own body."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for node in ast.parse(source).body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        defs = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, functions)
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
        for label, d in defs:
            if corpus[d.name] - references(d)[d.name] <= 0:
                dead.append(f"{label} (line {d.lineno})")
    return dead


@pytest.fixture(scope="module")
def corpus() -> Counter:
    total = Counter()
    for path in CORPUS:
        total += references(ast.parse(path.read_text(encoding="utf-8")))
    return total


@pytest.mark.parametrize("path", MODULES + [ROOT / "tests" / "oracles.py"], ids=lambda p: p.name)
def test_no_dead_definitions(path, corpus):
    assert dead_definitions(path.read_text(encoding="utf-8"), corpus) == []


def test_detects_a_dead_definition():
    source = ("def used():\n    return 1\n\n"
              "def dead(n):\n    return dead(n - 1)\n\n"
              "class Kept:\n    pass\n\n"
              "class Host:\n"
              "    def __repr__(self):\n        return 'host'\n\n"
              "    def called(self):\n        return 1\n\n"
              "    def unused(self, n):\n        return self.unused(n - 1)\n")
    corpus = references(ast.parse(source)) + references(
        ast.parse("used()\nx = 'pkg.Kept'\nHost().called()\n"))
    assert dead_definitions(source, corpus) == ["dead (line 4)", "Host.unused (line 17)"]


def failure_calls(source: str) -> list[int]:
    """Lines where a syntax tree calls ``Failure(...)``, bare or qualified."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Failure":
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reports.py"],
                         ids=lambda p: p.name)
def test_failures_are_built_in_reports(path):
    """Witnesses come from ``reports.scan``; no checker builds its own."""
    assert failure_calls(path.read_text(encoding="utf-8")) == []


def test_detects_a_failure_built_outside_reports():
    source = ("from x import Failure, reports\n"
              "def f(res) -> Failure:\n    return Failure('law', (0,), res)\n"
              "g = reports.Failure('law', ())\n")
    assert failure_calls(source) == [3, 4]


def arity_cap_sites(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing ``Class.function``, line) of each call of
    ``ArityCapExceeded``, bare or qualified, the place '' outside any; and
    ('arity_cap', line) of each name, attribute, argument or keyword so spelled."""
    found = []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call) and _callee(node.func) == "ArityCapExceeded":
            found.append((where, node.lineno))
        elif "arity_cap" in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "arg", None)):
            found.append(("arity_cap", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda site: site[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_arity_guard(path):
    """The arity cap is the constant ``graded.ARITY_CAP``, checked where every
    dense table is filled: only ``MultiMap._from_terms`` raises
    ``ArityCapExceeded``, and no function takes or passes an ``arity_cap``."""
    found = [where for where, _ in arity_cap_sites(path.read_text(encoding="utf-8"))]
    assert found == (["MultiMap._from_terms"] if path.name == "graded.py" else [])


def test_detects_an_arity_guard_outside_from_terms():
    source = ("from x import ArityCapExceeded, errors\n"
              "class MultiMap:\n    @classmethod\n    def _from_terms(cls, arity):\n"
              "        raise ArityCapExceeded('cap')\n\n"
              "def bracket(p, arity_cap=4):\n    if p > arity_cap:\n"
              "        raise errors.ArityCapExceeded('cap')\n\n"
              "cap = ws.settings.arity_cap\nr = bracket(p, arity_cap=5)\n"
              "ok = isinstance(e, ArityCapExceeded)\n")
    assert arity_cap_sites(source) == [("MultiMap._from_terms", 5), ("arity_cap", 7),
                                       ("arity_cap", 8), ("bracket", 9), ("arity_cap", 11),
                                       ("arity_cap", 12)]


def derivation_law_sites(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing ``Class.function``, line) of each name, attribute or
    import of ``_derivation_rows``, the place '' outside any, and
    ('leibniz_residual', line) of each function or class so named."""
    found = []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "leibniz_residual":
                found.append(("leibniz_residual", node.lineno))
            where = f"{where}.{node.name}" if where else node.name
        elif "_derivation_rows" in (getattr(node, "id", None), getattr(node, "attr", None)) or (
                isinstance(node, ast.alias) and node.name == "_derivation_rows"):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda site: site[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_evaluation_of_the_derivation_law(path):
    """The derivation law is written once, as the rows of ``algebras._derivation_rows``:
    only the two derivation algebras, which solve them, and ``_derivation_residuals``,
    which evaluates them at operators, read them, and no module defines a
    ``leibniz_residual`` of its own."""
    found = [where for where, _ in derivation_law_sites(path.read_text(encoding="utf-8"))]
    assert found == (["_derivation_residuals", "derivation_algebra",
                      "coherent_derivation_algebra"] if path.name == "algebras.py" else [])


def test_detects_a_second_evaluation_of_the_derivation_law():
    source = ("from .algebras import _derivation_rows as rows, Algebra\n"
              "import algebras\n"
              "class Algebra:\n    def leibniz_residual(self, i, j, k):\n        return 0\n\n"
              "def check(a):\n    return algebras._derivation_rows(a)\n\n"
              "def leibniz_residual(a):\n    return a\n\n"
              "table = _derivation_rows\nok = derivation_rows(a)\n")
    assert derivation_law_sites(source) == [("", 1), ("leibniz_residual", 4), ("check", 8),
                                            ("leibniz_residual", 10), ("", 13)]


STRUCTURE_EVALUATORS = ("_table_of", "_homomorphism_law", "_operator_products", "_bracket_law")
DELETED_EVALUATORS = ("table_sum", "_homomorphism_residual", "_bracket_residual")
READ_LAWS = ("check_coherent_action", "check_embedding_tensor")


def structure_law_sites(source: str) -> list[tuple[str, int]]:
    """('def <name>', line) of each function or class named as a structure-law
    evaluator or as one of the deleted dense routes, and within
    ``check_coherent_action`` and ``check_embedding_tensor`` ('<check> +=',
    line) of each augmented assignment and ('<check> reads <name>', line) of
    each evaluator name."""
    found = []

    def visit(node, check: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in STRUCTURE_EVALUATORS + DELETED_EVALUATORS:
                found.append((f"def {node.name}", node.lineno))
            check = node.name if node.name in READ_LAWS else check
        elif check and isinstance(node, ast.AugAssign):
            found.append((f"{check} +=", node.lineno))
        elif check and getattr(node, "id", None) in STRUCTURE_EVALUATORS:
            found.append((f"{check} reads {node.id}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, check)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda site: site[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_evaluator_per_structure_law(path):
    """Each structure law and derived table is evaluated in one place: only
    ``algebras`` defines the table scatter and the homomorphism and bracket laws,
    no module defines the dense routes they replaced, and the coherent-action and
    tensor checks read those laws instead of accumulating their own sums."""
    found = [where for where, _ in structure_law_sites(path.read_text(encoding="utf-8"))]
    assert found == {
        "algebras.py": [f"def {name}" for name in STRUCTURE_EVALUATORS],
        "tensors.py": ["check_coherent_action reads _bracket_law",
                       "check_embedding_tensor reads _homomorphism_law"],
    }.get(path.name, [])


def test_detects_a_second_structure_law_evaluation():
    source = ("def table_sum(a, b):\n    return a\n\n"
              "def check_coherent_action(action):\n    found = {}\n"
              "    for i in action:\n        found[i] += 1\n"
              "    return _bracket_law(action)\n\n"
              "class _homomorphism_law:\n    pass\n\n"
              "def check_embedding_tensor(t):\n    x = 0\n    x -= 1\n\n"
              "def other(a):\n    a += 1\n    return _table_of(a)\n")
    assert structure_law_sites(source) == [
        ("def table_sum", 1), ("check_coherent_action +=", 7),
        ("check_coherent_action reads _bracket_law", 8), ("def _homomorphism_law", 10),
        ("check_embedding_tensor +=", 15)]


def shape_comparisons(source: str) -> list[int]:
    """Lines where a comparison reads a ``.rows`` or ``.cols`` attribute
    anywhere in its operands."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare) for operand in (node.left, *node.comparators)
                   for sub in ast.walk(operand)
                   if isinstance(sub, ast.Attribute) and sub.attr in ("rows", "cols")})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_shapes_are_checked_by_require_shape(path):
    """A matrix shape is checked in one place, ``Matrix.require_shape``, so
    every shape error reads ``<what> must be RxC, not rxc``."""
    assert shape_comparisons(path.read_text(encoding="utf-8")) == []


def test_detects_a_shape_comparison():
    source = ("if m.rows != n or m.cols != n:\n    raise E\n"
              "m.require_shape(t.matrix.rows, t.matrix.cols, 'm')\n"
              "ok = n == len(sub.rows)\n"
              "z = Matrix.zero(m.rows, m.cols)\n"
              "same = (a.rows,\n        b.rows) == c\n"
              "x = m.rows > 0 if m else 0\n")
    assert shape_comparisons(source) == [1, 4, 6, 8]


ARITHMETIC = ("__add__", "__sub__", "__neg__", "scale", "is_zero")


def arithmetic_definitions(source: str) -> list[str]:
    """``Class.method`` for each entrywise-arithmetic method a class defines."""
    return [f"{node.name}.{m.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and m.name in ARITHMETIC]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_entrywise_arithmetic_is_defined_once(path):
    """``Matrix`` and ``MultiMap`` inherit ``+``, ``-``, negation, ``scale``
    and ``is_zero`` from ``linalg.Flat``; no other class defines them."""
    found = arithmetic_definitions(path.read_text(encoding="utf-8"))
    assert found == ([f"Flat.{m}" for m in ARITHMETIC] if path.name == "linalg.py" else [])


def test_detects_entrywise_arithmetic_outside_flat():
    source = ("class Flat:\n    def scale(self, c):\n        return self\n\n"
              "class Table(Flat):\n    def __add__(self, o):\n        return o\n\n"
              "    def add(self, o):\n        return o\n\n"
              "    async def is_zero(self):\n        return True\n\n"
              "def scale(x):\n    return x\n")
    assert arithmetic_definitions(source) == ["Flat.scale", "Table.__add__", "Table.is_zero"]


DENSE_SOLVERS = ("kernel_basis", "column_space", "rref")


def dense_solver_calls(source: str) -> list[int]:
    """Lines where a syntax tree calls ``kernel_basis``, ``column_space`` or
    ``rref``, bare or qualified."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in DENSE_SOLVERS:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_systems_are_solved_sparse(path):
    """Linear systems leave ``linalg`` as sparse rows: the dense-matrix wrappers
    stay public API, but no other module builds a ``Matrix`` to solve one."""
    assert dense_solver_calls(path.read_text(encoding="utf-8")) == []


def test_detects_a_dense_solver_call():
    source = ("from .linalg import kernel_basis, rref\n"
              "k = kernel_basis(m)\n"
              "c = linalg.column_space(m)\n"
              "r = rref\n"
              "s = sparse_kernel(rows, 3)\n"
              "t = rref(m)[0]\n")
    assert dense_solver_calls(source) == [2, 3, 6]


def true_divisions(source: str) -> list[int]:
    """Lines where a syntax tree divides with ``/`` or ``/=``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_true_division(path):
    """``int / int`` is a float; the one exact quotient is ``linalg.frac(p, q)``."""
    assert true_divisions(path.read_text(encoding="utf-8")) == []


def test_detects_a_true_division():
    source = "a = 1 / 2\nb = 7 // 2\nc = a\nc /= b\nd = f'{a/b}'\n"
    assert true_divisions(source) == [1, 4, 5]


def fraction_calls(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each call of ``Fraction``, bare
    or qualified, in line order; the function is '' outside any."""
    found = []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Call) and _callee(node.func) == "Fraction":
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda call: call[1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_rationals_are_made_by_frac(path):
    """``linalg.frac`` is the one constructor of a ``Fraction``, so a scalar is
    an ``int`` whenever it is whole, and elimination, which runs on integers,
    makes its rationals through it once, at output."""
    found = fraction_calls(path.read_text(encoding="utf-8"))
    assert [call for call in found if (path.name, call[0]) != ("linalg.py", "frac")] == []


def test_detects_a_fraction_call_outside_frac():
    source = ("from fractions import Fraction\nimport fractions\n"
              "def frac(x):\n    return Fraction(x)\n\n"
              "def half(x):\n    return Fraction(x, 2)\n\n"
              "class Q:\n    def make(self):\n        return [fractions.Fraction(1) for _ in ()]\n\n"
              "ONE = Fraction(1)\nok = isinstance(ONE, Fraction)\n")
    assert fraction_calls(source) == [("frac", 4), ("half", 7), ("make", 11), ("", 13)]


BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}
# ``Record`` answers Python's own object protocol with Python's own errors.
ALLOWED_BUILTIN_RAISES = {"linalg.py": {"Record._complete": "TypeError",
                                        "Record.__setattr__": "AttributeError",
                                        "Record.__delattr__": "AttributeError"}}


def builtin_raises(source: str) -> list[tuple[str, str, int]]:
    """(innermost enclosing ``Class.function``, exception, line) of each
    ``raise`` of a builtin exception class, bare or called, in line order;
    the place is '' outside any."""
    found = []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Raise) and _callee(node.exc) in BUILTIN_EXCEPTIONS:
            found.append((where, _callee(node.exc), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda site: site[2])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_errors_are_typed(path):
    """Every error the package raises is a ``ToolkitError``, so a caller's
    ``except ToolkitError``, as in ``cli.run``, catches each of them."""
    allowed = ALLOWED_BUILTIN_RAISES.get(path.name, {})
    found = builtin_raises(path.read_text(encoding="utf-8"))
    assert [site for site in found if allowed.get(site[0]) != site[1]] == []


def test_detects_a_builtin_raise():
    source = ("import builtins\n"
              "class Record:\n    def _complete(self):\n        raise TypeError('x')\n\n"
              "def load(x):\n    try:\n        return x[0]\n    except KeyError as exc:\n"
              "        raise ParseError('p') from exc\n    finally:\n        raise ValueError\n\n"
              "def f():\n    raise builtins.LookupError('y')\n\n"
              "def g(e):\n    raise e\n\ndef h():\n    raise\n")
    assert builtin_raises(source) == [("Record._complete", "TypeError", 4),
                                      ("load", "ValueError", 12), ("f", "LookupError", 15)]


CACHE_DECORATORS = ("lru_cache", "cache")
MEMO_MAKERS = ("dict", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary")
# The two verification caches are cleared before every benchmark pass, and a
# query's complex lives on their verdicts; ``shuffles`` is keyed on small ints.
ALLOWED_CACHES = {"tensors.py": ["check_coherent_action", "check_embedding_tensor"],
                  "graded.py": ["shuffles"]}


def _callee(node) -> str | None:
    """The name a decorator or call expression calls, bare or qualified."""
    while isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def module_caches(source: str) -> list[str]:
    """Names of caches that outlive a call, in line order: every function
    under an ``lru_cache`` or ``cache`` decorator, and every module-level
    name bound to an empty dict, a dict-making call or a wrapped cache."""
    tree = ast.parse(source)
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_callee(d) in CACHE_DECORATORS for d in node.decorator_list)]
    for node in tree.body:
        value = getattr(node, "value", None)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or value is None:
            continue
        if (isinstance(value, ast.Dict) and not value.keys) or _callee(value) in (
                *MEMO_MAKERS, *CACHE_DECORATORS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [name for _, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cache_outlives_the_verification_caches(path):
    """A memo anywhere else would survive ``check_embedding_tensor.cache_clear()``,
    so a benchmark pass after the first would time cache hits."""
    assert module_caches(path.read_text(encoding="utf-8")) == ALLOWED_CACHES.get(path.name, [])


def test_detects_a_module_level_cache():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=None)\ndef a(x):\n    return x\n\n"
              "@functools.cache\ndef b(x):\n    return x\n\n"
              "class C:\n    table = {}\n\n    @cache\n    def m(self):\n        return 1\n\n"
              "    @cached_property\n    def n(self):\n        return 1\n\n"
              "_memo = {}\n_seen: dict = dict()\nCONST = {'k': 1}\nNAMES = ()\n"
              "wrapped = lru_cache(maxsize=8)(len)\n\n"
              "def f():\n    local = {}\n    return local\n")
    assert module_caches(source) == ["a", "b", "m", "_memo", "_seen", "wrapped"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a syntax tree imports (relative ones as '')."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    """Value types derive from ``linalg.Record``; ``dataclasses`` costs every
    CLI process its import and the code it generates per class."""
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_detects_a_dataclasses_import():
    source = "import dataclasses.x\nfrom dataclasses import field\nfrom .linalg import Record\n"
    assert imported_modules(source) == {"dataclasses", ""}


def test_cli_import_stays_light():
    """A fresh interpreter, without site hooks, that imports the CLI loads
    neither ``dataclasses`` nor ``inspect`` (which pulls in ``ast``, ``dis``
    and ``tokenize``)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = "import sys, embtens.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def starred_subscripts(source: str) -> list[int]:
    """Lines where a subscript's key is a tuple holding a starred item and is
    not parenthesised, as in ``a[i, *b]`` or ``a[*b]``: syntax Python 3.10
    refuses, though ``ast.parse(..., feature_version=(3, 10))`` accepts it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                  and any(isinstance(e, ast.Starred) for e in node.slice.elts)
                  and not ast.get_source_segment(source, node.slice).startswith("("))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_starred_subscript(path):
    """``pyproject.toml`` declares Python 3.10, so a starred key is written
    ``a[(i, *b)]``."""
    assert starred_subscripts(path.read_text(encoding="utf-8")) == []


def test_detects_a_starred_subscript():
    source = ("a[1, *b]\nc[(i, *d)]\nx[*a]\ne[f, g]\nh[(*k,)][0]\n"
              "m[\n  2, *n]\nf(*a)\n[*a, 1]\n")
    assert starred_subscripts(source) == [1, 3, 6]
