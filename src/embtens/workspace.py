"""Workspace files: named algebras, actions, tensors, and triangle structures.

A workspace is one JSON document.  Scalars are exact: bare integers or
"p/q" strings.  Structure tables may omit trailing rows, entries, or
coordinates, which default to zero, as does a null row or entry; a null
coordinate is an error.  Cross-references are by name;
built objects emitted by the CLI inline their parts instead, and the
loader accepts either form wherever a reference can appear.  Algebras
declaring a flavor are re-verified on load; a declared flavor that
fails its axiom check is a load error, never a silent downgrade.
"""
from __future__ import annotations

import json
from pathlib import Path

from .algebras import Algebra, FLAVORS, LEIBNIZ, LIE, UNCHECKED, check_leibniz, check_lie
from .cohomology import DEFAULT_MAX_DEGREE
from .errors import (
    DimensionMismatch,
    FlavorViolation,
    ParseError,
    UnresolvedReference,
)
from .graded import MultiMap
from .leibniz_lie import LeibnizLie
from .linalg import Matrix, Record, Vector, parse_scalar, vector_to_json, zero_vector
from .reports import require
from .tensors import Action, EmbeddingTensor


class Settings(Record):
    max_degree: int = DEFAULT_MAX_DEGREE


class Workspace:
    """The named entries of one workspace file, and its settings."""

    def __init__(self):
        self.algebras: dict[str, Algebra] = {}
        self.actions: dict[str, Action] = {}
        self.tensors: dict[str, EmbeddingTensor] = {}
        self.leibniz_lie: dict[str, LeibnizLie] = {}
        self.settings = Settings()

    def algebra(self, name: str) -> Algebra:
        return _lookup(self.algebras, name, "algebra")

    def action(self, name: str) -> Action:
        return _lookup(self.actions, name, "action")

    def tensor(self, name: str) -> EmbeddingTensor:
        return _lookup(self.tensors, name, "tensor")

    def leibniz_lie_structure(self, name: str) -> LeibnizLie:
        return _lookup(self.leibniz_lie, name, "leibnizLie entry")


def _lookup(table: dict, name: str, kind: str, prefix: str = ""):
    if name not in table:
        raise UnresolvedReference(f"{prefix}unknown {kind} {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# scalar / vector / matrix pieces
# ---------------------------------------------------------------------------

def _scalar(value, path: str):
    try:
        return parse_scalar(value)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _padded(data, length: int, path: str, item, omitted) -> tuple:
    """A JSON list of at most ``length`` items, each read by ``item(x, path)``,
    filled up to ``length`` with ``omitted``; null reads as the empty list."""
    if data is None:
        data = []
    if not isinstance(data, list) or len(data) > length:
        raise ParseError(f"{path}: expected a list of at most {length} items")
    read = tuple(item(x, f"{path}[{i}]") for i, x in enumerate(data))
    return read + (omitted,) * (length - len(data))


def _vector(data, length: int, path: str) -> Vector:
    """Coordinates; omitted ones are 0, and a null coordinate is an error."""
    return _padded(data, length, path, _scalar, 0)


def _flat(data, depth: int, n: int, m: int, path: str) -> Vector:
    """The flat row-major coefficients of a table nested ``depth`` lists deep:
    each of those lists holds exactly n items, and each leaf is a vector of at
    most m coordinates."""
    if depth == 0:
        return _vector(data, m, path)
    if not isinstance(data, list) or len(data) != n:
        raise ParseError(f"{path}: expected a list of {n} items")
    return tuple(x for i, item in enumerate(data)
                 for x in _flat(item, depth - 1, n, m, f"{path}[{i}]"))


def _nested(flat, depth: int, n: int, m: int) -> list:
    """The nested JSON lists ``_flat`` reads back into the flat table."""
    if depth == 0:
        return vector_to_json(flat)
    step = n ** (depth - 1) * m
    return [_nested(flat[i * step:(i + 1) * step], depth - 1, n, m) for i in range(n)]


def matrix_from_json(data, rows: int, cols: int, path: str) -> Matrix:
    return Matrix(rows, cols, _flat(data, 1, rows, cols, path))


def matrix_to_json(m: Matrix) -> list:
    return _nested(m.entries, 1, m.rows, m.cols)


def _table(data, dim: int, path: str) -> tuple[tuple[Vector, ...], ...]:
    """A dim x dim table of coordinate vectors; omitted or null rows and
    entries are zero."""
    zero = zero_vector(dim)
    return _padded(data, dim, path, lambda row, at: _padded(
        row, dim, at, lambda v, at: _vector(v, dim, at), zero), (zero,) * dim)


def table_to_json(table) -> list:
    return [[vector_to_json(v) for v in row] for row in table]


# ---------------------------------------------------------------------------
# the four object kinds
# ---------------------------------------------------------------------------

def _object(data, path: str, *required: str) -> None:
    """Reject anything but a JSON object holding every required key."""
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object")
    for key in required:
        if key not in data:
            raise ParseError(f"{path}.{key}: required")


def algebra_from_json(data, name: str, path: str) -> Algebra:
    _object(data, path)
    dim = _int_at_least(0, data.get("dim"), f"{path}.dim")
    flavor = data.get("flavor", UNCHECKED)
    if flavor not in FLAVORS:
        raise ParseError(f"{path}.flavor: unknown flavor {flavor!r}")
    sc = _table(data.get("sc"), dim, f"{path}.sc")
    name = data.get("name", name)
    if not isinstance(name, str):
        raise ParseError(f"{path}.name: expected a string")
    algebra = Algebra(name, dim, sc, flavor)
    _verify_flavor(algebra, path)
    return algebra


def _verify_flavor(algebra: Algebra, path: str) -> None:
    check = {LIE: check_lie, LEIBNIZ: check_leibniz}.get(algebra.flavor)
    if check is not None:
        require(check(algebra), FlavorViolation,
                f"{path}: algebra {algebra.name!r} declared {algebra.flavor} but ",
                "basis tuple ")


def algebra_to_json(a: Algebra) -> dict:
    return {"name": a.name, "dim": a.dim, "flavor": a.flavor, "sc": table_to_json(a.sc)}


def _resolve_algebra(ref, ws: Workspace, path: str) -> Algebra:
    if isinstance(ref, str):
        return _lookup(ws.algebras, ref, "algebra", f"{path}: ")
    return algebra_from_json(ref, f"inline@{path}", path)


def action_from_json(data, ws: Workspace, path: str) -> Action:
    _object(data, path, "source", "target", "rho")
    source = _resolve_algebra(data["source"], ws, f"{path}.source")
    target = _resolve_algebra(data["target"], ws, f"{path}.target")
    rho_data = data["rho"]
    if not isinstance(rho_data, list) or len(rho_data) != source.dim:
        raise ParseError(f"{path}.rho: expected {source.dim} operator matrices")
    rho = tuple(matrix_from_json(m, target.dim, target.dim, f"{path}.rho[{i}]")
                for i, m in enumerate(rho_data))
    return Action(source, target, rho)


def action_to_json(a: Action) -> dict:
    return {
        "source": algebra_to_json(a.source),
        "target": algebra_to_json(a.target),
        "rho": [matrix_to_json(m) for m in a.rho],
    }


def _resolve_action(ref, ws: Workspace, path: str) -> Action:
    if isinstance(ref, str):
        return _lookup(ws.actions, ref, "action", f"{path}: ")
    return action_from_json(ref, ws, path)


def tensor_from_json(data, ws: Workspace, path: str) -> EmbeddingTensor:
    _object(data, path, "action", "matrix")
    action = _resolve_action(data["action"], ws, f"{path}.action")
    matrix = matrix_from_json(data["matrix"], action.source.dim, action.target.dim,
                              f"{path}.matrix")
    return EmbeddingTensor(action, matrix)


def tensor_to_json(t: EmbeddingTensor) -> dict:
    return {"action": action_to_json(t.action), "matrix": matrix_to_json(t.matrix)}


def leibniz_lie_from_json(data, ws: Workspace, path: str) -> LeibnizLie:
    _object(data, path, "lie")
    lie = _resolve_algebra(data["lie"], ws, f"{path}.lie")
    triangle = _table(data.get("triangle"), lie.dim, f"{path}.triangle")
    return LeibnizLie(lie, triangle)


def leibniz_lie_to_json(l: LeibnizLie) -> dict:
    return {"lie": algebra_to_json(l.lie), "triangle": table_to_json(l.triangle)}


def multimap_to_json(f: MultiMap) -> dict:
    return {
        "arity": f.arity,
        "domainDim": f.domain_dim,
        "codomainDim": f.codomain_dim,
        "coeffs": _nested(f.coeffs, f.arity, f.domain_dim, f.codomain_dim),
    }


def multimap_from_json(data, path: str = "multimap") -> MultiMap:
    _object(data, path, "arity", "domainDim", "codomainDim", "coeffs")
    arity, n, m = (_int_at_least(0, data[key], f"{path}.{key}")
                   for key in ("arity", "domainDim", "codomainDim"))
    return MultiMap(arity, n, m, _flat(data["coeffs"], arity, n, m, f"{path}.coeffs"))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def workspace_from_dict(data) -> Workspace:
    if not isinstance(data, dict):
        raise ParseError("workspace: expected a JSON object at top level")
    ws = Workspace()
    settings = data.get("settings", {})
    _object(settings, "settings")
    if unknown := [key for key in settings if key not in ("maxDegree", "arityCap")]:
        raise ParseError(f"settings.{unknown[0]}: unknown setting")
    ws.settings = Settings(max_degree=_int_at_least(
        1, settings.get("maxDegree", DEFAULT_MAX_DEGREE), "settings.maxDegree"))
    for section, loader, store in (
            ("algebras", None, ws.algebras),
            ("actions", action_from_json, ws.actions),
            ("tensors", tensor_from_json, ws.tensors),
            ("leibnizLie", leibniz_lie_from_json, ws.leibniz_lie)):
        entries = data.get(section, {})
        if not isinstance(entries, dict):
            raise ParseError(f"{section}: expected an object of named entries")
        for name, entry in entries.items():
            path = f"{section}.{name}"
            try:
                if section == "algebras":
                    store[name] = algebra_from_json(entry, name, path)
                else:
                    store[name] = loader(entry, ws, path)
            except (DimensionMismatch, ValueError) as exc:
                raise ParseError(f"{path}: {exc}") from exc
    return ws


def _int_at_least(least: int, value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise ParseError(f"{path}: a {kind} integer is required")
    return value


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate name {key!r}")
        seen.add(key)
    return dict(pairs)


def load_workspace(path: str | Path) -> Workspace:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise ParseError(f"{path}: {exc}") from exc
    return workspace_from_dict(data)
