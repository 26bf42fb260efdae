"""Cohomology of a verified embedding tensor.

A degree-k cochain, k >= 1, is a ``MultiMap`` of arity k - 1 from target
arguments into the source (a source vector is arity 0); degree zero is 0.
Matrices of the coboundary are taken in the monomial bases ordered
lexicographically by (argument indices, output index), which is exactly
the flat coefficient order of ``MultiMap``.

The complex is the Loday-Pirashvili complex of the descendent Leibniz
algebra with coefficients in the induced representation on the source.
Its set-up visits only nonzero entries: ``induced_representation`` fills
rho_l and rho_r from those of T, of the action and of the source table,
and ``lp_differential`` assembles each d_k term by term from the nonzero
rho_l, rho_r and structure-constant blocks, each placed by index
arithmetic (d_0 has none: its rows are empty).  ``tensor_coboundary`` maps
one cochain by the twisted differential d_T of the controlling DGLA
instead, with the sign d f = (-1)^(p-1) d_T f at arity p, so the matrix
assembly and the DGLA are each other's test oracle.  ``_as_cochain``
normalises a cochain as it enters, passing every coefficient through
``frac``; ``class_equals`` reads it into one integer row instead.

``TensorComplex`` holds each d_k as sparse ``{column: entry}`` rows, which
``cohomology`` and ``class_equals`` eliminate into integer echelon rows;
``CohomologyReport.to_json`` alone makes those dense, and nothing here calls
``TensorComplex.differential(k)``, which densifies d_k into a ``Matrix``.

Queries share one complex per verified tensor, with its induced
representation, d_k rows, cocycles and coboundary images: ``_complex_at``
checks the degree and the tensor on every call, and keeps the complex on
the report the lru-cached ``check_embedding_tensor`` returns, so
``check_embedding_tensor.cache_clear()`` frees it and a failing tensor gets
none.  Cocycles cost one elimination per degree (``linalg.sparse_kernel``):
``cohomology`` reads them, and ``class_equals`` checks that a cochain is a
cocycle by membership in them, the second one only when its answer is no.
"""
from __future__ import annotations

import sys
from itertools import product

from .algebras import LeibnizRep
from .errors import DegreeOutOfRange, DimensionMismatch, NotACocycle
from .graded import MultiMap, _check_cochain, twisted_differential
from .linalg import (
    Matrix,
    Record,
    SparseRow,
    Subspace,
    Vector,
    ZERO,
    _integral,
    _sparse_rows,
    quotient_dim,
    sparse_image,
    sparse_kernel,
    vector,
)
from .tensors import EmbeddingTensor, descendent, require_embedding_tensor

DEFAULT_MAX_DEGREE = 4


def induced_representation(t: EmbeddingTensor) -> LeibnizRep:
    """The representation of the descendent algebra on the source algebra.

    Left action rho_l(u) = ad(Te_u) by the source bracket, right action
    rho_r(v): x -> [x, Te_v] - T(rho(x)e_v).  Both are linear in T and read
    only nonzero entries: each constant c = [e_i, e_j]_r adds (Te_u)_i c to
    entry (r, j) of rho_l(u) and (Te_u)_j c to entry (r, i) of rho_r(u), and
    each x = (Te_u)_i adds -x (rho_j)_uv to entry (i, j) of rho_r(v).
    """
    require_embedding_tensor(t)
    g, n, m = t.action.source, t.action.target.dim, t.action.source.dim
    rows, ops = _sparse_rows(t.matrix), [_sparse_rows(op) for op in t.action.rho]
    left, right = ([[ZERO] * (m * m) for _ in range(n)] for _ in range(2))
    for i, j, r, c in g.constants:
        for u, x in rows[i].items():
            left[u][r * m + j] += x * c
        for u, x in rows[j].items():
            right[u][r * m + i] += x * c
    for i, u, x in t.matrix.nonzero():
        for j, op in enumerate(ops):
            for v, y in op[u].items():
                right[v][i * m + j] -= x * y
    rho_l, rho_r = (tuple(Matrix(m, m, vector(e)) for e in table) for table in (left, right))
    return LeibnizRep(descendent(t), m, rho_l, rho_r)


def lp_differential(rep: LeibnizRep, arity: int) -> list[SparseRow]:
    """Sparse rows of the coboundary from arity-``arity`` cochains (arity >= -1;
    arity -1 gives d_0).

    Row i*m + r holds coordinate r of output tuple i, of index sum x_p n^(k-p),
    as a ``{column: entry}`` dict.  Each term of the alternating formula goes
    in block by block, placed by index arithmetic: rho_l(x_i) for each dropped
    argument, rho_r(x_arity) for the last one, and the identity scaled by each
    nonzero constant [x_i, x_j]_p for each bracketed pair.  Zero blocks are skipped.
    """
    n, m = rep.algebra.dim, rep.rep_dim
    left, right = rep.nonzero
    out: list[SparseRow] = [{} for _ in range(n ** (arity + 1) * m)]

    def place(i: int, j: int, block) -> None:  # at output tuple i, input tuple j
        i, j = i * m, j * m
        for r, c, e in block:
            row, col = out[i + r], j + c
            if x := row.get(col, ZERO) + e:
                row[col] = x
            else:
                del row[col]

    for i0 in range(arity + 1):  # drop x_i0: (-1)^i0 rho_l(x_i0), or -(-1)^i0 rho_r(x_i0) last
        blocks, sign = (left, 1) if i0 < arity else (right, -1)
        sign, tail = -sign if i0 % 2 else sign, n ** (arity - i0)
        for u, entries in enumerate(blocks):
            block = [(r, c, sign * e) for r, c, e in entries]
            for head, s in product(range(n ** i0), range(tail)) if block else ():
                place((head * n + u) * tail + s, head * tail + s, block)
        for j0 in range(i0 + 1, arity + 1):  # -(-1)^i0 f(.. x^_i0 .. [x_i0, x_j0] at j0 ..)
            mid, tail = n ** (j0 - i0 - 1), n ** (arity - j0)
            for a, b, p, c in rep.algebra.constants:
                block = [(r, r, c if i0 % 2 else -c) for r in range(m)]
                for head, s, t in product(range(n ** i0), range(mid), range(tail)):
                    place((((head * n + a) * mid + s) * n + b) * tail + t,
                          ((head * mid + s) * n + p) * tail + t, block)
    return out


def _cochain_map(t: EmbeddingTensor, f) -> MultiMap:
    """A cochain of t as a map holding every coefficient as given, zeros
    included: a vector is arity 0, a Matrix arity 1, column u its value on
    e_u.  Its shape is checked against t's action here."""
    if isinstance(f, Matrix):
        f = MultiMap(1, f.cols, f.rows, tuple(x for c in range(f.cols) for x in f.col(c)))
    elif not isinstance(f, MultiMap):
        f = tuple(f)
        f = MultiMap(0, t.action.target.dim, len(f), f)
    _check_cochain(f, t.action)
    return f


def _as_cochain(t: EmbeddingTensor, f) -> MultiMap:
    """A cochain of t as a map (``_cochain_map``) with every coefficient
    through ``frac``, so whole ``Fraction``s enter as ``int``s."""
    f = _cochain_map(t, f)
    return MultiMap(f.arity, f.domain_dim, f.codomain_dim, vector(f.coeffs))


def tensor_coboundary(t: EmbeddingTensor, f: MultiMap | Vector) -> MultiMap:
    """The coboundary operator of the tensor complex on one cochain.

    It is the twisted differential of the controlling DGLA up to sign:
    d f = (-1)^(p-1) d_T f on a cochain of arity p.  A source vector is
    read as an arity-0 cochain, so (d x)(u) comes out as T rho(x)u - [x, Tu].
    """
    require_embedding_tensor(t)
    f = _as_cochain(t, f)
    d_t = twisted_differential(t, f)
    return d_t if f.arity % 2 else -d_t


# ---------------------------------------------------------------------------
# the complex and its cohomology
# ---------------------------------------------------------------------------

class TensorComplex:
    """The cochain complex of a verified tensor up to a degree bound."""

    def __init__(self, tensor: EmbeddingTensor, max_degree: int = DEFAULT_MAX_DEGREE):
        self.tensor = tensor
        self.max_degree = max_degree
        self._rows: dict[int, list[SparseRow]] = {}
        self._cocycles: dict[int, Subspace] = {}
        self._images: dict[int, Subspace] = {}
        self._rep = induced_representation(tensor)

    def cochain_dim(self, k: int) -> int:
        action = self.tensor.action
        return 0 if k <= 0 else action.source.dim * action.target.dim ** (k - 1)

    def rows(self, k: int) -> list[SparseRow]:
        """Sparse ``{column: entry}`` rows of d_k, from degree k to degree k + 1."""
        if k < 0 or k > self.max_degree:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.max_degree}")
        if k not in self._rows:
            self._rows[k] = lp_differential(self._rep, k - 1)
        return self._rows[k]

    def cocycles(self, k: int) -> Subspace:
        """The cocycles in degree k: the kernel of d_k."""
        if k not in self._cocycles:
            self._cocycles[k] = sparse_kernel(self.rows(k), self.cochain_dim(k))
        return self._cocycles[k]

    def image(self, k: int) -> Subspace:
        """The coboundaries in degree k, k >= 1: the image of d_(k-1)."""
        if k not in self._images:
            self._images[k] = sparse_image(self.rows(k - 1), self.cochain_dim(k - 1))
        return self._images[k]

    def differential(self, k: int) -> Matrix:
        """Matrix of the coboundary from degree k to degree k + 1, densified."""
        rows = self.rows(k)
        return Matrix.from_sparse_rows(len(rows), self.cochain_dim(k), map(dict.items, rows))


class CohomologyReport(Record):
    degree: int
    dim_z: int
    dim_b: int
    dim_h: int
    cocycle_basis: Subspace
    coboundary_basis: Subspace

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dimZ": self.dim_z,
            "dimB": self.dim_b,
            "dimH": self.dim_h,
            "cocycleBasis": self.cocycle_basis.to_json(),
            "coboundaryBasis": self.coboundary_basis.to_json(),
        }


def _complex_at(t: EmbeddingTensor, k: int, max_degree: int) -> TensorComplex:
    """The one complex of t for a degree-k query, kept on t's cached passing
    report; each query checks its own degree bound, so it has none."""
    if k < 1 or k > max_degree:
        raise DegreeOutOfRange(f"degree {k} outside 1..{max_degree}")
    memo = require_embedding_tensor(t).__dict__
    if "_complex" not in memo:
        memo["_complex"] = TensorComplex(t, sys.maxsize)
    return memo["_complex"]


def cohomology(t: EmbeddingTensor, k: int,
               max_degree: int = DEFAULT_MAX_DEGREE) -> CohomologyReport:
    """Cocycles, coboundaries, and their quotient dimension in degree k.

    The quotient dimension goes through the subspace containment check,
    so a broken differential surfaces loudly instead of as a wrong count.
    """
    cx = _complex_at(t, k, max_degree)
    cocycles, boundaries = cx.cocycles(k), cx.image(k)
    return CohomologyReport(
        degree=k,
        dim_z=cocycles.dim,
        dim_b=boundaries.dim,
        dim_h=quotient_dim(cocycles, boundaries),
        cocycle_basis=cocycles,
        coboundary_basis=boundaries,
    )


def class_equals(t: EmbeddingTensor, f, g, k: int,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """Whether two degree-k cocycles differ by a coboundary.

    ``NotACocycle`` names the first cochain whenever it is not a cocycle, and
    the second otherwise.  The second is tested only when f - g is not a
    coboundary: f and f - g in Z^k put g in Z^k.  Each is read once, as an
    integer row F = l_f f or G = l_g g, and l_g F - l_f G is tested in B^k.
    """
    cx = _complex_at(t, k, max_degree)

    def integer(x) -> tuple[SparseRow, int]:
        c = _cochain_map(t, x)
        if c.arity != k - 1:
            raise DimensionMismatch(f"a degree-{k} cochain has arity {k - 1}, not {c.arity} "
                                    "(a source vector has arity 0)")
        return _integral(dict(enumerate(c.coeffs)))

    (vf, lf), (vg, lg) = integer(f), integer(g)
    cocycles = cx.cocycles(k)
    if not cocycles._holds(dict(vf)):
        raise NotACocycle(f"the first cochain is not a cocycle in degree {k}")
    diff = {c: x for c in vf.keys() | vg.keys() if (x := lg * vf.get(c, 0) - lf * vg.get(c, 0))}
    if cx.image(k)._holds(diff):
        return True
    if not cocycles._holds(vg):
        raise NotACocycle(f"the second cochain is not a cocycle in degree {k}")
    return False
