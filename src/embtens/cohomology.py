"""Cohomology of a verified embedding tensor.

A degree-k cochain, k >= 1, is a ``MultiMap`` of arity k - 1 from target
arguments into the source (a source vector is arity 0); degree zero is 0.
Matrices of the coboundary are taken in the monomial bases ordered
lexicographically by (argument indices, output index), which is exactly
the flat coefficient order of ``MultiMap``.

The complex is the Loday-Pirashvili complex of the descendent Leibniz
algebra with coefficients in the induced representation on the source.
``induced_representation`` fills the flat entry tables of rho_l and rho_r
in one pass over the nonzero entries of T, reading the source structure
constants and the action matrices directly.  ``lp_differential``
assembles each d_k, k >= 1, in one pass over the output tuples from the
rho_l, rho_r and structure-constant blocks of that representation; d_0
is zero.  ``tensor_coboundary`` maps one cochain by the twisted
differential d_T of the controlling DGLA instead, with the sign
d f = (-1)^(p-1) d_T f at arity p, so the matrix assembly and the DGLA
are each other's test oracle.  A cochain is normalised as it enters:
``_as_cochain`` passes every coefficient through ``frac``.

``TensorComplex`` holds each d_k as sparse ``{column: entry}`` rows, which
``cohomology`` and ``class_equals`` eliminate into sparse echelon rows;
``CohomologyReport.to_json`` alone makes those dense, and nothing here calls
``TensorComplex.differential(k)``, which densifies d_k into a ``Matrix``.

Queries share one complex per verified tensor, with its induced
representation, d_k rows and coboundary images: ``_complex_at`` checks the
degree and the tensor on every call, and keeps the complex on the report
the lru-cached ``check_embedding_tensor`` returns, so
``check_embedding_tensor.cache_clear()`` frees it and a failing tensor gets
none.  Cocycles cost one elimination each (``linalg.sparse_kernel``).
"""
from __future__ import annotations

import sys
from itertools import product

from .algebras import LeibnizRep
from .errors import DegreeOutOfRange, DimensionMismatch, NotACocycle
from .graded import DEFAULT_ARITY_CAP, MultiMap, matrix_as_multimap, twisted_differential
from .linalg import (
    Matrix,
    Record,
    SparseRow,
    Subspace,
    Vector,
    ZERO,
    quotient_dim,
    sparse_image,
    sparse_kernel,
    vec_sub,
    vector,
)
from .tensors import EmbeddingTensor, descendent, require_embedding_tensor

DEFAULT_MAX_DEGREE = 4


def induced_representation(t: EmbeddingTensor) -> LeibnizRep:
    """The representation of the descendent algebra on the source algebra.

    Left action rho_l(u) = ad(Te_u) by the source bracket, right action
    rho_r(v): x -> [x, Te_v] - T(rho(x)e_v).  Both are linear in T, so one
    pass over the nonzero entries x = (Te_u)_i adds x [e_i, e_j] to column
    j of rho_l(u), x [e_j, e_i] to column j of rho_r(u), and
    -x (rho(e_j)e_u)_v to entry (i, j) of rho_r(v).
    """
    require_embedding_tensor(t)
    g, n, rho = t.action.source, t.action.target.dim, t.action.rho
    m, sc, entries = g.dim, g.sc, t.matrix.entries
    left = [[ZERO] * (m * m) for _ in range(n)]
    right = [[ZERO] * (m * m) for _ in range(n)]
    for i, u in product(range(m), range(n)):
        x = entries[i * n + u]
        if x == 0:
            continue
        lu, ru = left[u], right[u]
        for j in range(m):
            for r, c in enumerate(sc[i][j]):
                if c != 0:
                    lu[r * m + j] += x * c
            for r, c in enumerate(sc[j][i]):
                if c != 0:
                    ru[r * m + j] += x * c
            for v, y in enumerate(rho[j].row(u)):
                if y != 0:
                    right[v][i * m + j] -= x * y
    rho_l, rho_r = (tuple(Matrix(m, m, vector(e)) for e in table) for table in (left, right))
    return LeibnizRep(descendent(t), m, rho_l, rho_r)


def lp_differential(rep: LeibnizRep, arity: int) -> list[SparseRow]:
    """Sparse rows of the coboundary from arity-``arity`` cochains (arity >= 0).

    One pass over the output tuples (x_0, .., x_arity) places, for each
    term of the alternating formula, a block into the columns of the
    input tuple it reads: rho_l(x_i) for each dropped argument,
    rho_r(x_arity) for the last one, and the identity scaled by a
    structure constant for each bracketed pair.  Row i*m + r holds
    coordinate r of output tuple i as a ``{column: entry}`` dict.
    """
    n, m, sc = rep.algebra.dim, rep.rep_dim, rep.algebra.sc

    def signed(mat: Matrix) -> dict:
        block = [(r, c, e) for r in range(m) for c in range(m)
                 if (e := mat.entries[r * m + c]) != 0]
        return {1: block, -1: [(r, c, -e) for r, c, e in block]}

    left, right = [signed(x) for x in rep.rho_l], [signed(x) for x in rep.rho_r]
    col_of = {idxs: i * m for i, idxs in enumerate(product(range(n), repeat=arity))}
    out: list[SparseRow] = []

    def place(rows: list[SparseRow], col: tuple[int, ...], block) -> None:
        base = col_of[col]
        for r, c, e in block:
            row, j = rows[r], base + c
            row[j] = row[j] + e if j in row else e

    for idxs in product(range(n), repeat=arity + 1):
        rows: list[SparseRow] = [{} for _ in range(m)]
        for i0 in range(arity):
            place(rows, idxs[:i0] + idxs[i0 + 1:], left[idxs[i0]][-1 if i0 % 2 else 1])
        place(rows, idxs[:arity], right[idxs[arity]][-1 if (arity + 1) % 2 else 1])
        for i0 in range(arity + 1):
            sign = -1 if (i0 + 1) % 2 else 1
            reduced = idxs[:i0] + idxs[i0 + 1:]
            for j0 in range(i0 + 1, arity + 1):
                for p, c in enumerate(sc[idxs[i0]][idxs[j0]]):
                    if c != 0:
                        e = sign * c
                        place(rows, reduced[:j0 - 1] + (p,) + reduced[j0:],
                              [(r, r, e) for r in range(m)])
        out.extend({c: x for c, x in row.items() if x} for row in rows)
    return out


def _as_cochain(t: EmbeddingTensor, f) -> MultiMap:
    """A cochain of t as a map: a vector is arity 0, a Matrix arity 1; every
    coefficient goes through ``frac``, so whole ``Fraction``s enter as ``int``s."""
    g, h = t.action.source, t.action.target
    if isinstance(f, Matrix):
        f = matrix_as_multimap(f)
    if isinstance(f, MultiMap):
        f = MultiMap(f.arity, f.domain_dim, f.codomain_dim, vector(f.coeffs))
    else:
        v = vector(f)
        f = MultiMap(0, h.dim, len(v), v)
    if f.domain_dim != h.dim or f.codomain_dim != g.dim:
        raise DimensionMismatch("cochain shape does not match the tensor")
    return f


def tensor_coboundary(t: EmbeddingTensor, f: "MultiMap | Vector",
                      arity_cap: int = DEFAULT_ARITY_CAP) -> MultiMap:
    """The coboundary operator of the tensor complex on one cochain.

    It is the twisted differential of the controlling DGLA up to sign:
    d f = (-1)^(p-1) d_T f on a cochain of arity p.  A source vector is
    read as an arity-0 cochain, so (d x)(u) comes out as T rho(x)u - [x, Tu].
    """
    require_embedding_tensor(t)
    f = _as_cochain(t, f)
    d_t = twisted_differential(t, f, arity_cap)
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
            self._rows[k] = (lp_differential(self._rep, k - 1) if k
                             else [{} for _ in range(self.cochain_dim(1))])
        return self._rows[k]

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
    cocycles, boundaries = sparse_kernel(cx.rows(k), cx.cochain_dim(k)), cx.image(k)
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
    """Whether two degree-k cocycles differ by a coboundary."""
    cx = _complex_at(t, k, max_degree)

    def coeffs(x) -> Vector:
        c = _as_cochain(t, x)
        if c.arity != k - 1:
            raise DimensionMismatch(f"a degree-{k} cochain has arity {k - 1}, not {c.arity} "
                                    "(a source vector has arity 0)")
        return c.coeffs

    vf, vg = coeffs(f), coeffs(g)
    for name, v in (("first", vf), ("second", vg)):
        if any(sum(x * v[c] for c, x in row.items()) for row in cx.rows(k)):
            raise NotACocycle(f"the {name} cochain is not a cocycle in degree {k}")
    return cx.image(k).contains(vec_sub(vf, vg))
