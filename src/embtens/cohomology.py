"""Cohomology of a verified embedding tensor.

A degree-k cochain, k >= 1, is a ``MultiMap`` of arity k - 1 from target
arguments into the source (a source vector is arity 0); degree zero is 0.
Matrices of the coboundary are taken in the monomial bases ordered
lexicographically by (argument indices, output index), which is exactly
the flat coefficient order of ``MultiMap``.

The complex is the Loday-Pirashvili complex of the descendent Leibniz
algebra with coefficients in the induced representation on the source.
``lp_differential`` assembles each d_k, k >= 1, in one pass over the
output tuples from the rho_l, rho_r and structure-constant blocks of that
representation; d_0 is zero.  ``tensor_coboundary`` maps one cochain by
the same formula entry by entry (``loday_pirashvili_coboundary``), so the
two routes are each other's test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .algebras import LeibnizRep
from .errors import ArityCapExceeded, DegreeOutOfRange, DimensionMismatch, NotACocycle
from .graded import DEFAULT_ARITY_CAP, MultiMap, _bracket_insertions, matrix_as_multimap
from .linalg import (
    Matrix,
    ONE,
    Subspace,
    Vector,
    ZERO,
    accumulate,
    column_space,
    is_zero_vector,
    kernel_basis,
    quotient_dim,
    vec_sub,
    vector,
)
from .tensors import EmbeddingTensor, descendent, require_embedding_tensor

DEFAULT_MAX_DEGREE = 4


def induced_representation(t: EmbeddingTensor) -> LeibnizRep:
    """The representation of the descendent algebra on the source algebra.

    Left action by the source bracket against T-images, right action by
    [x, Tv] - T(rho(x)v).
    """
    require_embedding_tensor(t)
    g, h = t.action.source, t.action.target
    rho_l = tuple(g.adjoint(t.column(u)) for u in range(h.dim))
    rho_r = []
    for v in range(h.dim):
        tv = t.column(v)
        ev = h.basis_vector(v)
        cols = [vec_sub(g.bracket(g.basis_vector(i), tv),
                        t.apply(t.action.apply(g.basis_vector(i), ev)))
                for i in range(g.dim)]
        rho_r.append(Matrix.from_columns(cols))
    return LeibnizRep(descendent(t), g.dim, rho_l, tuple(rho_r))


def loday_pirashvili_coboundary(rep: LeibnizRep, f: MultiMap,
                                arity_cap: int = DEFAULT_ARITY_CAP) -> MultiMap:
    """The coboundary of a cochain with coefficients in a representation."""
    a = rep.algebra
    if f.domain_dim != a.dim or f.codomain_dim != rep.rep_dim:
        raise DimensionMismatch("cochain shape does not match the representation")
    k = f.arity
    if k + 1 > arity_cap:
        raise ArityCapExceeded(f"result arity {k + 1} above cap {arity_cap}")
    return MultiMap.from_function(k + 1, a.dim, rep.rep_dim,
                                  lambda idxs: _lp_entry(rep, f, k, idxs))


def _lp_entry(rep: LeibnizRep, f: MultiMap, k: int, idxs: tuple[int, ...]) -> Vector:
    acc = [ZERO] * rep.rep_dim
    for i0 in range(k):
        val = f.value(idxs[:i0] + idxs[i0 + 1:])
        if not is_zero_vector(val):
            accumulate(acc, -1 if i0 % 2 else 1, rep.rho_l[idxs[i0]].apply(val))
    val = f.value(idxs[:k])
    if not is_zero_vector(val):
        accumulate(acc, -1 if (k + 1) % 2 else 1, rep.rho_r[idxs[k]].apply(val))
    _bracket_insertions(acc, f, rep.algebra.sc, idxs, -1)
    return tuple(acc)


def lp_differential(rep: LeibnizRep, arity: int) -> Matrix:
    """Matrix of the coboundary from arity-``arity`` cochains (arity >= 0).

    One pass over the output tuples (x_0, .., x_arity) places, for each
    term of the alternating formula, a block into the column of the input
    tuple it reads: rho_l(x_i) for each dropped argument, rho_r(x_arity)
    for the last one, and the identity scaled by a structure constant for
    each bracketed pair.
    """
    n, m, sc = rep.algebra.dim, rep.rep_dim, rep.algebra.sc
    rows, cols = n ** (arity + 1) * m, n ** arity * m
    out = [ZERO] * (rows * cols)

    def nonzero(mat: Matrix) -> list:
        return [(r, c, e) for r in range(m) for c in range(m)
                if (e := mat.entries[r * m + c]) != 0]

    left, right = [nonzero(x) for x in rep.rho_l], [nonzero(x) for x in rep.rho_r]
    ident = [(r, r, ONE) for r in range(m)]
    col_of = {idxs: i * m for i, idxs in enumerate(product(range(n), repeat=arity))}

    def place(row: int, col: tuple[int, ...], sign, block: list) -> None:
        base = row + col_of[col]
        for r, c, e in block:
            out[base + r * cols + c] += sign * e

    for i, idxs in enumerate(product(range(n), repeat=arity + 1)):
        row = i * m * cols
        for i0 in range(arity):
            place(row, idxs[:i0] + idxs[i0 + 1:], -1 if i0 % 2 else 1, left[idxs[i0]])
        place(row, idxs[:arity], -1 if (arity + 1) % 2 else 1, right[idxs[arity]])
        for i0 in range(arity + 1):
            sign = -1 if (i0 + 1) % 2 else 1
            reduced = idxs[:i0] + idxs[i0 + 1:]
            for j0 in range(i0 + 1, arity + 1):
                for p, c in enumerate(sc[idxs[i0]][idxs[j0]]):
                    if c != 0:
                        place(row, reduced[:j0 - 1] + (p,) + reduced[j0:], sign * c, ident)
    return Matrix(rows, cols, tuple(out))


def _as_cochain(t: EmbeddingTensor, f) -> MultiMap:
    """A cochain of t as a map: a vector is arity 0, a Matrix arity 1."""
    g, h = t.action.source, t.action.target
    if isinstance(f, Matrix):
        f = matrix_as_multimap(f)
    elif not isinstance(f, MultiMap):
        v = vector(f)
        f = MultiMap(0, h.dim, len(v), v)
    if f.domain_dim != h.dim or f.codomain_dim != g.dim:
        raise DimensionMismatch("cochain shape does not match the tensor")
    return f


def tensor_coboundary(t: EmbeddingTensor, f: "MultiMap | Vector",
                      arity_cap: int = DEFAULT_ARITY_CAP) -> MultiMap:
    """The coboundary operator of the tensor complex, entry by entry.

    A source vector is read as an arity-0 cochain, so (d x)(u) comes out
    as T rho(x)u - [x, Tu].
    """
    return loday_pirashvili_coboundary(induced_representation(t), _as_cochain(t, f), arity_cap)


# ---------------------------------------------------------------------------
# the complex and its cohomology
# ---------------------------------------------------------------------------

@dataclass
class TensorComplex:
    """The cochain complex of a verified tensor up to a degree bound."""

    tensor: EmbeddingTensor
    max_degree: int = DEFAULT_MAX_DEGREE
    _differentials: dict[int, Matrix] = field(default_factory=dict, repr=False)
    _rep: LeibnizRep = field(init=False, repr=False)

    def __post_init__(self):
        self._rep = induced_representation(self.tensor)

    @property
    def source_dim(self) -> int:
        return self.tensor.action.source.dim

    @property
    def target_dim(self) -> int:
        return self.tensor.action.target.dim

    def cochain_dim(self, k: int) -> int:
        return 0 if k <= 0 else self.source_dim * self.target_dim ** (k - 1)

    def differential(self, k: int) -> Matrix:
        """Matrix of the coboundary from degree k to degree k + 1."""
        if k < 0 or k > self.max_degree:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.max_degree}")
        if k not in self._differentials:
            self._differentials[k] = (lp_differential(self._rep, k - 1) if k
                                      else Matrix.zero(self.cochain_dim(1), 0))
        return self._differentials[k]


@dataclass(frozen=True)
class CohomologyReport:
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


def cohomology(t: EmbeddingTensor, k: int,
               max_degree: int = DEFAULT_MAX_DEGREE) -> CohomologyReport:
    """Cocycles, coboundaries, and their quotient dimension in degree k.

    The quotient dimension goes through the subspace containment check,
    so a broken differential surfaces loudly instead of as a wrong count.
    """
    if k < 1 or k > max_degree:
        raise DegreeOutOfRange(f"degree {k} outside 1..{max_degree}")
    cx = TensorComplex(t, max_degree)
    cocycles = kernel_basis(cx.differential(k))
    boundaries = column_space(cx.differential(k - 1))
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
    if k < 1 or k > max_degree:
        raise DegreeOutOfRange(f"degree {k} outside 1..{max_degree}")
    cx = TensorComplex(t, max_degree)
    diff = cx.differential(k)

    def coeffs(x) -> Vector:
        c = _as_cochain(t, x)
        if c.arity != k - 1:
            raise DimensionMismatch(f"a degree-{k} cochain has arity {k - 1}, not {c.arity} "
                                    "(a source vector has arity 0)")
        return c.coeffs

    vf, vg = coeffs(f), coeffs(g)
    for name, v in (("first", vf), ("second", vg)):
        if not is_zero_vector(diff.apply(v)):
            raise NotACocycle(f"the {name} cochain is not a cocycle in degree {k}")
    image = column_space(cx.differential(k - 1))
    return image.contains(vec_sub(vf, vg))
