"""Cohomology of a verified embedding tensor.

The cochain spaces are 0 in degree zero, the source algebra in degree
one, and maps of (k-1) target arguments into the source in degree k.
Matrices of the coboundary are taken in the monomial bases ordered
lexicographically by (argument indices, output index), which is exactly
the flat coefficient order of ``MultiMap``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebras import LeibnizRep
from .errors import ArityCapExceeded, DegreeOutOfRange, DimensionMismatch, NotACocycle
from .graded import DEFAULT_ARITY_CAP, MultiMap, matrix_as_multimap
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
from .tensors import EmbeddingTensor, descendent_table, require_embedding_tensor

DEFAULT_MAX_DEGREE = 4


def induced_representation(t: EmbeddingTensor) -> LeibnizRep:
    """The representation of the descendent algebra on the source algebra.

    Left action by the source bracket against T-images, right action by
    [x, Tv] - T(rho(x)v).
    """
    require_embedding_tensor(t)
    from .tensors import descendent

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
    a = rep.algebra
    acc = [ZERO] * rep.rep_dim
    for i0 in range(k):
        val = f.value(idxs[:i0] + idxs[i0 + 1:])
        if not is_zero_vector(val):
            accumulate(acc, -1 if i0 % 2 else 1, rep.rho_l[idxs[i0]].apply(val))
    val = f.value(idxs[:k])
    if not is_zero_vector(val):
        accumulate(acc, -1 if (k + 1) % 2 else 1, rep.rho_r[idxs[k]].apply(val))
    for i0 in range(k + 1):
        sign = -1 if (i0 + 1) % 2 else 1
        for j0 in range(i0 + 1, k + 1):
            br = a.sc[idxs[i0]][idxs[j0]]
            if is_zero_vector(br):
                continue
            reduced = idxs[:i0] + idxs[i0 + 1:]
            accumulate(acc, sign, f.value_with_vector(reduced[:j0 - 1], br, reduced[j0:]))
    return tuple(acc)


def tensor_coboundary(t: EmbeddingTensor, f: "MultiMap | Vector",
                      arity_cap: int = DEFAULT_ARITY_CAP) -> MultiMap:
    """The coboundary operator of the tensor complex.

    Degree-one cochains are source vectors and are handled by the closed
    form (d x)(u) = T rho(x)u - [x, Tu]; higher cochains go through the
    full alternating formula.  Both agree with the general formula read
    with empty products, which the test suite pins down.
    """
    require_embedding_tensor(t)
    g, h = t.action.source, t.action.target
    if isinstance(f, MultiMap):
        if f.domain_dim != h.dim or f.codomain_dim != g.dim:
            raise DimensionMismatch("cochain shape does not match the tensor")
        k = f.arity
        if k + 1 > arity_cap:
            raise ArityCapExceeded(f"result arity {k + 1} above cap {arity_cap}")
        table = descendent_table(t)
        return MultiMap.from_function(
            k + 1, h.dim, g.dim,
            lambda idxs: _partial_entry(t, table, f.value, f.value_with_vector, k, idxs))
    x = vector(f)
    if len(x) != g.dim:
        raise DimensionMismatch("a degree-one cochain is a source vector")

    def entry(idxs: tuple[int, ...]) -> Vector:
        u = idxs[0]
        return vec_sub(t.apply(t.action.apply(x, h.basis_vector(u))),
                       g.bracket(x, t.column(u)))

    return MultiMap.from_function(1, h.dim, g.dim, entry)


def _partial_entry(t: EmbeddingTensor, table, value, value_with_vector,
                   k: int, idxs: tuple[int, ...]) -> Vector:
    """One entry of the coboundary of an arity-k cochain (k >= 0).

    ``table`` is the descendent table of ``t``.  With k = 0 every sum is
    empty except the two middle terms, which is the closed form used for
    degree-one cochains.
    """
    g, h = t.action.source, t.action.target
    acc = [ZERO] * g.dim
    for i0 in range(k):
        val = value(idxs[:i0] + idxs[i0 + 1:])
        if not is_zero_vector(val):
            accumulate(acc, -1 if i0 % 2 else 1, g.bracket(t.column(idxs[i0]), val))
    head = value(idxs[:k])
    if not is_zero_vector(head):
        accumulate(acc, -1 if (k + 1) % 2 else 1, g.bracket(head, t.column(idxs[k])))
        accumulate(acc, -1 if k % 2 else 1,
                   t.apply(t.action.apply(head, h.basis_vector(idxs[k]))))
    for i0 in range(k + 1):
        sign = -1 if (i0 + 1) % 2 else 1
        for j0 in range(i0 + 1, k + 1):
            slot = table[idxs[i0]][idxs[j0]]
            if is_zero_vector(slot):
                continue
            reduced = idxs[:i0] + idxs[i0 + 1:]
            accumulate(acc, sign, value_with_vector(reduced[:j0 - 1], slot, reduced[j0:]))
    return tuple(acc)


def tensor_coboundary_general_degree_one(t: EmbeddingTensor, x: Vector) -> MultiMap:
    """Degree-one coboundary through the general formula at k = 0.

    Kept separate so the closed form above can be tested against the
    empty-products reading of the alternating formula.
    """
    require_embedding_tensor(t)
    g, h = t.action.source, t.action.target
    x = vector(x)

    def value(idxs: tuple[int, ...]) -> Vector:
        return x

    def value_with_vector(pre, vec, post) -> Vector:
        raise AssertionError("unreachable at arity zero")

    table = descendent_table(t)
    return MultiMap.from_function(
        1, h.dim, g.dim, lambda idxs: _partial_entry(t, table, value, value_with_vector, 0, idxs))


# ---------------------------------------------------------------------------
# the complex and its cohomology
# ---------------------------------------------------------------------------

@dataclass
class TensorComplex:
    """The cochain complex of a verified tensor up to a degree bound."""

    tensor: EmbeddingTensor
    max_degree: int = DEFAULT_MAX_DEGREE
    _differentials: dict[int, Matrix] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        require_embedding_tensor(self.tensor)

    @property
    def source_dim(self) -> int:
        return self.tensor.action.source.dim

    @property
    def target_dim(self) -> int:
        return self.tensor.action.target.dim

    def cochain_dim(self, k: int) -> int:
        if k <= 0:
            return 0
        if k == 1:
            return self.source_dim
        return self.source_dim * (self.target_dim ** (k - 1))

    def differential(self, k: int) -> Matrix:
        """Matrix of the coboundary from degree k to degree k + 1."""
        if k < 1 or k > self.max_degree:
            raise DegreeOutOfRange(f"degree {k} outside 1..{self.max_degree}")
        if k not in self._differentials:
            self._differentials[k] = self._build(k)
        return self._differentials[k]

    def _build(self, k: int) -> Matrix:
        ng, nh = self.source_dim, self.target_dim
        cols = []
        if k == 1:
            for j in range(ng):
                img = tensor_coboundary(self.tensor, self.tensor.action.source.basis_vector(j),
                                        arity_cap=self.max_degree)
                cols.append(img.coeffs)
        else:
            arity = k - 1
            dim = self.cochain_dim(k)
            for c in range(dim):
                coeffs = [ZERO] * dim
                coeffs[c] = ONE
                basis_map = MultiMap(arity, nh, ng, tuple(coeffs))
                img = tensor_coboundary(self.tensor, basis_map, arity_cap=self.max_degree)
                cols.append(img.coeffs)
        return Matrix.from_columns(cols) if cols else Matrix.zero(self.cochain_dim(k + 1), 0)


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
    if k == 1:
        boundaries = Subspace.zero(cx.cochain_dim(1))
    else:
        boundaries = column_space(cx.differential(k - 1))
    return CohomologyReport(
        degree=k,
        dim_z=cocycles.dim,
        dim_b=boundaries.dim,
        dim_h=quotient_dim(cocycles, boundaries),
        cocycle_basis=cocycles,
        coboundary_basis=boundaries,
    )


def cochain_vector(t: EmbeddingTensor, f, k: int) -> Vector:
    """Flatten a degree-k cochain to monomial-basis coordinates."""
    g, h = t.action.source, t.action.target
    if k == 1:
        v = vector(f)
        if len(v) != g.dim:
            raise DimensionMismatch("a degree-one cochain is a source vector")
        return v
    if isinstance(f, Matrix):
        f = matrix_as_multimap(f)
    if not isinstance(f, MultiMap):
        raise DimensionMismatch(f"cannot read a degree-{k} cochain from {type(f).__name__}")
    if f.arity != k - 1 or f.domain_dim != h.dim or f.codomain_dim != g.dim:
        raise DimensionMismatch("cochain shape does not match the requested degree")
    return f.coeffs


def class_equals(t: EmbeddingTensor, f, g, k: int,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> bool:
    """Whether two degree-k cocycles differ by a coboundary."""
    if k < 1 or k > max_degree:
        raise DegreeOutOfRange(f"degree {k} outside 1..{max_degree}")
    cx = TensorComplex(t, max_degree)
    diff = cx.differential(k)
    vf, vg = cochain_vector(t, f, k), cochain_vector(t, g, k)
    for name, v in (("first", vf), ("second", vg)):
        if not is_zero_vector(diff.apply(v)):
            raise NotACocycle(f"the {name} cochain is not a cocycle in degree {k}")
    if k == 1:
        return vf == vg
    image = column_space(cx.differential(k - 1))
    return image.contains(vec_sub(vf, vg))
