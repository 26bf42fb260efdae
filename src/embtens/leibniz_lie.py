"""Leibniz-Lie structures: a Lie bracket plus a compatible product ``x > y``.

The two compatibility axioms force every left multiplication to be a
coherent derivation, which is what makes the two tensor constructions
at the bottom of this module work.
"""
from __future__ import annotations

from itertools import islice, product

from .algebras import (
    Algebra,
    LEIBNIZ,
    LeibnizRep,
    _quotient_data,
    coherent_derivation_algebra,
    flatten_matrix,
)
from .errors import ActionIllDefined, DimensionMismatch, NotCoherentDerivation, NotLeibnizLie
from .linalg import Matrix, Record, Vector, bilinear, is_zero_vector, vec_add, vec_sub, vector
from .reports import CheckReport, first_failure, require, scan, verdict
from .tensors import Action, EmbeddingTensor, algebra_from_matrix_subspace, require_embedding_tensor

Triangle = tuple[tuple[Vector, ...], ...]


class LeibnizLie(Record):
    """A Lie algebra with an extra binary product, entry (i,j) = e_i > e_j."""

    lie: Algebra
    triangle: Triangle

    def __post_init__(self):
        n = self.lie.dim
        if len(self.triangle) != n or any(len(row) != n for row in self.triangle):
            raise DimensionMismatch("triangle table must be dim x dim")
        for row in self.triangle:
            for v in row:
                if len(v) != n:
                    raise DimensionMismatch("triangle entries must be coordinate vectors")

    def product(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the triangle product."""
        return bilinear(self.triangle, x, y, self.lie.dim)

    def left_multiplication(self, x: Vector) -> Matrix:
        """The operator y -> x > y."""
        n = self.lie.dim
        return Matrix.from_columns(
            [self.product(x, self.lie.basis_vector(j)) for j in range(n)])


def make_leibniz_lie(lie: Algebra, triangle) -> LeibnizLie:
    """Coerce a raw nested-list triangle table into a structure."""
    return LeibnizLie(lie, tuple(tuple(vector(v) for v in row) for row in triangle))


def check_leibniz_lie(l: LeibnizLie) -> CheckReport:
    """Both compatibility axiom families on all basis triples."""
    h = l.lie

    def identity(i: int, j: int, k: int) -> Vector:
        ei, ej, ek = (h.basis_vector(t) for t in (i, j, k))
        lhs = l.product(ei, l.product(ej, ek))
        rhs = vec_add(vec_add(l.product(l.product(ei, ej), ek), l.product(ej, l.product(ei, ek))),
                      l.product(h.sc[i][j], ek))
        return vec_sub(lhs, rhs)

    return first_failure("leibniz-lie", scan(
        product(range(h.dim), repeat=3),
        ("product-identity", identity),
        ("product-kills-brackets", lambda i, j, k: l.product(h.basis_vector(i), h.sc[j][k])),
        ("products-are-central", lambda i, j, k: h.bracket(l.triangle[i][j], h.basis_vector(k)))))


def require_leibniz_lie(l: LeibnizLie) -> None:
    require(check_leibniz_lie(l), NotLeibnizLie)


def _sum_table(l: LeibnizLie) -> tuple[tuple[Vector, ...], ...]:
    n = l.lie.dim
    return tuple(
        tuple(vec_add(l.triangle[i][j], l.lie.sc[i][j]) for j in range(n))
        for i in range(n))


def subadjacent(l: LeibnizLie, name: str | None = None) -> Algebra:
    """The Leibniz algebra with bracket x > y + [x, y]."""
    require_leibniz_lie(l)
    return Algebra(name or f"{l.lie.name}_sub", l.lie.dim, _sum_table(l), LEIBNIZ)


def subadjacent_representation(l: LeibnizLie) -> LeibnizRep:
    """The representation (left multiplications, 0) of the subadjacent algebra."""
    alg = subadjacent(l)
    n = l.lie.dim
    rho_l = tuple(l.left_multiplication(l.lie.basis_vector(i)) for i in range(n))
    rho_r = tuple(Matrix.zero(n, n) for _ in range(n))
    return LeibnizRep(alg, n, rho_l, rho_r)


def induced_leibniz_lie(t: EmbeddingTensor) -> LeibnizLie:
    """The product u > v = rho(Tu)v carried by a verified tensor."""
    require_embedding_tensor(t)
    h = t.action.target
    triangle = tuple(
        tuple(t.action.apply(t.column(i), h.basis_vector(j)) for j in range(h.dim))
        for i in range(h.dim))
    return LeibnizLie(h, triangle)


def quotient_projection_tensor(l: LeibnizLie) -> EmbeddingTensor:
    """The projection of the subadjacent algebra onto its quotient Lie algebra.

    The quotient acts through the triangle product; that action is only
    well defined when every vector of the ideal of squares multiplies to
    zero, which is checked constructively on the kernel basis.
    """
    n = l.lie.dim
    sub = Algebra(f"{l.lie.name}_sub", n, _sum_table(l), LEIBNIZ)
    ker, complement, quotient, proj = _quotient_data(sub)
    for w in ker.basis:
        for j in range(n):
            res = l.product(w, l.lie.basis_vector(j))
            if not is_zero_vector(res):
                raise ActionIllDefined(
                    f"kernel vector {w} acts nontrivially on basis vector {j}")
    rho = tuple(l.left_multiplication(l.lie.basis_vector(c)) for c in complement)
    action = Action(quotient, l.lie, rho)
    return EmbeddingTensor(action, proj)


def left_multiplication_tensor(l: LeibnizLie) -> EmbeddingTensor:
    """The map sending x to its left multiplication, as a tensor into the
    abstract coherent derivation algebra.

    Membership of every left multiplication in that algebra is checked
    constructively; failure flags an unverified input.
    """
    h = l.lie
    dbar = coherent_derivation_algebra(h)
    coords = []
    for i in range(h.dim):
        flat = flatten_matrix(l.left_multiplication(h.basis_vector(i)))
        c = dbar.coordinates(flat)
        if c is None:
            raise NotCoherentDerivation(
                f"left multiplication by basis vector {i} is not a coherent derivation")
        coords.append(c)
    g, mats = algebra_from_matrix_subspace(f"cder_{h.name}", dbar, h.dim)
    action = Action(g, h, mats)
    return EmbeddingTensor(action, Matrix.from_columns(coords))


def check_leibniz_lie_homomorphism(src: LeibnizLie, dst: LeibnizLie, phi: Matrix) -> CheckReport:
    """Whether phi preserves the triangle product and the Lie bracket.

    The two properties are reported separately: a failure lists which
    one broke, and the notes say which held.
    """
    if phi.rows != dst.lie.dim or phi.cols != src.lie.dim:
        raise DimensionMismatch("phi has the wrong shape")
    laws = (("triangle-product", lambda i, j: vec_sub(phi.apply(src.triangle[i][j]),
                                                       dst.product(phi.col(i), phi.col(j)))),
            ("lie-bracket", lambda i, j: vec_sub(phi.apply(src.lie.sc[i][j]),
                                                 dst.lie.bracket(phi.col(i), phi.col(j)))))
    fails = [f for law in laws for f in islice(scan(product(range(src.lie.dim), repeat=2), law), 1)]
    broken = {f.law for f in fails}
    return verdict("leibniz-lie-homomorphism", fails, notes=tuple(
        f"{law} {'broken' if law in broken else 'preserved'}" for law, _ in laws))
