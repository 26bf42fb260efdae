"""Leibniz-Lie structures: a Lie bracket plus a compatible product ``x > y``.

The two compatibility axioms force every left multiplication to be a
coherent derivation, which is what makes the two tensor constructions
at the bottom of this module work.
"""
from __future__ import annotations

from functools import cached_property
from itertools import islice, product

from .algebras import (
    Algebra,
    LEIBNIZ,
    LeibnizRep,
    _homomorphism_residual,
    _quotient_data,
    coherent_derivation_algebra,
    sc_table,
    table_sum,
)
from .errors import ActionIllDefined, DimensionMismatch, NotCoherentDerivation, NotLeibnizLie
from .linalg import Matrix, Record, Vector, is_zero_vector, vec_sub
from .reports import CheckReport, first_failure, require, scan, verdict
from .tensors import (
    Action,
    EmbeddingTensor,
    algebra_from_matrix_subspace,
    induced_triangle,
    require_embedding_tensor,
)

Triangle = tuple[tuple[Vector, ...], ...]


class LeibnizLie(Record):
    """A Lie algebra with an extra binary product, entry (i,j) = e_i > e_j,
    shape-checked and evaluated as the table of an unchecked ``Algebra``."""

    lie: Algebra
    triangle: Triangle

    def __post_init__(self):
        self._algebra  # building it checks the shape of the triangle

    @cached_property
    def _algebra(self) -> Algebra:
        return Algebra(f"{self.lie.name}_triangle", self.lie.dim, self.triangle)

    def product(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the triangle product."""
        return self._algebra.bracket(x, y)

    def left_multiplication(self, x: Vector) -> Matrix:
        """The operator y -> x > y."""
        return self._algebra.adjoint(x)


def make_leibniz_lie(lie: Algebra, triangle) -> LeibnizLie:
    """Coerce a raw nested-list triangle table into a structure."""
    return LeibnizLie(lie, sc_table(triangle))


def check_leibniz_lie(l: LeibnizLie) -> CheckReport:
    """Both compatibility axiom families on all basis triples."""
    h, tri = l.lie, l._algebra
    return first_failure("leibniz-lie", scan(
        product(range(h.dim), repeat=3),
        ("product-identity",
         lambda i, j, k: vec_sub(tri.leibniz_residual(i, j, k), tri.right(h.sc[i][j], k))),
        ("product-kills-brackets", lambda i, j, k: tri.left(i, h.sc[j][k])),
        ("products-are-central", lambda i, j, k: h.right(l.triangle[i][j], k))))


def require_leibniz_lie(l: LeibnizLie) -> None:
    require(check_leibniz_lie(l), NotLeibnizLie)


def _sum_algebra(l: LeibnizLie) -> Algebra:
    """The algebra with bracket x > y + [x, y], built for any triangle, unverified."""
    return Algebra(f"{l.lie.name}_sub", l.lie.dim, table_sum(l.triangle, l.lie.sc), LEIBNIZ)


def subadjacent(l: LeibnizLie) -> Algebra:
    """The Leibniz algebra with bracket x > y + [x, y]."""
    require_leibniz_lie(l)
    return _sum_algebra(l)


def subadjacent_representation(l: LeibnizLie) -> LeibnizRep:
    """The representation (left multiplications, 0) of the subadjacent algebra."""
    n = l.lie.dim
    return LeibnizRep(subadjacent(l), n, tuple(Matrix.from_columns(row) for row in l.triangle),
                      (Matrix.zero(n, n),) * n)


def induced_leibniz_lie(t: EmbeddingTensor) -> LeibnizLie:
    """The product u > v = rho(Tu)v carried by a verified tensor."""
    require_embedding_tensor(t)
    return LeibnizLie(t.action.target, induced_triangle(t))


def quotient_projection_tensor(l: LeibnizLie) -> EmbeddingTensor:
    """The projection of the subadjacent algebra onto its quotient Lie algebra.

    The quotient acts through the triangle product; that action is only
    well defined when every vector of the ideal of squares multiplies to
    zero, which is checked constructively on the kernel basis.
    """
    ker, complement, quotient, proj = _quotient_data(_sum_algebra(l))
    for w, j in product(ker.basis, range(l.lie.dim)):
        if not is_zero_vector(l._algebra.right(w, j)):
            raise ActionIllDefined(f"kernel vector {w} acts nontrivially on basis vector {j}")
    rho = tuple(Matrix.from_columns(l.triangle[c]) for c in complement)
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
    for i, row in enumerate(l.triangle):
        c = dbar.coordinates(Matrix.from_columns(row).entries)
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
    laws = (("triangle-product", _homomorphism_residual(phi, src._algebra, dst._algebra)),
            ("lie-bracket", _homomorphism_residual(phi, src.lie, dst.lie)))
    fails = [f for law in laws for f in islice(scan(product(range(src.lie.dim), repeat=2), law), 1)]
    broken = {f.law for f in fails}
    return verdict("leibniz-lie-homomorphism", fails, notes=tuple(
        f"{law} {'broken' if law in broken else 'preserved'}" for law, _ in laws))
