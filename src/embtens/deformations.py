"""Linear deformations of a verified tensor and their Nijenhuis theory."""
from __future__ import annotations

from itertools import islice, product

from .algebras import Algebra
from .cohomology import tensor_coboundary
from .errors import DimensionMismatch, NotNijenhuis, RoutesDisagree
from .graded import deformation_terms, multimap_as_matrix
from .linalg import Matrix, Record, Vector, vec_add, vec_sub, vector
from .reports import CheckReport, Failure, first_failure, require, scan, verdict
from .tensors import (
    Action,
    EmbeddingTensor,
    check_embedding_tensor,
    require_embedding_tensor,
)


class DeformationDirection(Record):
    """A candidate direction along which a verified tensor is deformed."""

    base: EmbeddingTensor
    direction: Matrix

    def __post_init__(self):
        self.direction.require_shape(self.base.matrix.rows, self.base.matrix.cols, "direction")

    def at(self, t) -> EmbeddingTensor:
        """The deformed tensor T + t * direction."""
        return self.base.with_matrix(self.base.matrix + self.direction.scale(t))


class NijenhuisCandidate(Record):
    base: EmbeddingTensor
    element: Vector

    def __post_init__(self):
        if len(self.element) != self.base.action.source.dim:
            raise DimensionMismatch("the element lives in the source algebra")


def zero_direction(t: EmbeddingTensor) -> DeformationDirection:
    return DeformationDirection(t, Matrix.zero(t.matrix.rows, t.matrix.cols))


def check_linear_deformation(d: DeformationDirection) -> CheckReport:
    """Whether T + t * direction stays a tensor for every t.

    The coefficients of t and t^2 in the residual are d_T T' and
    [T',T']/2 in the controlling DGLA, scanned as two bilinear equations;
    since the full residual is quadratic in t, probing t = 1 and t = 2
    on top of the verified base is an equivalent route.  Both routes are
    computed and must agree.
    """
    require_embedding_tensor(d.base)
    linear, quadratic = deformation_terms(d.base, d.direction)
    bad = tuple(scan(product(range(d.base.action.target.dim), repeat=2),
                     ("cocycle-equation", lambda u, v: linear.value((u, v))),
                     ("tensor-equation", lambda u, v: quadratic.value((u, v)))))
    probe_ok = check_embedding_tensor(d.at(1)).ok and check_embedding_tensor(d.at(2)).ok
    if (not bad) != probe_ok:
        raise RoutesDisagree("coefficient and probe routes disagree; checker is broken")
    return verdict("linear-deformation", bad,
                   notes=(f"probe route at t in {{1, 2}}: {'pass' if probe_ok else 'fail'}",))


def _equivalence_failures(base: EmbeddingTensor, fr1: Matrix, fr2: Matrix,
                          x: Vector) -> list[Failure]:
    """The four coefficient conditions for x to witness an equivalence.

    fr1/fr2 play the roles of the target/source deformation directions
    of the twisted-pair homomorphism.
    """
    g, h = base.action.source, base.action.target
    rho_x = base.action.of(x)
    dx = tensor_coboundary(base, x)
    laws = (("difference-is-generated",
             lambda u: vec_sub(vec_sub(fr2.col(u), fr1.col(u)), dx.value((u,)))),
            ("twist-compatibility",
             lambda u: vec_sub(fr1.apply(rho_x.col(u)), g.bracket(x, fr2.col(u)))))
    return [f for law in laws for f in islice(scan(product(range(h.dim), repeat=1), law), 1)] \
        + _square_failures(base.action, x)


def _square_failures(action: Action, x: Vector) -> list[Failure]:
    """The first witness of each square condition on x, in this order:
    [[x, e_i], [x, e_j]] = 0 ("bracket-square") and
    rho([x, e_i]) rho(x) = 0 ("action-square")."""
    g = action.source
    ad_x = [g.right(x, i) for i in range(g.dim)]
    rho_x = action.of(x)
    return [*islice(scan(product(range(g.dim), repeat=2),
                         ("bracket-square", lambda i, j: g.bracket(ad_x[i], ad_x[j]))), 1),
            *islice(scan(product(range(g.dim), repeat=1),
                         ("action-square", lambda i: (action.of(ad_x[i]) @ rho_x).entries)), 1)]


def check_equivalence(d1: DeformationDirection, d2: DeformationDirection,
                      x: Vector) -> CheckReport:
    """Whether x makes the two deformations equivalent.

    The defining homomorphism pairs (Id + t ad_x, Id + t rho(x)) carry
    one deformed tensor to the other; which of the two plays the source
    is not observable from the pair itself, so both orientations are
    tried and the report notes the one that held.
    """
    if d1.base != d2.base:
        raise DimensionMismatch("directions must deform the same base tensor")
    x = vector(x)
    forward = _equivalence_failures(d1.base, d1.direction, d2.direction, x)
    if not forward:
        return verdict("equivalence", (), notes=("orientation: second to first",))
    if not _equivalence_failures(d1.base, d2.direction, d1.direction, x):
        return verdict("equivalence", (), notes=("orientation: first to second",))
    return verdict("equivalence", forward, notes=("neither orientation holds",))


def check_nijenhuis_element(c: NijenhuisCandidate) -> CheckReport:
    """The three closure conditions a trivializing element satisfies."""
    require_embedding_tensor(c.base)
    t, x = c.base, c.element
    g, h = t.action.source, t.action.target
    squares = _square_failures(t.action, x)
    if squares:
        return verdict("nijenhuis-element", squares[:1])
    dx = tensor_coboundary(t, x)
    return first_failure("nijenhuis-element", scan(
        product(range(h.dim), repeat=1),
        ("generated-direction-commutes", lambda u: g.bracket(x, dx.value((u,))))))


def trivial_deformation(c: NijenhuisCandidate) -> DeformationDirection:
    """The deformation generated by a Nijenhuis element.

    The direction is the degree-one coboundary of the element, so the
    deformation is trivial: it is equivalent to the zero direction via
    the element itself.
    """
    require(check_nijenhuis_element(c), NotNijenhuis)
    return DeformationDirection(c.base, multimap_as_matrix(tensor_coboundary(c.base, c.element)))


def conjugated_tensor(t: EmbeddingTensor, x: Vector, tval) -> EmbeddingTensor | None:
    """(Id + t ad_x)^(-1) T (Id + t rho(x)), or None when not invertible."""
    g = t.action.source
    phi_g = Matrix.identity(g.dim) + g.adjoint(vector(x)).scale(tval)
    inv = phi_g.try_inverse()
    if inv is None:
        return None
    phi_h = Matrix.identity(t.action.target.dim) + t.action.of(vector(x)).scale(tval)
    return t.with_matrix(inv @ t.matrix @ phi_h)


def check_nijenhuis_operator(a: Algebra, n: Matrix) -> CheckReport:
    """[Nu, Nv] = N([Nu, v] + [u, Nv] - N[u, v]) on all basis pairs."""
    n.require_shape(a.dim, a.dim, "operator")

    def residual(i: int, j: int) -> Vector:
        ni, nj = n.col(i), n.col(j)
        inner = vec_sub(vec_add(a.right(ni, j), a.left(i, nj)), n.apply(a.sc[i][j]))
        return vec_sub(a.bracket(ni, nj), n.apply(inner))

    return first_failure("nijenhuis-operator", scan(product(range(a.dim), repeat=2),
                                                    ("operator-identity", residual)))
