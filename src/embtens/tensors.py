"""Coherent actions, embedding tensors, and the constructions they induce.

A tensor is stored as a matrix whose column ``u`` holds the coordinates
of ``T(e_u)`` in the source-algebra basis.  All checks quantify over
ordered basis pairs, including the diagonal, since none of the brackets
here are assumed antisymmetric.  Each law and table is read from its one
evaluator in ``algebras``; the tensor identity is ``_homomorphism_law``.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, product

from .algebras import (
    Algebra,
    LEIBNIZ,
    ScTable,
    _block_table,
    _bracket_law,
    _check_operators,
    _derivation_residuals,
    _homomorphism_law,
    _table_of,
    coherent_derivation_algebra,
    direct_sum,
    sc_table,
)
from .errors import DimensionMismatch, NotAnEmbeddingTensor, NotCoherentAction
from .linalg import (
    Matrix,
    ONE,
    Record,
    Subspace,
    Vector,
    ZERO,
    combination,
    combine,
    vec_sub,
)
from .reports import CheckReport, first_failure, require, scan, scan_sparse, verdict


class Action(Record):
    """A linear map from the source Lie algebra into gl(target), given per basis vector."""

    source: Algebra
    target: Algebra
    rho: tuple[Matrix, ...]

    def __post_init__(self):
        _check_operators(self.rho, self.source.dim, self.target.dim)

    def of(self, x: Vector) -> Matrix:
        """rho(x) for an arbitrary source vector."""
        return combination(self.rho, x, self.target.dim)

    def apply(self, x: Vector, u: Vector) -> Vector:
        """rho(x)u without materializing the combined matrix."""
        return combine(x, [m.apply(u) for m in self.rho], self.target.dim)


def adjoint_action(a: Algebra) -> Action:
    """The adjoint action of a Lie algebra on itself: ad(e_i) has the columns sc[i]."""
    return Action(a, a, tuple(Matrix.from_columns(row) for row in a.sc))


class EmbeddingTensor(Record):
    """A candidate embedding tensor T: target -> source over a coherent action."""

    action: Action
    matrix: Matrix

    def __post_init__(self):
        self.matrix.require_shape(self.action.source.dim, self.action.target.dim, "tensor matrix")

    def apply(self, u: Vector) -> Vector:
        return self.matrix.apply(u)

    def column(self, j: int) -> Vector:
        return self.matrix.col(j)

    def with_matrix(self, matrix: Matrix) -> "EmbeddingTensor":
        return EmbeddingTensor(self.action, matrix)


@lru_cache(maxsize=None)
def check_coherent_action(action: Action) -> CheckReport:
    """Derivation property, homomorphism property, and coherence, on basis tuples.

    Derivation and coherence are ``_derivation_residuals`` of the target at the rho_i,
    homomorphism is ``_bracket_law`` at p = q = rho; the witness is the first found."""
    g, n = action.source, action.target.dim
    ops = [op.nonzero() for op in action.rho]
    derivation, coherence = _derivation_residuals(action.target, [
        (i, c, r, x) for i, entries in enumerate(ops) for r, c, x in entries])
    return first_failure("coherent-action", scan_sparse(n, ("derivation", derivation)),
                         scan_sparse(n * n, ("homomorphism", _bracket_law(g, n, ops, ops, ops))),
                         scan_sparse(n, ("coherence", coherence)))


def require_coherent(action: Action) -> None:
    require(check_coherent_action(action), NotCoherentAction, "action ")


def _triangle_terms(t: EmbeddingTensor):
    """The terms (i, j, r, xy) of e_i > e_j = rho(Te_i)e_j, x = (Te_i)_a and y = (rho_a)_rj."""
    ops = [op.nonzero() for op in t.action.rho]
    return ((i, j, r, x * y) for a, i, x in t.matrix.nonzero() for r, j, y in ops[a])


def induced_triangle(t: EmbeddingTensor) -> ScTable:
    """The table of e_i > e_j = rho(Te_i)e_j on the target, for any candidate tensor."""
    return _table_of(t.action.target.dim, _triangle_terms(t))


def descendent_table(t: EmbeddingTensor) -> ScTable:
    """The table of [e_i, e_j]_T = e_i > e_j + [e_i, e_j] for any candidate tensor."""
    return _table_of(t.action.target.dim, chain(_triangle_terms(t), t.action.target.constants))


@lru_cache(maxsize=None)
def check_embedding_tensor(t: EmbeddingTensor) -> CheckReport:
    """The defining tensor identity [Te_u, Te_v] = T[e_u, e_v]_T on all ordered
    basis pairs: T is a homomorphism from the descendent algebra to the source,
    and the residual is ``_homomorphism_law`` of T taken with sign -1.

    The report carries every nonzero residual, and a passing one keeps the
    descendent algebra; over an incoherent action it fails with the action's
    own witness first."""
    action_report = check_coherent_action(t.action)
    if not action_report.ok:
        return verdict("embedding-tensor", action_report.failures,
                       notes=("action is not coherent",))
    g, h = t.action.source, t.action.target
    desc = Algebra(f"{h.name}_desc", h.dim, descendent_table(t), LEIBNIZ)
    found = _homomorphism_law(t.matrix, desc, g, sign=-1)
    report = verdict("embedding-tensor", scan_sparse(g.dim, ("tensor-identity", found)))
    if report.ok:
        report.__dict__["_descendent"] = desc
    return report


def require_embedding_tensor(t: EmbeddingTensor) -> CheckReport:
    """The cached passing report of t; a failing one raises ``NotAnEmbeddingTensor``."""
    report = check_embedding_tensor(t)
    require(report, NotAnEmbeddingTensor, "tensor ")
    return report


def check_tensor_homomorphism(t: EmbeddingTensor, t_prime: EmbeddingTensor,
                              phi_g: Matrix, phi_h: Matrix) -> CheckReport:
    """Whether (phi_g, phi_h) is a homomorphism from t_prime to t.

    Both tensors must live over the same action; the conditions are the
    two endomorphism laws, the intertwining T . phi_h = phi_g . T', and
    compatibility with the action.
    """
    if t.action != t_prime.action:
        raise DimensionMismatch("the two tensors must share one action")
    g, h = t.action.source, t.action.target
    phi_g.require_shape(g.dim, g.dim, "phi_g")
    phi_h.require_shape(h.dim, h.dim, "phi_h")
    return first_failure(
        "tensor-homomorphism",
        scan_sparse(g.dim, ("phi-source-endomorphism", _homomorphism_law(phi_g, g, g))),
        scan_sparse(h.dim, ("phi-target-endomorphism", _homomorphism_law(phi_h, h, h))),
        scan([()], ("intertwining", lambda: (t.matrix @ phi_h - phi_g @ t_prime.matrix).entries)),
        scan(product(range(g.dim), range(h.dim)), ("action-compatibility", lambda i, u: vec_sub(
            phi_h.apply(t.action.rho[i].col(u)), t.action.apply(phi_g.col(i), phi_h.col(u))))))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def hemisemidirect(action: Action) -> Algebra:
    """The Leibniz bracket [x+u, y+v] = [x,y] + rho(x)v + [u,v] on source + target."""
    require_coherent(action)
    g, h = action.source, action.target
    return Algebra(f"{g.name}+{h.name}", g.dim + h.dim, _block_table(g, h, action.rho), LEIBNIZ)


def graph_subalgebra_check(t: EmbeddingTensor) -> CheckReport:
    """Whether the graph of T, spanned by the lifts Te_u + e_u, is closed
    under the hemisemidirect bracket."""
    big = hemisemidirect(t.action)
    g, h = t.action.source, t.action.target
    lifts = [t.column(u) + h.basis_vector(u) for u in range(h.dim)]
    graph = Subspace.from_spanning(g.dim + h.dim, lifts)
    bad = tuple(scan(product(range(h.dim), repeat=2), ("graph-closure", lambda i, j: graph.reduce(
        big.bracket(lifts[i], lifts[j])))))
    return verdict("graph-subalgebra", bad,
                   notes=(f"graph dim {graph.dim} in {g.dim + h.dim}",) if bad else ())


def descendent(t: EmbeddingTensor) -> Algebra:
    """The Leibniz bracket [u,v]_T = rho(Tu)v + [u,v] on the target, kept on t's report."""
    return require_embedding_tensor(t).__dict__["_descendent"]


def algebra_from_matrix_subspace(name: str, sub: Subspace, n: int) -> tuple[Algebra, tuple[Matrix, ...]]:
    """An abstract Lie algebra on the echelon basis of a commutator-closed matrix subspace."""
    mats = tuple(Matrix(n, n, v) for v in sub.basis)

    def coordinates(a: Matrix, b: Matrix) -> Vector:
        coords = sub.coordinates(((a @ b) - (b @ a)).entries)
        if coords is None:
            raise DimensionMismatch(f"subspace behind {name!r} is not closed under commutators")
        return coords

    table = tuple(tuple(coordinates(a, b) for b in mats) for a in mats)
    return Algebra(name, len(mats), sc_table(table), "lie"), mats


def projection_tensor(h: Algebra) -> EmbeddingTensor:
    """The projection from coherent-derivations + h onto its first factor.

    The source is the coherent derivation algebra of ``h`` made abstract
    on its echelon basis; the big algebra is the direct sum, acted on by
    A . (B + v) = Av.
    """
    sub = coherent_derivation_algebra(h)
    g, mats = algebra_from_matrix_subspace(f"cder_{h.name}", sub, h.dim)
    big = direct_sum(g, h, f"cder_{h.name}+{h.name}", flavor="lie")
    m, n = g.dim, h.dim
    rho = tuple(Matrix(m + n, m + n, (ZERO,) * (m * (m + n)) + tuple(
        x for r in range(n) for x in (ZERO,) * m + mat.row(r))) for mat in mats)
    proj = Matrix(m, m + n, tuple(ONE if j == i else ZERO for i in range(m) for j in range(m + n)))
    return EmbeddingTensor(Action(g, big, rho), proj)
