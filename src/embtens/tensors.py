"""Coherent actions, embedding tensors, and the constructions they induce.

A tensor is stored as a matrix whose column ``u`` holds the coordinates
of ``T(e_u)`` in the source-algebra basis.  All checks quantify over
ordered basis pairs, including the diagonal, since none of the brackets
here are assumed antisymmetric.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import product

from .algebras import (
    Algebra,
    LEIBNIZ,
    ScTable,
    _block_table,
    _check_operators,
    _derivation_rows,
    _homomorphism_residual,
    coherent_derivation_algebra,
    direct_sum,
    sc_table,
    table_sum,
)
from .errors import DimensionMismatch, NotAnEmbeddingTensor, NotCoherentAction
from .linalg import (
    Matrix,
    ONE,
    Record,
    Subspace,
    Vector,
    ZERO,
    _sparse_rows,
    combination,
    combine,
    vec_sub,
    vector,
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
        if self.matrix.rows != self.action.source.dim or self.matrix.cols != self.action.target.dim:
            raise DimensionMismatch(
                f"tensor matrix must be {self.action.source.dim}x{self.action.target.dim}")

    def apply(self, u: Vector) -> Vector:
        return self.matrix.apply(u)

    def column(self, j: int) -> Vector:
        return self.matrix.col(j)

    def with_matrix(self, matrix: Matrix) -> "EmbeddingTensor":
        return EmbeddingTensor(self.action, matrix)


@lru_cache(maxsize=None)
def check_coherent_action(action: Action) -> CheckReport:
    """Derivation property, homomorphism property, and coherence, on basis tuples.

    Derivation and coherence are the rows of ``_derivation_rows(h, coherent=True)``
    at each flat rho_i, homomorphism comes from sparse operator products, and the
    witness is the first of a scan over the tuples found nonzero."""
    g, n = action.source, action.target.dim
    ops, by_row = [op.nonzero() for op in action.rho], [_sparse_rows(op) for op in action.rho]
    readers = defaultdict(list)  # unknown r*n + c -> [(row, coefficient)]
    for r, row in enumerate(_derivation_rows(action.target, coherent=True)):
        for c, s in row.items():
            readers[c].append((r, s))
    laws = (defaultdict(Counter), defaultdict(Counter))  # derivation, coherence
    for i, entries in enumerate(ops):
        for r, c, x in entries:
            for row, s in readers[r * n + c]:
                q, k = divmod(row, n)
                laws[q // n ** 2][(i, *divmod(q % n ** 2, n))][k] += s * x
    homomorphism = defaultdict(Counter)  # (i, j) -> rho([e_i, e_j]) - rho_i rho_j + rho_j rho_i
    for i, j, p, c in g.constants:
        for r, k, x in ops[p]:
            homomorphism[i, j][r * n + k] += c * x
    for (i, entries), (j, rows) in product(enumerate(ops), enumerate(by_row)):
        for r, k, x in entries:
            for col, y in rows[k].items():
                homomorphism[i, j][r * n + col] -= x * y
                homomorphism[j, i][r * n + col] += x * y
    return first_failure("coherent-action", scan_sparse("derivation", laws[0], n),
                         scan_sparse("homomorphism", homomorphism, n * n),
                         scan_sparse("coherence", laws[1], n))


def require_coherent(action: Action) -> None:
    require(check_coherent_action(action), NotCoherentAction, "action ")


def induced_triangle(t: EmbeddingTensor) -> ScTable:
    """The table of e_i > e_j = rho(Te_i)e_j on the target, from nonzero entries
    only: each x = (Te_i)_a adds x (rho_a)_rj to coordinate r of e_i > e_j.
    Built for any candidate tensor, unverified."""
    n = t.action.target.dim
    ops = [op.nonzero() for op in t.action.rho]
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a, i, x in t.matrix.nonzero():
        for r, j, y in ops[a]:
            table[i][j][r] += x * y
    return tuple(tuple(map(vector, row)) for row in table)


def descendent_table(t: EmbeddingTensor) -> ScTable:
    """The table of [e_i, e_j]_T = e_i > e_j + [e_i, e_j] on the target,
    for any candidate tensor."""
    return table_sum(induced_triangle(t), t.action.target.sc)


@lru_cache(maxsize=None)
def check_embedding_tensor(t: EmbeddingTensor) -> CheckReport:
    """The defining tensor identity [Te_u, Te_v] = T[e_u, e_v]_T on all ordered
    basis pairs, from the nonzero entries of T and of the structure constants.

    The report carries every nonzero residual, and a passing one keeps the
    descendent algebra; over an incoherent action it fails with the action's
    own witness first."""
    action_report = check_coherent_action(t.action)
    if not action_report.ok:
        return verdict("embedding-tensor", action_report.failures,
                       notes=("action is not coherent",))
    g, h = t.action.source, t.action.target
    desc = Algebra(f"{h.name}_desc", h.dim, descendent_table(t), LEIBNIZ)
    rows, found = _sparse_rows(t.matrix), defaultdict(Counter)
    cols = [{a: x for a, x in enumerate(t.column(u)) if x} for u in range(h.dim)]
    for a, b, p, c in g.constants:
        for u, x in rows[a].items():
            for v, y in rows[b].items():
                found[u, v][p] += c * x * y
    for u, v, q, c in desc.constants:
        for a, x in cols[q].items():
            found[u, v][a] -= c * x
    report = verdict("embedding-tensor", scan_sparse("tensor-identity", found, g.dim))
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
    if phi_g.rows != g.dim or phi_g.cols != g.dim:
        raise DimensionMismatch("phi_g has the wrong shape")
    if phi_h.rows != h.dim or phi_h.cols != h.dim:
        raise DimensionMismatch("phi_h has the wrong shape")
    return first_failure(
        "tensor-homomorphism",
        scan(product(range(g.dim), repeat=2),
             ("phi-source-endomorphism", _homomorphism_residual(phi_g, g, g))),
        scan(product(range(h.dim), repeat=2),
             ("phi-target-endomorphism", _homomorphism_residual(phi_h, h, h))),
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
    return Algebra(f"{g.name}+{h.name}", g.dim + h.dim,
                   _block_table(g, h, action.rho), LEIBNIZ)


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
    table = []
    for a in range(len(mats)):
        row = []
        for b in range(len(mats)):
            comm = (mats[a] @ mats[b]) - (mats[b] @ mats[a])
            coords = sub.coordinates(comm.entries)
            if coords is None:
                raise DimensionMismatch(
                    f"subspace behind {name!r} is not closed under commutators")
            row.append(coords)
        table.append(tuple(row))
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
