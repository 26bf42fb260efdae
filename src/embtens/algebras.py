"""Structure-constant algebras and their axiom checkers.

An algebra is a finite-dimensional bilinear product stored as a table
``sc[i][j]`` holding the coordinates of ``[e_i, e_j]``.  The flavor tag
records what the table is claimed to be; the checkers verify it.  All
checkers scan basis tuples in lexicographic order and report the first
violation, so diagnostics are reproducible.  Both derivation algebras
solve one system of sparse rows, the derivation identity on basis pairs,
and the checkers read those rows at each ad e_i (``_derivation_residuals``).
Every other law and derived table is evaluated once, from nonzero terms:
``_table_of``, ``_homomorphism_law`` and ``_bracket_law``.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, product

from .errors import DimensionMismatch, FlavorViolation
from .linalg import (
    Matrix,
    Record,
    Scalar,
    SparseRow,
    Subspace,
    Vector,
    ZERO,
    _index,
    combine,
    sparse_kernel,
    unit_vector,
    vec_add,
    vector,
    zero_vector,
)
from .reports import CheckReport, first_failure, scan_sparse

LIE = "lie"
LEIBNIZ = "leibniz"
UNCHECKED = "unchecked"

FLAVORS = (LIE, LEIBNIZ, UNCHECKED)

ScTable = tuple[tuple[Vector, ...], ...]


def sc_table(rows) -> ScTable:
    return tuple(tuple(vector(v) for v in row) for row in rows)


class Algebra(Record):
    """A bilinear algebra given by structure constants on a fixed basis."""

    name: str
    dim: int
    sc: ScTable
    flavor: str = UNCHECKED

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise FlavorViolation(f"unknown flavor {self.flavor!r}")
        if len(self.sc) != self.dim or any(len(row) != self.dim for row in self.sc):
            raise DimensionMismatch(f"structure table of {self.name!r} is not {self.dim}x{self.dim}")
        for row in self.sc:
            for v in row:
                if len(v) != self.dim:
                    raise DimensionMismatch(
                        f"structure vector of length {len(v)} in algebra {self.name!r} of dim {self.dim}")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure table: the combination, by x, of
        the rows [e_i, y], each made only when x_i is nonzero."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(f"vectors of length {len(x)} and {len(y)} in dimension {n}")
        return combine(x, [combine(y, row, n) if c else () for c, row in zip(x, self.sc)], n)

    def left(self, i: int, v: Vector) -> Vector:
        """[e_i, v], read from row i of the table."""
        return combine(v, self.sc[_index(i, self.dim)], self.dim)

    def right(self, v: Vector, k: int) -> Vector:
        """[v, e_k], the bracket with a unit vector."""
        return self.bracket(v, unit_vector(self.dim, k))

    @cached_property
    def constants(self) -> tuple[tuple[int, int, int, Scalar], ...]:
        """The nonzero constants (i, j, k, [e_i, e_j]_k), in lexicographic order."""
        return tuple((i, j, k, c) for i, row in enumerate(self.sc) for j, v in enumerate(row)
                     if any(v) for k, c in enumerate(v) if c)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def adjoint(self, x: Vector) -> Matrix:
        """Matrix of left multiplication u -> [x, u]."""
        return Matrix.from_columns([self.right(x, j) for j in range(self.dim)])


def _table_of(n: int, terms) -> ScTable:
    """The n x n table summing the terms (i, j, k, x), x at coordinate k of [e_i, e_j]."""
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, x in terms:
        table[i][j][k] += x
    return tuple(tuple(map(vector, row)) for row in table)


def _homomorphism_law(phi: Matrix, src: Algebra, dst: Algebra, sign: int = 1) -> dict:
    """sign (phi[e_i, e_j] - [phi e_i, phi e_j]) by (i, j), phi: src -> dst, from nonzero terms."""
    rows, cols = defaultdict(dict), defaultdict(dict)
    for r, c, x in phi.nonzero():
        rows[r][c] = cols[c][r] = x
    found = defaultdict(Counter)
    for i, j, k, c in src.constants:
        for r, x in cols[k].items():
            found[i, j][r] += sign * c * x
    for a, b, p, c in dst.constants:
        for i, x in rows[a].items():
            for j, y in rows[b].items():
                found[i, j][p] -= sign * c * x * y
    return found


def _operator_products(n: int, p, q):
    """Each term (i, j, r*n + c, x) of entry (r, c) of p_i q_j, the ops given by nonzero entries."""
    by_row = [defaultdict(list) for _ in q]
    for rows, entries in zip(by_row, q):
        for k, c, y in entries:
            rows[k].append((c, y))
    for (i, left), (j, rows) in product(enumerate(p), enumerate(by_row)):
        for r, k, x in left:
            for c, y in rows.get(k, ()):
                yield i, j, r * n + c, x * y


def _bracket_law(a: Algebra, n: int, rho, p, q) -> dict:
    """rho([e_i, e_j]) - p_i q_j + q_j p_i by (i, j), flat n x n entries; ops by nonzero entries."""
    found = defaultdict(Counter)
    for i, j, k, c in a.constants:
        for r, col, x in rho[k]:
            found[i, j][r * n + col] += c * x
    products = list(_operator_products(n, p, q))
    for i, j, e, x in products:
        found[i, j][e] -= x
    for j, i, e, x in products if p is q else _operator_products(n, q, p):
        found[i, j][e] += x
    return found


def _check_operators(ops: tuple[Matrix, ...], count: int, n: int) -> None:
    """One n x n operator for each of count basis vectors."""
    if len(ops) != count:
        raise DimensionMismatch("one operator per basis vector is required")
    for m in ops:
        m.require_shape(n, n, "operators")


def abelian_algebra(name: str, dim: int) -> Algebra:
    zero = zero_vector(dim)
    return Algebra(name, dim, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)), LIE)


def direct_sum(a: Algebra, b: Algebra, name: str, flavor: str = UNCHECKED) -> Algebra:
    """Direct sum with componentwise bracket and no cross terms."""
    return Algebra(name, a.dim + b.dim, _block_table(a, b), flavor)


def _block_table(a: Algebra, b: Algebra, ops: tuple[Matrix, ...] = ()) -> ScTable:
    """The table on a + b: each bracket on its own block, [x, u] = ops[x]u
    on (a, b) pairs when operators are given, and zero on (b, a) pairs."""
    m = a.dim
    return _table_of(m + b.dim, chain(
        a.constants, ((i + m, j + m, k + m, c) for i, j, k, c in b.constants),
        ((x, u + m, r + m, y) for x, op in enumerate(ops) for r, u, y in op.nonzero())))


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def check_lie(a: Algebra) -> CheckReport:
    """Antisymmetry in one pass over the constants; Jacobi, the derivation law of each ad e_i."""
    antisymmetry = defaultdict(Counter)
    for i, j, k, c in a.constants:
        antisymmetry[i, j][k] += c
        antisymmetry[j, i][k] += c
    return first_failure("lie", scan_sparse(a.dim, ("antisymmetry", antisymmetry)),
                         scan_sparse(a.dim, ("jacobi", _derivation_residuals(a)[0])))


def check_leibniz(a: Algebra) -> CheckReport:
    """The left Leibniz identity on basis triples, the derivation law of each ad e_i."""
    return first_failure("leibniz", scan_sparse(a.dim, ("leibniz", _derivation_residuals(a)[0])))


def check_two_step_nilpotent(a: Algebra) -> CheckReport:
    """[[x, y], z] = 0 on all basis triples, the coherence law of each ad e_i."""
    return first_failure("two-step-nilpotent", scan_sparse(
        a.dim, ("double-bracket", _derivation_residuals(a)[1])))


class LeibnizRep(Record):
    """A left/right representation pair of a Leibniz algebra."""

    algebra: Algebra
    rep_dim: int
    rho_l: tuple[Matrix, ...]
    rho_r: tuple[Matrix, ...]

    def __post_init__(self):
        for ops in (self.rho_l, self.rho_r):
            _check_operators(ops, self.algebra.dim, self.rep_dim)

    @cached_property
    def nonzero(self) -> tuple[list, list]:
        """The nonzero entries of each rho_l(u) and of each rho_r(u), listed once."""
        return tuple([op.nonzero() for op in ops] for ops in (self.rho_l, self.rho_r))


def check_leibniz_rep(rep: LeibnizRep) -> CheckReport:
    """The three representation axioms on all basis pairs, from sparse operator products."""
    a, n, (left, right) = rep.algebra, rep.rep_dim, rep.nonzero
    right_left = defaultdict(Counter)  # (i, j) -> rho_r(j) rho_l(i) + rho_r(j) rho_r(i)
    for j, i, e, x in (term for q in (left, right) for term in _operator_products(n, right, q)):
        right_left[i, j][e] += x
    return first_failure("leibniz-rep", scan_sparse(
        n * n, ("rho-left-bracket", _bracket_law(a, n, left, left, left)),
        ("rho-right-bracket", _bracket_law(a, n, right, left, right)),
        ("rho-right-left", right_left)))


# ---------------------------------------------------------------------------
# the ideal of squares and the quotient Lie algebra
# ---------------------------------------------------------------------------

def leibniz_kernel(a: Algebra) -> Subspace:
    """Smallest two-sided ideal containing all squares [x, x].

    Seeded by polarization (valid in characteristic zero), then closed
    under left and right bracketing with basis vectors until the
    dimension stops growing.
    """
    seeds = [a.sc[i][i] for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            seeds.append(vec_add(a.sc[i][j], a.sc[j][i]))
    space = Subspace.from_spanning(a.dim, seeds)
    while True:
        grown = list(space.basis)
        for b in space.basis:
            for k in range(a.dim):
                grown.append(a.left(k, b))
                grown.append(a.right(b, k))
        bigger = Subspace.from_spanning(a.dim, grown)
        if bigger.dim == space.dim:
            return space
        space = bigger


def _quotient_data(a: Algebra):
    ker = leibniz_kernel(a)
    complement = [c for c in range(a.dim) if c not in ker.pivots]

    def project(v: Vector) -> Vector:
        res = ker.reduce(v)
        return tuple(res[c] for c in complement)

    proj = Matrix.from_columns([project(a.basis_vector(j)) for j in range(a.dim)])
    table = tuple(tuple(project(a.sc[ci][cj]) for cj in complement) for ci in complement)
    quotient = Algebra(f"{a.name}_lie", len(complement), table, LIE)
    return ker, complement, quotient, proj


def quotient_lie(a: Algebra) -> tuple[Algebra, Matrix]:
    """Quotient by the ideal of squares, on the echelon complement basis.

    Returns the quotient algebra together with the projection matrix;
    the projection intertwines the brackets.
    """
    _, _, quotient, proj = _quotient_data(a)
    return quotient, proj


# ---------------------------------------------------------------------------
# derivation algebras
# ---------------------------------------------------------------------------

def _derivation_rows(a: Algebra, coherent: bool = False) -> dict[tuple, SparseRow]:
    """Equations D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0 on the dim^2 unknowns, keyed
    (0, i, j, k) for coordinate k of basis pair (i, j), and with ``coherent`` [De_i, e_j] = 0
    keyed (1, i, j, k): one sparse row for each key a constant reaches, in key order.

    Unknown (r, c) is entry D[r][c] at flat index r*dim + c, i.e. D maps
    e_c to sum_r D[r][c] e_r.  Built from the nonzero constants in O(nnz * dim).
    """
    n, rows = a.dim, defaultdict(dict)
    for x, y, z, s in a.constants:
        # D[e_x,e_y]_k, [De_k,e_y]_z and [e_x,De_k]_z hold s D[k][z], s D[x][k], s D[y][k]
        for k in range(n):
            for row, c, e in ((rows[0, x, y, k], k * n + z, s), (rows[0, k, y, z], x * n + k, -s),
                              (rows[0, x, k, z], y * n + k, -s)):
                row[c] = row.get(c, ZERO) + e
            if coherent:
                rows[1, k, y, z][x * n + k] = s
    return dict(sorted(rows.items()))


def _derivation_residuals(a: Algebra, ops=None) -> tuple[dict, dict]:
    """``_derivation_rows(a, coherent=True)`` at operators D_i given by nonzero entries
    (i, c, r, x), D_i e_c holding x at r (``b.constants`` give the ad e_i of b, of a by
    default): D_i[e_j,e_k] - [D_ie_j,e_k] - [e_j,D_ie_k] and [D_ie_j,e_k] by (i, j, k)."""
    n, at, laws = a.dim, defaultdict(list), (defaultdict(Counter), defaultdict(Counter))
    for i, c, r, x in a.constants if ops is None else ops:
        at[r * n + c].append((i, x))
    for (law, j, k, z), row in _derivation_rows(a, coherent=True).items():
        for c, s in row.items():
            for i, x in at.get(c, ()):
                laws[law][i, j, k][z] += s * x
    return laws


def derivation_algebra(a: Algebra) -> Subspace:
    """All derivations of the bracket, as a subspace of the dim^2 matrix space."""
    return sparse_kernel(_derivation_rows(a).values(), a.dim * a.dim)


def coherent_derivation_algebra(a: Algebra) -> Subspace:
    """Derivations D with [Du, v] = 0 for all u, v."""
    return sparse_kernel(_derivation_rows(a, coherent=True).values(), a.dim * a.dim)
