"""Structure-constant algebras and their axiom checkers.

An algebra is a finite-dimensional bilinear product stored as a table
``sc[i][j]`` holding the coordinates of ``[e_i, e_j]``.  The flavor tag
records what the table is claimed to be; the checkers verify it.  All
checkers scan basis tuples in lexicographic order and report the first
violation, so diagnostics are reproducible.  Both derivation algebras
solve one system of sparse rows, the derivation identity on basis pairs.
"""
from __future__ import annotations

from functools import cached_property
from itertools import product

from .errors import DimensionMismatch
from .linalg import (
    Matrix,
    Record,
    Scalar,
    SparseRow,
    Subspace,
    Vector,
    ZERO,
    bilinear,
    combination,
    combine,
    sparse_kernel,
    unit_vector,
    vec_add,
    vec_sub,
    vector,
    zero_vector,
)
from .reports import CheckReport, first_failure, scan

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
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if len(self.sc) != self.dim or any(len(row) != self.dim for row in self.sc):
            raise DimensionMismatch(f"structure table of {self.name!r} is not {self.dim}x{self.dim}")
        for row in self.sc:
            for v in row:
                if len(v) != self.dim:
                    raise DimensionMismatch(
                        f"structure vector of length {len(v)} in algebra {self.name!r} of dim {self.dim}")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure table."""
        return bilinear(self.sc, x, y, self.dim)

    def left(self, i: int, v: Vector) -> Vector:
        """[e_i, v], read from row i of the table."""
        return combine(v, self.sc[i], self.dim)

    @cached_property
    def _columns(self) -> tuple[tuple[Vector, ...], ...]:
        """The columns of the table: entry k holds [e_i, e_k] for each i."""
        return tuple(zip(*self.sc))

    def right(self, v: Vector, k: int) -> Vector:
        """[v, e_k], read from column k of the table."""
        return combine(v, self._columns[k], self.dim)

    @cached_property
    def constants(self) -> tuple[tuple[int, int, int, Scalar], ...]:
        """The nonzero constants (i, j, k, [e_i, e_j]_k), in lexicographic order."""
        return tuple((i, j, k, c) for i, row in enumerate(self.sc) for j, v in enumerate(row)
                     for k, c in enumerate(v) if c)

    def leibniz_residual(self, i: int, j: int, k: int) -> Vector:
        """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]: the left Leibniz
        identity, and under antisymmetry the Jacobi identity."""
        return vec_sub(self.left(i, self.sc[j][k]),
                       vec_add(self.right(self.sc[i][j], k), self.left(j, self.sc[i][k])))

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.dim, i)

    def adjoint(self, x: Vector) -> Matrix:
        """Matrix of left multiplication u -> [x, u]."""
        return Matrix.from_columns([self.right(x, j) for j in range(self.dim)])


def table_sum(a: ScTable, b: ScTable) -> ScTable:
    """The entrywise sum of two tables of the same shape."""
    return tuple(tuple(map(vec_add, ra, rb)) for ra, rb in zip(a, b, strict=True))


def _homomorphism_residual(phi: Matrix, src: Algebra, dst: Algebra):
    """The residual (i, j) -> phi[e_i, e_j] - [phi e_i, phi e_j] of phi: src -> dst."""
    return lambda i, j: vec_sub(phi.apply(src.sc[i][j]), dst.bracket(phi.col(i), phi.col(j)))


def _bracket_residual(a: Algebra, n: int, rho: tuple[Matrix, ...], p: tuple[Matrix, ...],
                      q: tuple[Matrix, ...]):
    """The residual (i, j) -> rho([e_i, e_j]) - [p_i, q_j] of n x n operators
    on the basis of a, with [p, q] = pq - qp, as matrix entries."""
    return lambda i, j: (
        combination(rho, a.sc[i][j], n) - ((p[i] @ q[j]) - (q[j] @ p[i]))).entries


def _check_operators(ops: tuple[Matrix, ...], count: int, n: int) -> None:
    """One n x n operator for each of count basis vectors."""
    if len(ops) != count:
        raise DimensionMismatch("one operator per basis vector is required")
    if any(m.rows != n or m.cols != n for m in ops):
        raise DimensionMismatch(f"operators must be {n}x{n}")


def abelian_algebra(name: str, dim: int) -> Algebra:
    zero = zero_vector(dim)
    return Algebra(name, dim, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)), LIE)


def direct_sum(a: Algebra, b: Algebra, name: str, flavor: str = UNCHECKED) -> Algebra:
    """Direct sum with componentwise bracket and no cross terms."""
    return Algebra(name, a.dim + b.dim, _block_table(a, b), flavor)


def _block_table(a: Algebra, b: Algebra, ops: tuple[Matrix, ...] = ()) -> ScTable:
    """The table on a + b: each bracket on its own block, [x, u] = ops[x]u
    on (a, b) pairs when operators are given, and zero on (b, a) pairs."""
    za, zb = zero_vector(a.dim), zero_vector(b.dim)
    zero = za + zb

    def entry(i: int, j: int) -> Vector:
        if i < a.dim and j < a.dim:
            return a.sc[i][j] + zb
        if i >= a.dim and j >= a.dim:
            return za + b.sc[i - a.dim][j - a.dim]
        if i < a.dim and ops:
            return za + ops[i].col(j - a.dim)
        return zero

    n = a.dim + b.dim
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def check_lie(a: Algebra) -> CheckReport:
    """Antisymmetry on basis pairs plus the Jacobi identity on triples."""
    antisymmetry = ("antisymmetry", lambda i, j: vec_add(a.sc[i][j], a.sc[j][i]))
    return first_failure("lie", scan(product(range(a.dim), repeat=2), antisymmetry),
                         scan(product(range(a.dim), repeat=3), ("jacobi", a.leibniz_residual)))


def check_leibniz(a: Algebra) -> CheckReport:
    """The left Leibniz identity on all basis triples; no antisymmetry."""
    return first_failure("leibniz", scan(product(range(a.dim), repeat=3),
                                         ("leibniz", a.leibniz_residual)))


def check_two_step_nilpotent(a: Algebra) -> CheckReport:
    """[[x, y], z] = 0 on all basis triples."""
    return first_failure("two-step-nilpotent", scan(
        product(range(a.dim), repeat=3),
        ("double-bracket", lambda i, j, k: a.right(a.sc[i][j], k))))


class LeibnizRep(Record):
    """A left/right representation pair of a Leibniz algebra."""

    algebra: Algebra
    rep_dim: int
    rho_l: tuple[Matrix, ...]
    rho_r: tuple[Matrix, ...]

    def __post_init__(self):
        for ops in (self.rho_l, self.rho_r):
            _check_operators(ops, self.algebra.dim, self.rep_dim)


def check_leibniz_rep(rep: LeibnizRep) -> CheckReport:
    """The three representation axioms on all basis pairs."""
    a, n, rho_l, rho_r = rep.algebra, rep.rep_dim, rep.rho_l, rep.rho_r
    return first_failure("leibniz-rep", scan(
        product(range(a.dim), repeat=2),
        ("rho-left-bracket", _bracket_residual(a, n, rho_l, rho_l, rho_l)),
        ("rho-right-bracket", _bracket_residual(a, n, rho_r, rho_l, rho_r)),
        ("rho-right-left",
         lambda i, j: ((rho_r[j] @ rho_l[i]) + (rho_r[j] @ rho_r[i])).entries)))


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

def _derivation_rows(a: Algebra, coherent: bool = False) -> list[SparseRow]:
    """Equations D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0 on the dim^2 unknowns,
    one sparse row per coordinate k of each basis pair (i, j), at index
    (i*dim + j)*dim + k; with ``coherent``, then also the rows [De_i, e_j] = 0.

    Unknown (r, c) is entry D[r][c] at flat index r*dim + c, i.e. D maps
    e_c to sum_r D[r][c] e_r.  Built from the nonzero constants in O(nnz * dim).
    """
    n = a.dim
    rows, coherence = [{} for _ in range(n ** 3)], [{} for _ in range(n ** 3 if coherent else 0)]
    for x, y, z, s in a.constants:
        # D[e_x,e_y]_k, [De_k,e_y]_z and [e_x,De_k]_z hold s D[k][z], s D[x][k], s D[y][k]
        for k in range(n):
            for row, c, e in ((rows[(x * n + y) * n + k], k * n + z, s),
                              (rows[(k * n + y) * n + z], x * n + k, -s),
                              (rows[(x * n + k) * n + z], y * n + k, -s)):
                row[c] = row.get(c, ZERO) + e
            if coherent:
                coherence[(k * n + y) * n + z][x * n + k] = s
    return rows + coherence


def derivation_algebra(a: Algebra) -> Subspace:
    """All derivations of the bracket, as a subspace of the dim^2 matrix space."""
    return sparse_kernel(_derivation_rows(a), a.dim * a.dim)


def coherent_derivation_algebra(a: Algebra) -> Subspace:
    """Derivations D with [Du, v] = 0 for all u, v."""
    return sparse_kernel(_derivation_rows(a, coherent=True), a.dim * a.dim)
