"""Graded brackets on multilinear maps and the Maurer-Cartan checks.

Conventions, fixed once for the whole package:

* a map of arity ``p`` has degree ``p - 1``;
* shuffles are enumerated in lexicographic order of the first block and
  signed by inversion count;
* the composition bracket on maps of a space into itself is

      [P, Q] = P o Q - (-1)^{pq} Q o P,
      (P o_k Q)(x_1..x_{p+q+1}) =
          sum over (k-1, q)-shuffles s of the first k-1+q arguments of
          (-1)^{(k-1)q} sgn(s) P(x_{s(1)}, .., x_{s(k-1)},
                                 Q(x_{s(k)}, .., x_{s(k+q-1)}, x_{k+q}),
                                 x_{k+q+1}, .., x_{p+q+1});

* for maps from a Lie algebra h into a Lie algebra g acted on it, the
  derived bracket and the differential induced by the bracket of h are
  evaluated by their closed formulas below, and are cross-checked in
  the test suite against the composition-bracket route on the direct
  sum, which is where they come from.

Every table is filled by ``MultiMap._from_terms`` from a lazy stream of
terms, so a bracket costs the nonzero terms of its inputs times shuffles.
A table still holds n^p entries: ``_from_terms`` checks the fixed arity
cap ``ARITY_CAP`` against that blow-up before it reads any term.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product

from .algebras import Algebra, abelian_algebra, direct_sum
from .errors import ArityCapExceeded, DimensionMismatch
from .linalg import (
    Flat,
    Matrix,
    Record,
    Scalar,
    Vector,
    ZERO,
    _index,
    frac,
    vector,
)
from .reports import CheckReport, first_failure, scan_sparse, verdict
from .tensors import (
    Action,
    EmbeddingTensor,
    hemisemidirect,
    require_coherent,
    require_embedding_tensor,
)

ARITY_CAP = 4


# ---------------------------------------------------------------------------
# dense multilinear maps
# ---------------------------------------------------------------------------

class MultiMap(Flat):
    """A dense multilinear map, all tensor factors drawn from one space.

    ``coeffs`` is flat with index ((i_1 n + i_2) n + ...) m + j for the
    e_j-coordinate of f(e_{i_1}, .., e_{i_p}); at arity 0 the index is j
    and the map is the one vector f() of the codomain.
    """

    arity: int
    domain_dim: int
    codomain_dim: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if min(self.arity, self.domain_dim, self.codomain_dim) < 0:
            raise DimensionMismatch("arity and dimensions must be nonnegative")
        expected = (self.domain_dim ** self.arity) * self.codomain_dim
        if len(self.coeffs) != expected:
            raise DimensionMismatch(
                f"coefficient table needs {expected} entries, got {len(self.coeffs)}")

    @classmethod
    def _from_terms(cls, arity: int, n: int, m: int, terms) -> "MultiMap":
        """The map whose table sums the ``(argument indices, output index,
        entry)`` terms, each at its flat offset; the cap is checked first."""
        if arity > ARITY_CAP:
            raise ArityCapExceeded(f"result arity {arity} above cap {ARITY_CAP}")
        coeffs = [ZERO] * ((n ** arity) * m)
        for idxs, j, x in terms:
            off = 0
            for i in idxs:
                off = off * n + i
            coeffs[off * m + j] += x
        return cls(arity, n, m, tuple(coeffs))

    @classmethod
    def zero(cls, arity: int, domain_dim: int, codomain_dim: int) -> "MultiMap":
        return cls._from_terms(arity, domain_dim, codomain_dim, ())

    def value(self, idxs: tuple[int, ...]) -> Vector:
        if len(idxs) != self.arity:
            raise DimensionMismatch(f"{len(idxs)} indices for a map of arity {self.arity}")
        off = 0
        for i in idxs:
            off = off * self.domain_dim + _index(i, self.domain_dim)
        off *= self.codomain_dim
        return self.coeffs[off: off + self.codomain_dim]

    def terms(self):
        """The nonzero coefficients as (argument indices, output index, entry),
        in flat order."""
        m = self.codomain_dim
        tuples = list(product(range(self.domain_dim), repeat=self.arity))
        return ((tuples[off // m], off % m, x) for off, x in enumerate(self.coeffs) if x)


def tensor_as_multimap(t: EmbeddingTensor) -> MultiMap:
    return matrix_as_multimap(t.matrix)


def matrix_as_multimap(m: Matrix) -> MultiMap:
    """A matrix seen as an arity-1 map, column u giving the value on e_u."""
    return MultiMap._from_terms(1, m.cols, m.rows, (((c,), r, x) for r, c, x in m.nonzero()))


def multimap_as_matrix(f: MultiMap) -> Matrix:
    if f.arity != 1:
        raise DimensionMismatch("only arity-1 maps are matrices")
    m = f.codomain_dim
    return Matrix(m, f.domain_dim, vector(x for r in range(m) for x in f.coeffs[r::m]))


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def shuffles(i: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (i, k)-shuffles of {0..i+k-1} with their signs.

    A shuffle is increasing on the first i and on the last k positions;
    when i or k is 0 the only shuffle is the identity.
    """
    if i < 0 or k < 0:
        raise DimensionMismatch("shuffle block sizes must be nonnegative")
    n = i + k
    if i == 0 or k == 0:
        return ((tuple(range(n)), 1),)
    out = []
    universe = range(n)
    for first in combinations(universe, i):
        rest = tuple(x for x in universe if x not in first)
        perm = first + rest
        inversions = sum(a > b for a, b in combinations(perm, 2))
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# the composition bracket
# ---------------------------------------------------------------------------

def _grouped(entries) -> dict:
    """The entries (key, *rest) as {key: [rest, ..]}, each list in order."""
    out: dict = {}
    for key, *rest in entries:
        out.setdefault(key, []).append(rest)
    return out


def _placements(i: int, k: int):
    """The (i, k)-shuffles as (order, sign): the shuffle read backwards takes
    args to tuple(map(args.__getitem__, order)), whose entry perm[t] is args[t]."""
    return [(tuple(sorted(range(i + k), key=perm.__getitem__)), s) for perm, s in shuffles(i, k)]


def _insertions(outer: MultiMap, block: int, inner: dict, const: int):
    """The terms of const times the o_k sums above, over every slot k of outer,
    where inner[a] lists the (block arguments, next index, entry) at which the
    inserted map has coordinate a: each nonzero term of outer meets each of
    inner's at its slot, and goes to every output tuple a shuffle places."""
    slots = [(k, -const if (k * block) % 2 else const, _placements(k, block))
             for k in range(outer.arity)]
    for args, row in _grouped(outer.terms()).items():
        for k, ksign, orders in slots:
            for bargs, last, y in inner.get(args[k], ()):
                head, tail, e = args[:k] + bargs, (last,) + args[k + 1:], ksign * y
                for order, s in orders:
                    idxs, c = tuple(map(head.__getitem__, order)) + tail, s * e
                    for j, x in row:
                        yield idxs, j, c * x


def _circ(p: MultiMap, q: MultiMap, const: int):
    """The terms of const times P o Q."""
    inner = _grouped((a, args[:-1], args[-1], y) for args, a, y in q.terms())
    return _insertions(p, q.arity - 1, inner, const)


def balavoine(p: MultiMap, q: MultiMap) -> MultiMap:
    """The graded bracket [P, Q] = P o Q - (-1)^{pq} Q o P on self-maps."""
    if p.domain_dim != p.codomain_dim or q.domain_dim != q.codomain_dim:
        raise DimensionMismatch("the bracket needs maps of a space into itself")
    if p.domain_dim != q.domain_dim:
        raise DimensionMismatch("the two maps live on different spaces")
    if p.arity < 1 or q.arity < 1:
        raise DimensionMismatch("the bracket needs maps of arity at least 1")
    pdeg, qdeg, n = p.arity - 1, q.arity - 1, p.domain_dim
    return MultiMap._from_terms(p.arity + qdeg, n, n, chain(
        _circ(p, q, 1), _circ(q, p, 1 if (pdeg * qdeg) % 2 else -1)))


def mc_check_leibniz(omega: MultiMap) -> CheckReport:
    """Whether an arity-2 table squares to zero under the composition bracket.

    Zero bracket square is exactly the Leibniz identity for the product
    the table defines.
    """
    if omega.arity != 2:
        raise DimensionMismatch("a candidate product has arity 2")
    return verdict("maurer-cartan-leibniz",
                   _entries(balavoine(omega, omega), "bracket-square"))


def _entries(f: MultiMap, law: str):
    """Scan the nonzero values of f, in flat coefficient order, as the residual of law."""
    rows = _grouped(f.terms())
    return scan_sparse(f.codomain_dim, (law, {w: dict(row) for w, row in rows.items()}))


def multimap_from_algebra(a: Algebra) -> MultiMap:
    return MultiMap._from_terms(2, a.dim, a.dim, (((i, j), k, c) for i, j, k, c in a.constants))


def algebra_from_multimap(omega: MultiMap, name: str) -> Algebra:
    if omega.arity != 2 or omega.domain_dim != omega.codomain_dim:
        raise DimensionMismatch("an algebra table is a square arity-2 map")
    n, c = omega.domain_dim, omega.coeffs
    values = [c[k * n:(k + 1) * n] for k in range(n * n)]
    return Algebra(name, n, tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n)))


# ---------------------------------------------------------------------------
# the differential and the derived bracket on maps h -> g
# ---------------------------------------------------------------------------

def _check_cochain(f: MultiMap, action: Action) -> None:
    if f.domain_dim != action.target.dim or f.codomain_dim != action.source.dim:
        raise DimensionMismatch(
            f"expected a map from the {action.target.dim}-dim space into the "
            f"{action.source.dim}-dim one")


def bracket_differential(f: MultiMap, h: Algebra) -> MultiMap:
    """The degree-one differential inserting the bracket of h pairwise.

    (df)(v_1..v_{n+1}) = sum_{i<j} (-1)^{n-1+i}
                         f(v_1.. v^_i ..v_{j-1}, [v_i,v_j], v_{j+1}..),
    that is (-1)^n times the (k-1, 1)-shuffle insertions of the bracket into f.
    """
    if f.domain_dim != h.dim:
        raise DimensionMismatch("map domain and algebra dimension differ")
    inner = _grouped((c, (a,), b, y) for a, b, c, y in h.constants)
    return MultiMap._from_terms(f.arity + 1, f.domain_dim, f.codomain_dim,
                                _insertions(f, 1, inner, -1 if f.arity % 2 else 1))


def derived_bracket(theta: MultiMap, phi: MultiMap, action: Action) -> MultiMap:
    """The graded bracket on maps h -> g twisted by the action.

    Sum of three shuffle groups: the action of phi-values inserted into
    theta, the source bracket of a theta-value against a phi-value, and
    the action of theta-values inserted into phi.
    """
    _check_cochain(theta, action)
    _check_cochain(phi, action)
    g, h = action.source, action.target
    m, n = theta.arity, phi.arity
    ops = [op.nonzero() for op in action.rho]

    def acting(f: MultiMap) -> dict:  # coordinate a of rho(f(..)) e_b: sum_i f_i rho_i[a][b]
        return _grouped((a, args, b, x * y) for args, i, x in f.terms() for a, b, y in ops[i])

    def paired():  # [theta(..), phi(..)] over the (m, n)-shuffles, from nonzero terms only
        base, orders = -1 if (m * n + 1) % 2 else 1, _placements(m, n)
        constants = _grouped(g.constants)
        values = _grouped((j, args, y) for args, j, y in phi.terms())
        for targs, i, x in theta.terms():
            for j, k, c in constants.get(i, ()):
                for pargs, y in values.get(j, ()):
                    args, e = targs + pargs, base * x * y * c
                    for order, s in orders:
                        yield tuple(map(args.__getitem__, order)), k, s * e

    return MultiMap._from_terms(m + n, h.dim, g.dim, chain(
        _insertions(theta, n, acting(phi), -1), paired(),
        _insertions(phi, m, acting(theta), -1 if (m * n) % 2 else 1)))


# ---------------------------------------------------------------------------
# the direct-sum route
# ---------------------------------------------------------------------------

class GradedContext(Record):
    """The two product tables of the direct sum g + h used by the nested route.

    ``mu_g`` is the hemisemidirect bracket [x,y] + rho(x)v + [u,v] and
    ``mu_h`` is the bracket of h alone, both as arity-2 self-maps of the
    direct sum.
    """

    action: Action
    mu_g: MultiMap
    mu_h: MultiMap

    @classmethod
    def from_action(cls, action: Action) -> "GradedContext":
        g, h = action.source, action.target
        return cls(action,
                   multimap_from_algebra(hemisemidirect(action)),
                   multimap_from_algebra(direct_sum(abelian_algebra(g.name, g.dim), h,
                                                    f"{g.name}+{h.name}")))

    def check(self) -> CheckReport:
        """The three vanishing brackets that make the nested route work."""
        pairs = (("mu-g-square", self.mu_g, self.mu_g),
                 ("mu-h-square", self.mu_h, self.mu_h),
                 ("mu-g-mu-h", self.mu_g, self.mu_h))
        return first_failure("graded-context", chain.from_iterable(
            _entries(balavoine(a, b), law) for law, a, b in pairs))


def embed_cochain(f: MultiMap, action: Action) -> MultiMap:
    """Zero-extension of a map h -> g to a self-map of the direct sum."""
    _check_cochain(f, action)
    ng, ntot = action.source.dim, action.source.dim + action.target.dim
    return MultiMap._from_terms(f.arity, ntot, ntot, (
        (tuple(i + ng for i in idxs), j, x) for idxs, j, x in f.terms()))


def restrict_cochain(big: MultiMap, action: Action) -> MultiMap:
    """Restriction of a direct-sum self-map back to a map h -> g.

    The h-components on h-only arguments must vanish; anything else
    means the map does not come from the embedded subspace.
    """
    ng, nh = action.source.dim, action.target.dim
    if big.domain_dim != ng + nh or big.codomain_dim != ng + nh:
        raise DimensionMismatch(f"expected a self-map of the {ng + nh}-dim direct sum")

    def restricted():
        for idxs, j, x in big.terms():
            if min(idxs, default=ng) >= ng:
                if j >= ng:
                    raise DimensionMismatch("map does not restrict to a map into the source")
                yield tuple(i - ng for i in idxs), j, x

    return MultiMap._from_terms(big.arity, nh, ng, restricted())


def derived_bracket_nested(theta: MultiMap, phi: MultiMap, ctx: GradedContext) -> MultiMap:
    """The derived bracket computed as (-1)^{m-1} [[mu_g, theta], phi] upstairs."""
    inner = balavoine(ctx.mu_g, embed_cochain(theta, ctx.action))
    outer = balavoine(inner, embed_cochain(phi, ctx.action))
    restricted = restrict_cochain(outer, ctx.action)
    if (theta.arity - 1) % 2:
        return -restricted
    return restricted


# ---------------------------------------------------------------------------
# Maurer-Cartan checks for tensors and their deformations
# ---------------------------------------------------------------------------

def _mc_residual(t_map: MultiMap, action: Action) -> MultiMap:
    return bracket_differential(t_map, action.target) + \
        derived_bracket(t_map, t_map, action).scale(frac(1, 2))


def mc_check_tensor(t: EmbeddingTensor) -> CheckReport:
    """Whether d T + [T,T]/2 vanishes; agrees with the direct tensor check."""
    require_coherent(t.action)
    residual = _mc_residual(tensor_as_multimap(t), t.action)
    return verdict("maurer-cartan-tensor", _entries(residual, "maurer-cartan"))


def twisted_differential(t: EmbeddingTensor, f: MultiMap) -> MultiMap:
    """The differential twisted by a verified tensor: d f + [T, f]."""
    require_embedding_tensor(t)
    return bracket_differential(f, t.action.target) + \
        derived_bracket(tensor_as_multimap(t), f, t.action)


def deformation_terms(t: EmbeddingTensor, t_prime: Matrix) -> tuple[MultiMap, MultiMap]:
    """The s- and s^2-coefficients d_T T' and [T',T']/2 of the residual of T + sT'.

    The constant term is the residual of the verified tensor T, so it is zero.
    """
    tp = matrix_as_multimap(t_prime)
    return (twisted_differential(t, tp),
            derived_bracket(tp, tp, t.action).scale(frac(1, 2)))


def mc_check_deformation(t: EmbeddingTensor, t_prime: Matrix) -> CheckReport:
    """Whether d_T T' + [T',T']/2 vanishes; agrees with checking T + T'."""
    linear, quadratic = deformation_terms(t, t_prime)
    return verdict("maurer-cartan-deformation", _entries(linear + quadratic, "maurer-cartan"))
