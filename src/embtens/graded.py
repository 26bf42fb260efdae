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

Dense coefficient tables make the fixed arity cap ``ARITY_CAP`` a hard
guard against the n^p blow-up; ``MultiMap.from_function``, which fills
every table, is the one place that checks it.
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
    accumulate,
    combine,
    frac,
    is_zero_vector,
    vector,
    vector_to_json,
)
from .reports import CheckReport, first_failure, scan, verdict
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
        if self.arity < 0:
            raise DimensionMismatch("arity must be nonnegative")
        expected = (self.domain_dim ** self.arity) * self.codomain_dim
        if len(self.coeffs) != expected:
            raise DimensionMismatch(
                f"coefficient table needs {expected} entries, got {len(self.coeffs)}")

    @classmethod
    def from_function(cls, arity: int, domain_dim: int, codomain_dim: int, fn) -> "MultiMap":
        if arity > ARITY_CAP:
            raise ArityCapExceeded(f"result arity {arity} above cap {ARITY_CAP}")
        coeffs: list[Scalar] = []
        for idxs in product(range(domain_dim), repeat=arity):
            v = fn(idxs)
            if len(v) != codomain_dim:
                raise DimensionMismatch("value of the wrong dimension")
            coeffs.extend(v)
        return cls(arity, domain_dim, codomain_dim, tuple(coeffs))

    @classmethod
    def zero(cls, arity: int, domain_dim: int, codomain_dim: int) -> "MultiMap":
        return cls(arity, domain_dim, codomain_dim,
                   (ZERO,) * ((domain_dim ** arity) * codomain_dim))

    def value(self, idxs: tuple[int, ...]) -> Vector:
        if len(idxs) != self.arity:
            raise DimensionMismatch(f"{len(idxs)} indices for a map of arity {self.arity}")
        off = 0
        for i in idxs:
            off = off * self.domain_dim + _index(i, self.domain_dim)
        off *= self.codomain_dim
        return self.coeffs[off: off + self.codomain_dim]

    def value_with_vector(self, pre: tuple[int, ...], vec: Vector,
                          post: tuple[int, ...]) -> Vector:
        """Evaluate with one argument slot holding a vector, the rest basis."""
        out = [ZERO] * self.codomain_dim
        for m, c in enumerate(vec):
            if c != 0:
                accumulate(out, c, self.value(pre + (m,) + post))
        return tuple(out)

    def to_nested(self):
        def build(prefix: tuple[int, ...], depth: int):
            if depth == self.arity:
                return vector_to_json(self.value(prefix))
            return [build(prefix + (i,), depth + 1) for i in range(self.domain_dim)]

        return build((), 0)


def tensor_as_multimap(t: EmbeddingTensor) -> MultiMap:
    return matrix_as_multimap(t.matrix)


def matrix_as_multimap(m: Matrix) -> MultiMap:
    """A matrix seen as an arity-1 map, column u giving the value on e_u."""
    return MultiMap.from_function(1, m.cols, m.rows, lambda idxs: m.col(idxs[0]))


def multimap_as_matrix(f: MultiMap) -> Matrix:
    if f.arity != 1:
        raise DimensionMismatch("only arity-1 maps are matrices")
    return Matrix.from_columns([f.value((i,)) for i in range(f.domain_dim)])


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

def _insertions(acc: list, outer: MultiMap, block: int, inner, idxs: tuple[int, ...],
                const: int) -> None:
    """Add const times the o_k sums above, over every slot k of outer, to acc,
    with inner(block arguments, next index) in the place of Q(..)."""
    for k in range(1, outer.arity + 1):
        ksign = -const if ((k - 1) * block) % 2 else const
        for perm, s in shuffles(k - 1, block):
            shuffled = tuple(idxs[perm[t]] for t in range(k - 1 + block))
            val = inner(shuffled[k - 1:], idxs[k - 1 + block])
            if is_zero_vector(val):
                continue
            accumulate(acc, ksign * s,
                       outer.value_with_vector(shuffled[:k - 1], val, idxs[k + block:]))


def _circ(p: MultiMap, q: MultiMap) -> MultiMap:
    n = p.domain_dim
    qdeg = q.arity - 1

    def entry(idxs: tuple[int, ...]) -> Vector:
        acc = [ZERO] * n
        _insertions(acc, p, qdeg, lambda args, last: q.value(args + (last,)), idxs, 1)
        return tuple(acc)

    return MultiMap.from_function(p.arity + qdeg, n, n, entry)


def balavoine(p: MultiMap, q: MultiMap) -> MultiMap:
    """The graded bracket [P, Q] = P o Q - (-1)^{pq} Q o P on self-maps."""
    if p.domain_dim != p.codomain_dim or q.domain_dim != q.codomain_dim:
        raise DimensionMismatch("the bracket needs maps of a space into itself")
    if p.domain_dim != q.domain_dim:
        raise DimensionMismatch("the two maps live on different spaces")
    if p.arity < 1 or q.arity < 1:
        raise DimensionMismatch("the bracket needs maps of arity at least 1")
    pdeg, qdeg = p.arity - 1, q.arity - 1
    first = _circ(p, q)
    second = _circ(q, p)
    if (pdeg * qdeg) % 2:
        return first + second
    return first - second


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
    """Scan every value of f, in flat coefficient order, as the residual of
    law, through ``frac``: the sums that make a residual leave whole ``Fraction``s."""
    return scan(product(range(f.domain_dim), repeat=f.arity),
                (law, lambda *idxs: vector(f.value(idxs))))


def multimap_from_algebra(a: Algebra) -> MultiMap:
    return MultiMap.from_function(2, a.dim, a.dim, lambda ij: a.sc[ij[0]][ij[1]])


def algebra_from_multimap(omega: MultiMap, name: str, flavor: str = "unchecked") -> Algebra:
    if omega.arity != 2 or omega.domain_dim != omega.codomain_dim:
        raise DimensionMismatch("an algebra table is a square arity-2 map")
    n = omega.domain_dim
    table = tuple(tuple(omega.value((i, j)) for j in range(n)) for i in range(n))
    return Algebra(name, n, table, flavor)


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
    n = f.arity

    def entry(idxs: tuple[int, ...]) -> Vector:
        acc = [ZERO] * f.codomain_dim
        _insertions(acc, f, 1, lambda args, last: h.sc[args[0]][last], idxs, -1 if n % 2 else 1)
        return tuple(acc)

    return MultiMap.from_function(n + 1, f.domain_dim, f.codomain_dim, entry)


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
    total = m + n

    columns = [[op.col(b) for op in action.rho] for b in range(h.dim)]

    def acting(f: MultiMap):  # the action of f(block) on the next basis vector
        return lambda args, last: combine(f.value(args), columns[last], h.dim)

    def entry(idxs: tuple[int, ...]) -> Vector:
        acc = [ZERO] * g.dim
        _insertions(acc, theta, n, acting(phi), idxs, -1)
        base = -1 if (m * n + 1) % 2 else 1
        for perm, s in shuffles(m, n):
            a = theta.value(tuple(idxs[perm[t]] for t in range(m)))
            if is_zero_vector(a):
                continue
            b = phi.value(tuple(idxs[perm[t]] for t in range(m, total)))
            if is_zero_vector(b):
                continue
            accumulate(acc, base * s, g.bracket(a, b))
        _insertions(acc, phi, m, acting(theta), idxs, -1 if (m * n) % 2 else 1)
        return tuple(acc)

    return MultiMap.from_function(total, h.dim, g.dim, entry)


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
    ng, nh = action.source.dim, action.target.dim
    ntot = ng + nh

    def entry(idxs: tuple[int, ...]) -> Vector:
        if any(i < ng for i in idxs):
            return (ZERO,) * ntot
        inner = f.value(tuple(i - ng for i in idxs))
        return inner + (ZERO,) * nh

    return MultiMap.from_function(f.arity, ntot, ntot, entry)


def restrict_cochain(big: MultiMap, action: Action) -> MultiMap:
    """Restriction of a direct-sum self-map back to a map h -> g.

    The h-components on h-only arguments must vanish; anything else
    means the map does not come from the embedded subspace.
    """
    ng, nh = action.source.dim, action.target.dim

    def entry(idxs: tuple[int, ...]) -> Vector:
        v = big.value(tuple(i + ng for i in idxs))
        if not is_zero_vector(v[ng:]):
            raise DimensionMismatch("map does not restrict to a map into the source")
        return v[:ng]

    return MultiMap.from_function(big.arity, nh, ng, entry)


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
