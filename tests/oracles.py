"""Independent oracles the test suite uses to cross-check the package.

Everything here deliberately avoids the package's own linear algebra:
ranks come from fraction-free integer elimination, echelon forms from
dense column-by-column Gauss-Jordan elimination, ideal closures from
a plain Gaussian span, shuffles from filtering full permutation groups,
bilinear maps and the Leibniz residual from plain triple sums over a
structure table, the Heisenberg tensor family from its closed
polynomial system, the Loday-Pirashvili coboundary and the two
coefficient equations of a linear deformation entry by entry from
matrix entries and structure constants, the induced representation of
a tensor, the residuals of a coherent action, of the tensor identity, of
a homomorphism of algebras and of the bracket law of operators, the
table sum and the block table on a direct sum entry by entry, the linear
system of the derivations from brackets of unit vectors, and the graded
brackets, the differential and the direct-sum embedding and restriction
output tuple by output tuple, each tuple walking all its shuffles.
Nothing here imports the package.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm


def bareiss_rank(rows) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        cleared = [int(x * mult) for x in row]
        if any(cleared):
            m.append(cleared)
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        sel = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def dense_rref(rows, ncols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form by dense Gauss-Jordan elimination.

    Columns are taken left to right and each pivot is the first row at or
    below the current one with a nonzero entry there.  Returns every row,
    the zero rows last, and the pivot columns.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        if pr == len(work):
            break
        sel = next((r for r in range(pr, len(work)) if work[r][pc] != 0), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        inv = 1 / work[pr][pc]
        work[pr] = [inv * x for x in work[pr]]
        for r in range(len(work)):
            if r != pr and work[r][pc] != 0:
                c = work[r][pc]
                work[r] = [a - c * b for a, b in zip(work[r], work[pr])]
        pivots.append(pc)
        pr += 1
    return work, tuple(pivots)


def _span_insert(basis: list[list[Fraction]], vec) -> bool:
    """Insert into a forward-eliminated span; True if the span grew."""
    v = [Fraction(x) for x in vec]
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x != 0)
        if v[piv] != 0:
            c = v[piv] / row[piv]
            v = [a - c * b for a, b in zip(v, row)]
    if any(x != 0 for x in v):
        basis.append(v)
        basis.sort(key=lambda row: next(i for i, x in enumerate(row) if x != 0))
        return True
    return False


def close_ideal(bracket, dim: int, seeds) -> list[list[Fraction]]:
    """Two-sided ideal closure of the seed span under a bilinear bracket.

    ``bracket(x, y)`` takes and returns coordinate sequences.  Returns a
    spanning list (its length is the dimension).
    """
    basis: list[list[Fraction]] = []
    for s in seeds:
        _span_insert(basis, s)
    changed = True
    while changed:
        changed = False
        units = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        for row in list(basis):
            for e in units:
                if _span_insert(basis, bracket(e, row)):
                    changed = True
                if _span_insert(basis, bracket(row, e)):
                    changed = True
    return basis


def bilinear_oracle(table, x, y) -> tuple:
    """sum over i, j, k of x_i y_j table[i][j][k] e_k, as a plain triple sum."""
    out_dim = len(table[0][0]) if table and table[0] else 0
    out = [Fraction(0)] * out_dim
    for i in range(len(x)):
        for j in range(len(y)):
            c = Fraction(x[i]) * Fraction(y[j])
            if c:  # a zero coefficient adds nothing
                for k in range(out_dim):
                    out[k] += c * Fraction(table[i][j][k])
    return tuple(out)


def leibniz_residual_oracle(table, i: int, j: int, k: int) -> tuple:
    """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]] on a structure table,
    each bracket a plain triple sum: the left Leibniz identity, and under
    antisymmetry the Jacobi identity."""
    def br(x, y):
        return bilinear_oracle(table, x, y)

    units = _units(len(table))
    ei, ej, ek = units[i], units[j], units[k]
    return _sub(_sub(br(ei, br(ej, ek)), br(br(ei, ej), ek)), br(ej, br(ei, ek)))


def shuffles_by_filter(i: int, k: int):
    """All (i, k)-shuffles found by filtering the full permutation group."""
    n = i + k
    if i == 0 or k == 0:
        return [(tuple(range(n)), 1)]
    out = []
    for perm in permutations(range(n)):
        if all(perm[a] < perm[a + 1] for a in range(i - 1)) and \
                all(perm[a] < perm[a + 1] for a in range(i, n - 1)):
            inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
            out.append((perm, -1 if inv % 2 else 1))
    return out


def _value(f, idxs) -> tuple:
    """f(e_{i_1}, .., e_{i_p}) read from a multilinear map's flat table."""
    off = 0
    for i in idxs:
        off = off * f.domain_dim + i
    return f.coeffs[off * f.codomain_dim:(off + 1) * f.codomain_dim]


def _value_with_vector(f, pre, vec, post) -> list:
    """f with one argument slot holding a vector, the rest basis vectors."""
    out = [0] * f.codomain_dim
    for c, x in enumerate(vec):
        if x:
            for r, y in enumerate(_value(f, pre + (c,) + post)):
                out[r] += x * y
    return out


def _insertions(acc, outer, block, inner, idxs, const) -> None:
    """Add to acc, at one output tuple, const times the insertions of a map
    into every slot k of outer, inner(block arguments, next index) standing
    for the inserted map's value:

        sum over (k-1, block)-shuffles s of (-1)^{(k-1) block} sgn(s)
            outer(x_{s(1)}.., inner(x_{s(k)}.., x_{k+block}), x_{k+block+1}..)."""
    for k in range(1, outer.arity + 1):
        ksign = -const if ((k - 1) * block) % 2 else const
        for perm, s in shuffles_by_filter(k - 1, block):
            shuffled = tuple(idxs[perm[t]] for t in range(k - 1 + block))
            val = inner(shuffled[k - 1:], idxs[k - 1 + block])
            for r, y in enumerate(_value_with_vector(outer, shuffled[:k - 1], val,
                                                     idxs[k + block:])):
                acc[r] += ksign * s * y


def _table(f, arity: int, n: int, m: int, entry):
    """A map of f's own class filled tuple by tuple from entry(tuple)."""
    coeffs = []
    for idxs in product(range(n), repeat=arity):
        coeffs.extend(entry(idxs))
    return type(f)(arity, n, m, tuple(coeffs))


def dense_balavoine(p, q):
    """The composition bracket [P, Q] = P o Q - (-1)^{pq} Q o P of two
    self-maps, output tuple by output tuple."""
    n, sign = p.domain_dim, 1 if ((p.arity - 1) * (q.arity - 1)) % 2 else -1

    def circ(a, b, idxs) -> list:
        acc = [0] * n
        _insertions(acc, a, b.arity - 1, lambda args, last: _value(b, args + (last,)), idxs, 1)
        return acc

    return _table(p, p.arity + q.arity - 1, n, n, lambda idxs: [
        x + sign * y for x, y in zip(circ(p, q, idxs), circ(q, p, idxs))])


def dense_bracket_differential(f, h):
    """(-1)^p times the insertions of the bracket of h into a map f of arity p."""
    def entry(idxs) -> list:
        acc = [0] * f.codomain_dim
        _insertions(acc, f, 1, lambda args, last: h.sc[args[0]][last], idxs,
                    -1 if f.arity % 2 else 1)
        return acc

    return _table(f, f.arity + 1, f.domain_dim, f.codomain_dim, entry)


def dense_derived_bracket(theta, phi, action):
    """The derived bracket of two maps h -> g, tuple by tuple: the action of
    phi-values inserted into theta, the bracket of g on theta- and
    phi-values over the (m, n)-shuffles, and the action of theta-values
    inserted into phi."""
    g, h, rho = action.source, action.target, action.rho
    m, n = theta.arity, phi.arity

    columns = [[_mat_col(op, b) for op in rho] for b in range(h.dim)]

    def acting(f):  # rho(f(args)) e_last
        return lambda args, last: [sum((x * col[r] for x, col in
                                        zip(_value(f, args), columns[last])), Fraction(0))
                                   for r in range(h.dim)]

    def entry(idxs) -> list:
        acc = [0] * g.dim
        _insertions(acc, theta, n, acting(phi), idxs, -1)
        for perm, s in shuffles_by_filter(m, n):
            a = _value(theta, tuple(idxs[perm[t]] for t in range(m)))
            b = _value(phi, tuple(idxs[perm[t]] for t in range(m, m + n)))
            for r, y in enumerate(bilinear_oracle(g.sc, a, b)):
                acc[r] += (-1 if (m * n + 1) % 2 else 1) * s * y
        _insertions(acc, phi, m, acting(theta), idxs, -1 if (m * n) % 2 else 1)
        return acc

    return _table(theta, m + n, h.dim, g.dim, entry)


def dense_embed_cochain(f, ng: int):
    """The zero-extension of a map h -> g to the direct sum g + h, on which
    the first ng basis vectors span g."""
    ntot = ng + f.domain_dim

    def entry(idxs) -> list:
        if any(i < ng for i in idxs):
            return [0] * ntot
        return list(_value(f, tuple(i - ng for i in idxs))) + [0] * f.domain_dim

    return _table(f, f.arity, ntot, ntot, entry)


def dense_restrict_cochain(big, ng: int):
    """The restriction of a self-map of g + h to a map h -> g, or None when
    some h-only tuple has a nonzero h-component."""
    def entry(idxs) -> tuple:
        v = _value(big, tuple(i + ng for i in idxs))
        if any(v[ng:]):
            raise ValueError(idxs)
        return v[:ng]

    try:
        return _table(big, big.arity, big.domain_dim - ng, ng, entry)
    except ValueError:
        return None


def heisenberg_net_system(rows) -> bool:
    """The closed polynomial system cutting out the tensor family on the
    3-dim two-step nilpotent algebra under its adjoint action."""
    r = [[Fraction(x) for x in row] for row in rows]
    r11, r12, r13 = r[0]
    r21, r22, r23 = r[1]
    r31, r32, r33 = r[2]
    eqs = [
        r13 * r21, r21 * r23, r21 * r33,
        r12 * r13, r12 * r23, r12 * r33,
        (r11 + 1) * r13, (r11 + 1) * r23,
        r11 * r22 - r12 * r21 - (r11 + 1) * r33,
        (r22 + 1) * r13, (r22 + 1) * r23,
        r12 * r21 - r11 * r22 + (r22 + 1) * r33,
        r11 * r23 - r13 * r21,
        r13 * r23, r23 * r23,
        r13 * r21 - r11 * r23 + r23 * r33,
        r12 * r23 - r13 * r22,
        r13 * r13,
        r13 * r22 - r12 * r23 - r13 * r33,
    ]
    return all(e == 0 for e in eqs)


def _mat_vec(mat, x) -> list[Fraction]:
    """mat x from the row-major entries of a package matrix, as a plain sum
    over the nonzero coordinates of x."""
    support = [c for c in range(mat.cols) if x[c]]
    if not support:
        return [0] * mat.rows
    return [sum((Fraction(mat.entries[r * mat.cols + c]) * x[c] for c in support), 0)
            for r in range(mat.rows)]


def _mat_col(mat, j: int) -> list[Fraction]:
    return [Fraction(mat.entries[r * mat.cols + j]) for r in range(mat.rows)]


def loday_pirashvili_coboundary(rep, f):
    """The coboundary of a cochain f with coefficients in a Leibniz
    representation, entry by entry:

        (df)(x_0..x_k) = sum_{i<k} (-1)^i rho_l(x_i) f(x_0.. x^_i ..x_k)
                         + (-1)^(k+1) rho_r(x_k) f(x_0..x_{k-1})
                         - sum_{i<j} (-1)^i f(x_0.. x^_i ..x_{j-1}, [x_i,x_j], x_{j+1}..x_k)

    for f of arity k.  The result is a map of f's own class.
    """
    n, m, k = rep.algebra.dim, rep.rep_dim, f.arity
    coeffs = []
    for idxs in product(range(n), repeat=k + 1):
        coeffs.extend(_lp_entry(rep, f, idxs))
    return type(f)(k + 1, n, m, tuple(coeffs))


def _lp_entry(rep, f, idxs: tuple[int, ...]) -> list[Fraction]:
    n, m, k, sc = rep.algebra.dim, rep.rep_dim, f.arity, rep.algebra.sc

    def value(args):
        off = 0
        for i in args:
            off = off * n + i
        return f.coeffs[off * m:(off + 1) * m]

    acc = [0] * m
    for i in range(k):
        for r, c in enumerate(_mat_vec(rep.rho_l[idxs[i]], value(idxs[:i] + idxs[i + 1:]))):
            acc[r] += (-1) ** i * c
    for r, c in enumerate(_mat_vec(rep.rho_r[idxs[k]], value(idxs[:k]))):
        acc[r] += (-1) ** (k + 1) * c
    for i in range(k + 1):
        reduced = idxs[:i] + idxs[i + 1:]
        for j in range(i + 1, k + 1):
            for p, c in enumerate(sc[idxs[i]][idxs[j]]):
                for r, x in enumerate(value(reduced[:j - 1] + (p,) + reduced[j:])):
                    if c and x:  # a zero factor adds nothing
                        acc[r] -= (-1) ** i * Fraction(c) * x
    return acc


def linear_deformation_equations(t, direction) -> tuple[dict, dict]:
    """The coefficients of s and s^2 in the tensor identity of T + s T' on
    each ordered basis pair (u, v) of the target:

        [Tu, T'v] + [T'u, Tv] - T(rho(T'u)v) - T'(rho(Tu)v + [u, v]),
        [T'u, T'v] - T'(rho(T'u)v),

    as two dicts keyed by (u, v).
    """
    g, h, rho = t.action.source, t.action.target, t.action.rho

    def act(x, v):  # rho(x) e_v
        cols = [_mat_col(op, v) for op in rho]
        return [sum((x[i] * cols[i][r] for i in range(g.dim)), Fraction(0)) for r in range(h.dim)]

    def sub(a, b):
        return tuple(p - q for p, q in zip(a, b))

    def add(a, b):
        return [p + q for p, q in zip(a, b)]

    linear, quadratic = {}, {}
    for u, v in product(range(h.dim), repeat=2):
        tu, tv = _mat_col(t.matrix, u), _mat_col(t.matrix, v)
        fu, fv = _mat_col(direction, u), _mat_col(direction, v)
        linear[u, v] = sub(
            add(bilinear_oracle(g.sc, tu, fv), bilinear_oracle(g.sc, fu, tv)),
            add(_mat_vec(t.matrix, act(fu, v)), _mat_vec(direction, add(act(tu, v), h.sc[u][v]))))
        quadratic[u, v] = sub(bilinear_oracle(g.sc, fu, fv), _mat_vec(direction, act(fu, v)))
    return linear, quadratic


def _units(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _sub(a, b) -> tuple:
    return tuple(p - q for p, q in zip(a, b))


def induced_representation_by_brackets(t) -> tuple[list[tuple], list[tuple]]:
    """The induced representation of a tensor on its source, column by
    column from brackets of unit vectors:

        rho_l(u) x = [Te_u, x],    rho_r(v) x = [x, Te_v] - T(rho(x)e_v),

    as the row-major entries of each rho_l(u) and of each rho_r(v).
    """
    g, h, rho, tm = t.action.source, t.action.target, t.action.rho, t.matrix
    units, targets = _units(g.dim), _units(h.dim)

    def entries(cols) -> tuple:
        return tuple(cols[c][r] for r in range(g.dim) for c in range(g.dim))

    rho_l, rho_r = [], []
    for u in range(h.dim):
        tu = _mat_col(tm, u)
        rho_l.append(entries([bilinear_oracle(g.sc, tu, e) for e in units]))
        rho_r.append(entries([_sub(bilinear_oracle(g.sc, units[i], tu),
                                   _mat_vec(tm, _mat_vec(rho[i], targets[u])))
                              for i in range(g.dim)]))
    return rho_l, rho_r


def derivation_system(a, coherent: bool) -> list[list[Fraction]]:
    """The linear system cut out by the derivations of an algebra (with
    ``coherent``, by its coherent derivations) on the n^2 entries of D,
    entry D[r][c] at column r*n + c.  Column r*n + c lists, over the basis
    pairs (i, j) and then the coordinates k, the k-th coordinate of

        D[e_i, e_j] - [De_i, e_j] - [e_i, De_j]   (and then of [De_i, e_j])

    at the unit operator D = E_rc, which maps e_c to e_r, from brackets of
    unit vectors.
    """
    n, pairs = a.dim, list(product(_units(a.dim), repeat=2))

    def bracket(x, y):
        return bilinear_oracle(a.sc, x, y)

    columns = []
    for r, c in product(range(n), repeat=2):
        def unit_op(x):  # E_rc x = x_c e_r
            return [x[c] if s == r else Fraction(0) for s in range(n)]

        column = [v for x, y in pairs for v in _sub(_sub(
            unit_op(bracket(x, y)), bracket(unit_op(x), y)), bracket(x, unit_op(y)))]
        if coherent:
            column += [v for x, y in pairs for v in bracket(unit_op(x), y)]
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def coherent_action_residuals(action) -> list[tuple]:
    """Every nonzero residual of the three coherent-action laws, as
    (law, where, residual) in scan order: on each triple (i, a, b)

        rho_i [e_a, e_b] - [rho_i e_a, e_b] - [e_a, rho_i e_b]  (derivation),

    on each pair (i, j) the entries of rho([e_i, e_j]) - [rho_i, rho_j]
    (homomorphism, ``bracket_residual``), and on each triple [rho_i e_a, e_b]
    (coherence), from brackets of unit vectors and plain matrix products.
    """
    g, h, rho = action.source, action.target, action.rho
    units, n = _units(h.dim), h.dim
    triples = list(product(range(g.dim), range(n), range(n)))

    def left(i, a, b):
        return bilinear_oracle(h.sc, _mat_col(rho[i], a), units[b])

    def derivation(i, a, b):
        right = bilinear_oracle(h.sc, units[a], _mat_col(rho[i], b))
        return _sub(_sub(_mat_vec(rho[i], h.sc[a][b]), left(i, a, b)), right)

    def homomorphism(i, j):
        return bracket_residual(g.sc, rho, rho, rho, i, j)

    found = [("derivation", w, derivation(*w)) for w in triples]
    found += [("homomorphism", w, homomorphism(*w)) for w in product(range(g.dim), repeat=2)]
    found += [("coherence", w, left(*w)) for w in triples]
    return [(law, w, res) for law, w, res in found if any(res)]


def tensor_identity_residuals(t) -> list[tuple]:
    """Every nonzero residual of the tensor identity, as (law, where,
    residual) in scan order: on each ordered pair (u, v) of the target

        [Te_u, Te_v] - T(rho(Te_u)e_v + [e_u, e_v]),

    from brackets of unit vectors and plain matrix-vector products.
    """
    g, h, rho, tm = t.action.source, t.action.target, t.action.rho, t.matrix
    found = []
    for u, v in product(range(h.dim), repeat=2):
        tu, tv = _mat_col(tm, u), _mat_col(tm, v)
        acted = [sum((tu[i] * _mat_col(rho[i], v)[r] for i in range(g.dim)), Fraction(0))
                 for r in range(h.dim)]
        inner = [a + Fraction(b) for a, b in zip(acted, h.sc[u][v])]
        res = _sub(bilinear_oracle(g.sc, tu, tv), _mat_vec(tm, inner))
        if any(res):
            found.append(("tensor-identity", (u, v), res))
    return found


def _mat_mul(p, q) -> list[Fraction]:
    """The row-major entries of the package matrix product p q, each a plain sum."""
    return [sum((Fraction(p.entries[r * p.cols + k]) * q.entries[k * q.cols + c]
                 for k in range(p.cols)), Fraction(0))
            for r in range(p.rows) for c in range(q.cols)]


def homomorphism_residual(phi, src_table, dst_table, i: int, j: int) -> tuple:
    """phi[e_i, e_j] - [phi e_i, phi e_j] for a package matrix phi from the
    algebra of ``src_table`` to that of ``dst_table``, from a plain
    matrix-vector product and a plain triple sum."""
    return _sub(_mat_vec(phi, src_table[i][j]),
                bilinear_oracle(dst_table, _mat_col(phi, i), _mat_col(phi, j)))


def bracket_residual(table, rho, p, q, i: int, j: int) -> tuple:
    """The row-major entries of rho([e_i, e_j]) - p_i q_j + q_j p_i, for n x n
    package matrices listed one per basis vector of the table's algebra:
    rho combined by the coordinates of [e_i, e_j], and plain matrix products."""
    n2 = len(rho[i].entries)
    image = [sum((Fraction(x) * op.entries[e] for x, op in zip(table[i][j], rho)), Fraction(0))
             for e in range(n2)]
    return _sub(image, _sub(_mat_mul(p[i], q[j]), _mat_mul(q[j], p[i])))


def right_left_residual(rho_l, rho_r, i: int, j: int) -> tuple:
    """The row-major entries of rho_r(j) rho_l(i) + rho_r(j) rho_r(i), the third
    axiom of a Leibniz representation, from plain matrix products."""
    return tuple(a + b for a, b in zip(_mat_mul(rho_r[j], rho_l[i]), _mat_mul(rho_r[j], rho_r[i])))


def table_sum(a, b) -> tuple:
    """The entrywise sum of two structure tables of one shape."""
    return tuple(tuple(tuple(Fraction(x) + y for x, y in zip(u, v)) for u, v in zip(ra, rb))
                 for ra, rb in zip(a, b))


def block_table(a, b, ops=()) -> tuple:
    """The table on the direct sum of the algebras of tables a and b, entry by
    entry: [e_i, e_j] of a or of b on its own block, column u of ops[x] on a
    pair (x, u) of a and b when package matrices ops are given, zero elsewhere."""
    m, n = len(a), len(a) + len(b)

    def entry(i, j):
        if i < m and j < m:
            return tuple(Fraction(x) for x in a[i][j]) + (Fraction(0),) * (n - m)
        if i >= m and j >= m:
            return (Fraction(0),) * m + tuple(Fraction(x) for x in b[i - m][j - m])
        if i < m and ops:
            return (Fraction(0),) * m + tuple(_mat_col(ops[i], j - m))
        return (Fraction(0),) * n

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def tensor_homomorphism_residuals(t, t_prime, phi_g, phi_h) -> list[tuple]:
    """Every nonzero residual of the four tensor-homomorphism laws, as (law,
    where, residual) in scan order: ``homomorphism_residual`` of phi_g and of
    phi_h on each pair, the entries of T phi_h - phi_g T', and on each (i, u)
    phi_h(rho_i e_u) - rho(phi_g e_i)(phi_h e_u), from plain sums."""
    g, h, rho = t.action.source, t.action.target, t.action.rho

    def compatibility(i, u):
        acted, image = [Fraction(0)] * h.dim, _mat_col(phi_h, u)
        for a in range(g.dim):
            c = Fraction(phi_g.entries[a * g.dim + i])
            acted = [x + c * y for x, y in zip(acted, _mat_vec(rho[a], image))]
        return _sub(_mat_vec(phi_h, _mat_col(rho[i], u)), acted)

    found = [("phi-source-endomorphism", w, homomorphism_residual(phi_g, g.sc, g.sc, *w))
             for w in product(range(g.dim), repeat=2)]
    found += [("phi-target-endomorphism", w, homomorphism_residual(phi_h, h.sc, h.sc, *w))
              for w in product(range(h.dim), repeat=2)]
    found.append(("intertwining", (), _sub(_mat_mul(t.matrix, phi_h),
                                           _mat_mul(phi_g, t_prime.matrix))))
    found += [("action-compatibility", w, compatibility(*w))
              for w in product(range(g.dim), range(h.dim))]
    return [(law, w, res) for law, w, res in found if any(res)]
