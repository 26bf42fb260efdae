"""Axiom checkers, the ideal of squares, quotients, derivation algebras."""
import random
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    Action,
    Algebra,
    DimensionMismatch,
    FlavorViolation,
    LIE,
    LeibnizLie,
    LeibnizRep,
    Matrix,
    Subspace,
    abelian_algebra,
    check_leibniz,
    check_leibniz_lie,
    check_leibniz_rep,
    check_lie,
    check_two_step_nilpotent,
    coherent_derivation_algebra,
    derivation_algebra,
    hemisemidirect,
    leibniz_kernel,
    quotient_lie,
    sc_table,
    unit_vector,
)
from embtens import (EmbeddingTensor, check_coherent_action, check_embedding_tensor,
                     check_leibniz_lie_homomorphism, check_tensor_homomorphism, direct_sum)
from embtens.tensors import descendent_table
from embtens.algebras import (_block_table, _bracket_law, _derivation_residuals,
                              _homomorphism_law, _operator_products)
from embtens.leibniz_lie import _sum_algebra
from conftest import heisenberg, heisenberg5, rand_fraction
from oracles import (
    bareiss_rank,
    bilinear_oracle,
    block_table,
    bracket_residual,
    close_ideal,
    coherent_action_residuals,
    derivation_system,
    homomorphism_residual,
    leibniz_residual_oracle,
    right_left_residual,
    table_sum,
    tensor_homomorphism_residuals,
    tensor_identity_residuals,
)

Z3 = (0, 0, 0)


def sl2_like() -> Algebra:
    return Algebra("sl2ish", 3, sc_table([
        [Z3, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), Z3, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), Z3],
    ]), LIE)


@pytest.mark.parametrize("seed", range(6))
def test_table_reads_match_triple_sum_oracle(seed):
    rng = random.Random(seed)
    n = 2 + seed % 3
    a = Algebra("r", n, sc_table(
        [[[rand_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]))
    assert any(vec != tuple(-x for x in a.sc[j][i])
               for i, row in enumerate(a.sc) for j, vec in enumerate(row))
    units = [unit_vector(n, i) for i in range(n)]

    def br(x, y):
        return bilinear_oracle(a.sc, x, y)

    v = tuple(rand_fraction(rng) for _ in range(n))
    for i in range(n):
        assert a.left(i, v) == br(units[i], v)
        assert a.right(v, i) == br(v, units[i])
    leibniz = _derivation_residuals(a, a.constants)[0]
    for w in product(range(n), repeat=3):
        assert dense(leibniz, w, n) == leibniz_residual_oracle(a.sc, *w)


def test_check_lie_heisenberg_and_abelian():
    assert check_lie(heisenberg()).ok
    assert check_lie(abelian_algebra("a4", 4)).ok


def test_check_lie_broken_table_reports_witness():
    bad = Algebra("bad", 3, sc_table([
        [Z3, (0, 1, 0), Z3],
        [(0, 0, -1), Z3, Z3],
        [Z3, Z3, Z3],
    ]), "unchecked")
    report = check_lie(bad)
    assert not report.ok
    assert report.witness.law == "antisymmetry"
    assert report.witness.where == (0, 1)


def test_check_lie_jacobi_witness():
    # antisymmetric, with [e1,e2] = e3 and [e1,e3] = e1; at (e1,e2,e3)
    # [e1,[e2,e3]] = 0 but [[e1,e2],e3] + [e2,[e1,e3]] = -e3
    bad = Algebra("nonjacobi", 3, sc_table([
        [Z3, (0, 0, 1), (1, 0, 0)],
        [(0, 0, -1), Z3, Z3],
        [(-1, 0, 0), Z3, Z3],
    ]), "unchecked")
    report = check_lie(bad)
    assert report.check == "lie" and not report.ok
    assert report.witness.law == "jacobi"
    assert report.witness.where == (0, 1, 2)
    assert tuple(report.witness.residual) == (0, 0, 1)
    report = check_leibniz(bad)
    assert report.check == "leibniz" and not report.ok
    assert report.witness.law == "leibniz"
    assert report.witness.where == (0, 1, 2)


def test_lie_implies_leibniz():
    for a in (heisenberg(), abelian_algebra("a2", 2), sl2_like()):
        assert check_lie(a).ok
        assert check_leibniz(a).ok


def test_leibniz_nonlie_table_passes():
    # [e1,e1] = e2, [e1,e2] = e2 is Leibniz but not antisymmetric
    a = Algebra("lb", 2, sc_table([
        [(0, 1), (0, 1)],
        [(0, 0), (0, 0)],
    ]), "unchecked")
    assert check_leibniz(a).ok
    assert not check_lie(a).ok


def test_leibniz_failure_witness():
    # [e1,e1] = e2 and [e2,e1] = e2 breaks the identity at (e1,e1,e1)
    a = Algebra("nl", 2, sc_table([
        [(0, 1), (0, 0)],
        [(0, 1), (0, 0)],
    ]), "unchecked")
    report = check_leibniz(a)
    assert not report.ok
    assert report.witness.where == (0, 0, 0)


def test_hemisemidirect_adjoint_is_leibniz(ad3):
    assert check_leibniz(hemisemidirect(ad3)).ok


def test_two_step_nilpotent():
    assert check_two_step_nilpotent(heisenberg()).ok
    assert check_two_step_nilpotent(abelian_algebra("a3", 3)).ok
    report = check_two_step_nilpotent(sl2_like())
    assert not report.ok


SPARSE = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
RARE = st.sampled_from((0,) * 12 + (1, -1, Fraction(1, 2)))


def random_table(draw, n: int) -> list:
    """An n x n table of length-n vectors: sparse, rarer, or with one nonzero
    entry, so that each law of a checker may be the first to fail."""
    entries = draw(st.sampled_from((SPARSE, RARE, None)))
    if entries is None:
        spot = tuple(draw(st.integers(0, max(n - 1, 0))) for _ in range(3))
        c = draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
        return [[[c if (i, j, k) == spot else 0 for k in range(n)] for j in range(n)]
                for i in range(n)]
    return [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def dense(residuals, where, n: int) -> tuple:
    """The residual a sparse walk found at ``where``, made dense of length n."""
    return tuple(residuals.get(where, {}).get(k, 0) for k in range(n))


def first_witness(*scans):
    """(law, where, residual) of the first nonzero residual of dense scans
    (tuples, (law, residual), ...) taken in turn, tuple by tuple and law by
    law within a tuple; None when every residual vanishes."""
    for tuples, *laws in scans:
        for w in tuples:
            for law, residual in laws:
                if any(res := residual(*w)):
                    return law, w, res
    return None


def witness(report):
    """(law, where, residual) of a report's one failure, or None when it passes."""
    assert len(report.failures) == (0 if report.ok else 1)
    w = report.witness
    return w and (w.law, w.where, tuple(w.residual))


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.data())
def test_sparse_checkers_match_dense_oracle_scans(data):
    """Random rational tables of dimension 0-5, antisymmetric or not, and a
    random product on them: the row evaluator equals the oracle's Leibniz
    residual and double bracket at every triple, and ``check_lie``,
    ``check_leibniz``, ``check_two_step_nilpotent`` and ``check_leibniz_lie``
    report the first witness of a dense scan of the oracle."""
    draw = data.draw
    n, antisymmetric = draw(st.integers(0, 5)), draw(st.booleans())
    table = random_table(draw, n)
    if antisymmetric:
        for i, j in product(range(n), repeat=2):
            table[i][j] = [-x for x in table[j][i]] if i > j else [0] * n if i == j else table[i][j]
    a, tri = Algebra("rand", n, sc_table(table)), sc_table(random_table(draw, n))
    units = [unit_vector(n, i) for i in range(n)]

    def br(x, y, t=a.sc):
        return bilinear_oracle(t, x, y)

    def double(i, j, k, inner=a.sc, outer=a.sc):  # [[e_i, e_j]_inner, e_k]_outer
        return br(br(units[i], units[j], inner), units[k], outer)

    def antisymmetry(i, j):  # [e_i, e_j] + [e_j, e_i]
        return tuple(x + y for x, y in zip(br(units[i], units[j]), br(units[j], units[i])))

    def leibniz(i, j, k, t=a.sc):
        return leibniz_residual_oracle(t, i, j, k)

    def product_identity(i, j, k):  # the Leibniz residual of >, less [[e_i, e_j], e_k]_>
        return tuple(p - q for p, q in zip(leibniz(i, j, k, tri), double(i, j, k, a.sc, tri)))

    pairs, triples = list(product(range(n), repeat=2)), list(product(range(n), repeat=3))
    derivation, coherence = _derivation_residuals(a, a.constants)
    for w in triples:
        assert dense(derivation, w, n) == leibniz(*w)
        assert dense(coherence, w, n) == double(*w)
    assert witness(check_lie(a)) == first_witness((pairs, ("antisymmetry", antisymmetry)),
                                                  (triples, ("jacobi", leibniz)))
    assert witness(check_leibniz(a)) == first_witness((triples, ("leibniz", leibniz)))
    assert witness(check_two_step_nilpotent(a)) == first_witness(
        (triples, ("double-bracket", double)))
    assert witness(check_leibniz_lie(LeibnizLie(a, tri))) == first_witness((
        triples, ("product-identity", product_identity),
        ("product-kills-brackets", lambda i, j, k: br(units[i], br(units[j], units[k]), tri)),
        ("products-are-central", lambda i, j, k: double(i, j, k, tri, a.sc))))


def random_matrix(draw, rows: int, cols: int) -> Matrix:
    """A rows x cols matrix that is zero, the identity when square, or sparse."""
    kind = draw(st.sampled_from(("zero", "identity", SPARSE, RARE)))
    if kind == "identity" and rows == cols:
        return Matrix.identity(rows)
    if isinstance(kind, str):
        return Matrix.zero(rows, cols)
    return Matrix(rows, cols, tuple(draw(kind) for _ in range(rows * cols)))


def failures(report) -> list:
    return [(f.law, f.where, tuple(f.residual)) for f in report.failures]


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.data())
def test_structure_laws_match_dense_oracles(data):
    """Random sparse tables of dimension 0-4, some not antisymmetric, random
    operators and random maps: at every pair the homomorphism law, the bracket
    law and the rho-right-left products equal their dense oracles, the derived
    tables equal the table sum and the block table, and the reports of the five
    checkers built on those laws equal dense scans of the oracles."""
    draw = data.draw
    g, h = (Algebra(name, d, sc_table(random_table(draw, d)))
            for name, d in (("g", draw(st.integers(0, 4))), ("h", draw(st.integers(0, 4)))))
    m, n = g.dim, h.dim

    def ops(count: int, dim: int) -> tuple:
        return tuple(random_matrix(draw, dim, dim) for _ in range(count))

    # the bracket law and the Leibniz representation axioms
    rho_l, rho_r = ops(m, n), ops(m, n)
    rep = LeibnizRep(g, n, rho_l, rho_r)
    left, right = rep.nonzero
    laws = [("rho-left-bracket", _bracket_law(g, n, left, left, left),
             lambda i, j: bracket_residual(g.sc, rho_l, rho_l, rho_l, i, j)),
            ("rho-right-bracket", _bracket_law(g, n, right, left, right),
             lambda i, j: bracket_residual(g.sc, rho_r, rho_l, rho_r, i, j))]
    pairs = list(product(range(m), repeat=2))
    products = defaultdict(Counter)  # the rho-right-left law from the product generator
    for q in (left, right):
        for j, i, e, x in _operator_products(n, right, q):
            products[i, j][e] += x
    laws.append(("rho-right-left", products,
                 lambda i, j: right_left_residual(rho_l, rho_r, i, j)))
    for w in pairs:
        for _, sparse, oracle in laws:
            assert dense(sparse, w, n * n) == oracle(*w)
    assert witness(check_leibniz_rep(rep)) == first_witness(
        (pairs, *((law, oracle) for law, _, oracle in laws)))

    # the coherent action, its tensor and the derived tables
    action = Action(g, h, ops(m, n))
    t, t_prime = (EmbeddingTensor(action, random_matrix(draw, m, n)) for _ in range(2))
    triangle = [[[sum((Fraction(t.matrix.entry(a, i)) * action.rho[a].entry(r, j)
                       for a in range(m)), Fraction(0)) for r in range(n)] for j in range(n)]
                for i in range(n)]
    desc = Algebra("desc", n, descendent_table(t))
    assert desc.sc == table_sum(triangle, h.sc)
    assert _sum_algebra(LeibnizLie(h, sc_table(triangle))).sc == desc.sc
    assert direct_sum(g, h, "s").sc == block_table(g.sc, h.sc)
    assert _block_table(g, h, action.rho) == block_table(g.sc, h.sc, action.rho)
    identity = _homomorphism_law(t.matrix, desc, g, sign=-1)
    for w in product(range(n), repeat=2):
        assert dense(identity, w, m) == tuple(-x for x in homomorphism_residual(
            t.matrix, desc.sc, g.sc, *w))
    incoherent = coherent_action_residuals(action)
    assert failures(check_coherent_action.__wrapped__(action)) == incoherent[:1]
    report = check_embedding_tensor.__wrapped__(t)
    assert failures(report) == (incoherent[:1] or tensor_identity_residuals(t))
    assert report.notes == (("action is not coherent",) if incoherent else ())

    # the two homomorphism checks
    phi_g, phi_h = random_matrix(draw, m, m), random_matrix(draw, n, n)
    for phi, a in ((phi_g, g), (phi_h, h)):
        law = _homomorphism_law(phi, a, a)
        for w in product(range(a.dim), repeat=2):
            assert dense(law, w, a.dim) == homomorphism_residual(phi, a.sc, a.sc, *w)
    assert failures(check_tensor_homomorphism(t, t_prime, phi_g, phi_h)) == \
        tensor_homomorphism_residuals(t, t_prime, phi_g, phi_h)[:1]
    src, dst = LeibnizLie(g, sc_table(random_table(draw, m))), LeibnizLie(h, desc.sc)
    phi = random_matrix(draw, n, m)
    expected = [first_witness((pairs, (law, lambda i, j, s=s, d=d: homomorphism_residual(
        phi, s, d, i, j)))) for law, s, d in (("triangle-product", src.triangle, dst.triangle),
                                              ("lie-bracket", g.sc, h.sc))]
    report = check_leibniz_lie_homomorphism(src, dst, phi)
    assert failures(report) == [w for w in expected if w]
    assert report.notes == tuple(f"{law} {'broken' if w else 'preserved'}" for law, w in zip(
        ("triangle-product", "lie-bracket"), expected))


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.data())
def test_constants_match_a_full_triple_scan(data):
    """``Algebra.constants`` skips the all-zero entries of the table and lists
    what a scan of every slot lists, in the same order and of the same types."""
    n = data.draw(st.integers(0, 6))
    table = sc_table(random_table(data.draw, n))
    scan = tuple((i, j, k, table[i][j][k]) for i, j, k in product(range(n), repeat=3)
                 if table[i][j][k])
    constants = Algebra("rand", n, table).constants
    assert constants == scan and repr(constants) == repr(scan)


def test_leibniz_rep_zero_maps(h3):
    zero = tuple(Matrix.zero(2, 2) for _ in range(3))
    rep = LeibnizRep(h3, 2, zero, zero)
    assert check_leibniz_rep(rep).ok


def test_leibniz_rep_shape_errors(h3):
    with pytest.raises(DimensionMismatch):
        LeibnizRep(h3, 2, (Matrix.zero(2, 2),), (Matrix.zero(2, 2),) * 3)


@pytest.mark.parametrize("fault, message", [
    ("one-too-few", "one operator per basis vector is required"),
    ("non-square", "operators must be 2x2")], ids=["one-too-few", "non-square"])
@pytest.mark.parametrize("build", [
    lambda h, ops: Action(h, abelian_algebra("a2", 2), ops),
    lambda h, ops: LeibnizRep(h, 2, ops, (Matrix.zero(2, 2),) * 3),
    lambda h, ops: LeibnizRep(h, 2, (Matrix.zero(2, 2),) * 3, ops)],
    ids=["action", "rep-left", "rep-right"])
def test_operator_families_share_one_shape_check(h3, build, fault, message):
    ops = (Matrix.zero(2, 2),) * 2 + ((Matrix.zero(2, 3),) if fault == "non-square" else ())
    with pytest.raises(DimensionMismatch, match=message):
        build(h3, ops)


def test_leibniz_kernel_of_lie_algebra_is_zero():
    assert leibniz_kernel(heisenberg()).dim == 0
    assert leibniz_kernel(sl2_like()).dim == 0


def test_leibniz_kernel_matches_brute_force_closure(ad3, t1):
    from embtens import descendent

    for alg in (hemisemidirect(ad3), descendent(t1)):
        seeds = [alg.sc[i][i] for i in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                seeds.append(tuple(x + y for x, y in zip(alg.sc[i][j], alg.sc[j][i])))
        oracle = close_ideal(alg.bracket, alg.dim, seeds)
        ours = leibniz_kernel(alg)
        assert ours.dim == len(oracle)
        for v in oracle:
            assert ours.contains(tuple(v))


def test_leibniz_kernel_closes_its_seed_span():
    """[e0, e1] = -e0, [e1, e2] = e1, [e2, e1] = e2: the squares span e0 and
    e1 + e2, and [e1, e1 + e2] = e1 adds a third dimension, as the oracle's
    closure does."""
    a = Algebra("grows", 3, sc_table([[Z3, (-1, 0, 0), Z3], [Z3, Z3, (0, 1, 0)],
                                      [Z3, (0, 0, 1), Z3]]))
    seeds = [a.sc[0][0], a.sc[1][1], a.sc[2][2]] + [
        tuple(x + y for x, y in zip(a.sc[i][j], a.sc[j][i])) for i, j in ((0, 1), (0, 2), (1, 2))]
    assert Subspace.from_spanning(3, seeds).dim == 2
    assert leibniz_kernel(a).dim == len(close_ideal(a.bracket, 3, seeds)) == 3


def test_leibniz_kernel_nontrivial_for_asymmetric_descendent(t1):
    from embtens import descendent

    assert leibniz_kernel(descendent(t1)).dim >= 1


def test_leibniz_kernel_is_an_ideal(ad3):
    alg = hemisemidirect(ad3)
    ker = leibniz_kernel(alg)
    for v in ker.basis:
        for k in range(alg.dim):
            e = unit_vector(alg.dim, k)
            assert ker.contains(alg.bracket(e, v))
            assert ker.contains(alg.bracket(v, e))


def test_quotient_of_lie_algebra_is_itself():
    a = heisenberg()
    q, proj = quotient_lie(a)
    assert q.dim == a.dim
    assert q.sc == a.sc
    assert proj == Matrix.identity(3)


def test_quotient_lie_of_descendent(t1):
    from embtens import descendent

    alg = descendent(t1)
    q, proj = quotient_lie(alg)
    assert check_lie(q).ok
    for i, j in product(range(alg.dim), repeat=2):
        lhs = proj.apply(alg.sc[i][j])
        rhs = q.bracket(proj.col(i), proj.col(j))
        assert lhs == rhs


def test_derivation_algebra_of_abelian_is_full():
    for n in (1, 2, 3):
        assert derivation_algebra(abelian_algebra("a", n)).dim == n * n


def test_derivation_algebra_of_heisenberg_is_six_dimensional():
    a = heisenberg()
    der = derivation_algebra(a)
    assert der.dim == 6
    # independent oracle: rank of the defining linear system, evaluated at
    # the unit operators, via fraction-free elimination
    assert 9 - bareiss_rank(derivation_system(a, coherent=False)) == 6


def test_derivation_algebra_closed_under_commutator():
    for a in (heisenberg(), sl2_like()):
        der = derivation_algebra(a)
        mats = [Matrix(a.dim, a.dim, v) for v in der.basis]
        for p in mats:
            for q in mats:
                comm = (p @ q) - (q @ p)
                assert der.contains(comm.entries)


def test_coherent_derivations_of_abelian_is_full_gl():
    assert coherent_derivation_algebra(abelian_algebra("a", 3)).dim == 9


def test_coherent_derivations_of_heisenberg():
    # Maps sending e1, e2 into the center and killing it; dimension 2,
    # strictly smaller than the six derivations.
    a = heisenberg()
    sub = coherent_derivation_algebra(a)
    assert sub.dim == 2
    e20 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    e21 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert sub.contains(e20.entries)
    assert sub.contains(e21.entries)
    # cross-check against an independently assembled linear system
    assert 9 - bareiss_rank(derivation_system(a, coherent=True)) == 2


def test_derivation_algebras_solve_the_unit_operator_system():
    # both derivation algebras against the system evaluated at each unit
    # operator E_rc: every basis vector solves it, and the dimension is
    # n^2 - rank; the 24 random tables are sparse and not antisymmetric
    rng = random.Random(13)
    algebras = [heisenberg(), heisenberg5(), sl2_like()]
    algebras += [abelian_algebra(f"a{n}", n) for n in (0, 1, 2, 3)]
    while len(algebras) < 7 + 24:
        n, density = rng.randint(1, 3), rng.choice((0.1, 0.2, 0.3))
        a = Algebra(f"r{len(algebras)}", n, sc_table(
            [[[rand_fraction(rng) if rng.random() < density else 0 for _ in range(n)]
              for _ in range(n)] for _ in range(n)]))
        if any(a.sc[i][j] != tuple(-x for x in a.sc[j][i]) for i, j in product(range(n), repeat=2)):
            algebras.append(a)
    solved = 0
    for a in algebras:
        for coherent, space in ((False, derivation_algebra(a)),
                                (True, coherent_derivation_algebra(a))):
            system = derivation_system(a, coherent)
            for v in space.basis:
                assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in system), a.name
            assert space.dim == a.dim ** 2 - bareiss_rank(system), (a.name, coherent)
            solved += a.name.startswith("r") and space.dim > 0
    assert solved >= 10  # the random tables are not all rigid


def test_coherent_derivations_inside_derivations_and_closed():
    for a in (heisenberg(), abelian_algebra("a2", 2), sl2_like()):
        der = derivation_algebra(a)
        sub = coherent_derivation_algebra(a)
        assert sub.is_subspace_of(der)
        mats = [Matrix(a.dim, a.dim, v) for v in sub.basis]
        for p in mats:
            for q in mats:
                assert sub.contains(((p @ q) - (q @ p)).entries)


def test_adjoint_operators_are_coherent_for_two_step_nilpotent():
    a = heisenberg()
    sub = coherent_derivation_algebra(a)
    for i in range(3):
        assert sub.contains(a.adjoint(a.basis_vector(i)).entries)


def test_algebra_shape_validation():
    with pytest.raises(DimensionMismatch):
        Algebra("bad", 2, sc_table([[Z3, Z3], [Z3, Z3]]), "unchecked")


@pytest.mark.parametrize("x, y", [((1, 0, 0), (1, 0)), ((1, 0), (1, 0, 0)), ((0, 0, 0), (1,)),
                                  ((), (1,))],
                         ids=["short-y", "short-x", "zero-x", "zero-dim"])
def test_bracket_refuses_wrong_lengths(h3, x, y):
    # with x zero, or in dimension 0, no row is combined: the length check
    # in ``bracket`` is the only guard
    a = h3 if x else abelian_algebra("z", 0)
    message = f"vectors of length {len(x)} and {len(y)} in dimension {a.dim}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        a.bracket(x, y)


def test_unknown_flavor_is_a_typed_error():
    with pytest.raises(FlavorViolation, match=r"^unknown flavor 'jordan'$"):
        Algebra("j", 1, sc_table([[(0,)]]), "jordan")


def test_empty_sides_keep_their_shapes():
    # the projection onto a zero quotient is 0 x dim, and the derivations of
    # the zero algebra are the zero subspace of the zero matrix space
    squares = Algebra("sq", 1, sc_table([[(1,)]]), "leibniz")
    quotient, proj = quotient_lie(squares)
    assert (quotient.dim, proj) == (0, Matrix.zero(0, 1))
    empty = abelian_algebra("z", 0)
    assert derivation_algebra(empty).ambient_dim == coherent_derivation_algebra(empty).ambient_dim == 0
