"""Axiom checkers, the ideal of squares, quotients, derivation algebras."""
import random
from itertools import product

import pytest

from embtens import (
    Action,
    Algebra,
    DimensionMismatch,
    LIE,
    LeibnizRep,
    Matrix,
    abelian_algebra,
    check_leibniz,
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
from conftest import heisenberg, heisenberg5, rand_fraction
from oracles import bareiss_rank, bilinear_oracle, close_ideal, derivation_system

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
    for i, j, k in product(range(n), repeat=3):
        ei, ej, ek = units[i], units[j], units[k]
        terms = zip(br(ei, br(ej, ek)), br(br(ei, ej), ek), br(ej, br(ei, ek)))
        assert a.leibniz_residual(i, j, k) == tuple(p - q - r for p, q, r in terms)


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


def test_empty_sides_keep_their_shapes():
    # the projection onto a zero quotient is 0 x dim, and the derivations of
    # the zero algebra are the zero subspace of the zero matrix space
    squares = Algebra("sq", 1, sc_table([[(1,)]]), "leibniz")
    quotient, proj = quotient_lie(squares)
    assert (quotient.dim, proj) == (0, Matrix.zero(0, 1))
    empty = abelian_algebra("z", 0)
    assert derivation_algebra(empty).ambient_dim == coherent_derivation_algebra(empty).ambient_dim == 0
