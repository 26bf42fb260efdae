"""The tensor complex: induced representation, coboundaries, dimensions."""
import copy
import importlib
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    Algebra,
    ArityCapExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    EmbeddingTensor,
    Matrix,
    MultiMap,
    NotACocycle,
    NotAnEmbeddingTensor,
    ParseError,
    Subspace,
    TensorComplex,
    adjoint_action,
    check_coherent_action,
    check_embedding_tensor,
    check_leibniz,
    check_leibniz_lie,
    check_leibniz_lie_homomorphism,
    check_leibniz_rep,
    check_lie,
    check_nijenhuis_operator,
    check_tensor_homomorphism,
    check_two_step_nilpotent,
    class_equals,
    cohomology,
    derived_bracket,
    induced_leibniz_lie,
    induced_representation,
    kernel_basis,
    left_multiplication_tensor,
    leibniz_kernel,
    matrix_as_multimap,
    multimap_as_matrix,
    projection_tensor,
    quotient_dim,
    quotient_lie,
    quotient_projection_tensor,
    rref,
    subadjacent,
    subadjacent_representation,
    tensor_as_multimap,
    tensor_coboundary,
    twisted_differential,
    unit_vector,
)
from embtens import linalg
from embtens.cohomology import _as_cochain, _complex_at, lp_differential
from embtens.deformations import _square_failures
from embtens.linalg import sparse_image, sparse_kernel
from embtens.tensors import descendent_table
from conftest import (family_i_matrix, family_ii_matrix, g2h3_action, heisenberg, heisenberg5,
                      heisenberg_of, rand_fraction)
from oracles import bareiss_rank, induced_representation_by_brackets, loday_pirashvili_coboundary


def rand_cochain(rng, arity, t):
    nh, ng = t.action.target.dim, t.action.source.dim
    return MultiMap(arity, nh, ng,
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(nh ** arity * ng)))


def test_induced_representation_passes(t1, tii, g23_net):
    for t in (t1, tii, g23_net):
        assert check_leibniz_rep(induced_representation(t)).ok


def test_induced_representation_of_zero_tensor_is_zero(tzero):
    rep = induced_representation(tzero)
    assert all(m.is_zero() for m in rep.rho_l)
    assert all(m.is_zero() for m in rep.rho_r)


def test_induced_representation_third_axiom_entrywise(t1):
    rep = induced_representation(t1)
    for u, v in product(range(3), repeat=2):
        lhs = rep.rho_r[v] @ rep.rho_l[u]
        rhs = (rep.rho_r[v] @ rep.rho_r[u]).scale(-1)
        assert lhs == rhs


def test_lp_coboundary_of_zero_representation():
    from embtens import LeibnizRep, abelian_algebra

    a = abelian_algebra("flat", 2)
    rep = LeibnizRep(a, 2, (Matrix.zero(2, 2),) * 2, (Matrix.zero(2, 2),) * 2)
    f = MultiMap(1, 2, 2, (Fraction(1), Fraction(-2)) * 2)
    assert loday_pirashvili_coboundary(rep, f).is_zero()


def test_lp_coboundary_squares_to_zero(t1, g23_net):
    rng = random.Random(61)
    for t in (t1, g23_net):
        rep = induced_representation(t)
        for _ in range(12):
            f = rand_cochain(rng, rng.choice([1, 2]), t)
            assert loday_pirashvili_coboundary(
                rep, loday_pirashvili_coboundary(rep, f)).is_zero()


def test_lp_specialization_equals_tensor_coboundary(t1, tii, toy_tensor, g23_net):
    # the per-entry formula against the assembled matrices, up to degree 4
    rng = random.Random(62)
    for t in (t1, tii, toy_tensor, g23_net):
        cx = TensorComplex(t, 4)
        for arity in (0, 1, 2, 3):
            for _ in range(4):
                f = rand_cochain(rng, arity, t)
                img = tensor_coboundary(t, f)
                assert img.arity == arity + 1
                assert img.coeffs == cx.differential(arity + 1).apply(f.coeffs)


def test_coboundary_of_one_cochain_builds_no_matrix():
    # the differential on arity-3 cochains of h5 is a dense 3125 x 625 matrix
    t = EmbeddingTensor(adjoint_action(heisenberg5()), Matrix.zero(5, 5))
    f = rand_cochain(random.Random(65), 3, t)
    tracemalloc.start()
    try:
        img = tensor_coboundary(t, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.arity == 4 and not img.is_zero()
    assert peak < 2 * 1024 * 1024


def test_degree_one_coboundary_closed_form(t1, tii):
    # (dx)(u) = T rho(x) u - [x, Tu], on unit vectors and on random x
    rng = random.Random(63)
    for t in (t1, tii):
        g, h = t.action.source, t.action.target
        xs = [unit_vector(g.dim, b) for b in range(g.dim)]
        xs += [tuple(rand_fraction(rng) for _ in range(g.dim)) for _ in range(6)]
        for x in xs:
            img = tensor_coboundary(t, x)
            for u in range(h.dim):
                expected = tuple(
                    p - q for p, q in zip(
                        t.apply(t.action.apply(x, h.basis_vector(u))),
                        g.bracket(x, t.column(u))))
                assert img.value((u,)) == expected


def test_degree_one_matches_general_formula(t1, tii):
    # the Loday-Pirashvili formula at arity 0: (dx)(u) = -rho_r(u) x
    rng = random.Random(64)
    for t in (t1, tii):
        rep = induced_representation(t)
        for _ in range(6):
            x = tuple(rand_fraction(rng) for _ in range(rep.rep_dim))
            img = tensor_coboundary(t, x)
            for u in range(rep.algebra.dim):
                assert img.value((u,)) == rep.rho_r[u].scale(-1).apply(x)


def test_coboundary_checks_tensor_then_shape_then_arity_cap(t1):
    not_a_tensor = t1.with_matrix(Matrix.identity(3))
    wrong_shape = MultiMap.zero(4, 2, 3)
    with pytest.raises(NotAnEmbeddingTensor):
        tensor_coboundary(not_a_tensor, wrong_shape)
    with pytest.raises(NotAnEmbeddingTensor):
        induced_representation(not_a_tensor)
    with pytest.raises(DimensionMismatch):
        tensor_coboundary(t1, wrong_shape)
    with pytest.raises(DimensionMismatch):
        tensor_coboundary(t1, (1, 0))
    with pytest.raises(ArityCapExceeded):
        tensor_coboundary(t1, MultiMap.zero(4, 3, 3))


def test_degree_one_kills_central_zero_column(t1):
    # the third basis vector acts trivially and is killed by the tensor
    assert tensor_coboundary(t1, unit_vector(3, 2)).is_zero()


def test_zero_tensor_degree_one_vanishes(tzero):
    for b in range(3):
        assert tensor_coboundary(tzero, unit_vector(3, b)).is_zero()


def test_sign_relation_between_coboundary_and_twisted_differential(t1, tii, g23_net):
    # the entry-by-entry Loday-Pirashvili coboundary d f = (-1)^{arity - 1} d_T f;
    # at arity 0 (a source vector) d x = -d_T x
    rng = random.Random(64)
    for t in (t1, tii, g23_net):
        rep = induced_representation(t)
        for arity in (0, 1, 2, 3):
            th = rand_cochain(rng, arity, t)
            rhs = twisted_differential(t, th)
            if (arity - 1) % 2:
                rhs = -rhs
            assert loday_pirashvili_coboundary(rep, th) == rhs
        x = tuple(rand_fraction(rng) for _ in range(t.action.source.dim))
        x_map = MultiMap(0, t.action.target.dim, len(x), x)
        assert loday_pirashvili_coboundary(rep, x_map) == -twisted_differential(t, x_map)
        assert tensor_coboundary(t, x) == loday_pirashvili_coboundary(rep, x_map)


def test_complex_differentials_compose_to_zero(t1, tii, toy_tensor, g23_net):
    for t in (t1, tii, toy_tensor, g23_net):
        cx = TensorComplex(t, max_degree=4)
        for k in (1, 2, 3):
            assert (cx.differential(k + 1) @ cx.differential(k)).is_zero()


def test_sparse_rows_compose_to_zero_and_densify(t1, tii, tzero, tab):
    for t in (t1, tii, tzero, tab):
        cx = TensorComplex(t, max_degree=4)
        for k in range(5):
            rows, d = cx.rows(k), cx.differential(k)
            assert (d.rows, d.cols) == (len(rows), cx.cochain_dim(k))
            assert all(x != 0 for row in rows for x in row.values())
            assert d.entries == tuple(row.get(j, 0) for row in rows for j in range(d.cols))
        for k in range(4):
            lower = cx.rows(k)
            for row in cx.rows(k + 1):
                composed = {}
                for c, x in row.items():
                    for j, y in lower[c].items():
                        composed[j] = composed.get(j, 0) + x * y
                assert not any(composed.values())


def ladder_rungs(t1, tzero, tii, tab, g23_net):
    """The complex-ladder rungs, each with its top degree: the h3 tensors under
    the adjoint action, a g2 -> h3 tensor, the h3 projection tensor, and
    central-image tensors on h5 and h7."""
    rng = random.Random(71)
    yield from ((t1, 4), (tzero, 4), (tii, 4), (tab, 4), (g23_net, 4))
    yield EmbeddingTensor(t1.action, family_i_matrix(rng, 0)), 4
    yield EmbeddingTensor(t1.action, family_ii_matrix(rng, Fraction(3), Fraction(9, 4))), 4
    yield projection_tensor(heisenberg()), 3
    for dim, top in ((5, 3), (7, 2)):
        central = [[0] * dim for _ in range(dim - 1)]
        central.append([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(dim - 1)] + [0])
        yield EmbeddingTensor(adjoint_action(heisenberg_of(dim)), Matrix.from_rows(central)), top


def test_lp_differential_matches_the_oracle_on_unit_cochains(t1, tzero, tii, tab, g23_net):
    """Column j of d_k, read down the rows in order, is the oracle's coboundary
    of the j-th unit cochain, on every complex-ladder rung and degree."""
    shapes = []
    for t, top in ladder_rungs(t1, tzero, tii, tab, g23_net):
        assert check_embedding_tensor(t).ok
        rep = induced_representation(t)
        n, m = rep.algebra.dim, rep.rep_dim
        shapes.append((n, m))
        for arity in range(top):
            rows, size = lp_differential(rep, arity), n ** arity * m
            assert len(rows) == n * size
            for j in range(size):
                unit = MultiMap(arity, n, m, tuple(int(c == j) for c in range(size)))
                assert tuple(row.get(j, 0) for row in rows) == \
                    loday_pirashvili_coboundary(rep, unit).coeffs
    assert shapes == [(3, 3)] * 4 + [(3, 2)] + [(3, 3)] * 2 + [(5, 2), (5, 5), (7, 7)]


# no shrink phase, as in the other properties: a failure is reported as drawn
@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          phases=[Phase.generate])
@given(st.integers(0, 50), st.lists(st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))),
                                    min_size=4, max_size=4))
def test_random_g2h3_rows_compose_to_zero(seed, entries):
    """Any matrix with a zero last column is a tensor over a g2 -> h3 action;
    for each, consecutive rows of the complex compose to zero, d_(k+1) d_k = 0
    for k <= 3."""
    a, b, c, d = entries
    t = EmbeddingTensor(g2h3_action(seed), Matrix.from_rows([[a, b, 0], [c, d, 0]]))
    assert check_embedding_tensor(t).ok
    cx = TensorComplex(t, max_degree=4)
    for k in range(4):
        lower = cx.rows(k)
        for row in cx.rows(k + 1):
            composed = {}
            for col, x in row.items():
                for j, y in lower[col].items():
                    composed[j] = composed.get(j, 0) + x * y
            assert not any(composed.values())


def test_integral_data_stays_int(t1, ad3):
    """Integral inputs keep every scalar a Python int: differential rows,
    checker residuals, the induced representation, cochains entering the
    complex and entries scaled by a non-unit pivot never turn into whole
    Fractions."""
    reduced, pivots = rref(Matrix.from_rows([[2, 4], [0, 0]]))
    assert (reduced.entries, pivots) == ((1, 2, 0, 0), (0,))
    assert all(type(x) is int for x in reduced.entries)
    # eliminating [4, 7] against the pivot row (1, 3/2) leaves a whole Fraction
    reduced, pivots = rref(Matrix.from_rows([[2, 3], [4, 7]]))
    assert (reduced.entries, pivots) == ((1, 0, 0, 1), (0, 1))
    assert all(type(x) is int for x in reduced.entries)
    span = Subspace.from_spanning(2, [(2, 3), (4, 7)])
    assert all(type(x) is int for row in span.basis for x in row)
    kernel = kernel_basis(Matrix.from_rows([[2, 4, 6]]))
    assert kernel.basis == ((1, 0, Fraction(-1, 3)), (0, 1, Fraction(-2, 3)))
    assert all(type(x) is int for row in kernel.basis for x in row if x.denominator == 1)
    h5_zero = EmbeddingTensor(adjoint_action(heisenberg5()), Matrix.zero(5, 5))
    for t in (t1, h5_zero):
        cx = TensorComplex(t, max_degree=3)
        for k in range(4):
            assert all(type(x) is int for row in cx.rows(k) for x in row.values())
    report = check_embedding_tensor(EmbeddingTensor(ad3, Matrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]])))
    assert [(f.where, f.residual) for f in report.failures] == \
        [((0, 1), (0, 0, 1)), ((1, 0), (0, 0, -1))]
    assert all(type(x) is int for f in report.failures for x in f.residual)
    rep = induced_representation(t1)
    assert all(type(x) is int for m in rep.rho_l + rep.rho_r for x in m.entries)
    # a cochain of whole Fractions, in any of its three forms, reaches the
    # complex as ints, and class_equals takes it in each form
    rng = random.Random(66)
    whole = [Fraction(rng.randint(-3, 3)) for _ in range(27)]
    forms = [tuple(whole[:3]), Matrix(3, 3, tuple(whole[:9])),
             MultiMap(1, 3, 3, tuple(whole[:9])), MultiMap(2, 3, 3, tuple(whole))]
    for f in forms:
        assert all(type(x) is int for x in _as_cochain(t1, f).coeffs)
        assert all(type(x) is int for x in tensor_coboundary(t1, f).coeffs)
    d = tensor_coboundary(t1, forms[0])
    as_map = MultiMap(1, 3, 3, tuple(map(Fraction, d.coeffs)))
    as_matrix = Matrix(3, 3, tuple(map(Fraction, multimap_as_matrix(d).entries)))
    assert class_equals(t1, as_map, Matrix.zero(3, 3), 2)
    assert class_equals(t1, as_matrix, as_map, 2)


def bracket_route_tensors(t1, tzero, tii, tab, toy_tensor, g23_net):
    """Every tensor fixture, the h3 projection tensor and seeded random tensors."""
    yield from (t1, tzero, tii, tab, toy_tensor, g23_net, projection_tensor(heisenberg()))
    rng = random.Random(67)
    for shape in (0, 1, 0, 1):
        yield EmbeddingTensor(t1.action, family_i_matrix(rng, shape))
    for _ in range(4):
        r = rng.choice((1, 2, -2, 3))
        yield EmbeddingTensor(t1.action, family_ii_matrix(rng, Fraction(r), Fraction(r * r, r + 1)))
        rows = [[rand_fraction(rng), rand_fraction(rng), 0] for _ in range(2)]
        yield EmbeddingTensor(g23_net.action, Matrix.from_rows(rows))
    h5 = heisenberg5()
    central = [[0] * 5 for _ in range(4)] + [[rand_fraction(rng) for _ in range(4)] + [0]]
    yield EmbeddingTensor(adjoint_action(h5), Matrix.from_rows(central))


def test_induced_representation_matches_bracket_oracle(t1, tzero, tii, tab, toy_tensor, g23_net):
    for t in bracket_route_tensors(t1, tzero, tii, tab, toy_tensor, g23_net):
        assert check_embedding_tensor(t).ok
        rep = induced_representation(t)
        rho_l, rho_r = induced_representation_by_brackets(t)
        assert [m.entries for m in rep.rho_l] == rho_l
        assert [m.entries for m in rep.rho_r] == rho_r
        assert check_leibniz_rep(rep).ok


def test_setup_routes_read_structure_constants(t1, tii, g23_net, monkeypatch):
    # neither the representation nor an uncached coherent-action check
    # makes a unit vector of either algebra
    tensors = (t1, tii, g23_net, projection_tensor(heisenberg()))
    for t in tensors:
        check_embedding_tensor(t)
    calls = []
    original = Algebra.basis_vector
    monkeypatch.setattr(Algebra, "basis_vector", lambda a, i: calls.append(i) or original(a, i))
    for t in tensors:
        check_coherent_action.__wrapped__(t.action)
        induced_representation(t)
    assert calls == []
    t1.action.target.basis_vector(0)
    assert calls == [0]


def test_table_routes_make_no_unit_vectors(t1, ll3, monkeypatch):
    # every checker and induced construction reads its tables directly; only
    # the projection of the quotient reduces each e_j against the kernel
    h3, x = t1.action.target, (1, 2, -1)
    tm, ident = tensor_as_multimap(t1), Matrix.identity(3)
    routes = {
        "check_lie": lambda: check_lie(h3),
        "check_leibniz": lambda: check_leibniz(h3),
        "check_two_step_nilpotent": lambda: check_two_step_nilpotent(h3),
        "leibniz_kernel": lambda: leibniz_kernel(subadjacent(ll3)),
        "adjoint": lambda: h3.adjoint(x),
        "adjoint_action": lambda: adjoint_action(h3),
        "check_leibniz_lie": lambda: check_leibniz_lie(ll3),
        "subadjacent_representation": lambda: subadjacent_representation(ll3),
        "left_multiplication_tensor": lambda: left_multiplication_tensor(ll3),
        "square_failures": lambda: _square_failures(t1.action, x),
        "check_nijenhuis_operator": lambda: check_nijenhuis_operator(h3, t1.matrix),
        "derived_bracket": lambda: derived_bracket(tm, tm, t1.action),
        "induced_leibniz_lie": lambda: induced_leibniz_lie(t1),
        "descendent_table": lambda: descendent_table(t1),
        "check_tensor_homomorphism": lambda: check_tensor_homomorphism(t1, t1, ident, ident),
        "check_leibniz_lie_homomorphism": lambda: check_leibniz_lie_homomorphism(ll3, ll3, ident),
        "quotient_lie": lambda: quotient_lie(subadjacent(ll3)),
        "quotient_projection_tensor": lambda: quotient_projection_tensor(ll3),
    }
    check_embedding_tensor(t1)
    calls = []
    original = Algebra.basis_vector
    monkeypatch.setattr(Algebra, "basis_vector", lambda a, i: calls.append(i) or original(a, i))
    made = {}
    for name, route in routes.items():
        route()
        made[name], calls[:] = list(calls), []
    projections = ("quotient_lie", "quotient_projection_tensor")
    assert made == {name: [0, 1, 2] if name in projections else [] for name in routes}


def test_top_rung_cohomology_stays_sparse():
    # h5's d4 is 3125 x 625 with 2,440 nonzeros; densified it alone is ~15 MB of slots
    t = EmbeddingTensor(adjoint_action(heisenberg5()), Matrix.zero(5, 5))
    tracemalloc.start()
    try:
        report = cohomology(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.dim_z, report.dim_b, report.dim_h) == (350, 45, 305)
    assert peak < 8 * 1024 * 1024


def test_h9_degree_four_rung():
    # the cocycle basis is 4617 x 6561; held as dense tuples this took ~270 MB
    t = EmbeddingTensor(adjoint_action(heisenberg_of(9)), Matrix.zero(9, 9))
    report = cohomology(t, 4)
    assert (report.dim_z, report.dim_b, report.dim_h) == (4617, 153, 4464)


def test_subspaces_stay_sparse_until_output(t1, monkeypatch):
    """Rational and dense echelon rows are made only at the output boundary:
    no ``Subspace`` of a cohomology query or class test builds ``rows`` or
    ``basis``, and writing the report out makes each row rational and dense
    without keeping either."""
    made = []
    monkeypatch.setattr(Subspace, "__post_init__", lambda s: made.append(s))
    report = cohomology(t1, 3)
    cocycle = [0] * report.cocycle_basis.ambient_dim
    for c, x in report.cocycle_basis.echelon[-1]:
        cocycle[c] = x
    cocycle = MultiMap(2, 3, 3, tuple(cocycle))
    exact = tensor_coboundary(t1, Matrix.from_rows([[1, 0, 2], [0, 3, 0], [1, 1, 0]]))
    assert class_equals(t1, cocycle, cocycle + exact, 3)
    assert not class_equals(t1, cocycle, MultiMap.zero(2, 3, 3), 3)
    assert len(made) == 2  # the cocycles and the coboundaries; class_equals reuses the latter
    payload = report.to_json()
    assert not any("basis" in vars(s) or "rows" in vars(s) for s in made)
    rational = [0] * report.cocycle_basis.ambient_dim
    for c, x in report.cocycle_basis.rows[-1]:
        rational[c] = x
    assert payload["cocycleBasis"][-1] == [int(x) if x.denominator == 1 else str(x)
                                           for x in rational]
    assert "basis" not in vars(report.cocycle_basis)


def test_queries_on_integer_rows_make_no_fraction(tii, monkeypatch):
    """Tii's d_k hold ``Fraction``s, yet once its complex is assembled its
    kernels, images, containment check and class tests run on integer rows:
    with ``linalg.frac``, the one maker of rationals, patched to raise, all of
    them succeed on ``int`` and ``Fraction`` cochains."""
    cohomology(tii, 1)  # the complex and its induced representation
    cx = _complex_at(tii, 4, 4)
    for k in (3, 4):
        cx.rows(k)
    n = tii.action.target.dim
    y = MultiMap(2, n, n, tuple(Fraction(i % 5 - 2, i % 3 + 1) for i in range(n ** 3)))
    exact = tensor_coboundary(tii, y)
    outside = MultiMap(3, n, n, (1,) + (0,) * (n ** 4 - 1))

    def refuse(*args):
        raise AssertionError("frac called")

    monkeypatch.setattr(linalg, "frac", refuse)
    cocycles, coboundaries = cx.cocycles(4), cx.image(4)
    assert (cocycles.dim, coboundaries.dim, quotient_dim(cocycles, coboundaries)) == (24, 19, 5)
    answers = []
    for row in cocycles.echelon:
        f = [0] * cocycles.ambient_dim
        for c, x in row:
            f[c] = x
        as_int = MultiMap(3, n, n, tuple(f))
        as_fraction = MultiMap(3, n, n, tuple(Fraction(x, 7) for x in f))
        assert class_equals(tii, as_int, as_int + exact, 4)
        assert class_equals(tii, as_fraction + exact, as_fraction, 4)
        answers.append(class_equals(tii, as_fraction, MultiMap.zero(3, n, n), 4))
        assert answers[-1] is coboundaries.contains(f)
        with pytest.raises(NotACocycle, match="^the second cochain"):
            class_equals(tii, as_fraction, outside, 4)
    assert answers.count(False) >= 5  # the rows of Z^4 span it, and dim H^4 = 5


def test_cohomology_of_zero_tensor_in_degree_one(tzero):
    report = cohomology(tzero, 1)
    assert (report.dim_z, report.dim_b, report.dim_h) == (3, 0, 3)


def test_cohomology_of_example_tensor_in_degree_one(t1):
    report = cohomology(t1, 1)
    # the kernel of the 9x3 coboundary matrix, cross-checked fraction-free
    cx = TensorComplex(t1, 4)
    m = cx.differential(1)
    assert report.dim_h == m.cols - bareiss_rank(m.to_rows())
    assert report.dim_h == 2
    assert report.cocycle_basis.contains(unit_vector(3, 1))
    assert report.cocycle_basis.contains(unit_vector(3, 2))


def test_cohomology_of_toy_in_degree_two(toy_tensor):
    report = cohomology(toy_tensor, 2)
    assert (report.dim_z, report.dim_b, report.dim_h) == (1, 0, 1)


def test_cohomology_dims_match_fraction_free_oracle(t1, tii):
    for t in (t1, tii):
        cx = TensorComplex(t, 4)
        for k in (1, 2, 3):
            report = cohomology(t, k)
            mk = cx.differential(k)
            z = mk.cols - bareiss_rank(mk.to_rows())
            b = 0 if k == 1 else bareiss_rank(cx.differential(k - 1).to_rows())
            assert (report.dim_z, report.dim_b) == (z, b)
            assert report.dim_h == z - b
            assert report.coboundary_basis.is_subspace_of(report.cocycle_basis)


def random_rung(kind: str, rng: random.Random) -> tuple[EmbeddingTensor, int]:
    """A random tensor of one complex-ladder kind, with the top degree it is checked to."""
    if kind == "h5-central":
        row = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4)] + [0]
        return EmbeddingTensor(adjoint_action(heisenberg5()),
                               Matrix.from_rows([[0] * 5] * 4 + [row])), 2
    if kind == "g2-h3":
        rows = [[rand_fraction(rng), rand_fraction(rng), 0] for _ in range(2)]
        return EmbeddingTensor(g2h3_action(rng.randint(0, 50)), Matrix.from_rows(rows)), 3
    ad3 = adjoint_action(heisenberg())
    if kind == "family-i":
        return EmbeddingTensor(ad3, family_i_matrix(rng, rng.randint(0, 1))), 3
    r = rng.choice((1, 2, -2, 3))
    return EmbeddingTensor(ad3, family_ii_matrix(rng, Fraction(r), Fraction(r * r, r + 1))), 3


@pytest.mark.parametrize("kind", ["family-i", "family-ii", "g2-h3", "h5-central"])
@settings(derandomize=True, database=None, max_examples=15, deadline=None,
          phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 16))
def test_random_cohomology_dims_are_bareiss_ranks(kind, seed):
    """dim Z^k = columns - rank d_k and dim B^k = rank d_(k-1), each rank by
    fraction-free elimination of the densified d_k."""
    t, top = random_rung(kind, random.Random(seed))
    assert check_embedding_tensor(t).ok
    cx = TensorComplex(t, 4)
    for k in range(1, top + 1):
        report = cohomology(t, k)
        z = cx.cochain_dim(k) - bareiss_rank(cx.differential(k).to_rows())
        b = bareiss_rank(cx.differential(k - 1).to_rows())
        assert (report.dim_z, report.dim_b, report.dim_h) == (z, b, z - b)


def test_degree_out_of_range(t1):
    with pytest.raises(DegreeOutOfRange):
        cohomology(t1, 0)
    with pytest.raises(DegreeOutOfRange):
        cohomology(t1, 7)


def count_calls(monkeypatch, name: str) -> list:
    """Patch ``embtens.cohomology.<name>`` to record, per call, the arguments
    after the first, and return the record."""
    module = importlib.import_module("embtens.cohomology")  # the package name is the function
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda first, *rest: calls.append(rest) or original(first, *rest))
    return calls


def test_queries_on_one_tensor_share_its_complex(t1, monkeypatch):
    """Repeated queries assemble each d_k, the induced representation and
    each degree's cocycles once, for as long as the cached verdict lives,
    whether ``cohomology`` or ``class_equals`` asks first; clearing the
    verification cache, as the benchmark does before every pass, builds them
    again.  A kernel is recorded by its number of columns."""
    arities = count_calls(monkeypatch, "lp_differential")
    reps = count_calls(monkeypatch, "induced_representation")
    kernels = count_calls(monkeypatch, "sparse_kernel")
    report = cohomology(t1, 3)
    assert cohomology(t1, 3) == report
    cocycle = MultiMap(2, 3, 3, report.cocycle_basis.basis[0])
    assert class_equals(t1, cocycle, cocycle, 3)
    assert (arities, len(reps), kernels) == ([(2,), (1,)], 1, [(27,)])
    zero = Matrix.zero(3, 3)
    assert class_equals(t1, zero, zero, 2)
    assert cohomology(t1, 2).cocycle_basis.contains(matrix_as_multimap(zero).coeffs)
    assert (arities, len(reps), kernels) == ([(2,), (1,), (0,)], 1, [(27,), (9,)])
    check_embedding_tensor.cache_clear()
    assert class_equals(t1, cocycle, cocycle, 3)
    assert cohomology(t1, 3) == report
    assert (arities[3:], len(reps), kernels[2:]) == ([(2,), (1,)], 2, [(27,)])


def test_memoised_queries_match_a_fresh_complex(t1, tzero, tii, tab, toy_tensor, g23_net):
    for t in (t1, tzero, tii, tab, toy_tensor, g23_net):
        for k in range(1, 5):
            cx = TensorComplex(t, 4)
            cocycles = sparse_kernel(cx.rows(k), cx.cochain_dim(k))
            coboundaries = sparse_image(cx.rows(k - 1), cx.cochain_dim(k - 1))
            for _ in range(2):  # the first query builds the memo, the second reads it
                report = cohomology(t, k)
                assert (report.cocycle_basis, report.coboundary_basis) == (cocycles, coboundaries)
                assert report.dim_h == cocycles.dim - coboundaries.dim


def test_a_failing_tensor_raises_every_time_and_gets_no_complex(t1):
    not_a_tensor = t1.with_matrix(Matrix.identity(3))
    for _ in range(2):
        with pytest.raises(NotAnEmbeddingTensor):
            cohomology(not_a_tensor, 2)
        with pytest.raises(NotAnEmbeddingTensor):
            class_equals(not_a_tensor, Matrix.zero(3, 3), Matrix.zero(3, 3), 2)
    report = check_embedding_tensor(not_a_tensor)
    assert not report.ok and "_complex" not in vars(report)


def test_each_query_keeps_its_own_degree_bound(t1):
    assert cohomology(t1, 4, max_degree=4).degree == 4
    with pytest.raises(DegreeOutOfRange):
        cohomology(t1, 4, max_degree=3)
    with pytest.raises(DegreeOutOfRange):
        class_equals(t1, Matrix.zero(3, 3), Matrix.zero(3, 3), 4, max_degree=3)


def test_complex_starts_with_the_zero_map_out_of_degree_zero(t1, g23_net):
    for t in (t1, g23_net):
        cx = TensorComplex(t, 4)
        assert cx.rows(0) == [{}] * cx.cochain_dim(1) == lp_differential(cx._rep, -1)
        d0 = cx.differential(0)
        assert (d0.rows, d0.cols, d0.entries) == (cx.cochain_dim(1), 0, ())
        for k in (-1, 5):
            with pytest.raises(DegreeOutOfRange):
                cx.differential(k)


def test_queries_leave_the_rows_of_the_complex_unchanged(t1, tii):
    """rows(k) feeds both cocycles(k) and image(k + 1), so neither may change
    it; Tii's 4/3 takes the rows through clearing denominators."""
    for t in (t1, tii):
        cx = TensorComplex(t, 4)
        for k in range(4):
            before = copy.deepcopy(cx.rows(k))
            cx.cocycles(k)
            cx.image(k + 1)
            assert cx.rows(k) == before and repr(cx.rows(k)) == repr(before)


def test_kernel_reduces_fewer_rows_than_it_is_given(t1, monkeypatch):
    """Work counted, not timed: the kernel of d_4 of T1 calls ``_eliminate``
    fewer times than d_4 has nonempty rows, as its one-entry rows, and those
    their cuts leave, become unit pivots without a reduction."""
    cx = TensorComplex(t1, 4)
    rows = cx.rows(4)
    linalg = importlib.import_module("embtens.linalg")
    calls = []
    monkeypatch.setattr(linalg, "_eliminate", lambda row, by_pivot, step=linalg._eliminate:
                        calls.append(1) or step(row, by_pivot))
    sparse_kernel(rows, cx.cochain_dim(4))
    assert sum(1 for row in rows if row) == 181
    assert 0 < len(calls) < 181


def test_class_equals_reflexive(t1):
    d = multimap_as_matrix(tensor_coboundary(t1, unit_vector(3, 0)))
    assert class_equals(t1, d, d, 2)


def test_class_equals_coboundary_vs_zero(t1):
    d = multimap_as_matrix(tensor_coboundary(t1, unit_vector(3, 0)))
    assert class_equals(t1, d, Matrix.zero(3, 3), 2)


def test_class_equals_distinguishes_on_toy(toy_tensor):
    # both cochains are cocycles; their difference spans the 1-dim H^2
    f = Matrix.zero(1, 1)
    g = Matrix.from_rows([[1]])
    assert not class_equals(toy_tensor, f, g, 2)


def test_class_equals_degree_one_needs_source_vectors(t1):
    d = multimap_as_matrix(tensor_coboundary(t1, unit_vector(3, 0)))
    for f in (d, matrix_as_multimap(d)):
        with pytest.raises(DimensionMismatch):
            class_equals(t1, f, f, 1)
    assert class_equals(t1, unit_vector(3, 1), unit_vector(3, 1), 1)
    # nothing is a coboundary in degree one
    assert not class_equals(t1, unit_vector(3, 1), unit_vector(3, 2), 1)


@pytest.mark.parametrize("which", ["first", "second"])
def test_class_equals_names_the_non_cocycle(t1, which, monkeypatch):
    """The same error, naming the same argument, whether the degree's
    cocycles are built by the check or were memoised before it."""
    non_cocycle, zero = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Matrix.zero(3, 3)
    args = (non_cocycle, zero) if which == "first" else (zero, non_cocycle)
    kernels = count_calls(monkeypatch, "sparse_kernel")
    message = f"^the {which} cochain is not a cocycle in degree 2$"
    with pytest.raises(NotACocycle, match=message):
        class_equals(t1, *args, 2)
    assert kernels == [(9,)]
    check_embedding_tensor.cache_clear()
    assert not cohomology(t1, 2).cocycle_basis.contains(matrix_as_multimap(non_cocycle).coeffs)
    for _ in range(2):
        with pytest.raises(NotACocycle, match=message):
            class_equals(t1, *args, 2)
    assert kernels == [(9,), (9,)]


def class_equals_by_bareiss(cx: TensorComplex, k: int, f, g):
    """What ``class_equals`` must answer: the cochain it must refuse, "first"
    or "second", when d_k, applied entry by entry, does not kill it; else
    whether f - g lies in the column space of d_(k-1), by Bareiss ranks."""
    for name, v in (("first", f), ("second", g)):
        if any(sum(a * x for a, x in zip(row, v)) for row in cx.differential(k).to_rows()):
            return name
    d = cx.differential(k - 1)
    cols = [d.col(j) for j in range(d.cols)]
    return bareiss_rank(cols + [[a - b for a, b in zip(f, g)]]) == bareiss_rank(cols)


@pytest.mark.parametrize("kind", ["family-i", "family-ii", "g2-h3", "h5-central"])
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 16), exact=st.booleans(),
       broken=st.sampled_from(((), ("first",), ("second",), ("first", "second"))))
def test_class_equals_agrees_with_bareiss(kind, seed, exact, broken):
    """Random cocycles f and g = f + d y (``exact``) or g another cocycle,
    each perhaps moved off the cocycles by a random cochain: the answer, or
    the cochain refused, is the oracle's, the first named whenever both fail."""
    rng = random.Random(seed)
    t, top = random_rung(kind, rng)
    k = rng.randint(2, top)
    cx, (n, m) = TensorComplex(t, top), (t.action.target.dim, t.action.source.dim)
    basis = cohomology(t, k).cocycle_basis.basis

    def cocycle() -> list:
        out = [Fraction(0)] * cx.cochain_dim(k)
        for b in basis:
            c = rng.randint(-2, 2)
            out = [x + c * y for x, y in zip(out, b)]
        return out

    f = cocycle()
    if exact:
        y = MultiMap(k - 2, n, m,
                     tuple(Fraction(rng.randint(-2, 2)) for _ in range(n ** (k - 2) * m)))
        g = [a + b for a, b in zip(f, tensor_coboundary(t, y).coeffs)]
    else:
        g = cocycle()
    f, g = ([x + rng.randint(-1, 1) for x in v] if name in broken else v
            for name, v in (("first", f), ("second", g)))
    expected = class_equals_by_bareiss(cx, k, f, g)
    assert expected is True or not exact or broken
    f, g = (MultiMap(k - 1, n, m, tuple(v)) for v in (f, g))
    if isinstance(expected, str):
        with pytest.raises(NotACocycle, match=f"^the {expected} cochain is not a cocycle"):
            class_equals(t, f, g, k)
    else:
        assert class_equals(t, f, g, k) is expected


CLASS_TENSORS = {
    "h3-T1": lambda: EmbeddingTensor(adjoint_action(heisenberg()),
                                     Matrix.from_rows([[0, 0, 0], [1, 0, 0], [2, 3, 0]])),
    "h3-Tii": lambda: EmbeddingTensor(adjoint_action(heisenberg()), Matrix.from_rows(
        [[2, 0, 0], [0, 2, 0], [0, 0, Fraction(4, 3)]])),
    "g2h3": lambda: EmbeddingTensor(g2h3_action(), Matrix.from_rows([[1, -2, 0],
                                                                     [Fraction(1, 2), 3, 0]])),
}
FRACTIONS = st.sampled_from([Fraction(c) for c in (0, 0, 0, 1, -1, 2, "1/2", "-2/3", "5/3")])


@pytest.mark.parametrize("name", sorted(CLASS_TENSORS))
@settings(derandomize=True, database=None, max_examples=20, deadline=None,
          phases=[Phase.generate])
@given(k=st.sampled_from((2, 3)), exact=st.booleans(),
       broken=st.sampled_from(((), ("first",), ("second",), ("first", "second"))),
       data=st.data())
def test_fraction_cochains_agree_with_bareiss(name, k, exact, broken, data):
    """Cocycles with ``Fraction`` coefficients, g = f + d y (``exact``, y with
    ``Fraction`` coefficients too) or another cocycle, each perhaps moved off
    the cocycles by a ``Fraction`` cochain: the answer is the Bareiss-rank
    oracle's, and ``NotACocycle`` names the first cochain, then the second."""
    t = CLASS_TENSORS[name]()
    cx, (n, m) = TensorComplex(t, k), (t.action.target.dim, t.action.source.dim)
    basis, size = cohomology(t, k).cocycle_basis.basis, cx.cochain_dim(k)

    def draw(count: int) -> list:
        return data.draw(st.lists(FRACTIONS, min_size=count, max_size=count))

    def cocycle() -> list:
        coeffs = draw(len(basis))
        return [sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(size)]

    f = cocycle()
    if exact:
        y = MultiMap(k - 2, n, m, tuple(draw(n ** (k - 2) * m)))
        g = [a + b for a, b in zip(f, tensor_coboundary(t, y).coeffs)]
    else:
        g = cocycle()
    f, g = ([x + d for x, d in zip(v, draw(size))] if which in broken else v
            for which, v in (("first", f), ("second", g)))
    expected = class_equals_by_bareiss(cx, k, f, g)
    assert expected is True or not exact or broken
    f, g = (MultiMap(k - 1, n, m, tuple(v)) for v in (f, g))
    if isinstance(expected, str):
        with pytest.raises(NotACocycle, match=f"^the {expected} cochain is not a cocycle"):
            class_equals(t, f, g, k)
    else:
        assert class_equals(t, f, g, k) is expected


@pytest.mark.parametrize("f, g, error, message", [
    (MultiMap(1, 3, 3, (0.5,) + (0,) * 8), Matrix.zero(3, 3), ParseError,
     "refusing inexact scalar 0.5; use 'p/q' strings"),
    (Matrix.zero(3, 3), MultiMap(1, 3, 3, (0.0,) * 9), ParseError,
     "refusing inexact scalar 0.0; use 'p/q' strings"),
    (Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), MultiMap(1, 3, 3, (0.25,) * 9),
     ParseError, "refusing inexact scalar 0.25; use 'p/q' strings"),
    (Matrix(3, 3, (0.0,) * 9), Matrix.zero(3, 3), ParseError,
     "refusing inexact scalar 0.0; use 'p/q' strings"),
    (Matrix.zero(3, 3), Matrix(3, 3, (0.0,) * 9), ParseError,
     "refusing inexact scalar 0.0; use 'p/q' strings"),
    (Matrix.zero(3, 3), MultiMap.zero(2, 3, 3), DimensionMismatch,
     "a degree-2 cochain has arity 1, not 2 (a source vector has arity 0)"),
    (Matrix.zero(2, 3), Matrix.zero(3, 3), DimensionMismatch,
     "expected a map from the 3-dim space into the 3-dim one"),
    (Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Matrix.zero(3, 3), NotACocycle,
     "the first cochain is not a cocycle in degree 2"),
], ids=["float-first", "float-zero-second", "float-second-before-cocycle-test",
        "float-zero-matrix-first", "float-zero-matrix-second", "arity",
        "shape", "not-a-cocycle"])
def test_class_equals_typed_input_errors(t1, f, g, error, message):
    """Each cochain is read, shape and scalars, before any membership test."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        class_equals(t1, f, g, 2)


def test_each_representation_lists_its_nonzero_entries_once(t1, g23_net, monkeypatch):
    """``lp_differential`` reads the nonzero entries of rho_l and rho_r from
    the representation, listed once, in every degree."""
    reps = [induced_representation(t) for t in (t1, g23_net)]
    for rep in reps:
        assert rep.nonzero == tuple([op.nonzero() for op in ops] for ops in (rep.rho_l, rep.rho_r))
    expected = [[lp_differential(rep, a) for a in range(-1, 4)] for rep in reps]

    def refuse(m):
        raise AssertionError("nonzero entries listed again")

    monkeypatch.setattr(Matrix, "nonzero", refuse)
    assert [[lp_differential(rep, a) for a in range(-1, 4)] for rep in reps] == expected


def test_class_equals_rejects_non_cocycle(t1):
    non_cocycle = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    cx = TensorComplex(t1, 4)
    assert not all(x == 0 for x in cx.differential(2).apply(matrix_as_multimap(non_cocycle).coeffs))
    with pytest.raises(NotACocycle):
        class_equals(t1, non_cocycle, Matrix.zero(3, 3), 2)
