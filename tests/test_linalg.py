"""Exact linear algebra: echelon forms, kernels, subspaces, scalars."""
import copy
import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    UNCHECKED,
    Action,
    Algebra,
    CheckReport,
    DimensionMismatch,
    EmbeddingTensor,
    Failure,
    LeibnizLie,
    Matrix,
    MultiMap,
    NotASubspace,
    ParseError,
    Subspace,
    adjoint_action,
    check_embedding_tensor,
    conjugated_tensor,
    kernel_basis,
    parse_scalar,
    quotient_dim,
    rank,
    rref,
    scalar_to_json,
    unit_vector,
)
from embtens import linalg
from embtens.linalg import (Record, _sparse_rref, column_space, frac, sparse_image, sparse_kernel,
                            vector, vector_to_json)
from embtens.workspace import matrix_to_json
from conftest import heisenberg, rand_fraction, rand_matrix
from oracles import bareiss_rank, bilinear_oracle, dense_rref


def test_rref_identity():
    m = Matrix.identity(2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_rank_one():
    red, pivots = rref(Matrix.from_rows([[2, 4], [1, 2]]))
    assert red.to_rows() == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_rref_random_rank_matches_fraction_free_oracle():
    rng = random.Random(13)
    for _ in range(30):
        m = rand_matrix(rng, 5, 7)
        assert rank(m) == bareiss_rank(m.to_rows())


def test_rref_idempotent():
    rng = random.Random(14)
    for _ in range(20):
        m = rand_matrix(rng, 4, 6)
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


def test_rank_nullity():
    rng = random.Random(15)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) + kernel_basis(m).dim == m.cols


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(3)).dim == 0
    assert kernel_basis(Matrix.zero(3, 3)).dim == 3


def test_kernel_of_rank_one_matrix():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert ker.contains((Fraction(-2), Fraction(1)))
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_vectors_annihilated():
    rng = random.Random(16)
    for _ in range(15):
        m = rand_matrix(rng, 3, 5)
        for v in kernel_basis(m).basis:
            assert all(x == 0 for x in m.apply(v))


def test_subspace_canonical_equality():
    a = Subspace.from_spanning(3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_spanning(3, [(1, 2, 1), (2, 3, 1), (1, 1, 0)])
    assert a == b
    assert a.pivots == (0, 1)


def test_subspace_membership_and_coordinates():
    s = Subspace.from_spanning(3, [(1, 0, 2), (0, 1, -1)])
    v = (Fraction(2), Fraction(3), Fraction(1))
    assert s.contains(v)
    coords = s.coordinates(v)
    assert coords == (Fraction(2), Fraction(3))
    assert not s.contains((1, 0, 0))
    assert s.coordinates((1, 0, 0)) is None


def test_subspace_json_leaves_the_basis_unbuilt():
    """``to_json`` makes each echelon row dense as it writes it: a cached
    subspace keeps no dense basis afterwards, and the rows read the same."""
    s = Subspace.from_spanning(4, [(2, 0, 1, 0), (0, 3, 0, Fraction(1, 2))])
    text = s.to_json()
    assert "basis" not in s.__dict__
    assert text == [[1, 0, "1/2", 0], [0, 1, 0, "1/6"]] == [vector_to_json(v) for v in s.basis]


def test_coordinates_check_the_length_first():
    # the pivot (2) lies outside a vector of length 1
    with pytest.raises(DimensionMismatch):
        Subspace.from_spanning(3, [(0, 0, 1)]).coordinates((1,))


def test_quotient_dim():
    full = Subspace.full(3)
    line = Subspace.from_spanning(3, [(1, 2, 3)])
    assert quotient_dim(full, full) == 0
    assert quotient_dim(full, Subspace.zero(3)) == 3
    assert quotient_dim(full, line) == 2
    with pytest.raises(NotASubspace):
        quotient_dim(line, full)


def test_matrix_inverse():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = m.try_inverse()
    assert inv is not None
    assert inv @ m == Matrix.identity(2)
    assert Matrix.from_rows([[1, 2], [2, 4]]).try_inverse() is None


def test_scalar_json_round_trip():
    assert parse_scalar("4/3") == Fraction(4, 3)
    assert parse_scalar(2) == Fraction(2)
    assert parse_scalar("-2/3") == Fraction(-2, 3)
    assert scalar_to_json(Fraction(4, 3)) == "4/3"
    assert scalar_to_json(Fraction(-6, 3)) == -2
    for x in (Fraction(0), Fraction(7, 5), Fraction(-9, 4), Fraction(12)):
        assert parse_scalar(scalar_to_json(x)) == x


def test_scalar_rejects_floats_and_junk():
    with pytest.raises(ParseError):
        parse_scalar("0.5")
    with pytest.raises(ParseError):
        parse_scalar(True)
    with pytest.raises(ParseError):
        parse_scalar("1/0")


class Ratio(Fraction):
    """A ``Fraction`` subclass, which ``frac`` takes by its general route."""


def frac_by_fraction(value, den=None):
    """``frac``'s answer by the general route alone: one ``Fraction`` of the
    arguments, then its numerator when it is whole."""
    if den is not None:
        value = Fraction(value, den)
    elif not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@pytest.mark.parametrize("args", [
    (Fraction(6, 3),), (Fraction(-3, 6),), (Fraction(0),), (Ratio(4, 2),), (Ratio(1, 2),),
    (True,), (False,), ("6/4",), ("-4/2",), (7,), (6, 3), (Fraction(1, 2), 2),
    (Fraction(4, 3), Fraction(2, 3)), (Ratio(1, 3), 3)])
def test_frac_matches_the_general_route(args):
    got, want = frac(*args), frac_by_fraction(*args)
    assert (got, type(got)) == (want, type(want))


def test_frac_takes_whole_fractions_to_ints():
    whole, proper = Fraction(6, 3), Fraction(-3, 6)
    assert type(frac(whole)) is int and frac(whole) == 2
    assert frac(proper) is proper
    with pytest.raises(ParseError, match="^refusing inexact scalar 2.0;"):
        frac(2.0)


def test_exactness_of_products():
    rng = random.Random(17)
    for _ in range(50):
        x = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        assert x * (1 / x) == 1


SMALL = st.sampled_from([Fraction(c) for c in (0, 0, 0, 1, -1, 2, "1/2", "-3/2", "2/3")])


# no shrink phase: shrinking the long flat draw takes minutes
@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          phases=[Phase.generate])
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_bilinear_kernel_matches_triple_sum(n, m, data):
    """Brackets, triangle products and actions against a plain triple sum."""
    size = (2 * n + m) * n * n + m ** 3 + 2 * n + m
    flat = iter(data.draw(st.lists(SMALL, min_size=size, max_size=size)))

    def vec(d):
        return tuple(next(flat) for _ in range(d))

    def table(rows, cols, d):
        return tuple(tuple(vec(d) for _ in range(cols)) for _ in range(rows))

    sc, triangle, x, y = table(n, n, n), table(n, n, n), vec(n), vec(n)
    h = Algebra("h", n, sc)
    assert h.bracket(x, y) == bilinear_oracle(sc, x, y)
    assert LeibnizLie(h, triangle).product(x, y) == bilinear_oracle(triangle, x, y)
    rho_table = table(m, n, n)
    action = Action(Algebra("g", m, table(m, m, m)), h,
                    tuple(Matrix.from_columns(row) for row in rho_table))
    z = vec(m)
    assert action.apply(z, x) == bilinear_oracle(rho_table, z, x)
    assert action.of(z) == Matrix.from_columns(
        [bilinear_oracle(rho_table, z, unit_vector(n, a)) for a in range(n)])


def echelon_basis(rows, ncols: int) -> tuple:
    """The nonzero rows of the dense oracle's RREF, as a canonical basis."""
    red, pivots = dense_rref(rows, ncols)
    return tuple(tuple(row) for row in red[:len(pivots)])


def assert_canonical_scalars(values) -> None:
    """Each scalar is an ``int`` when whole and a ``Fraction`` with a
    denominator above 1 otherwise."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


def assert_integer_echelon(space: Subspace) -> None:
    """Each echelon row is primitive integers with its pivot first and positive,
    is zero at every other pivot, and the rows alone give the same record."""
    pivots = {row[0][0] for row in space.echelon}
    for row in space.echelon:
        assert all(type(x) is int and x for _, x in row)
        assert gcd(*(x for _, x in row)) == 1 and row[0][1] > 0
        assert [c for c, _ in row] == sorted({c for c, _ in row})
        assert pivots.isdisjoint(c for c, _ in row[1:])
    again = Subspace(space.ambient_dim, space.echelon)
    assert again == space and hash(again) == hash(space)


def assert_matches_dense_oracle(rows, ncols: int) -> None:
    """rref, span, kernel and column space against the dense oracle, with
    every scalar they put out in canonical form, and every space held by
    integer echelon rows."""
    m = Matrix(len(rows), ncols, tuple(Fraction(x) for row in rows for x in row))
    red, pivots = dense_rref(rows, ncols)
    reduced = rref(m)
    assert reduced == (Matrix(m.rows, ncols, tuple(x for row in red for x in row)), pivots)
    assert len(pivots) == bareiss_rank(rows)
    span = Subspace.from_spanning(ncols, rows)
    assert span.basis == echelon_basis(rows, ncols)
    assert span.pivots == pivots
    free = [f for f in range(ncols) if f not in pivots]
    kernel = [[1 if c == f else 0 for c in range(ncols)] for f in free]
    for vec, f in zip(kernel, free):
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
    ker = kernel_basis(m)
    assert ker.basis == echelon_basis(kernel, ncols)
    assert ker.dim == ncols - bareiss_rank(rows)
    columns = [[row[j] for row in rows] for j in range(ncols)]
    image = column_space(m)
    assert image.basis == echelon_basis(columns, len(rows))
    assert_canonical_scalars(reduced[0].entries)
    for space in (span, ker, image):
        assert_canonical_scalars(x for row in space.basis for x in row)
        assert_canonical_scalars(x for row in space.rows for _, x in row)
        assert_integer_echelon(space)


SPARSE = st.sampled_from([Fraction(c) for c in (0,) * 12 + (
    1, -1, 2, 3, -6, "1/2", "-3/2", "2/3", "7/5", "-11/6")] + [Fraction(4, 2)])


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.integers(0, 5), st.integers(1, 6), st.data())
def test_sparse_elimination_matches_dense_oracle(nrows, ncols, data):
    """rref, kernels, column spaces and spans against dense Gauss-Jordan.

    Each draw is also checked with its first row repeated, with a copy
    of its first column appended (a column that cannot hold a pivot), as
    the zero matrix of its shape, and with no rows at all.  The span's
    reduction, membership, coordinates and containment are checked
    against the dense echelon rows on a combination of the rows, a free
    vector and the span of a leading subset of the rows.
    """
    flat = data.draw(st.lists(SPARSE, min_size=nrows * ncols, max_size=nrows * ncols))
    rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    assert_matches_dense_oracle(rows, ncols)
    assert_matches_dense_oracle(rows + rows[:1], ncols)
    assert_matches_dense_oracle([row + row[:1] for row in rows], ncols + 1)
    assert_matches_dense_oracle([[Fraction(0)] * ncols for _ in rows], ncols)
    assert_matches_dense_oracle([], ncols)

    span = Subspace.from_spanning(ncols, rows)
    red, pivots = dense_rref(rows, ncols)
    basis = red[:len(pivots)]
    coeffs = data.draw(st.lists(SPARSE, min_size=nrows, max_size=nrows))
    combo = tuple(sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                  for j in range(ncols))
    free = tuple(data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols)))
    for v in (combo, free):
        residual = list(v)
        for row, p in zip(basis, pivots):
            residual = [x - residual[p] * y for x, y in zip(residual, row)]
        assert span.reduce(v) == tuple(residual)
        assert span.contains(v) is not any(residual)
        coords = span.coordinates(v)
        if any(residual):
            assert coords is None
        else:
            assert tuple(sum((c * row[j] for c, row in zip(coords, basis)), Fraction(0))
                         for j in range(ncols)) == v
    assert span.contains(combo)
    cut = data.draw(st.integers(0, nrows))
    part = Subspace.from_spanning(ncols, rows[:cut])
    assert part.is_subspace_of(span) and span.is_subspace_of(Subspace.full(ncols))
    assert span.is_subspace_of(part) is (part.dim == span.dim)
    assert quotient_dim(span, part) == bareiss_rank(rows) - bareiss_rank(rows[:cut])
    again = Subspace.from_spanning(ncols, rows[::-1] + [combo])
    assert again == span and hash(again) == hash(span)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.integers(0, 5), st.integers(1, 6), st.data())
def test_membership_is_a_zero_residual(nrows, ncols, data):
    """``contains`` reads the sparse residual: it says yes exactly when the
    dense residual ``reduce`` returns is zero, and it refuses a vector of the
    wrong length as ``reduce`` does."""
    rows = [data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    span = Subspace.from_spanning(ncols, rows)
    coeffs = data.draw(st.lists(SPARSE, min_size=nrows, max_size=nrows))
    combo = tuple(sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                  for j in range(ncols))
    free = tuple(data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols)))
    units = (unit_vector(ncols, j) for j in range(ncols))
    for v in (combo, free, vector(free), *units):
        assert span.contains(v) is not any(span.reduce(v))
    assert span.contains(combo)
    for n in (ncols - 1, ncols + 1):
        for probe in (span.contains, span.reduce):
            with pytest.raises(DimensionMismatch, match="^vector/ambient dimension mismatch$"):
                probe((Fraction(1),) * n)


NONZERO = st.sampled_from([Fraction(c) for c in (1, -1, 2, 3, -6, "1/2", "-3/2", "7/5")])


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.integers(0, 5), st.integers(1, 6), st.data())
def test_one_space_is_one_record(nrows, ncols, data):
    """A spanning set shuffled, each vector rescaled by a nonzero rational,
    spans an equal record with an equal hash, held by the same integer rows.
    Membership of random rational vectors, and containment of the span of
    some of them, agree with ranks by Bareiss elimination."""
    rows = [data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    span = Subspace.from_spanning(ncols, rows)
    order = data.draw(st.permutations(range(nrows)))
    scales = data.draw(st.lists(NONZERO, min_size=nrows, max_size=nrows))
    again = Subspace.from_spanning(ncols, [[c * x for x in rows[i]] for c, i in zip(scales, order)])
    assert again == span and hash(again) == hash(span) and again.echelon == span.echelon
    rank = bareiss_rank(rows)
    vectors = [tuple(data.draw(st.lists(SPARSE, min_size=ncols, max_size=ncols)))
               for _ in range(data.draw(st.integers(0, 3)))]
    for v in vectors:
        assert span.contains(v) is (bareiss_rank(rows + [list(v)]) == rank)
    other = Subspace.from_spanning(ncols, vectors)
    assert other.is_subspace_of(span) is (bareiss_rank(rows + [list(v) for v in vectors]) == rank)
    assert span.is_subspace_of(other) is (bareiss_rank(rows + [list(v) for v in vectors])
                                          == bareiss_rank(vectors))


@settings(derandomize=True, database=None, max_examples=80, deadline=None,
          phases=[Phase.generate])
@given(st.integers(1, 8), st.data())
def test_cascading_cuts_match_dense_oracle(ncols, data):
    """Rows of width up to 8, mostly with one or two nonzero entries, so that
    settling one-entry rows cascades: a cut leaves a new one-entry row, a row
    becomes empty, and two one-entry rows share a column.  rref, spans and
    column spaces pivot on the first column, kernels on the last."""
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        size = data.draw(st.sampled_from((0, 1, 1, 1, 2, 2, 2, 3)))
        cols = data.draw(st.lists(st.integers(0, ncols - 1), min_size=min(size, ncols),
                                  max_size=min(size, ncols), unique=True))
        rows.append([data.draw(NONZERO) if c in cols else Fraction(0) for c in range(ncols)])
    assert_matches_dense_oracle(rows, ncols)
    assert_matches_dense_oracle(rows + rows[:1], ncols)


def test_a_three_round_cascade_matches_dense_oracle(monkeypatch):
    """e_0 = 0 and e_5 = 0 (twice stated for e_0) cut the second row to
    e_1 = 0 and empty the fifth; that cuts the third row to e_2 = 0, and that
    cuts the fourth to two entries, the one row left to reduce.  A zero entry
    settles nothing.  The rows come out as integers, primitive with a positive
    pivot entry; divided by that entry they are the RREF."""
    dense = [[1, 0, 0, 0, 0, 0], [2, 3, 0, 0, 0, 0], [0, -1, Fraction(1, 2), 0, 0, 0],
             [0, 0, 1, 1, -2, 0], [1, 0, 0, 0, 0, -1], [0] * 6, [-3, 0, 0, 0, 0, 0],
             [0, 0, 0, 0, 0, 7]]
    assert_matches_dense_oracle(dense, 6)
    rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
    zeros = [{4: 0}, {4: Fraction(0), 2: 3}]  # explicit zeros, as derivation rows hold them
    for pick in (min, max):
        assert _sparse_rref(rows + zeros, pick) == _sparse_rref(rows, pick)
    calls = []
    monkeypatch.setattr(linalg, "_eliminate", lambda row, by_pivot, step=linalg._eliminate:
                        calls.append(dict(row)) or step(row, by_pivot))
    units = (((0, 1),), ((1, 1),), ((2, 1),))
    assert _sparse_rref(rows) == units + (((3, 1), (4, -2)), ((5, 1),))
    assert _sparse_rref(rows, max) == units + (((3, -1), (4, 2)), ((5, 1),))
    assert calls == [{3: 1, 4: -2}] * 2
    assert Subspace(6, _sparse_rref(rows)).rows == units + (((3, 1), (4, -2)), ((5, 1),))
    assert [tuple((c, frac(x, row[-1][1])) for c, x in row) for row in _sparse_rref(rows, max)] \
        == [*units, ((3, Fraction(-1, 2)), (4, 1)), ((5, 1),)]


def test_coefficient_growth_matches_the_oracles():
    """Two fixed inputs whose exact elimination grows its coefficients: the
    12 x 15 Hilbert block and a seeded dense 30 x 40 rational matrix."""
    hilbert = [[Fraction(1, i + j + 1) for j in range(15)] for i in range(12)]
    rng = random.Random(29)
    dense = [[rng.choice((1, -2, 3, Fraction(5, 7), Fraction(-3, 11))) for _ in range(40)]
             for _ in range(30)]
    for rows, ncols in ((hilbert, 15), (dense, 40)):
        assert_matches_dense_oracle(rows, ncols)
        assert rank(Matrix.from_rows(rows)) == bareiss_rank(rows) == len(rows)


def scalars_of(results) -> list:
    """Every scalar of an rref result, kernel, column space and span."""
    (red, _), *spaces = results
    return list(red.entries) + [x for s in spaces for row in s.basis for x in row]


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.integers(0, 5), st.integers(1, 6), st.data())
def test_scalar_input_type_makes_no_difference(nrows, ncols, data):
    """One integral matrix given with int entries, Fraction entries and
    'p/q' strings (whole, e.g. '6/3') eliminates to equal results with equal
    JSON, and no float or bool ever comes out."""
    n = nrows * ncols
    flat = data.draw(st.lists(st.sampled_from((0,) * 8 + (1, -1, 2, -3)), min_size=n, max_size=n))
    dens = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    forms = (flat, [Fraction(x) for x in flat],
             [parse_scalar(f"{x * q}/{q}") for x, q in zip(flat, dens)])
    outputs = []
    for entries in forms:
        m = Matrix(nrows, ncols, tuple(entries))
        rows = [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        results = (rref(m), kernel_basis(m), column_space(m), Subspace.from_spanning(ncols, rows))
        assert not any(isinstance(x, (float, bool)) for x in scalars_of(results))
        (red, pivots), *spaces = results
        text = json.dumps([matrix_to_json(red), list(pivots)] + [s.to_json() for s in spaces])
        outputs.append((results, text))
    assert outputs[0] == outputs[1] == outputs[2]


class Pair(Record):
    left: int
    right: int = 0


class Twin(Record):
    left: int
    right: int = 0


def test_record_takes_fields_by_position_keyword_and_default():
    assert Pair(1, 2) == Pair(1, right=2) == Pair(right=2, left=1)
    assert Pair(1).right == 0
    assert Algebra("a", 0, ()).flavor == UNCHECKED
    report = CheckReport("law", True)
    assert (report.failures, report.notes) == ((), ())
    assert Failure("law", (0, 1)).residual is None


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                               # missing field
    ((1, 2, 3), {}),                        # one positional too many
    ((1,), {"middle": 2}),                  # unknown field
    ((1,), {"left": 2}),                    # a field given twice
])
def test_record_refuses_missing_or_unknown_fields(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_record_post_init_checks_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Matrix(rows=1, cols=2, entries=(1,))


def test_record_equality_and_hash_follow_the_fields():
    a, b = Matrix(1, 2, (1, Fraction(1, 2))), Matrix(1, 2, (1, Fraction(1, 2)))
    assert a is not b and a == b and hash(a) == hash(b) == hash((1, 2, (1, Fraction(1, 2))))
    assert a != Matrix(2, 1, (1, Fraction(1, 2)))
    assert Pair(1, 2) != Twin(1, 2) and Twin(1, 2) != Pair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert len({Pair(1, 2), Pair(1, 2), Twin(1, 2)}) == 2


def test_record_is_frozen():
    m = Matrix.identity(1)
    with pytest.raises(AttributeError):
        m.rows = 2
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        del m.rows
    assert m == Matrix(1, 1, (1,))


def test_record_repr_names_every_field():
    assert repr(Matrix(1, 1, (1,))) == "Matrix(rows=1, cols=1, entries=(1,))"
    assert repr(Failure("law", (0,))) == "Failure(law='law', where=(0,), residual=None)"
    assert repr(Pair(1)) == "Pair(left=1, right=0)"


def test_record_keeps_cached_properties():
    s = Subspace.from_spanning(3, [(0, 1, 2), (0, 0, 3)])
    assert s.pivots is s.pivots == (1, 2)
    assert s == Subspace(3, s.echelon)
    assert s.rows is s.rows == (((1, 1),), ((2, 1),))
    assert s.basis is s.basis


def test_equal_tensors_share_one_cached_check():
    def tensor():
        return EmbeddingTensor(adjoint_action(heisenberg()),
                               Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))

    first, second = tensor(), tensor()
    assert first is not second and first == second and hash(first) == hash(second)
    report = check_embedding_tensor(first)
    hits = check_embedding_tensor.cache_info().hits
    assert check_embedding_tensor(second) is report
    assert check_embedding_tensor.cache_info().hits == hits + 1


# the two flat-coefficient records, each with six entries in one shape
FLATS = {"Matrix": lambda vals: Matrix(2, 3, tuple(vals)),
         "MultiMap": lambda vals: MultiMap(1, 3, 2, tuple(vals))}


@pytest.mark.parametrize("make", FLATS.values(), ids=FLATS.keys())
def test_flat_arithmetic_is_entrywise(make):
    rng = random.Random(31)
    for _ in range(25):
        a = [rand_fraction(rng) for _ in range(6)]
        b = [rand_fraction(rng) for _ in range(6)]
        c = rand_fraction(rng)
        x, y = make(a), make(b)
        assert x + y == make([p + q for p, q in zip(a, b)])
        assert x - y == make([p - q for p, q in zip(a, b)])
        assert -x == make([-p for p in a])
        scaled = [frac(c * p) for p in a]
        assert x.scale(c) == make(scaled)
        assert list(map(type, x.scale(c)._values[-1])) == list(map(type, scaled))
        assert x.is_zero() == all(p == 0 for p in a)
    assert make([0] * 6).is_zero() and not make([0] * 5 + [Fraction(1, 3)]).is_zero()
    assert type(-make(range(6))) is type(make(range(6)).scale(2)) is type(make(range(6)))


def test_flat_arithmetic_needs_one_class_and_shape():
    vals = tuple(range(6))
    m, f = Matrix(2, 3, vals), MultiMap(1, 3, 2, vals)
    mismatched = [(m, f), (f, m), (m, Matrix(3, 2, vals)), (f, MultiMap(1, 2, 3, vals)),
                  (f, MultiMap(0, 3, 6, vals))]
    for a, b in mismatched:
        for op in (lambda: a + b, lambda: a - b):
            with pytest.raises(DimensionMismatch, match="shape mismatch"):
                op()


@pytest.mark.parametrize("make", FLATS.values(), ids=FLATS.keys())
def test_flat_scale_keeps_whole_values_int(make):
    halved = make([2, -4, 0, 6, 8, -10]).scale(Fraction(1, 2))
    assert halved == make([1, -2, 0, 3, 4, -5])
    assert all(type(x) is int for x in halved._values[-1])
    doubled = make([Fraction(1, 2), Fraction(-3, 2), 1, 0, Fraction(5, 2), 2]).scale(2)
    assert all(type(x) is int for x in doubled._values[-1])


def test_empty_columns_keep_their_count():
    # n empty columns are a 0 x n matrix, not 0 x 0
    assert Matrix.from_columns([(), (), ()]) == Matrix.zero(0, 3)
    assert Matrix.from_rows([]) == Matrix.from_columns([]) == Matrix.zero(0, 0)
    assert Matrix.from_columns([(1, 2), (3, 4), (5, 6)]) == Matrix(2, 3, (1, 3, 5, 2, 4, 6))
    with pytest.raises(DimensionMismatch, match="ragged"):
        Matrix.from_columns([(1, 2), (3,)])
    with pytest.raises(DimensionMismatch, match="ragged"):
        Matrix.from_columns([(1,), (3, 4)])


def test_out_of_range_indices_are_refused(h3):
    """An index outside 0..n-1, negative ones included, is refused instead
    of reading a zero, an empty row or another entry."""
    m, r = Matrix.identity(3), Matrix(2, 3, (1, 2, 3, 4, 5, 6))
    probes = [lambda: unit_vector(3, 5), lambda: unit_vector(3, -1), lambda: h3.basis_vector(3),
              lambda: m.row(5), lambda: m.row(-1), lambda: m.entry(0, 5), lambda: m.entry(-1, 0),
              lambda: m.col(-1), lambda: m.col(3), lambda: r.row(2), lambda: r.entry(0, 3),
              lambda: r.entry(2, 0), lambda: r.col(3), lambda: Matrix.zero(0, 2).col(2)]
    for probe in probes:
        with pytest.raises(DimensionMismatch):
            probe()
    assert (unit_vector(3, 2), r.row(1), r.entry(1, 2), r.col(2)) == ((0, 0, 1), (4, 5, 6), 6, (3, 6))
    assert Matrix.zero(0, 2).col(1) == ()


def triple_loop(a: Matrix, b: Matrix) -> list:
    """a b as plain sums over the row-major entries."""
    return [[sum((a.entries[i * a.cols + k] * b.entries[k * b.cols + j] for k in range(a.cols)), 0)
             for j in range(b.cols)] for i in range(a.rows)]


def test_products_match_a_triple_loop():
    """``@`` and ``apply`` against plain sums, on empty shapes too."""
    rng = random.Random(23)

    def draw(rows, cols):
        return Matrix(rows, cols, vector(rand_fraction(rng) for _ in range(rows * cols)))

    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (3, 2, 0), (0, 2, 3)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(40)]
    for n, k, m in shapes:
        a, b, v = draw(n, k), draw(k, m), vector(rand_fraction(rng) for _ in range(m))
        ab = a @ b
        assert (ab.rows, ab.cols) == (n, m) and ab.to_rows() == triple_loop(a, b)
        assert list(b.apply(v)) == [row[0] for row in triple_loop(b, Matrix.from_columns([v]))]
        assert ab.apply(v) == a.apply(b.apply(v))
    with pytest.raises(DimensionMismatch):
        draw(2, 3) @ draw(2, 3)


def test_vectors_of_the_wrong_length_are_refused(h3, t1):
    """A vector is never cut or padded to fit: brackets, adjoints, actions
    and conjugations refuse one of the wrong length."""
    ad = adjoint_action(h3)
    probes = [lambda: h3.bracket((1,), (0, 1)), lambda: h3.bracket((1, 0, 0, 0), (0, 1, 0)),
              lambda: h3.bracket((1, 0, 0), (0, 1)), lambda: ad.of((1, 2)),
              lambda: h3.adjoint((1,)), lambda: ad.apply((1, 0, 0, 0), (0, 1, 0)),
              lambda: conjugated_tensor(t1, (1, 0, 0, 5), 1)]
    for probe in probes:
        with pytest.raises(DimensionMismatch):
            probe()
    assert h3.bracket((1, 0, 0), (0, 1, 0)) == ad.apply((1, 0, 0), (0, 1, 0)) == (0, 0, 1)


def test_elimination_leaves_its_input_unchanged():
    """Eliminations at either pivot end, kernels, images and spans copy what
    they eliminate: empty rows, explicit zero entries, as derivation rows hold
    them, and rows cut by settled one-entry rows stay as given."""
    rows = [{}, {0: 2, 2: 0, 3: Fraction(1, 3)}, {1: 0}, {3: 6, 0: 4, 1: -1}, {},
            {2: Fraction(5, 2), 3: Fraction(0)}, {1: 7, 2: 1}, {2: 3}]
    vectors = [[0, 0, 0, 0], [2, 0, 0, Fraction(1, 3)], [4, -1, Fraction(0), 6], [0, 7, 1, 0],
               [0, 0, 3, 0]]
    for solve, given in ((lambda rs, n: _sparse_rref(rs), rows),
                         (lambda rs, n: _sparse_rref(rs, max), rows),
                         (sparse_kernel, rows), (sparse_image, rows),
                         (lambda vs, n: Subspace.from_spanning(n, vs), vectors)):
        before = copy.deepcopy(given)
        solve(given, 4)
        assert given == before and repr(given) == repr(before)


@pytest.mark.parametrize("probe, error, message", [
    (lambda: frac(0.5), ParseError, "refusing inexact scalar 0.5; use 'p/q' strings"),
    (lambda: Matrix.from_rows([(1, 2), (3,)]), DimensionMismatch, "ragged rows"),
    (lambda: Matrix.identity(2).apply((1, 2, 3)), DimensionMismatch,
     "vector of length 3 against 2 columns"),
    (lambda: Subspace.from_spanning(2, [(1, 2, 3)]), DimensionMismatch,
     "spanning vectors must have length 2"),
    (lambda: Subspace.full(2).is_subspace_of(Subspace.full(3)), DimensionMismatch,
     "ambient dimensions differ"),
    (lambda: Matrix.zero(2, 3).require_shape(3, 2, "the map"), DimensionMismatch,
     "the map must be 3x2, not 2x3"),
    (lambda: Matrix.zero(-2, -3), DimensionMismatch, "matrix -2x-3 has a negative dimension"),
    (lambda: Matrix(-1, -1, (0,)), DimensionMismatch, "matrix -1x-1 has a negative dimension"),
    (lambda: Matrix(0, -1, ()), DimensionMismatch, "matrix 0x-1 has a negative dimension"),
    (lambda: Subspace.zero(-1), DimensionMismatch, "subspace of negative ambient dimension -1"),
    (lambda: Subspace.full(-2), DimensionMismatch, "subspace of negative ambient dimension -2"),
    (lambda: Subspace.from_spanning(-3, []), DimensionMismatch,
     "subspace of negative ambient dimension -3"),
    (lambda: Subspace.from_spanning(3, [(1, 0, 0)]).contains((0.5, 0, 0)), ParseError,
     "refusing inexact scalar 0.5; use 'p/q' strings"),
    (lambda: Subspace.full(3).contains((1, 0.0, 0)), ParseError,
     "refusing inexact scalar 0.0; use 'p/q' strings"),
    (lambda: Subspace.from_spanning(3, [(1, 0, 0)]).coordinates((0.5, 0, 0)), ParseError,
     "refusing inexact scalar 0.5; use 'p/q' strings"),
    (lambda: Subspace.from_spanning(3, [(1, 0, 0)]).reduce((0.5, 0.25, 0)), ParseError,
     "refusing inexact scalar 0.5; use 'p/q' strings"),
    (lambda: Subspace.zero(2).reduce((Fraction(1, 2), 0.25)), ParseError,
     "refusing inexact scalar 0.25; use 'p/q' strings"),
], ids=["float", "ragged-rows", "apply-length", "spanning-length", "ambients", "shape",
        "negative-zero", "negative-square", "negative-cols", "subspace-zero-negative",
        "subspace-full-negative", "subspace-spanning-negative", "contains-float",
        "contains-float-zero", "coordinates-float", "reduce-float", "reduce-float-on-zero"])
def test_typed_input_errors(probe, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        probe()


def test_non_square_or_singular_matrices_have_no_inverse():
    assert Matrix.zero(2, 3).try_inverse() is None
    assert Matrix(2, 2, (1, 2, 2, 4)).try_inverse() is None
    assert Matrix.zero(0, 0).try_inverse() == Matrix.zero(0, 0)
