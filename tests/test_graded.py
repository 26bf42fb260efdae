"""Shuffles, the composition bracket, derived brackets, differentials."""
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    ArityCapExceeded,
    DimensionMismatch,
    EmbeddingTensor,
    GradedContext,
    Matrix,
    MultiMap,
    abelian_algebra,
    adjoint_action,
    balavoine,
    bracket_differential,
    check_embedding_tensor,
    check_leibniz,
    derived_bracket,
    derived_bracket_nested,
    graph_subalgebra_check,
    mc_check_deformation,
    mc_check_leibniz,
    mc_check_tensor,
    shuffles,
    tensor_as_multimap,
    tensor_coboundary,
    twisted_differential,
)
from embtens import graded
from embtens.graded import (algebra_from_multimap, embed_cochain, multimap_as_matrix,
                            restrict_cochain)
from conftest import family_i_matrix, g2h3_action, heisenberg, heisenberg_of, rand_matrix
from oracles import (dense_balavoine, dense_bracket_differential, dense_derived_bracket,
                     dense_embed_cochain, dense_restrict_cochain, leibniz_residual_oracle,
                     shuffles_by_filter)


def rand_multimap(rng, arity, n, m=None):
    m = n if m is None else m
    return MultiMap(arity, n, m,
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(n ** arity * m)))


def rand_cochain(rng, arity, action):
    return rand_multimap(rng, arity, action.target.dim, action.source.dim)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

def test_shuffles_edge_convention():
    assert shuffles(0, 3) == (((0, 1, 2), 1),)
    assert shuffles(3, 0) == (((0, 1, 2), 1),)


def test_shuffles_one_one():
    assert shuffles(1, 1) == (((0, 1), 1), ((1, 0), -1))


@pytest.mark.parametrize("i,k", [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4)])
def test_shuffles_match_permutation_filter_oracle(i, k):
    ours = shuffles(i, k)
    oracle = shuffles_by_filter(i, k)
    assert sorted(ours) == sorted(oracle)
    from math import comb

    assert len(ours) == comb(i + k, i)


def test_shuffle_count_two_three():
    assert len(shuffles(2, 3)) == 10


# ---------------------------------------------------------------------------
# the composition bracket
# ---------------------------------------------------------------------------

def test_bracket_with_zero_map_is_zero():
    rng = random.Random(41)
    p = rand_multimap(rng, 2, 3)
    z = MultiMap.zero(2, 3, 3)
    assert balavoine(p, z).is_zero()
    assert balavoine(z, p).is_zero()


def test_half_square_expansion():
    # [W,W]/2 (x1,x2,x3) = W(W(x1,x2),x3) - W(x1,W(x2,x3)) + W(x2,W(x1,x3)),
    # minus the left Leibniz residual of the product W
    rng = random.Random(42)
    for _ in range(10):
        om = rand_multimap(rng, 2, 3)
        sq, a = balavoine(om, om), algebra_from_multimap(om, "w")
        for idxs in product(range(3), repeat=3):
            assert sq.value(idxs) == tuple(-2 * x for x in leibniz_residual_oracle(a.sc, *idxs))


def test_graded_antisymmetry():
    rng = random.Random(43)
    for _ in range(8):
        for ap, aq in ((1, 1), (1, 2), (2, 2), (2, 3)):
            p, q = rand_multimap(rng, ap, 2), rand_multimap(rng, aq, 2)
            lhs = balavoine(p, q)
            rhs = balavoine(q, p)
            sign = (-1) ** ((ap - 1) * (aq - 1))
            assert lhs == rhs.scale(-sign)


def test_graded_jacobi():
    # [P,[Q,R]] = [[P,Q],R] + (-1)^{pq} [Q,[P,R]] with degrees p = arity-1
    rng = random.Random(44)
    for _ in range(6):
        arities = [rng.choice([1, 2]) for _ in range(3)]
        p, q, r = (rand_multimap(rng, a, 2) for a in arities)
        dp, dq = arities[0] - 1, arities[1] - 1
        lhs = balavoine(p, balavoine(q, r))
        rhs = balavoine(balavoine(p, q), r)
        tail = balavoine(q, balavoine(p, r))
        if (dp * dq) % 2:
            tail = -tail
        assert lhs == rhs + tail


def test_mc_check_agrees_with_leibniz_check():
    rng = random.Random(45)
    seen_pass = 0
    for trial in range(100):
        if trial % 3 == 0:
            # include certified Leibniz tables so agreement is tested on passes
            from embtens.graded import multimap_from_algebra

            om = multimap_from_algebra(heisenberg())
        else:
            om = rand_multimap(rng, 2, 3)
        verdict = mc_check_leibniz(om).ok
        assert verdict == check_leibniz(algebra_from_multimap(om, "probe")).ok
        seen_pass += verdict
    assert seen_pass >= 30


def test_hemisemidirect_bracket_squares_to_zero(ad3):
    from embtens import hemisemidirect
    from embtens.graded import multimap_from_algebra

    table = multimap_from_algebra(hemisemidirect(ad3))
    assert mc_check_leibniz(table).ok


def test_arity_cap_enforced(ad3, t1):
    """Each operation that fills a table refuses a result above arity 4 with
    the message of ``MultiMap._from_terms``, and builds one of arity 4."""
    rng = random.Random(46)
    p2, p3 = rand_multimap(rng, 2, 2), rand_multimap(rng, 3, 2)
    c2, c3 = rand_cochain(rng, 2, ad3), rand_cochain(rng, 3, ad3)
    cases = [(lambda: balavoine(p3, p3), lambda: balavoine(p3, p2)),
             (lambda: bracket_differential(MultiMap.zero(4, 3, 3), ad3.target),
              lambda: bracket_differential(c3, ad3.target)),
             (lambda: derived_bracket(c2, c3, ad3), lambda: derived_bracket(c2, c2, ad3)),
             (lambda: tensor_coboundary(t1, MultiMap.zero(4, 3, 3)),
              lambda: tensor_coboundary(t1, c3)),
             (lambda: embed_cochain(MultiMap(5, 3, 3, (0,) * 729), ad3),
              lambda: embed_cochain(MultiMap.zero(4, 3, 3), ad3))]
    for above, at in cases:
        with pytest.raises(ArityCapExceeded, match=r"^result arity 5 above cap 4$"):
            above()
        assert at().arity == 4


def test_arity_cap_is_checked_before_any_entry():
    """``_from_terms`` refuses arity 5 without advancing its term iterator."""
    calls = []

    def terms(arity):
        for idxs in product(range(1), repeat=arity):
            calls.append(idxs)
            yield idxs, 0, 1

    with pytest.raises(ArityCapExceeded, match=r"^result arity 5 above cap 4$"):
        MultiMap._from_terms(5, 1, 1, terms(5))
    assert calls == []
    assert MultiMap._from_terms(4, 1, 1, terms(4)).coeffs == (1,)
    assert calls == [(0, 0, 0, 0)]


def test_arity_cap_is_checked_before_any_shuffle(monkeypatch):
    """Each bracket above the cap is refused before its terms are made: on ad h7,
    with dense inputs, not one shuffle is looked up."""
    calls = []

    def counted(i, k):
        calls.append((i, k))
        return shuffles(i, k)

    rng = random.Random(59)
    ad7 = adjoint_action(heisenberg_of(7))
    p3, f4 = rand_multimap(rng, 3, 7), rand_cochain(rng, 4, ad7)
    c2, c3 = rand_cochain(rng, 2, ad7), rand_cochain(rng, 3, ad7)
    t7 = EmbeddingTensor(ad7, Matrix.zero(7, 7))
    monkeypatch.setattr(graded, "shuffles", counted)
    for above in (lambda: balavoine(p3, p3), lambda: bracket_differential(f4, ad7.target),
                  lambda: derived_bracket(c2, c3, ad7), lambda: tensor_coboundary(t7, f4)):
        with pytest.raises(ArityCapExceeded, match=r"^result arity 5 above cap 4$"):
            above()
    assert calls == []
    assert balavoine(rand_multimap(rng, 2, 2), rand_multimap(rng, 2, 2)).arity == 3
    assert calls


def test_multimap_and_algebra_indices_are_refused(h3):
    """As in ``linalg``, an index outside 0..n-1, negative ones included, and
    a wrong number of indices are refused instead of reading another entry."""
    f, v = MultiMap(1, 3, 3, tuple(range(9))), (1, 2, 3)
    probes = [lambda: f.value((5,)), lambda: f.value((-1,)), lambda: f.value((0, 0)),
              lambda: f.value(()), lambda: h3.left(-1, v), lambda: h3.left(5, v),
              lambda: h3.right(v, -1), lambda: h3.right(v, 3)]
    for probe in probes:
        with pytest.raises(DimensionMismatch):
            probe()
    assert f.value((2,)) == (6, 7, 8)
    assert (h3.left(0, v), h3.right(v, 1)) == (h3.bracket((1, 0, 0), v), h3.bracket(v, (0, 1, 0)))


def test_arity_zero_map_is_one_vector():
    f = MultiMap(0, 3, 2, (Fraction(1), Fraction(-2)))
    assert f.value(()) == f.coeffs == MultiMap._from_terms(0, 3, 2, f.terms()).coeffs
    with pytest.raises(DimensionMismatch):
        MultiMap(-1, 3, 2, ())


def test_bracket_rejects_arity_zero_maps():
    rng = random.Random(47)
    x, p = rand_multimap(rng, 0, 2), rand_multimap(rng, 2, 2)
    for a, b in ((x, x), (x, p), (p, x)):
        with pytest.raises(DimensionMismatch):
            balavoine(a, b)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def test_differential_vanishes_for_abelian_target(toy_tensor):
    rng = random.Random(47)
    h = abelian_algebra("flat", 3)
    f = rand_multimap(rng, 2, 3)
    assert bracket_differential(f, h).is_zero()


def test_differential_arity_one_sign(t1, h3):
    # at arity one the only summand is -f([v1, v2])
    f = tensor_as_multimap(t1)
    df = bracket_differential(f, h3)
    for i, j in product(range(3), repeat=2):
        expected = tuple(-x for x in t1.apply(h3.sc[i][j]))
        assert df.value((i, j)) == expected


def test_differential_squares_to_zero(h3, ad3):
    rng = random.Random(48)
    for _ in range(25):
        f = rand_cochain(rng, rng.choice([1, 2]), ad3)
        assert bracket_differential(bracket_differential(f, h3), h3).is_zero()


def test_differential_is_composition_bracket_upstairs(ad3):
    # df agrees with [mu_h, f] computed on the direct sum
    rng = random.Random(49)
    ctx = GradedContext.from_action(ad3)
    for _ in range(6):
        f = rand_cochain(rng, rng.choice([1, 2]), ad3)
        upstairs = balavoine(ctx.mu_h, embed_cochain(f, ad3))
        assert restrict_cochain(upstairs, ad3) == bracket_differential(f, ad3.target)


# ---------------------------------------------------------------------------
# the derived bracket
# ---------------------------------------------------------------------------

def test_derived_bracket_of_tensor_with_itself(t1, h3, ad3):
    tm = tensor_as_multimap(t1)
    db = derived_bracket(tm, tm, ad3)
    for i, j in product(range(3), repeat=2):
        ti = t1.column(i)
        expected = tuple(
            2 * x for x in (
                a - b for a, b in zip(
                    h3.bracket(ti, t1.column(j)),
                    t1.apply(ad3.apply(ti, h3.basis_vector(j))))))
        assert db.value((i, j)) == expected


def test_derived_bracket_with_zero_is_zero(ad3):
    rng = random.Random(50)
    th = rand_cochain(rng, 2, ad3)
    z = MultiMap.zero(1, 3, 3)
    assert derived_bracket(th, z, ad3).is_zero()
    assert derived_bracket(z, th, ad3).is_zero()


def test_graded_context_invariants(ad3, g23):
    for action in (ad3, g23):
        assert GradedContext.from_action(action).check().ok


def test_derived_bracket_direct_equals_nested(ad3, g23):
    rng = random.Random(51)
    for action in (ad3, g23):
        ctx = GradedContext.from_action(action)
        for _ in range(6):
            phi = rand_cochain(rng, 1, action)
            for arity in (1, 2):
                theta = rand_cochain(rng, arity, action)
                assert derived_bracket(theta, phi, action) == \
                    derived_bracket_nested(theta, phi, ctx)


def test_derived_bracket_graded_antisymmetry(ad3):
    rng = random.Random(52)
    for _ in range(6):
        m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        th, ph = rand_cochain(rng, m, ad3), rand_cochain(rng, n, ad3)
        lhs = derived_bracket(th, ph, ad3)
        rhs = derived_bracket(ph, th, ad3)
        sign = (-1) ** (m * n)
        assert lhs == rhs.scale(-sign)


# ---------------------------------------------------------------------------
# Maurer-Cartan checks
# ---------------------------------------------------------------------------

def test_mc_tensor_agrees_with_direct_check(ad3, g23):
    rng = random.Random(53)
    for action in (ad3, g23):
        for trial in range(40):
            if trial % 4 == 0 and action is ad3:
                m = family_i_matrix(rng, trial % 2)
            else:
                m = rand_matrix(rng, action.source.dim, action.target.dim, -2, 2, dens=(1, 2))
            t = EmbeddingTensor(action, m)
            assert mc_check_tensor(t).ok == check_embedding_tensor(t).ok


def test_mc_residual_closed_form(ad3, h3):
    # residual(u,v) = [Tu,Tv] - T rho(Tu)v - T[u,v]
    rng = random.Random(54)
    from embtens.graded import _mc_residual

    for _ in range(10):
        m = rand_matrix(rng, 3, 3, -2, 2, dens=(1,))
        t = EmbeddingTensor(ad3, m)
        res = _mc_residual(tensor_as_multimap(t), ad3)
        for i, j in product(range(3), repeat=2):
            expected = tuple(
                a - b - c for a, b, c in zip(
                    h3.bracket(t.column(i), t.column(j)),
                    t.apply(ad3.apply(t.column(i), h3.basis_vector(j))),
                    t.apply(h3.sc[i][j])))
            assert res.value((i, j)) == expected


def test_twisted_differential_at_zero_tensor_is_plain(tzero, ad3):
    rng = random.Random(55)
    for _ in range(6):
        f = rand_cochain(rng, rng.choice([1, 2]), ad3)
        assert twisted_differential(tzero, f) == bracket_differential(f, ad3.target)


def test_twisted_differential_squares_to_zero(t1, tii, g23_net):
    rng = random.Random(56)
    for t in (t1, tii, g23_net):
        for _ in range(8):
            f = rand_cochain(rng, rng.choice([1, 2]), t.action)
            assert twisted_differential(t, twisted_differential(t, f)).is_zero()


def test_twisted_differential_is_graded_derivation(t1):
    # d[theta, phi] = [d theta, phi] + (-1)^{arity theta} [theta, d phi]
    rng = random.Random(57)
    action = t1.action
    for _ in range(5):
        m, n = rng.choice([(1, 1), (1, 2), (2, 1)])
        th, ph = rand_cochain(rng, m, action), rand_cochain(rng, n, action)
        lhs = twisted_differential(t1, derived_bracket(th, ph, action))
        rhs = derived_bracket(twisted_differential(t1, th), ph, action)
        tail = derived_bracket(th, twisted_differential(t1, ph), action)
        if m % 2:
            tail = -tail
        assert lhs == rhs + tail


def test_mc_deformation_agrees_with_summed_check(t1, tab):
    rng = random.Random(58)
    for base in (t1, tab):
        for _ in range(30):
            tp = rand_matrix(rng, 3, 3, -1, 1, dens=(1,))
            lhs = mc_check_deformation(base, tp).ok
            rhs = check_embedding_tensor(base.with_matrix(base.matrix + tp)).ok
            assert lhs == rhs


def test_mc_deformation_zero_direction_passes(t1):
    assert mc_check_deformation(t1, Matrix.zero(3, 3)).ok


def test_mc_deformation_compatible_family_member(tab, ad3):
    # another bottom-row family member: the sum stays in the family
    other = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [5, Fraction(-1, 2), 0]])
    assert mc_check_deformation(tab, other).ok
    assert check_embedding_tensor(tab.with_matrix(tab.matrix + other)).ok


def test_mc_residuals_keep_whole_values_int(t1):
    # d_T T' + [T',T']/2 sums two unnormalised tables: at this fractional
    # direction one of its 27 coefficients is a whole Fraction before the scan
    rng = random.Random(3)
    rand_matrix(rng, 3, 3)
    report = mc_check_deformation(t1, rand_matrix(rng, 3, 3))
    assert not report.ok
    residuals = [x for f in report.failures for x in f.residual]
    assert Fraction(2) in residuals
    assert not [x for x in residuals if type(x) is Fraction and x.denominator == 1]


# ---------------------------------------------------------------------------
# properties against the per-tuple route and the other verification routes
# ---------------------------------------------------------------------------

ORACLE_ACTIONS = (adjoint_action(heisenberg()), g2h3_action(), adjoint_action(heisenberg_of(5)))
# no shrink phase, as in the other properties: a failure is reported as drawn
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    phases=[Phase.generate])


def drawn_map(draw, arity, n, m):
    """A dense map with entries in -2..2, or a sparse one with at most three
    nonzero entries, some of them fractions."""
    rng, size = random.Random(draw(st.integers(0, 10 ** 6))), n ** arity * m
    if draw(st.booleans()):
        return MultiMap(arity, n, m, tuple(rng.randint(-2, 2) for _ in range(size)))
    coeffs = [0] * size
    for _ in range(rng.randint(0, 3)):
        coeffs[rng.randrange(size)] = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    return MultiMap(arity, n, m, tuple(coeffs))


def drawn_action(draw):
    """One of ad h3, g2 -> h3 and ad h5, with the largest result arity its
    per-tuple route is drawn to: 4, or 3 on h5."""
    action = draw(st.sampled_from(ORACLE_ACTIONS))
    return action, 3 if action.target.dim == 5 else 4


def drawn_arities(draw, low: int, top: int, shift: int):
    """Two arities of at least low whose result arity, their sum less shift,
    is at most top, all such pairs equally likely."""
    return draw(st.sampled_from([(a, b) for a in range(low, top + 1) for b in range(low, top + 1)
                                 if a + b - shift <= top]))


@PROPERTY
@given(st.data())
def test_balavoine_matches_the_dense_route(data):
    """[P, Q] from nonzero terms equals the per-tuple route, on self-maps of
    the source or of the target of each action, at result arities 1-4."""
    action, top = drawn_action(data.draw)
    n = data.draw(st.sampled_from((action.source.dim, action.target.dim)))
    p, q = (drawn_map(data.draw, arity, n, n) for arity in drawn_arities(data.draw, 1, top, 1))
    assert balavoine(p, q) == dense_balavoine(p, q)


@PROPERTY
@given(st.data())
def test_bracket_differential_matches_the_dense_route(data):
    """At cochain arities 0-3 (0-2 on h5)."""
    action, top = drawn_action(data.draw)
    f = drawn_map(data.draw, data.draw(st.integers(0, top - 1)), action.target.dim,
                  action.source.dim)
    assert bracket_differential(f, action.target) == dense_bracket_differential(f, action.target)


@PROPERTY
@given(st.data())
def test_derived_bracket_matches_the_dense_route(data):
    """Every pair of arities with sum at most 4 (3 on h5), arity 0 included."""
    action, top = drawn_action(data.draw)
    theta, phi = (drawn_map(data.draw, arity, action.target.dim, action.source.dim)
                  for arity in drawn_arities(data.draw, 0, top, 0))
    assert derived_bracket(theta, phi, action) == dense_derived_bracket(theta, phi, action)


@PROPERTY
@given(st.data())
def test_embed_and_restrict_match_the_dense_route(data):
    """Zero-extension equals the per-tuple route, and restriction of the
    extension, with or without added entries, either equals the per-tuple
    restriction or is refused where the per-tuple route finds an h-component."""
    action, top = drawn_action(data.draw)
    ng, nh = action.source.dim, action.target.dim
    arity = data.draw(st.integers(0, top))
    f = drawn_map(data.draw, arity, nh, ng)
    big = embed_cochain(f, action)
    assert big == dense_embed_cochain(f, ng)
    if data.draw(st.booleans()):
        big = big + drawn_map(data.draw, arity, ng + nh, ng + nh)
    expected = dense_restrict_cochain(big, ng)
    if expected is None:
        with pytest.raises(DimensionMismatch, match="does not restrict"):
            restrict_cochain(big, action)
    else:
        assert restrict_cochain(big, action) == expected


@PROPERTY
@given(st.data())
def test_three_verification_routes_agree(data):
    """``check_embedding_tensor``, ``mc_check_tensor`` and
    ``graph_subalgebra_check`` agree on tensors of ad h3 and of the g2 -> h3
    action, on those with one entry perturbed, and on random matrices."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    action = data.draw(st.sampled_from(ORACLE_ACTIONS[:2]))
    kind = data.draw(st.sampled_from(("tensor", "perturbed", "random")))
    rows, cols = action.source.dim, action.target.dim
    if kind == "random":
        m = rand_matrix(rng, rows, cols, -2, 2, dens=(1, 2))
    elif action.source.dim == 3:
        m = family_i_matrix(rng, rng.randrange(2))
    else:  # any matrix with a zero last column is a tensor over the g2 action
        m = Matrix(rows, cols, tuple(0 if e % cols == cols - 1 else x for e, x in
                                     enumerate(rand_matrix(rng, rows, cols).entries)))
    if kind == "perturbed":
        entries = list(m.entries)
        entries[rng.randrange(len(entries))] += rng.choice((1, -1, Fraction(1, 2)))
        m = Matrix(rows, cols, tuple(entries))
    t = EmbeddingTensor(action, m)
    verdict = check_embedding_tensor(t).ok
    assert mc_check_tensor(t).ok == verdict == graph_subalgebra_check(t).ok
    assert verdict or kind != "tensor"


def _map(arity, n, m):
    return MultiMap(arity, n, m, (0,) * (n ** arity * m))


@pytest.mark.parametrize("probe, error, message", [
    (lambda ad3: balavoine(_map(1, 2, 3), _map(1, 2, 3)), DimensionMismatch,
     "the bracket needs maps of a space into itself"),
    (lambda ad3: balavoine(_map(1, 2, 2), _map(1, 3, 3)), DimensionMismatch,
     "the two maps live on different spaces"),
    (lambda ad3: mc_check_leibniz(_map(1, 2, 2)), DimensionMismatch,
     "a candidate product has arity 2"),
    (lambda ad3: bracket_differential(_map(1, 2, 3), ad3.target), DimensionMismatch,
     "map domain and algebra dimension differ"),
    (lambda ad3: derived_bracket(_map(1, 3, 2), _map(1, 3, 3), ad3), DimensionMismatch,
     "expected a map from the 3-dim space into the 3-dim one"),
    (lambda ad3: restrict_cochain(_map(1, 5, 5), ad3), DimensionMismatch,
     "expected a self-map of the 6-dim direct sum"),
    (lambda ad3: multimap_as_matrix(_map(2, 2, 2)), DimensionMismatch,
     "only arity-1 maps are matrices"),
    (lambda ad3: algebra_from_multimap(_map(1, 2, 2), "a"), DimensionMismatch,
     "an algebra table is a square arity-2 map"),
    (lambda ad3: algebra_from_multimap(_map(2, 2, 3), "a"), DimensionMismatch,
     "an algebra table is a square arity-2 map"),
    (lambda ad3: shuffles(-1, 2), DimensionMismatch, "shuffle block sizes must be nonnegative"),
    (lambda ad3: MultiMap(1, 2, 2, (0,)), DimensionMismatch,
     "coefficient table needs 4 entries, got 1"),
    (lambda ad3: MultiMap.zero(5, 3, 3), ArityCapExceeded, "result arity 5 above cap 4"),
    (lambda ad3: MultiMap(2, -1, 1, (5,)), DimensionMismatch,
     "arity and dimensions must be nonnegative"),
    (lambda ad3: MultiMap(1, 2, -1, ()), DimensionMismatch,
     "arity and dimensions must be nonnegative"),
    (lambda ad3: MultiMap(-1, 2, 2, (0,)), DimensionMismatch,
     "arity and dimensions must be nonnegative"),
], ids=["not-self-maps", "two-spaces", "leibniz-arity", "differential-domain", "cochain-shape",
        "restrict-size", "matrix-arity", "table-arity", "table-square", "shuffle-sizes",
        "table-length", "zero-above-cap", "negative-domain", "negative-codomain",
        "negative-arity"])
def test_typed_input_errors(ad3, probe, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        probe(ad3)
