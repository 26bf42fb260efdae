"""Coherent actions, tensor verification, and the induced constructions."""
import importlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    LEIBNIZ,
    Action,
    Algebra,
    EmbeddingTensor,
    Matrix,
    NotAnEmbeddingTensor,
    NotCoherentAction,
    abelian_algebra,
    adjoint_action,
    check_coherent_action,
    check_embedding_tensor,
    check_leibniz,
    check_lie,
    check_tensor_homomorphism,
    coherent_derivation_algebra,
    derivation_algebra,
    descendent,
    graph_subalgebra_check,
    hemisemidirect,
    induced_representation,
    projection_tensor,
    sc_table,
    unit_vector,
)
from embtens.algebras import table_sum
from embtens.tensors import algebra_from_matrix_subspace, descendent_table, induced_triangle
from conftest import (family_ii_matrix, g2h3_action, heisenberg, heisenberg_of, rand_fraction,
                      rand_matrix)
from oracles import coherent_action_residuals, heisenberg_net_system, tensor_identity_residuals

Z3 = (0, 0, 0)


def sl2_like():
    return Algebra("sl2ish", 3, sc_table([
        [Z3, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), Z3, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), Z3],
    ]), "lie")


def test_adjoint_action_of_heisenberg_is_coherent(ad3):
    assert check_coherent_action(ad3).ok


def test_zero_action_on_abelian_is_coherent():
    g = abelian_algebra("g", 2)
    h = abelian_algebra("h", 2)
    action = Action(g, h, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    assert check_coherent_action(action).ok


def test_sl2_adjoint_fails_coherence():
    report = check_coherent_action(adjoint_action(sl2_like()))
    assert not report.ok
    assert report.witness.law == "coherence"


def test_example_tensor_is_verified(t1):
    report = check_embedding_tensor(t1)
    assert report.ok
    assert report.failures == ()


def test_zero_tensor_is_verified(tzero):
    assert check_embedding_tensor(tzero).ok


def test_family_ii_rational_point(tii):
    # r11 = 2 satisfies r^2 - (4/3) r - 4/3 = 0 exactly
    r11, t = Fraction(2), Fraction(4, 3)
    assert r11 * r11 - t * r11 - t == 0
    assert check_embedding_tensor(tii).ok


def test_family_ii_other_root(ad3):
    rng = random.Random(3)
    m = family_ii_matrix(rng, Fraction(-2, 3), Fraction(4, 3))
    assert check_embedding_tensor(EmbeddingTensor(ad3, m)).ok


def test_residual_table_reported(ad3, t1):
    bad = EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 1], [1, 0, 0], [2, 3, 0]]))
    report = check_embedding_tensor(bad)
    assert not report.ok
    assert [(f.law, f.where, f.residual) for f in report.failures] == \
        tensor_identity_residuals(bad)


def test_verdict_matches_polynomial_family_oracle(ad3):
    rng = random.Random(23)
    for _ in range(60):
        m = rand_matrix(rng, 3, 3, -2, 2, dens=(1, 1, 2))
        t = EmbeddingTensor(ad3, m)
        assert check_embedding_tensor(t).ok == heisenberg_net_system(m.to_rows())


def test_homomorphism_identity_pair(t1):
    assert check_tensor_homomorphism(t1, t1, Matrix.identity(3), Matrix.identity(3)).ok


def test_homomorphism_from_deformed_to_base(t1):
    # phi = (Id + ad_x, Id + rho(x)) carries the deformed tensor back to
    # the base one when x generates the deformation direction.
    from embtens import trivial_deformation, NijenhuisCandidate

    g = t1.action.source
    x = unit_vector(3, 0)
    direction = trivial_deformation(NijenhuisCandidate(t1, x)).direction
    deformed = t1.with_matrix(t1.matrix + direction)
    phi_g = Matrix.identity(3) + g.adjoint(x)
    phi_h = Matrix.identity(3) + t1.action.of(x)
    assert check_tensor_homomorphism(t1, deformed, phi_g, phi_h).ok
    # swapping the roles of the two tensors breaks the intertwining
    swapped = check_tensor_homomorphism(deformed, t1, phi_g, phi_h)
    assert not swapped.ok
    assert swapped.witness.law == "intertwining"


def test_homomorphism_intertwines_descendents(t1):
    from embtens import NijenhuisCandidate, trivial_deformation

    x = unit_vector(3, 0)
    direction = trivial_deformation(NijenhuisCandidate(t1, x)).direction
    deformed = t1.with_matrix(t1.matrix + direction)
    phi_h = Matrix.identity(3) + t1.action.of(x)
    d_base, d_def = descendent(t1), descendent(deformed)
    for i, j in product(range(3), repeat=2):
        lhs = phi_h.apply(d_def.sc[i][j])
        rhs = d_base.bracket(phi_h.col(i), phi_h.col(j))
        assert lhs == rhs


def test_hemisemidirect_blocks(ad3, h3):
    big = hemisemidirect(ad3)
    assert big.dim == 6
    assert check_leibniz(big).ok
    for i, j in product(range(3), repeat=2):
        assert big.sc[i][j][:3] == h3.sc[i][j]
        assert big.sc[i][j][3:] == Z3


def test_hemisemidirect_with_zero_action_is_lie():
    g = heisenberg()
    h = abelian_algebra("h", 2)
    action = Action(g, h, tuple(Matrix.zero(2, 2) for _ in range(3)))
    big = hemisemidirect(action)
    assert check_lie(big).ok


def test_hemisemidirect_requires_coherence():
    with pytest.raises(NotCoherentAction):
        hemisemidirect(adjoint_action(sl2_like()))


def test_graph_check_agrees_with_tensor_check(ad3, g23):
    rng = random.Random(31)
    for action in (ad3, g23):
        for _ in range(30):
            m = rand_matrix(rng, action.source.dim, action.target.dim, -2, 2, dens=(1, 2))
            t = EmbeddingTensor(action, m)
            assert graph_subalgebra_check(t).ok == check_embedding_tensor(t).ok


def test_graph_check_zero_tensor(tzero):
    assert graph_subalgebra_check(tzero).ok


def test_descendent_values(t1, h3):
    d = descendent(t1)
    assert check_leibniz(d).ok
    assert d.sc[0][0] == (0, 0, Fraction(-1))
    # the tensor intertwines the descendent bracket with the source one
    for i, j in product(range(3), repeat=2):
        assert t1.apply(d.sc[i][j]) == h3.bracket(t1.column(i), t1.column(j))


def test_induced_triangle_applies_the_action(t1, tzero, tii, tab, toy_tensor, g23_net, ad3):
    bad = EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 1], [1, 0, 0], [2, 3, 0]]))
    for t in (t1, tzero, tii, tab, toy_tensor, g23_net, bad):
        n = t.action.target.dim
        assert induced_triangle(t) == tuple(
            tuple(t.action.apply(t.column(i), unit_vector(n, j)) for j in range(n))
            for i in range(n))
        assert descendent_table(t) == table_sum(induced_triangle(t), t.action.target.sc)


def test_descendent_of_zero_tensor_is_target(tzero, h3):
    assert descendent(tzero).sc == h3.sc


def test_descendent_refuses_unverified(ad3):
    bad = EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 1], [1, 0, 0], [2, 3, 0]]))
    with pytest.raises(NotAnEmbeddingTensor):
        descendent(bad)


def test_projection_tensor_on_dim_one_abelian():
    t = projection_tensor(abelian_algebra("a1", 1))
    assert t.action.source.dim == 1
    assert t.action.target.dim == 2
    assert check_embedding_tensor(t).ok


def test_projection_tensor_on_heisenberg(h3):
    t = projection_tensor(h3)
    assert t.action.source.dim == 2
    assert t.action.target.dim == 5
    assert check_embedding_tensor(t).ok


def test_projection_descendent_is_hemisemidirect(h3):
    t = projection_tensor(h3)
    sub = coherent_derivation_algebra(h3)
    g_abs, mats = algebra_from_matrix_subspace(f"cder_{h3.name}", sub, h3.dim)
    tautological = Action(g_abs, h3, mats)
    assert check_coherent_action(tautological).ok
    assert descendent(t).sc == hemisemidirect(tautological).sc


def test_reduces_to_classical_tensor_equation_when_target_abelian():
    # with an abelian target the defining identity loses its bracket
    # term; a one-generator source makes any operator a coherent action
    rng = random.Random(5)
    g = abelian_algebra("g", 1)
    h = abelian_algebra("h", 2)
    for _ in range(10):
        action = Action(g, h, (rand_matrix(rng, 2, 2),))
        assert check_coherent_action(action).ok
        m = rand_matrix(rng, 1, 2)
        t = EmbeddingTensor(action, m)
        classical = all(
            g.bracket(t.column(u), t.column(v)) ==
            t.apply(action.apply(t.column(u), h.basis_vector(v)))
            for u, v in product(range(2), repeat=2))
        assert check_embedding_tensor(t).ok == classical


def random_derivation(rng, derivations, n: int) -> Matrix:
    """A random combination of a basis of derivations of an n-dim algebra."""
    cs = [rand_fraction(rng) for _ in derivations]
    return Matrix(n, n, tuple(sum(c * b[e] for c, b in zip(cs, derivations)) for e in range(n * n)))


def bracket_route_actions(ad3, g23, toy_tensor):
    """Passing and failing actions, each law failing first somewhere."""
    h3, sl2 = heisenberg(), sl2_like()
    g1, g2 = abelian_algebra("g1", 1), abelian_algebra("g2", 2)
    flat = abelian_algebra("flat", 2)
    yield from (ad3, g23, toy_tensor.action, projection_tensor(h3).action)
    yield adjoint_action(sl2)  # coherence fails
    yield Action(g1, sl2, (adjoint_action(sl2).rho[0],))  # coherence only
    yield Action(g2, flat, (Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows([[0, 1], [0, 0]])))
    rng = random.Random(69)
    derivations = derivation_algebra(h3).basis
    for seed in range(4):
        yield g2h3_action(seed)
        yield Action(g2, h3, (rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)))
        yield Action(g1, h3, (random_derivation(rng, derivations, 3),))  # rarely coherent
    h5 = heisenberg_of(5)
    yield from (adjoint_action(h5), adjoint_action(heisenberg_of(7)))
    derivations = derivation_algebra(h5).basis
    for _ in range(3):
        d1, d2 = (random_derivation(rng, derivations, 5) for _ in range(2))
        yield Action(g1, h5, (d1,))  # a derivation of h5, rarely a coherent one
        yield Action(g2, h5, (d1, d2))  # two derivations, rarely commuting
        yield Action(g1, h5, (rand_matrix(rng, 5, 5),))


def test_coherent_action_matches_bracket_oracle(ad3, g23, toy_tensor):
    laws, off_dim_three = [], set()
    for action in bracket_route_actions(ad3, g23, toy_tensor):
        report = check_coherent_action.__wrapped__(action)
        expected = coherent_action_residuals(action)[:1]
        assert [(f.law, f.where, f.residual) for f in report.failures] == expected
        assert report == check_coherent_action(action)
        laws += [law for law, _, _ in expected] or ["passes"]
        if action.target.dim > 3:
            off_dim_three.add(laws[-1])
    assert set(laws) == off_dim_three == {"derivation", "homomorphism", "coherence", "passes"}
    assert laws.count("passes") >= 10


SMALL = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))


def two_step_nilpotent(draw, v: int, z: int) -> Algebra:
    """V + Z with a random antisymmetric bracket from V x V into Z."""
    n = v + z
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(v), repeat=2):
        for k in range(v, n):
            if i < j:
                c = draw(SMALL)
                table[i][j][k], table[j][i][k] = c, -c
    return Algebra("n", n, sc_table(table), "lie")


# no shrink phase, as in the other properties: a failure is reported as drawn
@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          phases=[Phase.generate])
@given(st.data())
def test_random_small_actions_match_the_oracle(data):
    """The adjoint action of a random two-step nilpotent algebra, which is
    coherent; the same with one operator entry changed; and random operators
    on random tables of dimension 1-3.  The witness is the oracle's first
    nonzero residual, and the unchanged adjoint action passes."""
    draw = data.draw
    kind = draw(st.sampled_from(("nilpotent", "perturbed", "random")))
    if kind == "random":
        g, h = (Algebra(name, d, sc_table([[[draw(SMALL) for _ in range(d)] for _ in range(d)]
                                           for _ in range(d)]))
                for name, d in (("g", draw(st.integers(1, 2))), ("h", draw(st.integers(1, 3)))))
        action = Action(g, h, tuple(Matrix.from_rows([[draw(SMALL) for _ in range(h.dim)]
                                                      for _ in range(h.dim)]) for _ in range(g.dim)))
    else:
        a = two_step_nilpotent(draw, draw(st.integers(1, 3)), draw(st.integers(1, 2)))
        action = adjoint_action(a)
        if kind == "perturbed":
            i, e = draw(st.integers(0, a.dim - 1)), draw(st.integers(0, a.dim ** 2 - 1))
            entries = list(action.rho[i].entries)
            entries[e] += draw(st.sampled_from((1, -1, Fraction(1, 2))))
            rho = action.rho[:i] + (Matrix(a.dim, a.dim, tuple(entries)),) + action.rho[i + 1:]
            action = Action(a, a, rho)
    report = check_coherent_action.__wrapped__(action)
    expected = coherent_action_residuals(action)[:1]
    assert [(f.law, f.where, f.residual) for f in report.failures] == expected
    assert report.ok or kind != "nilpotent"


def test_descendent_reads_the_table_verification_built(t1, monkeypatch):
    """Verification builds the descendent table once; ``descendent`` and the
    induced representation read it from the passing report until the
    verification cache is cleared."""
    module = importlib.import_module("embtens.tensors")
    calls, original = [], module.descendent_table
    monkeypatch.setattr(module, "descendent_table", lambda t: calls.append(t) or original(t))
    assert check_embedding_tensor(t1).ok and len(calls) == 1
    desc = descendent(t1)
    assert induced_representation(t1).algebra is desc is descendent(t1)
    assert desc == Algebra("h3_desc", 3, original(t1), LEIBNIZ)
    assert len(calls) == 1
    check_embedding_tensor.cache_clear()
    assert descendent(t1) == desc and len(calls) == 2
