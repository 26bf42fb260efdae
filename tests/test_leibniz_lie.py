"""Triangle structures, the subadjacent algebra, and the two tensor routes."""
from fractions import Fraction
from itertools import product

import pytest

from embtens import (
    ActionIllDefined,
    Algebra,
    DimensionMismatch,
    LeibnizLie,
    Matrix,
    NotLeibnizLie,
    abelian_algebra,
    check_embedding_tensor,
    check_leibniz,
    check_leibniz_lie,
    check_leibniz_lie_homomorphism,
    check_leibniz_rep,
    descendent,
    induced_leibniz_lie,
    left_multiplication_tensor,
    leibniz_kernel,
    make_leibniz_lie,
    quotient_projection_tensor,
    sc_table,
    subadjacent,
    subadjacent_representation,
    unit_vector,
)
from conftest import heisenberg, heisenberg_triangle

Z3 = (0, 0, 0)
Z2 = (0, 0)


def test_heisenberg_triangle_passes(ll3):
    assert check_leibniz_lie(ll3).ok


def test_abelian_lie_part_reduces_to_leibniz_check():
    ab = abelian_algebra("ab2", 2)
    good = make_leibniz_lie(ab, [[(0, 1), (0, 1)], [Z2, Z2]])
    assert check_leibniz_lie(good).ok
    bad = make_leibniz_lie(ab, [[(0, 1), Z2], [(0, 1), Z2]])
    assert not check_leibniz_lie(bad).ok
    from embtens import Algebra

    as_algebra = Algebra("t", 2, good.triangle, "unchecked")
    assert check_leibniz(as_algebra).ok


def test_misshapen_triangle_gets_the_table_shape_error(h3):
    with pytest.raises(DimensionMismatch, match="structure table of 'h3_triangle' is not 3x3"):
        LeibnizLie(h3, ((Z3,) * 3,) * 2)
    with pytest.raises(DimensionMismatch, match="structure vector of length 2"):
        LeibnizLie(h3, ((Z3, Z3, Z2),) + ((Z3,) * 3,) * 2)


def test_broken_triangle_fails(h3):
    tri = heisenberg_triangle()
    tri[0][1] = (1, 0, 0)  # e1 > e2 = e1 breaks centrality of products
    report = check_leibniz_lie(make_leibniz_lie(h3, tri))
    assert not report.ok


def test_subadjacent_values(ll3):
    sub = subadjacent(ll3)
    assert check_leibniz(sub).ok
    assert sub.sc[0][1] == (0, 0, Fraction(2))
    assert sub.sc[1][0] == (0, 0, Fraction(-2))
    assert sub.sc[0][0] == (0, 0, Fraction(-1))


def test_subadjacent_refuses_broken_input(h3):
    tri = heisenberg_triangle()
    tri[0][1] = (1, 0, 0)
    with pytest.raises(NotLeibnizLie):
        subadjacent(make_leibniz_lie(h3, tri))


def test_subadjacent_of_abelian_lie_part_is_triangle():
    ab = abelian_algebra("ab2", 2)
    l = make_leibniz_lie(ab, [[(0, 1), (0, 1)], [Z2, Z2]])
    assert subadjacent(l).sc == l.triangle


def test_left_multiplications_represent_subadjacent(ll3):
    rep = subadjacent_representation(ll3)
    assert check_leibniz_rep(rep).ok


def test_induced_structure_from_tensors(t1, tzero, h3):
    zero_ll = induced_leibniz_lie(tzero)
    assert all(v == Z3 for row in zero_ll.triangle for v in row)
    ll = induced_leibniz_lie(t1)
    assert check_leibniz_lie(ll).ok
    assert ll.triangle[0][0] == (0, 0, Fraction(-1))
    for i, j in product(range(3), repeat=2):
        assert ll.triangle[i][j] == t1.action.apply(t1.column(i), h3.basis_vector(j))


def test_subadjacent_of_induced_equals_descendent(t1):
    assert subadjacent(induced_leibniz_lie(t1)).sc == descendent(t1).sc


def test_quotient_projection_tensor_on_heisenberg_triangle(ll3):
    sub = subadjacent(ll3)
    ker = leibniz_kernel(sub)
    assert ker.contains((0, 0, 1))
    t = quotient_projection_tensor(ll3)
    assert t.action.source.dim == 2
    assert check_embedding_tensor(t).ok
    assert descendent(t).sc == sub.sc


def test_quotient_projection_on_abelian_lie_part():
    # triangle equal to a Lie bracket: the ideal of squares vanishes and
    # the projection is the identity
    from embtens import Algebra

    ab = abelian_algebra("ab3", 3)
    lie_table = heisenberg().sc
    l = make_leibniz_lie(ab, lie_table)
    assert check_leibniz_lie(l).ok
    t = quotient_projection_tensor(l)
    assert t.action.source.dim == 3
    assert t.matrix == Matrix.identity(3)
    assert check_embedding_tensor(t).ok
    assert descendent(t).sc == subadjacent(l).sc


def test_quotient_projection_rejects_ill_defined_action():
    # an unverified input whose squares do not act trivially
    ab = abelian_algebra("ab2", 2)
    tri = [[(0, 1), Z2], [(0, 1), (0, 1)]]
    l = make_leibniz_lie(ab, tri)
    assert not check_leibniz_lie(l).ok
    with pytest.raises(ActionIllDefined):
        quotient_projection_tensor(l)


def test_left_multiplication_tensor_on_heisenberg_triangle(ll3):
    t = left_multiplication_tensor(ll3)
    assert check_embedding_tensor(t).ok
    assert descendent(t).sc == subadjacent(ll3).sc
    # the operator images are rank-one maps into the center
    for i in (0, 1):
        op = ll3.left_multiplication(unit_vector(3, i))
        assert all(op.entry(r, c) == 0 for r in (0, 1) for c in range(3))


def test_left_multiplication_tensor_rejects_non_coherent_operator(h3):
    from embtens import NotCoherentDerivation

    tri = heisenberg_triangle()
    tri[0][1] = (1, 0, 0)  # left multiplication by e1 now escapes the center
    with pytest.raises(NotCoherentDerivation):
        left_multiplication_tensor(make_leibniz_lie(h3, tri))


def test_zero_triangle_gives_zero_tensor(h3):
    l = make_leibniz_lie(h3, [[Z3] * 3 for _ in range(3)])
    t = left_multiplication_tensor(l)
    assert t.matrix.is_zero()
    assert check_embedding_tensor(t).ok
    assert descendent(t).sc == h3.sc


def test_functoriality_of_induced_triangles(t1):
    # a tensor homomorphism makes phi_h a triangle homomorphism
    from embtens import NijenhuisCandidate, trivial_deformation

    x = unit_vector(3, 0)
    direction = trivial_deformation(NijenhuisCandidate(t1, x)).direction
    deformed = t1.with_matrix(t1.matrix + direction)
    phi_h = Matrix.identity(3) + t1.action.of(x)
    src = induced_leibniz_lie(deformed)
    dst = induced_leibniz_lie(t1)
    report = check_leibniz_lie_homomorphism(src, dst, phi_h)
    assert report.ok
    assert "triangle-product preserved" in report.notes
    assert "lie-bracket preserved" in report.notes


def test_homomorphism_report_separates_laws(ll3, h3):
    # a map preserving the bracket but not the triangle: negation
    phi = Matrix.identity(3).scale(-1)
    report = check_leibniz_lie_homomorphism(ll3, ll3, phi)
    laws = {f.law for f in report.failures}
    assert not report.ok
    assert "triangle-product" in laws
    assert "lie-bracket" in laws  # odd map also breaks the quadratic bracket


def test_left_multiplication_tensor_into_zero_derivations():
    # sl2 has no nonzero coherent derivation, so the zero triangle maps into
    # a zero-dimensional source and the tensor is 0 x 3
    sl2 = Algebra("sl2", 3, sc_table([
        [Z3, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), Z3, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), Z3],
    ]), "lie")
    t = left_multiplication_tensor(make_leibniz_lie(sl2, [[Z3] * 3] * 3))
    assert (t.action.source.dim, t.matrix) == (0, Matrix.zero(0, 3))
    assert check_embedding_tensor(t).ok


def test_homomorphism_shape_is_checked(ll3):
    with pytest.raises(DimensionMismatch, match=r"^phi must be 3x3, not 3x2$"):
        check_leibniz_lie_homomorphism(ll3, ll3, Matrix.zero(3, 2))
