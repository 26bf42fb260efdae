"""Linear deformations, equivalences, Nijenhuis elements and operators."""
import random
import re
from fractions import Fraction

import pytest

from embtens import (
    Action,
    Algebra,
    DeformationDirection,
    DimensionMismatch,
    EmbeddingTensor,
    Matrix,
    NijenhuisCandidate,
    NotNijenhuis,
    RoutesDisagree,
    ToolkitError,
    abelian_algebra,
    adjoint_action,
    check_embedding_tensor,
    check_equivalence,
    check_linear_deformation,
    check_nijenhuis_element,
    check_nijenhuis_operator,
    class_equals,
    conjugated_tensor,
    descendent,
    sc_table,
    trivial_deformation,
    unit_vector,
    zero_direction,
)
from conftest import rand_matrix
from embtens.graded import deformation_terms, matrix_as_multimap, multimap_as_matrix
from oracles import linear_deformation_equations


def test_zero_direction_is_a_deformation(t1):
    assert check_linear_deformation(zero_direction(t1)).ok


def test_spec_style_direction_on_zero_base(tzero):
    # direction sending e1 to e2 only: both coefficient equations hold
    d = DeformationDirection(tzero, Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    report = check_linear_deformation(d)
    assert report.ok


def test_direction_failing_first_equation(t1):
    d = DeformationDirection(t1, Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    report = check_linear_deformation(d)
    assert not report.ok
    laws = {f.law for f in report.failures}
    assert "cocycle-equation" in laws


def test_dual_route_agreement_randomized(t1, tab, g23_net):
    rng = random.Random(71)
    for base in (t1, tab, g23_net):
        rows, cols = base.matrix.rows, base.matrix.cols
        for _ in range(25):
            d = DeformationDirection(base, rand_matrix(rng, rows, cols, -1, 1, dens=(1,)))
            report = check_linear_deformation(d)
            probe = all(check_embedding_tensor(d.at(t)).ok for t in (1, 2))
            assert report.ok == probe


def test_deformation_terms_match_hand_equations_randomized(t1, tab, g23_net):
    # d_T T' and [T',T']/2 against the hand-written s- and s^2-coefficients
    rng = random.Random(72)
    for base in (t1, tab, g23_net):
        rows, cols = base.matrix.rows, base.matrix.cols
        for _ in range(12):
            fr = rand_matrix(rng, rows, cols)
            linear, quadratic = deformation_terms(base, fr)
            lin, quad = linear_deformation_equations(base, fr)
            assert {uv: linear.value(uv) for uv in lin} == lin
            assert {uv: quadratic.value(uv) for uv in quad} == quad


def test_deformation_terms_keep_whole_values_int(t1):
    # [T',T']/2 halves an integral table; its whole values must come out as ints
    rng = random.Random(73)
    for _ in range(6):
        fr = rand_matrix(rng, 3, 3, dens=(1,))
        for term in deformation_terms(t1, fr):
            assert not [x for x in term.coeffs if type(x) is Fraction and x.denominator == 1]


def test_disagreeing_routes_raise_a_typed_error(t1, monkeypatch):
    # a probe route that rejects every tensor contradicts the passing coefficient route
    import embtens.deformations as deformations

    failing = check_linear_deformation(
        DeformationDirection(t1, Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])))
    monkeypatch.setattr(deformations, "check_embedding_tensor", lambda t: failing)
    with pytest.raises(RoutesDisagree, match="coefficient and probe routes disagree") as info:
        check_linear_deformation(zero_direction(t1))
    assert isinstance(info.value, ToolkitError)


def test_family_parameter_is_not_a_linear_direction(tab, ad3):
    # the curved family through tab: the difference at two parameters is
    # not proportional, so no single direction generates it
    def member(t, r11):
        return Matrix.from_rows([[r11, 0, 0], [0, r11, 0],
                                 [tab.matrix.entry(2, 0), tab.matrix.entry(2, 1), t]])

    d_a = member(Fraction(4, 3), Fraction(2)) - tab.matrix
    d_b = member(Fraction(1, 2), Fraction(1)) - tab.matrix
    assert check_embedding_tensor(tab.with_matrix(tab.matrix + d_a)).ok
    assert check_embedding_tensor(tab.with_matrix(tab.matrix + d_b)).ok
    scaled = d_a.scale(Fraction(1, 2) / Fraction(4, 3))
    assert scaled != d_b
    # and the secant direction fails the linear-deformation laws
    report = check_linear_deformation(DeformationDirection(tab, d_a))
    assert not report.ok


def test_every_basis_vector_is_nijenhuis_for_zero_column_family(t1, tab):
    for base in (t1, tab):
        for b in range(3):
            assert check_nijenhuis_element(
                NijenhuisCandidate(base, unit_vector(3, b))).ok


def test_central_element_is_nijenhuis_for_any_tensor(tii):
    assert check_nijenhuis_element(NijenhuisCandidate(tii, unit_vector(3, 2))).ok


def test_zero_element_is_nijenhuis(tii):
    assert check_nijenhuis_element(NijenhuisCandidate(tii, (0, 0, 0))).ok


def sl2_trivial_tensor():
    """A tensor into a non-nilpotent source: dim-1 abelian target, zero
    action, so any linear map qualifies."""
    from embtens import Action, Algebra, abelian_algebra, sc_table

    z = (0, 0, 0)
    g = Algebra("sl2ish", 3, sc_table([
        [z, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), z, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), z],
    ]), "lie")
    h = abelian_algebra("line", 1)
    action = Action(g, h, (Matrix.zero(1, 1),) * 3)
    return EmbeddingTensor(action, Matrix.from_rows([[1], [0], [0]]))


def test_nijenhuis_failure_reported():
    # ad of the semisimple-like element has a nonabelian image
    t = sl2_trivial_tensor()
    assert check_embedding_tensor(t).ok
    report = check_nijenhuis_element(NijenhuisCandidate(t, (0, 0, 1)))
    assert not report.ok
    assert report.witness.law == "bracket-square"


def test_trivial_deformation_suite(t1, tab):
    for base in (t1, tab):
        zero = zero_direction(base)
        for b in range(3):
            x = unit_vector(3, b)
            d = trivial_deformation(NijenhuisCandidate(base, x))
            assert check_linear_deformation(d).ok
            assert check_equivalence(d, zero, x).ok
            assert class_equals(base, d.direction, zero.direction, 2)
            assert check_nijenhuis_operator(descendent(base), base.action.of(x)).ok


def test_trivial_deformation_of_zero_element_is_zero(t1):
    d = trivial_deformation(NijenhuisCandidate(t1, (0, 0, 0)))
    assert d.direction.is_zero()


def test_trivial_deformation_into_a_zero_dim_target():
    """A zero-width cochain keeps its rows: the arity-1 map of a 3 x 0 matrix
    reads back 3 x 0, so the direction of a 2 x 0 tensor is 2 x 0."""
    assert multimap_as_matrix(matrix_as_multimap(Matrix(3, 0, ()))) == Matrix(3, 0, ())
    g, z = abelian_algebra("g", 2), abelian_algebra("z", 0)
    c = NijenhuisCandidate(EmbeddingTensor(Action(g, z, (Matrix(0, 0, ()),) * 2),
                                           Matrix(2, 0, ())), (1, 0))
    assert check_nijenhuis_element(c).ok
    assert trivial_deformation(c).direction == Matrix(2, 0, ())


def test_trivial_deformation_rejects_non_nijenhuis():
    t = sl2_trivial_tensor()
    with pytest.raises(NotNijenhuis):
        trivial_deformation(NijenhuisCandidate(t, (0, 0, 1)))


def test_trivial_deformation_explicit_matrix(t1, h3):
    x = unit_vector(3, 0)
    d = trivial_deformation(NijenhuisCandidate(t1, x))
    for u in range(3):
        expected = tuple(
            p - q for p, q in zip(
                t1.apply(h3.bracket(x, h3.basis_vector(u))),
                h3.bracket(x, t1.column(u))))
        assert d.direction.col(u) == expected


def test_conjugation_probe_matches_deformed_tensor(t1, tab):
    # exact inverse at parameter one: conjugating by the pair of unipotent
    # maps lands exactly on base + direction
    for base in (t1, tab):
        for b in range(3):
            x = unit_vector(3, b)
            d = trivial_deformation(NijenhuisCandidate(base, x))
            conj = conjugated_tensor(base, x, 1)
            assert conj is not None
            assert conj.matrix == d.at(1).matrix
            assert check_embedding_tensor(conj).ok


def test_conjugated_tensor_none_when_singular(t1):
    # (Id + t ad_x) is unipotent here, so force singularity differently:
    # t = -1 on an action with a genuine eigenvalue
    from embtens import Action, abelian_algebra

    g = abelian_algebra("g1", 1)
    h = abelian_algebra("h1", 1)
    t = EmbeddingTensor(Action(g, h, (Matrix.from_rows([[1]]),)), Matrix.zero(1, 1))
    # ad_x = 0 in an abelian algebra: phi_g = Id is invertible; expect a tensor
    assert conjugated_tensor(t, (1,), 1) is not None


def test_equivalence_identity_case(t1):
    d = zero_direction(t1)
    assert check_equivalence(d, d, (0, 0, 0)).ok


def test_equivalence_built_by_adding_coboundary(t1):
    # second direction = first + generated direction; the witness element
    # relates them in the orientation of the construction
    x = unit_vector(3, 2)  # central element: generated direction is zero
    d1 = zero_direction(t1)
    d2 = trivial_deformation(NijenhuisCandidate(t1, x))
    assert check_equivalence(d1, d2, x).ok


def test_equivalence_implies_same_class(t1):
    x = unit_vector(3, 0)
    d = trivial_deformation(NijenhuisCandidate(t1, x))
    zero = zero_direction(t1)
    report = check_equivalence(d, zero, x)
    assert report.ok
    assert class_equals(t1, d.direction, zero.direction, 2)


def test_equivalence_fails_with_wrong_witness(t1):
    d = trivial_deformation(NijenhuisCandidate(t1, unit_vector(3, 0)))
    report = check_equivalence(d, zero_direction(t1), unit_vector(3, 1))
    assert not report.ok
    assert report.failures


def test_nijenhuis_operator_trivial_cases(t1):
    alg = descendent(t1)
    assert check_nijenhuis_operator(alg, Matrix.identity(3)).ok
    assert check_nijenhuis_operator(alg, Matrix.zero(3, 3)).ok


def test_nijenhuis_operator_generic_failure(t1):
    alg = descendent(t1)
    bad = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    report = check_nijenhuis_operator(alg, bad)
    assert not report.ok


def test_curved_family_members_pass_at_rational_points(tab, ad3):
    # parameters where t^2 + 4t is a rational square, with the matching
    # diagonal root (t + sqrt(t^2+4t)) / 2
    rng = random.Random(72)
    points = ((Fraction(4, 3), Fraction(2)), (Fraction(1, 2), Fraction(1)),
              (Fraction(9, 4), Fraction(3)))
    a = tab.matrix.entry(2, 0)
    b = tab.matrix.entry(2, 1)
    for t, r11 in points:
        assert r11 * r11 - t * r11 - t == 0
        member = Matrix.from_rows([[r11, 0, 0], [0, r11, 0], [a, b, t]])
        assert check_embedding_tensor(tab.with_matrix(member)).ok


@pytest.mark.parametrize("probe, message", [
    (lambda t1, tzero: check_equivalence(zero_direction(t1), zero_direction(tzero), (0, 0, 0)),
     "directions must deform the same base tensor"),
    (lambda t1, tzero: NijenhuisCandidate(t1, (1, 0)), "the element lives in the source algebra"),
    (lambda t1, tzero: DeformationDirection(t1, Matrix.zero(2, 3)), "direction must be 3x3, not 2x3"),
    (lambda t1, tzero: check_nijenhuis_operator(t1.action.target, Matrix.zero(3, 2)),
     "operator must be 3x3, not 3x2"),
], ids=["two-bases", "element-length", "direction-shape", "operator-shape"])
def test_typed_input_errors(t1, tzero, probe, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        probe(t1, tzero)


def test_conjugation_by_a_singular_map_is_none():
    """On the 2-dim Lie algebra [e0, e1] = e1, Id + t ad_e0 = diag(1, 1 + t) is
    singular at t = -1 alone."""
    a = Algebra("aff", 2, sc_table([[(0, 0), (0, 1)], [(0, -1), (0, 0)]]), "lie")
    t = EmbeddingTensor(adjoint_action(a), Matrix.zero(2, 2))
    assert conjugated_tensor(t, (1, 0), -1) is None
    assert conjugated_tensor(t, (1, 0), 1) == t
