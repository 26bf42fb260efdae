"""Every checker's whole report on fixed and seeded inputs, pinned.

The cases fail every law of every checker at least once, and pass every
checker at least once.  The expected ``to_json()`` of each report (law,
witness tuple, residual, failure order and notes) is recorded in
``data/checker_reports.json``; regenerate it with
``PYTHONPATH=src python tests/test_reports.py`` only for an intended
change of a report.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from embtens import (
    Action,
    Algebra,
    DeformationDirection,
    EmbeddingTensor,
    FlavorViolation,
    GradedContext,
    LeibnizRep,
    Matrix,
    NijenhuisCandidate,
    NotAnEmbeddingTensor,
    NotCoherentAction,
    NotLeibnizLie,
    NotNijenhuis,
    abelian_algebra,
    adjoint_action,
    check_coherent_action,
    check_embedding_tensor,
    check_equivalence,
    check_leibniz,
    check_leibniz_lie,
    check_leibniz_lie_homomorphism,
    check_leibniz_rep,
    check_lie,
    check_linear_deformation,
    check_nijenhuis_element,
    check_nijenhuis_operator,
    check_tensor_homomorphism,
    check_two_step_nilpotent,
    graph_subalgebra_check,
    make_leibniz_lie,
    mc_check_deformation,
    mc_check_leibniz,
    mc_check_tensor,
    multimap_as_matrix,
    sc_table,
    tensor_coboundary,
    trivial_deformation,
    zero_direction,
)
from embtens.graded import multimap_from_algebra
from embtens.leibniz_lie import require_leibniz_lie
from embtens.tensors import require_coherent, require_embedding_tensor
from embtens.workspace import algebra_from_json
from conftest import g2h3_action, heisenberg, heisenberg_triangle, rand_fraction

RECORDED = Path(__file__).parent / "data" / "checker_reports.json"
SEEDS = range(4)

# Every law each checker can report; the cases below must fail each one.
LAWS = {
    "lie": {"antisymmetry", "jacobi"},
    "leibniz": {"leibniz"},
    "two-step-nilpotent": {"double-bracket"},
    "leibniz-rep": {"rho-left-bracket", "rho-right-bracket", "rho-right-left"},
    "coherent-action": {"derivation", "homomorphism", "coherence"},
    "embedding-tensor": {"tensor-identity", "derivation", "homomorphism", "coherence"},
    "graph-subalgebra": {"graph-closure"},
    "tensor-homomorphism": {"phi-source-endomorphism", "phi-target-endomorphism",
                            "intertwining", "action-compatibility"},
    "leibniz-lie": {"product-identity", "product-kills-brackets", "products-are-central"},
    "leibniz-lie-homomorphism": {"triangle-product", "lie-bracket"},
    "linear-deformation": {"cocycle-equation", "tensor-equation"},
    "equivalence": {"difference-is-generated", "twist-compatibility",
                    "bracket-square", "action-square"},
    "nijenhuis-element": {"bracket-square", "action-square", "generated-direction-commutes"},
    "nijenhuis-operator": {"operator-identity"},
    "maurer-cartan-leibniz": {"bracket-square"},
    "graded-context": {"mu-g-square", "mu-h-square", "mu-g-mu-h"},
    "maurer-cartan-tensor": {"maurer-cartan"},
    "maurer-cartan-deformation": {"maurer-cartan"},
}

Z2, Z3 = (0, 0), (0, 0, 0)


def sparse(rng: random.Random) -> Fraction:
    return Fraction(0) if rng.random() < 0.6 else rand_fraction(rng)


def sparse_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([[sparse(rng) for _ in range(cols)] for _ in range(rows)])


def sparse_algebra(rng: random.Random, n: int, antisymmetric: bool = False) -> Algebra:
    table = [[tuple(sparse(rng) for _ in range(n)) for _ in range(n)] for _ in range(n)]
    if antisymmetric:
        for i in range(n):
            table[i][i] = (0,) * n
            for j in range(i):
                table[i][j] = tuple(-x for x in table[j][i])
    return Algebra("rand", n, sc_table(table))


def diagonal(*entries) -> Matrix:
    n = len(entries)
    return Matrix.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def b2() -> Algebra:
    """The nonabelian 2-dim Lie algebra, [e0, e1] = e1."""
    return Algebra("b2", 2, sc_table([[Z2, (0, 1)], [(0, -1), Z2]]), "lie")


def sl2() -> Algebra:
    return Algebra("sl2", 3, sc_table([
        [Z3, (0, 0, 1), (-2, 0, 0)],
        [(0, 0, -1), Z3, (0, 2, 0)],
        [(2, 0, 0), (0, -2, 0), Z3],
    ]), "lie")


def b2_plane_tensor() -> EmbeddingTensor:
    """Zero tensor over b2 acting on the abelian plane by diag(0, -1), E12."""
    action = Action(b2(), abelian_algebra("plane", 2),
                    (diagonal(0, -1), Matrix.from_rows([[0, 1], [0, 0]])))
    return EmbeddingTensor(action, Matrix.zero(2, 2))


def line_tensor(g: Algebra, image) -> EmbeddingTensor:
    """Any map of an abelian line into g is a tensor for the zero action."""
    action = Action(g, abelian_algebra("line", 1), (Matrix.zero(1, 1),) * g.dim)
    return EmbeddingTensor(action, Matrix.from_columns([image]))


def algebra_cases(h3: Algebra):
    ad_b2 = adjoint_action(b2()).rho
    for s in SEEDS:
        rng = random.Random(s)
        yield f"lie/random-{s}", lambda a=sparse_algebra(rng, 3): check_lie(a)
        yield f"lie/antisymmetric-{s}", lambda a=sparse_algebra(rng, 3, True): check_lie(a)
        yield f"leibniz/random-{s}", lambda a=sparse_algebra(rng, 2): check_leibniz(a)
        yield f"two-step-nilpotent/random-{s}", \
            lambda a=sparse_algebra(rng, 3): check_two_step_nilpotent(a)
        rep = LeibnizRep(h3, 2, tuple(sparse_matrix(rng, 2, 2) for _ in range(3)),
                         tuple(sparse_matrix(rng, 2, 2) for _ in range(3)))
        yield f"leibniz-rep/random-{s}", lambda r=rep: check_leibniz_rep(r)
        rep = LeibnizRep(b2(), 2, ad_b2, tuple(sparse_matrix(rng, 2, 2) for _ in range(2)))
        yield f"leibniz-rep/adjoint-left-{s}", lambda r=rep: check_leibniz_rep(r)
    yield "lie/h3", lambda: check_lie(h3)
    yield "lie/sl2", lambda: check_lie(sl2())
    yield "leibniz/h3", lambda: check_leibniz(h3)
    yield "two-step-nilpotent/h3", lambda: check_two_step_nilpotent(h3)
    yield "two-step-nilpotent/b2", lambda: check_two_step_nilpotent(b2())
    yield "leibniz-rep/b2-ad-ad", lambda: check_leibniz_rep(LeibnizRep(b2(), 2, ad_b2, ad_b2))
    yield "leibniz-rep/b2-ad-minus-ad", lambda: check_leibniz_rep(
        LeibnizRep(b2(), 2, ad_b2, tuple(m.scale(-1) for m in ad_b2)))


def tensor_cases(h3: Algebra, t1: EmbeddingTensor, tzero: EmbeddingTensor):
    ad3, g23 = t1.action, g2h3_action()
    g2, g1 = abelian_algebra("g2", 2), abelian_algebra("g1", 1)
    shift = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    noncommuting = Action(g2, h3, (diagonal(1, 0, 1), shift))
    incoherent = Action(g1, h3, (diagonal(1, 0, 1),))
    identity3 = Matrix.identity(3)
    for s in SEEDS:
        rng = random.Random(100 + s)
        action = Action(g2, h3, (sparse_matrix(rng, 3, 3), sparse_matrix(rng, 3, 3)))
        yield f"coherent-action/random-{s}", lambda a=action: check_coherent_action(a)
        yield f"embedding-tensor/random-action-{s}", \
            lambda a=action: check_embedding_tensor(EmbeddingTensor(a, Matrix.zero(2, 3)))
        t = EmbeddingTensor(ad3, sparse_matrix(rng, 3, 3))
        yield f"embedding-tensor/random-{s}", lambda t=t: check_embedding_tensor(t)
        yield f"graph-subalgebra/random-{s}", lambda t=t: graph_subalgebra_check(t)
        t = EmbeddingTensor(g23, sparse_matrix(rng, 2, 3))
        yield f"embedding-tensor/g23-random-{s}", lambda t=t: check_embedding_tensor(t)
        yield f"graph-subalgebra/g23-random-{s}", lambda t=t: graph_subalgebra_check(t)
        phi = sparse_matrix(rng, 3, 3)
        yield f"tensor-homomorphism/random-source-{s}", \
            lambda p=phi: check_tensor_homomorphism(t1, t1, p, identity3)
        yield f"tensor-homomorphism/random-target-{s}", \
            lambda p=phi: check_tensor_homomorphism(t1, t1, identity3, p)
    yield "coherent-action/noncommuting-derivations", lambda: check_coherent_action(noncommuting)
    yield "coherent-action/incoherent-derivation", lambda: check_coherent_action(incoherent)
    yield "coherent-action/ad3", lambda: check_coherent_action(ad3)
    yield "coherent-action/g23", lambda: check_coherent_action(g23)
    yield "embedding-tensor/noncommuting-action", lambda: check_embedding_tensor(
        EmbeddingTensor(noncommuting, Matrix.zero(2, 3)))
    yield "embedding-tensor/incoherent-action", lambda: check_embedding_tensor(
        EmbeddingTensor(incoherent, Matrix.zero(1, 3)))
    yield "embedding-tensor/t1", lambda: check_embedding_tensor(t1)
    yield "graph-subalgebra/t1", lambda: graph_subalgebra_check(t1)
    yield "tensor-homomorphism/intertwining", \
        lambda: check_tensor_homomorphism(t1, tzero, identity3, identity3)
    yield "tensor-homomorphism/action-compatibility", \
        lambda: check_tensor_homomorphism(tzero, tzero, identity3, diagonal(2, 1, 2))
    yield "tensor-homomorphism/identity", \
        lambda: check_tensor_homomorphism(t1, t1, identity3, identity3)


def leibniz_lie_cases(h3: Algebra):
    ll3 = make_leibniz_lie(h3, heisenberg_triangle())
    doubled = Algebra("h3x2", 3, sc_table([[Z3, (0, 0, 2), Z3], [(0, 0, -2), Z3, Z3],
                                           [Z3, Z3, Z3]]), "lie")
    for s in SEEDS:
        rng = random.Random(200 + s)
        tri = [[tuple(sparse(rng) for _ in range(3)) for _ in range(3)] for _ in range(3)]
        yield f"leibniz-lie/random-{s}", lambda tri=tri: check_leibniz_lie(make_leibniz_lie(h3, tri))
        tri = [[(0, 0, sparse(rng)) for _ in range(3)] for _ in range(3)]
        tri[rng.randrange(3)][2] = tuple(sparse(rng) for _ in range(3))
        yield f"leibniz-lie/central-{s}", lambda tri=tri: check_leibniz_lie(make_leibniz_lie(h3, tri))
        phi = sparse_matrix(rng, 3, 3)
        yield f"leibniz-lie-homomorphism/random-{s}", \
            lambda p=phi: check_leibniz_lie_homomorphism(ll3, ll3, p)
    yield "leibniz-lie/heisenberg", lambda: check_leibniz_lie(ll3)
    yield "leibniz-lie-homomorphism/rescaling", \
        lambda: check_leibniz_lie_homomorphism(ll3, ll3, diagonal(2, 1, 2))
    yield "leibniz-lie-homomorphism/doubled-bracket", lambda: check_leibniz_lie_homomorphism(
        ll3, make_leibniz_lie(doubled, heisenberg_triangle()), Matrix.identity(3))
    yield "leibniz-lie-homomorphism/identity", \
        lambda: check_leibniz_lie_homomorphism(ll3, ll3, Matrix.identity(3))


def deformation_cases(h3: Algebra, t1: EmbeddingTensor):
    g23_net = EmbeddingTensor(g2h3_action(), Matrix.from_rows(
        [[1, -2, 0], [Fraction(1, 2), 3, 0]]))
    sl2_line = line_tensor(sl2(), (1, 0, 0))
    b2_line = line_tensor(b2(), (0, 1))
    plane = b2_plane_tensor()
    for s in SEEDS:
        rng = random.Random(300 + s)
        for name, base in (("t1", t1), ("g23", g23_net)):
            d = DeformationDirection(base, sparse_matrix(rng, base.matrix.rows, base.matrix.cols))
            yield f"linear-deformation/{name}-random-{s}", lambda d=d: check_linear_deformation(d)
        d1 = DeformationDirection(t1, sparse_matrix(rng, 3, 3))
        d2 = DeformationDirection(t1, sparse_matrix(rng, 3, 3))
        x = tuple(sparse(rng) for _ in range(3))
        yield f"equivalence/t1-random-{s}", lambda d1=d1, d2=d2, x=x: check_equivalence(d1, d2, x)
        d1 = DeformationDirection(sl2_line, sparse_matrix(rng, 3, 1))
        yield f"equivalence/sl2-random-{s}", \
            lambda d1=d1, x=x: check_equivalence(d1, zero_direction(sl2_line), x)
        yield f"nijenhuis-element/t1-random-{s}", \
            lambda x=x: check_nijenhuis_element(NijenhuisCandidate(t1, x))
        yield f"nijenhuis-element/sl2-random-{s}", \
            lambda x=x: check_nijenhuis_element(NijenhuisCandidate(sl2_line, x))
        yield f"nijenhuis-operator/h3-random-{s}", \
            lambda n=sparse_matrix(rng, 3, 3): check_nijenhuis_operator(h3, n)
        yield f"nijenhuis-operator/b2-random-{s}", \
            lambda n=sparse_matrix(rng, 2, 2): check_nijenhuis_operator(b2(), n)
    e0 = (1, 0, 0)
    generated = DeformationDirection(t1, multimap_as_matrix(tensor_coboundary(t1, e0)))
    zero = zero_direction(t1)
    yield "linear-deformation/zero", lambda: check_linear_deformation(zero)
    yield "linear-deformation/generated", lambda: check_linear_deformation(generated)
    yield "equivalence/zero-element", lambda: check_equivalence(zero, zero, Z3)
    yield "equivalence/first-to-second", lambda: check_equivalence(generated, zero, e0)
    yield "equivalence/second-to-first", lambda: check_equivalence(zero, generated, e0)
    yield "equivalence/b2-action-square", lambda: check_equivalence(
        zero_direction(plane), zero_direction(plane), (1, 0))
    yield "nijenhuis-element/b2-action-square", \
        lambda: check_nijenhuis_element(NijenhuisCandidate(plane, (1, 0)))
    yield "nijenhuis-element/b2-generated-direction", \
        lambda: check_nijenhuis_element(NijenhuisCandidate(b2_line, (1, 0)))
    yield "nijenhuis-element/t1-e0", lambda: check_nijenhuis_element(NijenhuisCandidate(t1, e0))
    yield "nijenhuis-operator/identity", lambda: check_nijenhuis_operator(h3, Matrix.identity(3))


def graded_cases(h3: Algebra, t1: EmbeddingTensor):
    ad3, g23 = t1.action, g2h3_action()
    mu_h3 = multimap_from_algebra(h3)
    mu_lie = multimap_from_algebra(Algebra("r3", 3, sc_table(
        [[Z3, Z3, (1, 0, 0)], [Z3, Z3, Z3], [(-1, 0, 0), Z3, Z3]])))
    for s in SEEDS:
        rng = random.Random(400 + s)
        omega = multimap_from_algebra(sparse_algebra(rng, 2))
        yield f"maurer-cartan-leibniz/random-{s}", lambda w=omega: mc_check_leibniz(w)
        omega = multimap_from_algebra(sparse_algebra(rng, 3))
        yield f"graded-context/random-mu-g-{s}", \
            lambda w=omega: GradedContext(ad3, w, mu_h3).check()
        yield f"graded-context/random-mu-h-{s}", \
            lambda w=omega: GradedContext(ad3, mu_h3, w).check()
        for name, base in (("ad3", EmbeddingTensor(ad3, sparse_matrix(rng, 3, 3))),
                           ("g23", EmbeddingTensor(g23, sparse_matrix(rng, 2, 3)))):
            yield f"maurer-cartan-tensor/{name}-random-{s}", lambda t=base: mc_check_tensor(t)
        yield f"maurer-cartan-deformation/t1-random-{s}", \
            lambda m=sparse_matrix(rng, 3, 3): mc_check_deformation(t1, m)
    yield "maurer-cartan-leibniz/h3", lambda: mc_check_leibniz(mu_h3)
    yield "graded-context/incompatible-lie", lambda: GradedContext(ad3, mu_h3, mu_lie).check()
    yield "graded-context/ad3", lambda: GradedContext.from_action(ad3).check()
    yield "maurer-cartan-tensor/t1", lambda: mc_check_tensor(t1)
    yield "maurer-cartan-deformation/zero", lambda: mc_check_deformation(t1, Matrix.zero(3, 3))


def cases() -> dict:
    """Case name -> a thunk returning the report, in a fixed order."""
    h3 = heisenberg()
    ad3 = adjoint_action(h3)
    t1 = EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 0], [1, 0, 0], [2, 3, 0]]))
    tzero = EmbeddingTensor(ad3, Matrix.zero(3, 3))
    out = {}
    for group in (algebra_cases(h3), tensor_cases(h3, t1, tzero), leibniz_lie_cases(h3),
                  deformation_cases(h3, t1), graded_cases(h3, t1)):
        for name, thunk in group:
            assert name not in out, name
            out[name] = thunk
    return out


def reports() -> dict:
    return {name: thunk().to_json() for name, thunk in cases().items()}


@pytest.fixture(scope="module")
def actual() -> dict:
    return reports()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("check", sorted(LAWS))
def test_reports_match_recording(check, actual, recorded):
    names = [n for n in actual if actual[n]["check"] == check]
    assert names == [n for n in recorded if recorded[n]["check"] == check]
    for name in names:
        assert actual[name] == recorded[name], name


def test_cases_fail_every_law_and_pass_every_check(actual):
    seen = {check: set() for check in LAWS}
    passed = set()
    for report in actual.values():
        seen[report["check"]].update(f["law"] for f in report["failures"])
        if report["ok"]:
            passed.add(report["check"])
    assert seen == LAWS
    assert passed == set(LAWS)


def require_cases():
    """(thunk, error type, message) for each place a failing report is raised."""
    h3 = heisenberg()
    incoherent = Action(abelian_algebra("g1", 1), h3, (diagonal(1, 0, 1),))
    yield (lambda: require_coherent(incoherent), NotCoherentAction,
           "action fails coherence at (0, 0, 1)")
    yield (lambda: require_embedding_tensor(EmbeddingTensor(adjoint_action(h3), Matrix.identity(3))),
           NotAnEmbeddingTensor, "tensor fails tensor-identity at (0, 1)")
    yield (lambda: require_embedding_tensor(EmbeddingTensor(incoherent, Matrix.zero(1, 3))),
           NotAnEmbeddingTensor, "tensor fails coherence at (0, 0, 1)")
    yield (lambda: require_leibniz_lie(make_leibniz_lie(h3, [[(1, 0, 0)] * 3] * 3)),
           NotLeibnizLie, "fails product-identity at (0, 0, 0)")
    yield (lambda: trivial_deformation(NijenhuisCandidate(b2_plane_tensor(), (1, 0))),
           NotNijenhuis, "fails action-square at (1,)")
    yield (lambda: algebra_from_json({"dim": 2, "flavor": "lie", "sc": [[[1, 0], [0, 0]]]},
                                     "bad", "algebras.bad"), FlavorViolation,
           "algebras.bad: algebra 'bad' declared lie but fails antisymmetry at basis tuple (0, 0)")
    yield (lambda: algebra_from_json({"dim": 2, "flavor": "leibniz",
                                      "sc": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]},
                                     "bad", "algebras.bad"), FlavorViolation,
           "algebras.bad: algebra 'bad' declared leibniz but fails leibniz at basis tuple (0, 1, 0)")


def test_required_checks_raise_with_their_witness():
    for thunk, error, message in require_cases():
        with pytest.raises(error) as info:
            thunk()
        assert str(info.value) == message


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(reports(), indent=1) + "\n", encoding="utf-8")
