"""The acceptance gate: one test per criterion, exact arithmetic throughout.

Every check here is a proved identity, so the tolerance everywhere is
literal equality of rationals; nothing is approximate.
"""
import functools
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

from embtens import (
    Algebra,
    EmbeddingTensor,
    GradedContext,
    LeibnizLie,
    Matrix,
    MultiMap,
    NijenhuisCandidate,
    TensorComplex,
    abelian_algebra,
    check_embedding_tensor,
    check_equivalence,
    check_leibniz_lie,
    check_linear_deformation,
    check_nijenhuis_element,
    check_nijenhuis_operator,
    class_equals,
    cohomology,
    conjugated_tensor,
    derived_bracket,
    derived_bracket_nested,
    descendent,
    graph_subalgebra_check,
    induced_leibniz_lie,
    left_multiplication_tensor,
    make_leibniz_lie,
    mc_check_tensor,
    quotient_projection_tensor,
    subadjacent,
    tensor_coboundary,
    trivial_deformation,
    twisted_differential,
    unit_vector,
    zero_direction,
)
from embtens.cli import run as cli_run
from conftest import (
    family_i_matrix,
    family_ii_matrix,
    heisenberg,
    rand_matrix,
    heisenberg_triangle,
)
from oracles import bareiss_rank, heisenberg_net_system


def acceptance(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")
        return wrapper
    return deco


def net_fixtures(t1, tzero, tii, tab, g23_net, toy_tensor):
    return [t1, tzero, tii, tab, g23_net, toy_tensor]


def random_tensor_samples(rng, action, count, heisenberg_families: bool):
    """A mix of family members and unconstrained matrices."""
    out = []
    for trial in range(count):
        if heisenberg_families and trial % 3 == 0:
            m = family_i_matrix(rng, trial % 2)
        elif heisenberg_families and trial % 7 == 1:
            m = family_ii_matrix(rng, Fraction(2), Fraction(4, 3))
        elif not heisenberg_families and trial % 3 == 0:
            m = rand_matrix(rng, action.source.dim, action.target.dim)
            rows = m.to_rows()
            for r in rows:
                r[-1] = 0  # zero last column: always a tensor for this fixture
            m = Matrix.from_rows(rows)
        else:
            m = rand_matrix(rng, action.source.dim, action.target.dim, -2, 2, dens=(1, 2))
        out.append(EmbeddingTensor(action, m))
    return out


@acceptance(1, "Heisenberg tensor families")
def test_heisenberg_family_verification(heisenberg_workspace_path, tmp_path, ad3):
    rng = random.Random(101)
    matrices = []
    for trial in range(25):
        matrices.append(family_i_matrix(rng, 0))
        matrices.append(family_i_matrix(rng, 1))
    for r11 in (Fraction(2), Fraction(-2, 3)):
        matrices.append(family_ii_matrix(rng, r11, Fraction(4, 3)))

    # the family oracle accepts every member, and `check net` exits 0
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    for idx, m in enumerate(matrices):
        assert heisenberg_net_system(m.to_rows())
        data["tensors"][f"F{idx}"] = {
            "action": "ad3",
            "matrix": [[_scalar_json(x) for x in m.row(i)] for i in range(3)],
        }
    ws = tmp_path / "families.json"
    ws.write_text(json.dumps(data))
    sink = tmp_path / "report.txt"
    for idx in range(len(matrices)):
        code, _ = cli_run(["check", "net", "--tensor", f"F{idx}",
                           "--workspace", str(ws), "--output", str(sink)])
        assert code == 0

    # single-entry perturbations flip the verdict exactly when they leave
    # the polynomial family, re-checked symbolically
    flipped = kept = 0
    for m in matrices:
        for a, b in product(range(3), repeat=2):
            rows = m.to_rows()
            rows[a][b] += 1
            pm = Matrix.from_rows(rows)
            verdict = check_embedding_tensor(EmbeddingTensor(ad3, pm)).ok
            oracle = heisenberg_net_system(pm.to_rows())
            assert verdict == oracle
            if verdict:
                kept += 1
            else:
                flipped += 1
    assert flipped > 0 and kept > 0


def _scalar_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@acceptance(2, "Maurer-Cartan check equals tensor check")
def test_mc_equals_direct_check(ad3, g23):
    rng = random.Random(102)
    for action, families in ((ad3, True), (g23, False)):
        for t in random_tensor_samples(rng, action, 100, families):
            assert mc_check_tensor(t).ok == check_embedding_tensor(t).ok


@acceptance(3, "graph check equals tensor check")
def test_graph_equals_direct_check(ad3, g23):
    rng = random.Random(103)
    for action, families in ((ad3, True), (g23, False)):
        for t in random_tensor_samples(rng, action, 100, families):
            assert graph_subalgebra_check(t).ok == check_embedding_tensor(t).ok


@acceptance(4, "derived bracket equals nested composition route")
def test_derived_bracket_two_routes(ad3, g23):
    rng = random.Random(104)
    tables = 0
    for action in (g23, ad3):
        ctx = GradedContext.from_action(action)
        nh, ng = action.target.dim, action.source.dim

        def rand_cochain(arity):
            return MultiMap(arity, nh, ng,
                            tuple(Fraction(rng.randint(-2, 2)) for _ in range(nh ** arity * ng)))

        rounds = 12 if action is g23 else 6
        for _ in range(rounds):
            theta1, theta2, phi = rand_cochain(1), rand_cochain(2), rand_cochain(1)
            tables += 3
            for theta in (theta1, theta2):
                assert derived_bracket(theta, phi, action) == \
                    derived_bracket_nested(theta, phi, ctx)
    assert tables >= 50


@acceptance(5, "complex identities on every verified tensor fixture")
def test_complex_identities(t1, tzero, tii, tab, g23_net, toy_tensor):
    rng = random.Random(105)
    for t in net_fixtures(t1, tzero, tii, tab, g23_net, toy_tensor):
        nh, ng = t.action.target.dim, t.action.source.dim
        h = t.action.target

        def rand_cochain(arity):
            return MultiMap(arity, nh, ng,
                            tuple(Fraction(rng.randint(-2, 2)) for _ in range(nh ** arity * ng)))

        from embtens import bracket_differential

        for arity in (1, 2):
            f = rand_cochain(arity)
            assert bracket_differential(bracket_differential(f, h), h).is_zero()
            assert twisted_differential(t, twisted_differential(t, f)).is_zero()
        cx = TensorComplex(t, max_degree=4)
        for k in (1, 2, 3):
            assert (cx.differential(k + 1) @ cx.differential(k)).is_zero()
        for k in (1, 2, 3):
            theta = rand_cochain(k)
            lhs = tensor_coboundary(t, theta)
            rhs = twisted_differential(t, theta)
            if (k - 1) % 2:
                rhs = -rhs
            assert lhs == rhs


@acceptance(6, "cohomology dimensions against the fraction-free oracle")
def test_cohomology_dimensions(tzero, toy_tensor):
    first = cohomology(tzero, 1)
    assert first.dim_h == 3
    second = cohomology(toy_tensor, 2)
    assert second.dim_h == 1
    for t, k, expected in ((tzero, 1, first), (toy_tensor, 2, second)):
        cx = TensorComplex(t, 4)
        mk = cx.differential(k)
        z = mk.cols - bareiss_rank(mk.to_rows())
        b = 0 if k == 1 else bareiss_rank(cx.differential(k - 1).to_rows())
        assert expected.dim_z == z
        assert expected.dim_b == b
        assert expected.dim_h == z - b


def _random_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if m.try_inverse() is not None:
            return m


def _transport(l: LeibnizLie, p: Matrix) -> LeibnizLie:
    """The same structure written on the basis p e_1, .., p e_n."""
    n = l.lie.dim
    inv = p.try_inverse()
    lie_table = [[inv.apply(l.lie.bracket(p.col(i), p.col(j))) for j in range(n)]
                 for i in range(n)]
    tri_table = [[inv.apply(l.product(p.col(i), p.col(j))) for j in range(n)]
                 for i in range(n)]
    lie = Algebra(l.lie.name + "_t", n, tuple(tuple(v for v in row) for row in lie_table),
                  l.lie.flavor)
    return LeibnizLie(lie, tuple(tuple(v for v in row) for row in tri_table))


def random_leibniz_lie_instances(rng, count):
    """Verified structures of dimension at most three."""
    h3 = heisenberg()
    ad3 = __import__("embtens").adjoint_action(h3)
    base3 = make_leibniz_lie(h3, heisenberg_triangle())
    leib2 = make_leibniz_lie(abelian_algebra("ab2", 2), [[(0, 1), (0, 1)], [(0, 0), (0, 0)]])
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind in (0, 1):
            m = family_i_matrix(rng, kind)
            t = EmbeddingTensor(ad3, m)
            out.append(induced_leibniz_lie(t))
        elif kind == 2:
            out.append(_transport(base3, _random_invertible(rng, 3)))
        else:
            out.append(_transport(leib2, _random_invertible(rng, 2)))
    return out


@acceptance(7, "round-trips between tensors and triangle structures")
def test_triangle_tensor_round_trips(t1, ll3):
    rng = random.Random(107)
    # induced triangle of a verified tensor closes back to its descendent
    assert subadjacent(induced_leibniz_lie(t1)).sc == descendent(t1).sc
    instances = [ll3] + random_leibniz_lie_instances(rng, 20)
    for l in instances:
        assert check_leibniz_lie(l).ok
        sub = subadjacent(l)
        qt = quotient_projection_tensor(l)
        assert check_embedding_tensor(qt).ok
        assert descendent(qt).sc == sub.sc
        et = left_multiplication_tensor(l)
        assert check_embedding_tensor(et).ok
        assert descendent(et).sc == sub.sc
        # and the induced triangle of either tensor returns the original product
        assert induced_leibniz_lie(qt).triangle == l.triangle
        assert induced_leibniz_lie(et).triangle == l.triangle


@acceptance(8, "deformation suite on the zero-column family")
def test_deformation_suite(t1, tab):
    for base in (t1, tab):
        zero = zero_direction(base)
        for b in range(3):
            x = unit_vector(3, b)
            candidate = NijenhuisCandidate(base, x)
            assert check_nijenhuis_element(candidate).ok
            direction = trivial_deformation(candidate)
            assert check_linear_deformation(direction).ok
            assert check_equivalence(direction, zero, x).ok
            assert class_equals(base, direction.direction, zero.direction, 2)
            assert check_nijenhuis_operator(descendent(base), base.action.of(x)).ok
            probe = conjugated_tensor(base, x, 1)
            assert probe is not None
            assert probe.matrix == direction.at(1).matrix
            assert check_embedding_tensor(probe).ok


@acceptance(9, "byte-deterministic reports")
def test_cli_golden_determinism(heisenberg_workspace_path, tmp_path):
    commands = [
        ("check", "lie", "--algebra", "h3"),
        ("check", "leibniz-lie", "--name", "ll3"),
        ("check", "net", "--tensor", "T1"),
        ("check", "net", "--tensor", "Tii"),
        ("check", "deform", "--tensor", "T1", "--direction", "D1"),
        ("mc", "net", "--tensor", "T1"),
        ("mc", "deform", "--tensor", "T1", "--direction", "D1"),
        ("build", "hemisemidirect", "--action", "ad3"),
        ("build", "descendent", "--tensor", "T1"),
        ("build", "subadjacent", "--name", "ll3"),
        ("build", "induced-triangle", "--tensor", "T1"),
        ("build", "projection-net", "--algebra", "h3"),
        ("build", "ell-net", "--name", "ll3"),
        ("build", "quotient-lie", "--algebra", "h3"),
        ("cohomology", "--tensor", "Tzero", "--degree", "1"),
        ("cohomology", "--tensor", "T1", "--degree", "2"),
        ("class-equals", "--tensor", "T1", "--degree", "2",
         "--direction", "D1", "--direction2", "Dzero"),
    ]

    def run_all(tag):
        outputs = []
        for idx, c in enumerate(commands):
            sink = tmp_path / f"{tag}_{idx}.json"
            code, out = cli_run(list(c) + ["--workspace", str(heisenberg_workspace_path),
                                           "--format", "json", "--output", str(sink)])
            outputs.append((c, code, out.encode("utf-8"), sink.read_bytes()))
        return [(c, code, blob) for c, code, blob, _ in outputs], \
            [blob for *_, blob in outputs]

    first, first_files = run_all("a")
    second, second_files = run_all("b")
    assert first == second
    assert first_files == second_files
