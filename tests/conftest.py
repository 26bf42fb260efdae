"""Shared fixtures: the Heisenberg algebra, its adjoint action, the
tensor examples used throughout, and random-object helpers."""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from embtens import (
    Action,
    Algebra,
    EmbeddingTensor,
    LIE,
    LeibnizLie,
    Matrix,
    abelian_algebra,
    adjoint_action,
    check_coherent_action,
    check_embedding_tensor,
    make_leibniz_lie,
    sc_table,
)

DATA = Path(__file__).parent / "data"

Z3 = (0, 0, 0)


@pytest.fixture(autouse=True)
def fresh_verification():
    """Empty verification caches before each test: a query's complex lives
    on a cached verdict, so no test reads one that another test built."""
    check_coherent_action.cache_clear()
    check_embedding_tensor.cache_clear()


def heisenberg() -> Algebra:
    return Algebra("h3", 3, sc_table([
        [Z3, (0, 0, 1), Z3],
        [(0, 0, -1), Z3, Z3],
        [Z3, Z3, Z3],
    ]), LIE)


def heisenberg_of(dim: int) -> Algebra:
    """h_dim for odd dim = 2n + 1, with [e_i, e_{i+n}] = e_{2n} for i < n."""
    n = dim // 2
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        table[i][i + n][dim - 1], table[i + n][i][dim - 1] = 1, -1
    return Algebra(f"h{dim}", dim, sc_table(table), LIE)


def heisenberg5() -> Algebra:
    return heisenberg_of(5)


@pytest.fixture(scope="session")
def h3() -> Algebra:
    return heisenberg()


@pytest.fixture(scope="session")
def ad3(h3) -> Action:
    return adjoint_action(h3)


@pytest.fixture(scope="session")
def t1(ad3) -> EmbeddingTensor:
    """Te1 = e2 + 2 e3, Te2 = 3 e3, Te3 = 0."""
    return EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 0], [1, 0, 0], [2, 3, 0]]))


@pytest.fixture(scope="session")
def tzero(ad3) -> EmbeddingTensor:
    return EmbeddingTensor(ad3, Matrix.zero(3, 3))


@pytest.fixture(scope="session")
def tii(ad3) -> EmbeddingTensor:
    """The diagonal family member at parameter 4/3 with top entry 2."""
    return EmbeddingTensor(ad3, Matrix.from_rows(
        [[2, 0, 0], [0, 2, 0], [0, 0, Fraction(4, 3)]]))


@pytest.fixture(scope="session")
def tab(ad3) -> EmbeddingTensor:
    """Bottom-row-only family member with entries (1, 2, 0)."""
    return EmbeddingTensor(ad3, Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 2, 0]]))


@pytest.fixture(scope="session")
def toy_tensor() -> EmbeddingTensor:
    """Both algebras abelian of dim 1, zero action, zero tensor."""
    g = abelian_algebra("toy_g", 1)
    h = abelian_algebra("toy_h", 1)
    return EmbeddingTensor(Action(g, h, (Matrix.zero(1, 1),)), Matrix.zero(1, 1))


def g2h3_action(seed: int = 5) -> Action:
    """A dim-2 abelian algebra acting coherently on the Heisenberg algebra.

    Every operator maps into the center and kills it, so any rational
    coefficients give a coherent action; the seed fixes them.
    """
    rng = random.Random(seed)
    h = heisenberg()
    g = abelian_algebra("g2", 2)

    def op() -> Matrix:
        a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return Matrix.from_rows([[0, 0, 0], [0, 0, 0], [a, b, 0]])

    return Action(g, h, (op(), op()))


@pytest.fixture(scope="session")
def g23(h3) -> Action:
    return g2h3_action()


@pytest.fixture(scope="session")
def g23_net(g23) -> EmbeddingTensor:
    """Any matrix with zero last column is a tensor over the g2 action."""
    return EmbeddingTensor(g23, Matrix.from_rows([[1, -2, 0], [Fraction(1, 2), 3, 0]]))


def heisenberg_triangle() -> list:
    return [
        [(0, 0, -1), (0, 0, 1), Z3],
        [(0, 0, -1), (0, 0, 1), Z3],
        [Z3, Z3, Z3],
    ]


@pytest.fixture(scope="session")
def ll3(h3) -> LeibnizLie:
    return make_leibniz_lie(h3, heisenberg_triangle())


@pytest.fixture(scope="session")
def heisenberg_workspace_path() -> Path:
    return DATA / "heisenberg.json"


@pytest.fixture
def huge_integer_workspace_path(tmp_path, heisenberg_workspace_path) -> Path:
    """The Heisenberg workspace with [e_0, e_1] = 10^4999 e_2: one integer of
    5,000 digits, past the 4,300 that ``json.loads`` converts."""
    text = heisenberg_workspace_path.read_text(encoding="utf-8")
    path = tmp_path / "huge.json"
    path.write_text(text.replace("[0, 0, 1]", f"[0, 0, 1{'0' * 4999}]", 1), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3,
                  dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_matrix(rng: random.Random, rows: int, cols: int, lo: int = -3, hi: int = 3,
                dens=(1, 1, 2, 3)) -> Matrix:
    return Matrix.from_rows(
        [[rand_fraction(rng, lo, hi, dens) for _ in range(cols)] for _ in range(rows)])


def family_i_matrix(rng: random.Random, shape: int) -> Matrix:
    """A random member of the rank-constrained zero-last-column family."""
    a, b, c, d, k = (rand_fraction(rng) for _ in range(5))
    if shape == 0:
        return Matrix.from_rows([[c, d, 0], [k * c, k * d, 0], [a, b, 0]])
    return Matrix.from_rows([[0, 0, 0], [c, d, 0], [a, b, 0]])


def family_ii_matrix(rng: random.Random, r11: Fraction, t: Fraction) -> Matrix:
    a, b = rand_fraction(rng), rand_fraction(rng)
    return Matrix.from_rows([[r11, 0, 0], [0, r11, 0], [a, b, t]])
