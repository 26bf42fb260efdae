"""Exact linear algebra over the rationals.

Scalars are exact rationals: a Python ``int`` when the value is whole
and a ``fractions.Fraction`` otherwise, so integral data runs on
machine-speed ints.  ``frac`` is the one normaliser that makes them, and
``frac(p, q)`` is the one exact quotient; no floats ever enter, and the
package has no ``/`` operator.  An ``int`` and the ``Fraction`` of the
same value compare and hash equal, so mixing them changes no result.
Vectors are plain tuples of scalars, matrices are immutable row-major
``Flat`` records, and a subspace is held by its reduced row echelon rows,
so subspace equality is literal equality of canonical rows.  ``Record`` is
the base of every immutable value type in the package, and ``Flat`` the
base of those holding a flat tuple of scalars (``Matrix`` and
``graded.MultiMap``): it defines their entrywise arithmetic once.

All elimination goes through one sparse RREF, ``_sparse_rref``, on
``{column: entry}`` rows: ``rref``, ``kernel_basis``, ``column_space``
and ``Subspace.from_spanning`` convert their dense input, and
``sparse_kernel`` and ``sparse_image`` take sparse rows directly.  The
elimination runs on integers, fraction-free: each row is cleared of
denominators once, pivot rows are kept primitive (gcd 1, pivot entry
positive, not scaled to 1), and rationals are made once, at output, where
each row is divided by its pivot entry.  The RREF of a row space is
unique; it comes out as the rows a ``Subspace`` keeps, ``(column, entry)``
pairs with the pivot first and each entry an ``int`` when whole.  One
step, ``_eliminate``, reduces a row for elimination and membership alike
(a ``Subspace``'s rows have pivot 1, so a residual is never scaled), and
dense tuples are made only for output (``_dense``).  A kernel costs one
elimination of its rows as given, each pivoting on its last column.
Nothing here is cached across calls: the complexes of ``cohomology`` live
on the cached verification reports, and
``check_embedding_tensor.cache_clear()`` frees them.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import DimensionMismatch, NotASubspace, ParseError

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
SparseRow = dict[int, Scalar]
EchelonRow = tuple[tuple[int, Scalar], ...]

ZERO = 0
ONE = 1


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def frac(value: int | str | Fraction, den: Scalar | None = None) -> Scalar:
    """The exact rational value / den (den defaults to 1), as an ``int`` when
    it is whole and a ``Fraction`` otherwise; floats are deliberately
    rejected."""
    if den is None and type(value) is int:
        return value
    if isinstance(value, float):
        raise ParseError(f"refusing inexact scalar {value!r}; use 'p/q' strings")
    if den is not None:
        value = Fraction(value, den)
    elif not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


_SCALAR_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def parse_scalar(value: int | str) -> Scalar:
    """Parse the JSON form of a rational: a bare integer or a 'p/q' string.

    Decimal and float forms are rejected, even exact ones, to keep the
    wire format unambiguous.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return frac(value)
    if isinstance(value, str):
        if not _SCALAR_RE.match(value.strip()):
            raise ParseError(f"not a rational scalar: {value!r}")
        try:
            return frac(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational scalar: {value!r}") from exc
    raise ParseError(f"not a rational scalar: {value!r}")


def scalar_to_json(x: Scalar) -> int | str:
    """Emit a rational in its JSON form; the denominator is omitted when 1."""
    if x.denominator == 1:
        return int(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vector(values) -> Vector:
    return tuple(map(frac, values))


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def _index(i: int, n: int) -> int:
    """i itself, when 0 <= i < n; ``DimensionMismatch`` otherwise."""
    if not 0 <= i < n:
        raise DimensionMismatch(f"index {i} out of range for length {n}")
    return i


def unit_vector(n: int, i: int) -> Vector:
    _index(i, n)
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


def vector_to_json(v: Vector) -> list:
    return [scalar_to_json(x) for x in v]


def accumulate(acc: list[Scalar], c: Scalar, v: Vector) -> None:
    """acc += c * v in place, skipping the zero coordinates of v."""
    for k, x in enumerate(v):
        if x != 0:
            acc[k] += c * x


def combine(x: Vector, vectors, n: int) -> Vector:
    """The length-n sum of x_i vectors[i], one x_i per vector, skipping zeros."""
    if len(x) != len(vectors):
        raise DimensionMismatch(f"{len(x)} coefficients for {len(vectors)} vectors")
    out = [ZERO] * n
    for c, v in zip(x, vectors):
        if c != 0:
            accumulate(out, c, v)
    return tuple(out)


def bilinear(table, x: Vector, y: Vector, dim: int) -> Vector:
    """Bilinear extension of a structure table: sum of x_i y_j table[i][j].

    ``table[i][j]`` holds the coordinates, of length ``dim``, of the
    image of the basis pair (e_i, e_j).  Algebra, triangle and
    descendent tables all share this format.  x and y have length ``dim``.
    """
    if len(x) != dim or len(y) != dim:
        raise DimensionMismatch(f"vectors of length {len(x)} and {len(y)} in dimension {dim}")
    out = [ZERO] * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj != 0:
                accumulate(out, xi * yj, row[j])
    return tuple(out)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's immutable value types.

    A subclass's own annotations are its fields, in order, and a
    class-level value is that field's default.  Fields are passed by
    position or keyword, ``__post_init__`` runs once they are set, and
    attributes can be neither assigned nor deleted.  Two records are
    equal when they are of the same class with equal fields, a record
    hashes as its field tuple, and the repr is ``Name(field=value, ...)``.
    No code is generated, so defining a record costs no more than a class;
    each instance keeps its field tuple as ``_values`` for ``==`` and hash.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        attrs = self.__dict__
        attrs.update(zip(fields, args))
        attrs["_values"] = args
        self.__post_init__()

    def _complete(self, args: tuple, kwargs: dict) -> tuple:
        """Every field value in order, from the arguments and the defaults."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)} positional")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in self._defaults:
                values.append(self._defaults[f])
            else:
                raise TypeError(f"{name} missing field {f!r}")
        if kwargs:
            raise TypeError(f"{name} got unexpected or repeated fields {sorted(kwargs)}")
        return tuple(values)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Flat(Record):
    """Base of the records whose last field is a flat tuple of scalars and
    whose other fields give its shape.

    The linear structure is entrywise and defined here once: ``+`` and
    ``-`` need a record of the same class and shape (``DimensionMismatch``
    otherwise), and ``scale`` passes each product through ``frac``.
    """

    def _with(self, values) -> "Flat":
        return type(self)(*self._values[:-1], tuple(values))

    def _pairs(self, other: "Flat"):
        if other.__class__ is not self.__class__ or other._values[:-1] != self._values[:-1]:
            raise DimensionMismatch(f"shape mismatch: {type(self).__name__}{self._values[:-1]} "
                                    f"vs {type(other).__name__}{getattr(other, '_values', ())[:-1]}")
        return zip(self._values[-1], other._values[-1])

    def __add__(self, other: "Flat") -> "Flat":
        return self._with(a + b for a, b in self._pairs(other))

    def __sub__(self, other: "Flat") -> "Flat":
        return self._with(a - b for a, b in self._pairs(other))

    def __neg__(self) -> "Flat":
        return self._with(-a for a in self._values[-1])

    def scale(self, c) -> "Flat":
        c = frac(c)
        return self._with(frac(c * a) for a in self._values[-1])

    def is_zero(self) -> bool:
        return not any(self._values[-1])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix(Flat):
    """Immutable rows x cols matrix with row-major rational entries."""

    rows: int
    cols: int
    entries: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"matrix {self.rows}x{self.cols} needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [vector(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        """The matrix with these columns; n empty columns give a 0 x n matrix."""
        cols = [vector(c) for c in cols]
        nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        return cls(nrows, len(cols), tuple(c[i] for i in range(nrows) for c in cols))

    @classmethod
    def from_sparse_rows(cls, rows: int, cols: int, sparse) -> "Matrix":
        """The matrix whose leading rows are given by the ``(column, entry)``
        pairs of ``sparse``; the rows after them are zero."""
        dense = tuple(x for row in sparse for x in _dense(row, cols))
        return cls(rows, cols, dense + (ZERO,) * (rows * cols - len(dense)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[_index(i, self.rows) * self.cols + _index(j, self.cols)]

    def row(self, i: int) -> Vector:
        start = _index(i, self.rows) * self.cols
        return self.entries[start: start + self.cols]

    def col(self, j: int) -> Vector:
        return self.entries[_index(j, self.cols)::self.cols]

    def nonzero(self) -> list[tuple[int, int, Scalar]]:
        """The nonzero entries as (row, column, entry), in row-major order."""
        return [(*divmod(k, self.cols), x) for k, x in enumerate(self.entries) if x]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [other.row(k) for k in range(other.rows)]
        return Matrix(self.rows, other.cols, tuple(
            x for i in range(self.rows) for x in combine(self.row(i), rows, other.cols)))

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product, v given in column coordinates."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} against {self.cols} columns")
        return combine(v, [self.col(j) for j in range(self.cols)], self.rows)

    def try_inverse(self) -> "Matrix | None":
        """Exact inverse, or None when singular."""
        if self.rows != self.cols:
            return None
        n = self.rows
        aug = Matrix.from_rows(
            [list(self.row(i)) + list(unit_vector(n, i)) for i in range(n)])
        red, pivots = rref(aug)
        if tuple(pivots) != tuple(range(n)):
            return None
        return Matrix.from_rows([red.row(i)[n:] for i in range(n)])


def combination(mats: tuple[Matrix, ...], x: Vector, n: int) -> Matrix:
    """The n x n matrix sum of x_i mats[i], skipping zero coefficients."""
    return Matrix(n, n, combine(x, [m.entries for m in mats], n * n))


def _sparse_rows(m: Matrix) -> list[SparseRow]:
    cols, e = m.cols, m.entries
    return [{j: x for j in range(cols) if (x := e[i * cols + j])} for i in range(m.rows)]


def _dense(pairs, n: int) -> Vector:
    """The length-n dense tuple with these ``(column, entry)`` pairs, each
    entry through ``frac``: the residual ``Subspace.reduce`` leaves may hold
    whole ``Fraction``s, and this is where they go."""
    out = [ZERO] * n
    for c, x in pairs:
        out[c] = frac(x)
    return tuple(out)


def _eliminate(row: SparseRow, by_pivot: dict[int, SparseRow]) -> SparseRow:
    """Clear from ``row``, in place, every pivot column of ``by_pivot``, and
    return it; one pass is enough, as pivot rows vanish at other pivots.

    Against the pivot row P at p, with a = P[p] and f = row[p] each divided
    by their gcd, the step is row := a row - f P, dropping the entries that
    cancel, so integer rows stay integer.  The row is scaled only when a != 1:
    against the pivot-1 rows of a ``Subspace`` the step is the plain
    row - f P, on any rationals, and what is left is the residual."""
    for p in [c for c in row if c in by_pivot]:
        other = by_pivot[p]
        a, f = other[p], row[p]
        if a != 1:
            g = gcd(a, f)
            a, f = a // g, f // g
            if a != 1:
                for c in row:
                    row[c] *= a
        for c, x in other.items():
            y = row.get(c)
            if y is None:
                row[c] = -f * x
            elif y := y - f * x:
                row[c] = y
            else:
                del row[c]
    return row


def _integral(row: SparseRow) -> SparseRow:
    """The nonzero entries of a row times the lcm of their denominators, as ints."""
    row = {c: x for c, x in row.items() if x}
    if {*map(type, row.values())} - {int}:
        m = lcm(*(x.denominator for x in row.values()))
        row = {c: int(x * m) for c, x in row.items()}
    return row


def _primitive(row: SparseRow, lead: int = 1) -> SparseRow:
    """Divide an integer row, in place, by the gcd of its entries taken with
    the sign of ``lead``, and return it: given its pivot entry, the row comes
    out with that entry positive."""
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g
    return row


def _sparse_rref(rows, pick=min) -> tuple[EchelonRow, ...]:
    """Reduced row echelon form of the span of sparse rows, in canonical form.

    The elimination is fraction-free.  Each incoming row is cleared of
    denominators (``_integral``), reduced against the pivot rows found so
    far, and pivots on the column ``pick`` takes from what is left: the first
    by default, the last for ``sparse_kernel``.  It is made primitive there
    (gcd 1, pivot entry positive; the pivot is not scaled to 1) and clears
    that column from every earlier pivot row, each of which is made
    primitive again (its own pivot entry stays positive, as the step scales
    it only by the new, positive, pivot entry).  The pivot rows stay
    zero at every other pivot column throughout, so dividing each by its
    pivot entry at the end, x // a when a divides x and ``frac(x, a)``
    otherwise, gives the unique RREF of the span for that pivot end: rows
    sorted by pivot, each as ``(column, entry)`` pairs in column order.
    Input is not changed.
    """
    by_pivot: dict[int, SparseRow] = {}
    for incoming in rows:
        row = _eliminate(_integral(incoming), by_pivot) if incoming else None
        if not row:
            continue
        p = pick(row)
        new = {p: _primitive(row, row[p])}
        for other in by_pivot.values():
            if p in other:
                _primitive(_eliminate(other, new))
        by_pivot[p] = row
    out = []
    for p in sorted(by_pivot):
        row = by_pivot[p]
        if (a := row[p]) != 1:
            row = {c: x // a if x % a == 0 else frac(x, a) for c, x in row.items()}
        out.append(tuple(sorted(row.items())))
    return tuple(out)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns, exactly."""
    rows = _sparse_rref(_sparse_rows(m))
    return Matrix.from_sparse_rows(m.rows, m.cols, rows), tuple(row[0][0] for row in rows)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(Record):
    """A subspace of Q^n held by its RREF rows, as ``_sparse_rref`` returns
    them; the RREF is unique, so equal subspaces are equal records.  Rows are
    reduced against a pivot index built on first use, and ``basis``, the
    dense echelon tuples, is made only when read."""

    ambient_dim: int
    rows: tuple[EchelonRow, ...]

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise DimensionMismatch(f"spanning vectors must have length {ambient_dim}")
        return cls(ambient_dim, _sparse_rref({j: x for j, x in enumerate(v) if x} for v in vecs))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(((i, ONE),) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(_dense(row, self.ambient_dim) for row in self.rows)

    @cached_property
    def _by_pivot(self) -> dict[int, SparseRow]:
        return {row[0][0]: dict(row) for row in self.rows}

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after eliminating against the echelon rows."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient dimension mismatch")
        row = _eliminate({j: x for j, x in enumerate(v) if x}, self._by_pivot)
        return _dense(row.items(), self.ambient_dim)

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v on the echelon basis, or None if outside."""
        return tuple(v[p] for p in self.pivots) if self.contains(v) else None

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return not any(_eliminate(dict(row), other._by_pivot) for row in self.rows)

    def to_json(self) -> list:
        return [vector_to_json(row) for row in self.basis]


def sparse_kernel(rows: list[SparseRow], ncols: int) -> Subspace:
    """Canonical basis of {v : row . v = 0 for every row}, v in Q^ncols.

    Eliminating with each pivot on the last column of its row puts every
    pivot p after the free columns of its row, so e_f - sum_p R[p][f] e_p
    leads with 1 at the free column f and vanishes at the others: these
    vectors are already the kernel's RREF, built in column order."""
    vecs = {f: [(f, ONE)] for f in range(ncols)}
    for *rest, (p, _) in _sparse_rref(rows, max):
        del vecs[p]
        for c, x in rest:
            vecs[c].append((p, -x))
    return Subspace(ncols, tuple(map(tuple, vecs.values())))


def sparse_image(rows: list[SparseRow], ncols: int) -> Subspace:
    """Column space of the len(rows) x ncols matrix with these sparse rows."""
    cols: list[SparseRow] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, x in row.items():
            cols[c][i] = x
    return Subspace(len(rows), _sparse_rref(cols))


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}."""
    return sparse_kernel(_sparse_rows(m), m.cols)


def column_space(m: Matrix) -> Subspace:
    return sparse_image(_sparse_rows(m), m.cols)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big) - dim(small), after checking small is contained in big."""
    if not small.is_subspace_of(big):
        raise NotASubspace("the claimed small subspace is not contained in the big one")
    return big.dim - small.dim
