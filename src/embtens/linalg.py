"""Exact linear algebra over the rationals.

Scalars are exact rationals: a Python ``int`` when the value is whole
and a ``fractions.Fraction`` otherwise, so integral data runs on
machine-speed ints.  ``frac`` is the one normaliser that makes them, and
``frac(p, q)`` is the one exact quotient; no floats ever enter, and the
package has no ``/`` operator.  An ``int`` passes ``frac`` as it is, and an
exact ``Fraction`` (not a subclass) in one ``as_integer_ratio()`` call: its
numerator when whole, itself otherwise.  An ``int`` and the ``Fraction`` of
the same value compare and hash equal, so mixing them changes no result.
Vectors are plain tuples of scalars, matrices are immutable row-major
``Flat`` records, and a subspace is held by canonical integer echelon rows,
so subspace equality is literal equality of those rows.  ``Record`` is
the base of every immutable value type in the package, and ``Flat`` the
base of those holding a flat tuple of scalars (``Matrix`` and
``graded.MultiMap``): it defines their entrywise arithmetic once.

All elimination goes through one sparse RREF, ``_sparse_rref``, on
``{column: entry}`` rows: ``rref``, ``kernel_basis``, ``column_space``
and ``Subspace.from_spanning`` convert their dense input, and
``sparse_kernel`` and ``sparse_image`` take sparse rows directly.  The
elimination runs on integers, fraction-free: each row is cleared of
denominators once (``_integral``), and pivot rows are kept primitive (gcd
1, pivot entry positive, not scaled to 1) and zero at every other pivot.
The earlier pivot rows a new pivot is cleared from are found by column, not
by a scan of every pivot row.  Those rows are canonical: an RREF row times
the lcm of its denominators is primitive with a positive pivot, and such a
row divided by its pivot entry is the RREF row, so they are as unique as the
RREF.  A ``Subspace`` keeps them, as ``(column, entry)`` pairs, pivot first;
rationals are made only where a caller reads them: the ``rows`` view,
``basis``, ``to_json``, ``reduce`` and ``rref``.  One step, ``_eliminate``,
reduces an integer row for elimination and membership alike: ``contains``,
``coordinates`` and ``is_subspace_of`` clear integer rows against integer
rows and ask only whether what is left is empty, as ``_eliminate`` drops
every entry that cancels.  Dense tuples are made only for output
(``_dense``).  A kernel costs one elimination of its rows as given, each
pivoting on its last column; rows with one entry are settled first and cut
from the others, with no reduction step.
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
    if den is None:
        kind = type(value)
        if kind is int:
            return value
        if kind is Fraction:
            num, q = value.as_integer_ratio()
            return num if q == 1 else value
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


def combine(x: Vector, vectors, n: int) -> Vector:
    """The length-n sum of x_i vectors[i], one x_i per vector: every table and
    operator combination accumulates here.  A vector whose coefficient is zero
    is not read."""
    if len(x) != len(vectors):
        raise DimensionMismatch(f"{len(x)} coefficients for {len(vectors)} vectors")
    out = [ZERO] * n
    for c, v in zip(x, vectors):
        if c != 0:
            for k, y in enumerate(v):
                if y != 0:
                    out[k] += c * y
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
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch(f"matrix {self.rows}x{self.cols} has a negative dimension")
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

    def require_shape(self, rows: int, cols: int, what: str) -> None:
        """``DimensionMismatch`` naming ``what`` unless the matrix is rows x cols.
        Every shape check outside this module is one."""
        if self.rows != rows or self.cols != cols:
            raise DimensionMismatch(f"{what} must be {rows}x{cols}, not {self.rows}x{self.cols}")

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
    entry through ``frac``: a residual summed from unnormalised terms may hold
    whole ``Fraction``s, and this is where they go."""
    out = [ZERO] * n
    for c, x in pairs:
        out[c] = frac(x)
    return tuple(out)


def _rational(row: EchelonRow) -> EchelonRow:
    """An integer echelon row, pivot first, divided by its pivot entry: its
    RREF row, each entry an ``int`` when whole and a ``Fraction`` otherwise."""
    a = row[0][1]
    return row if a == 1 else tuple((c, x // a if x % a == 0 else frac(x, a)) for c, x in row)


def _eliminate(row: SparseRow, by_pivot: dict[int, SparseRow]) -> SparseRow:
    """Clear from ``row``, in place, every pivot column of ``by_pivot``, and
    return it; one pass is enough, as pivot rows vanish at other pivots.

    Against the pivot row P at p, with a = P[p] and f = row[p] each divided
    by their gcd, the step is row := a row - f P, dropping the entries that
    cancel, so integer rows stay integer; the row is scaled only when a != 1.
    What is left is empty exactly when the row lies in the span of the pivot
    rows."""
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


def _integral(row: SparseRow) -> tuple[SparseRow, int]:
    """The nonzero entries of a row times m, the lcm of their denominators, as
    ints in a new dict, and m: a row of nonzero ints is one ``dict(row)``.  Any
    entry but an ``int`` or exact ``Fraction`` goes through ``frac`` first."""
    values = row.values()
    if all(type(x) is int for x in values) and 0 not in values:
        return dict(row), 1
    ratios = {c: (x if type(x) is int or type(x) is Fraction else frac(x)).as_integer_ratio()
              for c, x in row.items()}
    m = lcm(*{d for _, d in ratios.values()})
    return {c: n * (m // d) for c, (n, d) in ratios.items() if n}, m


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
    """The integer echelon rows of the span of sparse rows, in canonical form.

    A row whose one entry is nonzero says its column is zero on the span:
    that column becomes the unit pivot row {c: 1} and is cut from every other
    row, and cuts that leave a one-entry row repeat this.  The rows left hold
    no unit column, so neither does their RREF, and with the unit rows it is
    the RREF of the span at either pivot end.  A cut row is a new dict, and
    each row left is cleared of denominators (``_integral``) into another, so
    input is not changed.  The rows left are eliminated fraction-free, one at
    a time, so a row that cancels is dropped at once: each is reduced against
    the pivot rows found so far, and pivots on the column ``pick`` takes from
    what is left: the first by default, the last for ``sparse_kernel``.  It is
    made primitive there (gcd 1, pivot entry positive; the pivot is not scaled
    to 1) and clears that column from every earlier pivot row that holds it,
    each of which is made primitive again (its own pivot entry stays positive,
    as the step scales it only by the new, positive, pivot entry).  Those rows
    are found by column: ``held`` lists, per column that is not yet a pivot,
    the pivots whose rows have held it, appended to when a row is added or
    cleared into and dropped when the column becomes a pivot; an entry whose
    column has since cancelled from its row is skipped.  The pivot rows stay
    zero at every other pivot column throughout, and come out as they stand,
    sorted by pivot, as ``(column, entry)`` pairs in column order: each is its
    RREF row times the lcm of its denominators, unique as the RREF is.
    """
    todo = list(rows)
    by_pivot: dict[int, SparseRow] = {}
    while cut := {c for row in todo if len(row) == 1 for c, x in row.items() if x}:
        by_pivot.update({c: {c: ONE} for c in cut})
        todo = [row if cut.isdisjoint(row) else {c: x for c, x in row.items() if c not in cut}
                for row in todo if len(row) > 1]
    held: dict[int, list[int]] = {}  # free column -> pivots whose rows have held it
    for incoming in todo:
        row = _eliminate(_integral(incoming)[0], by_pivot) if incoming else None
        if not row:
            continue
        p = pick(row)
        new = {p: _primitive(row, row[p])}
        holders = held.pop(p, ())
        for c in row:
            if c in held:
                held[c].append(p)
            elif c != p:
                held[c] = [p]
        for q in holders:
            other = by_pivot[q]
            if p in other:  # else p has cancelled from that row since
                _primitive(_eliminate(other, new))
                for c in row:
                    if c != p:
                        held[c].append(q)
        by_pivot[p] = row
    return tuple(tuple(sorted(by_pivot[p].items())) for p in sorted(by_pivot))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns, exactly."""
    rows = tuple(map(_rational, _sparse_rref(_sparse_rows(m))))
    return Matrix.from_sparse_rows(m.rows, m.cols, rows), tuple(row[0][0] for row in rows)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace(Record):
    """A subspace of Q^n held by its integer echelon rows, as ``_sparse_rref``
    returns them: each primitive, its pivot first with a positive entry, and
    zero at every other pivot.  That form is canonical: an RREF row times the
    lcm of its denominators is such a row, and such a row divided by its pivot
    entry is the RREF row back.  So equal subspaces are equal records.  Rows
    are cleared in integers against a pivot index built on first use, and the
    rational views, ``rows`` (the RREF rows as ``(column, entry)`` pairs) and
    ``basis`` (dense RREF tuples), are made only when read."""

    ambient_dim: int
    echelon: tuple[EchelonRow, ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise DimensionMismatch(f"subspace of negative ambient dimension {self.ambient_dim}")

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
        return len(self.echelon)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.echelon)

    @cached_property
    def rows(self) -> tuple[EchelonRow, ...]:
        return tuple(map(_rational, self.echelon))

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(_dense(_rational(row), self.ambient_dim) for row in self.echelon)

    @cached_property
    def _by_pivot(self) -> dict[int, SparseRow]:
        return {row[0][0]: dict(row) for row in self.echelon}

    def _integer(self, v: Vector) -> tuple[SparseRow, int]:
        """v times m, the lcm of its denominators, as a sparse integer row, and m."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient dimension mismatch")
        return _integral(dict(enumerate(v)))

    def _holds(self, row: SparseRow) -> bool:
        """Whether an integer row, cleared in place, lies in the subspace."""
        return not _eliminate(row, self._by_pivot)

    def reduce(self, v: Vector) -> Vector:
        """Residual of v against the echelon rows E_p, with pivot entries a_p:
        v - sum_p (v_p / a_p) E_p, one pass, as each vanishes at other pivots."""
        row, m = self._integer(v)
        by_pivot, out = self._by_pivot, dict(row)
        for p in [c for c in row if c in by_pivot]:
            pivot_row = by_pivot[p]
            f = frac(row[p], pivot_row[p])
            for c, x in pivot_row.items():
                out[c] = out.get(c, ZERO) - f * x
        return _dense(((c, frac(x, m)) for c, x in out.items()), self.ambient_dim)

    def contains(self, v: Vector) -> bool:
        """Whether v lies in the subspace."""
        return self._holds(self._integer(v)[0])

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v on the echelon basis, or None if outside."""
        return tuple(v[p] for p in self.pivots) if self.contains(v) else None

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(other._holds(dict(row)) for row in self.echelon)

    def to_json(self) -> list:
        return [vector_to_json(_dense(_rational(row), self.ambient_dim)) for row in self.echelon]


def sparse_kernel(rows: list[SparseRow], ncols: int) -> Subspace:
    """Canonical basis of {v : row . v = 0 for every row}, v in Q^ncols.

    Eliminating with each pivot on the last column of its row puts every
    pivot p after the free columns of its row, so with a_p the pivot entry of
    row R_p, e_f - sum_p (R_p[f] / a_p) e_p is the kernel's RREF row at the
    free column f.  Times L, the lcm of the reduced denominators, it is
    integral and primitive (each prime power of L is a whole denominator):
    the kernel's integer echelon row, built in column order."""
    terms: dict[int, list] = {f: [] for f in range(ncols)}
    for *rest, (p, a) in _sparse_rref(rows, max):
        del terms[p]
        for c, x in rest:
            terms[c].append((p, x, a))
    vecs = []
    for f, column in terms.items():
        if column:
            m = lcm(*[a // gcd(x, a) for _, x, a in column])
            vecs.append(((f, m), *[(p, -m * x // a) for p, x, a in column]))
        else:
            vecs.append(((f, ONE),))
    return Subspace(ncols, tuple(vecs))


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
