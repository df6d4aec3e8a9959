"""Exact arbitrary-precision integer matrix algebra.

Everything in here works on plain Python ints (no floats, no numpy), because
downstream facts — polarization types, group membership, unimodularity — are
exact statements.  Matrices are small (at most about 12x12 in practice), so
the classical fraction-free algorithms below are entirely adequate.

It exports ``IntMatrix``, the record ``SmithForm`` (an ``errors.Record``,
like every answer type), ``smith_normal_form`` and ``char_poly``;
``_unimodular_inverse`` (behind ``SmithForm.s_inv``, ``t_inv``) and
``_column_lattice_basis`` (for ``adapted``) are private to the package.

Conventions:
  * ``IntMatrix`` is immutable; entries are stored row-major as a tuple of
    tuples.
  * the public constructor ``IntMatrix(rows)`` takes ``int`` entries and
    anything exactly integral (a bool, an integral float, a decimal string),
    and refuses any other entry, and a matrix or row that is text (a str,
    bytes or bytearray), with ``InvalidArgument``, and empty or ragged
    input with ``DimensionMismatch``.  Matrices this module produces itself
    (products, sums, transposes, Smith transforms, solutions) are built
    with the trusted ``IntMatrix._of(rows)``, which takes a ready non-empty
    tuple of equal-length int tuples and checks nothing.  Code outside the
    package should use the public constructor.
  * lattice vectors are plain tuples of ints; a matrix of column generators
    is converted with :func:`from_columns` / :meth:`IntMatrix.columns`.
  * ``smith_normal_form`` returns D with the two transforms S, T of
    S A T = D; their inverses are computed only when read.  It is the one
    way to factor a matrix: the ``SmithForm`` answers ``solve(b)`` and
    ``rank()`` itself, so a caller that solves several systems against the
    same matrix factors it once.
  * products pick their kernel by the left operand alone: when at least a
    quarter of its entries are zero, each result row is a combination of
    the rows of the right operand, skipping zero coefficients and adding
    or subtracting rows for +-1 ones; otherwise each entry is a dot
    product.  The matrices of the exact core are sparse with unit entries;
    the dot products are faster on dense ones.
  * the Smith pivot is the first minimal-magnitude nonzero entry of the
    trailing block in row-major order.  The search stops at the first
    entry of magnitude 1, which is that entry, and a +-1 pivot skips the
    scan that makes the pivot divide the rest of the block.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    PostconditionFailed,
    Record,
    _int_argument,
    _rows_argument,
)


class IntMatrix:
    """Immutable dense matrix of Python ints."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = _rows_argument(entries, "matrix")
        if not all(type(x) is int for r in rows for x in r):
            rows = tuple(tuple(map(_exact_int, r)) for r in rows)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Trusted constructor: ``rows`` is a non-empty tuple of equal-length,
        non-empty tuples of ints, and is neither copied nor checked."""
        m = _new(cls)
        _set_rows(m, len(rows))
        _set_cols(m, len(rows[0]))
        _set_e(m, rows)
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if _int_argument(n, "a matrix dimension") < 1:
            raise DimensionMismatch("matrix dimensions must be positive")
        return IntMatrix._of(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        if min(_int_argument(n, "a matrix dimension") for n in (rows, cols)) < 1:
            raise DimensionMismatch("matrix dimensions must be positive")
        return IntMatrix._of(((0,) * cols,) * rows)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]]) -> "IntMatrix":
        if not cols:
            raise DimensionMismatch("need at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("columns of unequal length")
        return IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # -- access ---------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._e[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._e[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([r[j] for r in self._e])

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self._e))

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._e

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self._e]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        if not row_idx or not col_idx:
            raise DimensionMismatch("matrix dimensions must be positive")
        return IntMatrix._of(tuple(tuple(self._e[i][j] for j in col_idx) for i in row_idx))

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-x for x in r) for r in self._e))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return IntMatrix._of(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self._e, other._e))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row combinations of ``other`` when at least a quarter of the
        entries of ``self`` are zero (zero coefficients skipped, +-1 ones
        add or subtract a row); dot products otherwise."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        e, b = self._e, other._e
        if 4 * sum(r.count(0) for r in e) < self.rows * self.cols:
            cols = tuple(zip(*b))
            return IntMatrix._of(tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in e]))
        zero = (0,) * other.cols
        out = []
        for r in e:
            acc = None
            for c, row in zip(r, b):
                if not c:
                    continue
                if acc is None:
                    if c == 1:
                        acc = row
                    elif c == -1:
                        acc = tuple([-y for y in row])
                    else:
                        acc = tuple([c * y for y in row])
                elif c == 1:
                    acc = tuple(map(add, acc, row))
                elif c == -1:
                    acc = tuple(map(sub, acc, row))
                else:
                    acc = tuple([x + c * y for x, y in zip(acc, row)])
            out.append(zero if acc is None else acc)
        return IntMatrix._of(tuple(out))

    def scale(self, k: int) -> "IntMatrix":
        _int_argument(k, "the scale factor k")
        return IntMatrix._of(tuple(tuple(k * x for x in r) for r in self._e))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self._e)))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum(self._e[i][i] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._e for x in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def power(self, k: int) -> "IntMatrix":
        if not self.is_square() or _int_argument(k, "the exponent k") < 0:
            raise DimensionMismatch("power needs a square matrix and k >= 0")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._e)
        return f"IntMatrix[{body}]"

    # -- determinant (Bareiss, fraction-free) ----------------------------

    def det(self) -> int:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self._e[0][0]
        if n == 2:
            (a, b), (c, d) = self._e
            return a * d - b * c
        a = self.tolists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _exact_int(x) -> int:
    """``int(x)``, refused unless it is exactly x (a string only has to parse)."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"matrix entry {x!r} is not an integer") from exc
    if not isinstance(x, str) and v != x:
        raise InvalidArgument(f"matrix entry {x!r} is not an integer")
    return v


# slot setters that bypass the immutability guard, for the trusted constructor
_new = object.__new__
_set_rows = IntMatrix.rows.__set__
_set_cols = IntMatrix.cols.__set__
_set_e = IntMatrix._e.__set__


class SmithForm(Record):
    """S * A * T = D with S, T unimodular; s_inv, t_inv are computed on read."""

    _fields = ("d", "s", "t")

    def __init__(self, d: IntMatrix, s: IntMatrix, t: IntMatrix):
        self.__dict__.update(d=d, s=s, t=t)

    @property
    def s_inv(self) -> IntMatrix:
        return _unimodular_inverse(self.s)

    @property
    def t_inv(self) -> IntMatrix:
        return _unimodular_inverse(self.t)

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(n))

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def solve(self, b: IntMatrix) -> IntMatrix | None:
        """Solve A * x = b over the integers; None when no integral solution.

        A * x = b  <=>  D * (T^-1 x) = S * b, so x = T * y where
        y_i = (S b)_i / d_i must be integral, and (S b)_i must vanish wherever
        d_i = 0.  ``b`` may have several columns (solved simultaneously).
        """
        if self.s.cols != b.rows:
            raise DimensionMismatch("solve: row counts differ")
        diag = self.diagonal()
        y = [(0,) * b.cols] * self.t.rows
        for i, row in enumerate((self.s * b).entries()):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if any(row):
                    return None
                continue
            qr = [divmod(v, d) for v in row]
            if any(r for _, r in qr):
                return None
            y[i] = tuple(q for q, _ in qr)
        return self.t * IntMatrix._of(tuple(y))


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form with its two transition matrices.

    Diagonal entries are nonnegative and satisfy d_i | d_{i+1}.  S and T are
    maintained incrementally, one elementary operation at a time, so they
    are exact and unimodular by construction.
    """
    return _smith_form(m)


def _smith_form(m: IntMatrix) -> SmithForm:
    """The elimination behind ``smith_normal_form``.  The inverses call it
    under this private name, so that reading them starts no call of the
    public one."""
    a = m.tolists()
    nr, nc = m.rows, m.cols
    s = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    t = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for x in (a, t):
            for r in x:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    def add_col(src, dst, c):
        for x in (a, t):
            for r in x:
                r[dst] += c * r[src]

    k = 0
    while k < min(nr, nc):
        # locate the first minimal-magnitude nonzero entry of the trailing
        # block in row-major order; a unit is minimal, so the search ends there
        pivot = None
        best = None
        for i in range(k, nr):
            row = a[i]
            for j in range(k, nc):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        if pivot[1] != k:
            swap_cols(k, pivot[1])

        while True:
            # clear column k below the pivot
            restart = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    q, r = divmod(a[i][k], a[k][k])
                    add_row(k, i, -q)
                    if r:
                        swap_rows(k, i)  # strictly smaller pivot
                        restart = True
                        break
            if restart:
                continue
            # clear row k to the right of the pivot
            for j in range(k + 1, nc):
                if a[k][j]:
                    q, r = divmod(a[k][j], a[k][k])
                    add_col(k, j, -q)
                    if r:
                        swap_cols(k, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot; a unit
            # divides everything
            p = a[k][k]
            if p in (1, -1):
                break
            culprit = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, k, 1)  # drags a non-multiple into row k
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            s[k] = [-x for x in s[k]]
        k += 1

    return SmithForm(*(IntMatrix._of(tuple(map(tuple, x))) for x in (a, s, t)))


def _unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """m^-1 for a square m of determinant +-1: S m T = I when every
    invariant factor is 1, so m^-1 = T S."""
    snf = _smith_form(m)
    if any(x != 1 for x in snf.diagonal()):
        raise PostconditionFailed("a unimodular matrix has no integral inverse")
    return snf.t * snf.s


def _column_lattice_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """A basis (as columns) of the lattice spanned by the columns of ``m``.

    From S m T = D the column lattice is m T Z^c = S^-1 D Z^c, so the
    nonzero columns of m T (the first rank(m) of them) form a basis.
    """
    prod = m * smith_normal_form(m).t
    return [c for c in prod.columns() if any(c)]


def char_poly(m: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - m), monic, coefficients returned
    from the x^n term down to the constant.

    Uses the Faddeev-LeVerrier recurrence; every division is exact over Z.
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [1]
    mk = m
    for k in range(1, n + 1):
        minus_trace = -mk.trace()
        ck, rem = divmod(minus_trace, k)
        if rem:
            raise PostconditionFailed(
                f"Faddeev-LeVerrier division by {k} is not exact: {minus_trace}/{k}"
            )
        coeffs.append(ck)
        if k < n:
            mk = m * (mk + IntMatrix.identity(n).scale(ck))
    return tuple(coeffs)
