"""Alternating forms over Z, their normal forms, and symplectic matrices.

The central routine is :func:`frobenius_basis`: given a nondegenerate integer
alternating form it produces a basis e_1..e_g, f_1..f_g in which the Gram
matrix is [[0, D], [-D, 0]] with D = diag(d_1, ..., d_g) and d_i | d_{i+1}.
The divisor chain (d_1 | ... | d_g) is the polarization type; the last
divisor of a (1, ..., 1, d) type is the associated degree.

Reduction strategy (deterministic on purpose, so outputs are reproducible):
pivot on a minimal-magnitude nonzero pairing, ties broken by lowest
(row, col) lexicographic position; clear the pivot's row and column; force
the pivot to divide the remaining block before recursing.  The pivot search
stops at the first pairing of magnitude 1, which is the pivot that rule
picks, and a unit pivot skips both divisibility scans.
"""

from __future__ import annotations

from math import comb

from .errors import (
    Degenerate,
    DimensionMismatch,
    InvalidArgument,
    NotAlternating,
    NotCoprincipal,
    NotSymplectic,
    OddDimension,
    PostconditionFailed,
    Record,
    _int_argument,
)
from .intlinalg import IntMatrix, char_poly, smith_normal_form


class AlternatingForm(Record):
    """An integer alternating bilinear form given by its Gram matrix."""

    _fields = ("gram",)

    def __init__(self, gram: IntMatrix):
        if not isinstance(gram, IntMatrix):
            raise InvalidArgument(
                f"the Gram matrix must be an IntMatrix, got {type(gram).__name__}"
            )
        if gram.rows != gram.cols:
            raise NotAlternating("gram matrix must be square")
        # one pass over the upper triangle, reading the stored rows directly
        e = gram.entries()
        for i, row in enumerate(e):
            if row[i]:
                raise NotAlternating(f"nonzero diagonal entry at {i}")
            for j in range(i + 1, gram.cols):
                if row[j] != -e[j][i]:
                    raise NotAlternating(f"gram[{i}][{j}] != -gram[{j}][{i}]")
        self.__dict__.update(gram=gram)

    @property
    def dim(self) -> int:
        return self.gram.rows


class PolarizationType(Record):
    """Divisor chain (d_1 | d_2 | ... | d_k) of positive integers."""

    _fields = ("divisors",)

    def __init__(self, divisors: tuple[int, ...]):
        ds = tuple(divisors)
        if not ds or min(_int_argument(d, "a divisor") for d in ds) < 1:
            raise InvalidArgument(f"a polarization type needs positive divisors, got {ds}")
        for a, b in zip(ds, ds[1:]):
            if b % a:
                raise InvalidArgument(f"divisor chain broken: {a} does not divide {b}")
        self.__dict__.update(divisors=ds)

    def __iter__(self):
        return iter(self.divisors)

    def __len__(self):
        return len(self.divisors)


def principal_type(g: int) -> PolarizationType:
    return PolarizationType((1,) * _int_argument(g, "the number of divisors g"))


def coprincipal_type(g: int, d: int) -> PolarizationType:
    """The type (1, ..., 1, d) with g divisors."""
    return PolarizationType((1,) * (_int_argument(g, "the number of divisors g") - 1) + (d,))


def standard_symplectic_gram(g: int) -> IntMatrix:
    """J = [[0, I_g], [-I_g, 0]]."""
    return block_normal_gram(principal_type(g))


def block_normal_gram(ptype: PolarizationType) -> IntMatrix:
    """[[0, D], [-D, 0]] for D = diag(divisors)."""
    g = len(ptype.divisors)
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i, d in enumerate(ptype.divisors):
        rows[i][g + i] = d
        rows[g + i][i] = -d
    return IntMatrix._of(tuple(map(tuple, rows)))


def frobenius_basis(form: AlternatingForm) -> tuple[IntMatrix, PolarizationType]:
    """Symplectic normal form of a nondegenerate alternating form.

    Returns (P, type) where the columns of P in order e_1..e_g, f_1..f_g
    satisfy (e_i, f_j) = d_i * delta_ij and (e_i, e_j) = (f_i, f_j) = 0,
    i.e. P^T * gram * P = [[0, D], [-D, 0]].  A degenerate form raises
    ``Degenerate`` when the reduction reaches a block with no nonzero pairing.
    """
    n = form.dim
    if n % 2:
        raise OddDimension(f"alternating form of odd dimension {n}")

    g_mat = form.gram.tolists()
    p = IntMatrix.identity(n).tolists()

    def swap(i, j):
        if i == j:
            return
        for r in g_mat:
            r[i], r[j] = r[j], r[i]
        g_mat[i], g_mat[j] = g_mat[j], g_mat[i]
        for r in p:
            r[i], r[j] = r[j], r[i]

    def negate(i):
        for r in g_mat:
            r[i] = -r[i]
        g_mat[i] = [-x for x in g_mat[i]]
        for r in p:
            r[i] = -r[i]

    def add(src, dst, c):
        # basis vector dst += c * basis vector src
        for r in g_mat:
            r[dst] += c * r[src]
        g_mat[dst] = [x + c * y for x, y in zip(g_mat[dst], g_mat[src])]
        for r in p:
            r[dst] += c * r[src]

    divisors: list[int] = []
    for m in range(n // 2):
        base = 2 * m
        while True:
            # deterministic pivot: minimal |pairing|, lowest (row, col) on
            # ties; a unit is minimal, so the search ends at the first one
            pivot = None
            best = None
            for r in range(base, n):
                row = g_mat[r]
                for c in range(r + 1, n):
                    v = abs(row[c])
                    if v and (best is None or v < best):
                        best, pivot = v, (r, c)
                        if v == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                raise Degenerate("degenerate block during reduction")
            r, c = pivot
            swap(base, r)
            if c == base:
                c = r
            swap(base + 1, c)
            if g_mat[base][base + 1] < 0:
                negate(base + 1)
            piv = g_mat[base][base + 1]

            # a unit pivot divides everything, so both divisibility scans
            # below stop before they start
            stop = base + 2 if piv == 1 else n

            # make the pivot divide every pairing against e=base, f=base+1
            retry = False
            for k in range(base + 2, stop):
                if g_mat[base][k] % piv:
                    add(base + 1, k, -(g_mat[base][k] // piv))
                    retry = True
                    break
                if g_mat[base + 1][k] % piv:
                    add(base, k, g_mat[base + 1][k] // piv)
                    retry = True
                    break
            if retry:
                continue

            # clear the pivot pair against the rest of the basis
            for k in range(base + 2, n):
                a = g_mat[base + 1][k] // piv
                b = -(g_mat[base][k] // piv)
                if a:
                    add(base, k, a)
                if b:
                    add(base + 1, k, b)

            # pivot must divide the trailing block, else drag a witness in
            culprit = None
            for i in range(base + 2, stop):
                for j in range(i + 1, n):
                    if g_mat[i][j] % piv:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                divisors.append(piv)
                break
            add(culprit, base + 1, 1)

    # reorder (e1, f1, e2, f2, ...) -> (e1..eg, f1..fg)
    g = n // 2
    perm = [2 * j for j in range(g)] + [2 * j + 1 for j in range(g)]
    basis = IntMatrix._of(tuple(tuple(r[j] for j in perm) for r in p))
    ptype = PolarizationType(tuple(divisors))

    if basis.transpose() * form.gram * basis != block_normal_gram(ptype):
        raise PostconditionFailed("normal-form postcondition failed")
    return basis, ptype


def polarization_type(form: AlternatingForm) -> PolarizationType:
    """Elementary-divisor type (d_1 | ... | d_g) of a nondegenerate form."""
    _, ptype = frobenius_basis(form)
    return ptype


def associated_degree(ptype: PolarizationType) -> int:
    """The d of a type (1, ..., 1, d); 1 for the principal type."""
    if any(d != 1 for d in ptype.divisors[:-1]):
        raise NotCoprincipal(f"type {ptype.divisors} has several divisors > 1")
    return ptype.divisors[-1]


def is_symplectic(m: IntMatrix, g: int) -> bool:
    """True iff m^T * J * m = J for the standard J on Z^(2g)."""
    n = 2 * _int_argument(g, "the genus g")
    if m.rows != n or m.cols != n:
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    j = standard_symplectic_gram(g)
    return m.transpose() * j * m == j


class SymplecticMatrix(Record):
    """A 2g x 2g integer matrix that preserves the standard form J."""

    _fields = ("m", "g")

    def __init__(self, m: IntMatrix, g: int):
        if not is_symplectic(m, g):
            raise NotSymplectic("matrix does not preserve the standard form")
        self.__dict__.update(m=m, g=g)


class ConjugacyInvariants(Record):
    """Conjugation invariants separating symplectic matrices.

    Matrices with different records are provably non-conjugate in
    Sp(2g, Z) (indeed in GL(2g, Z)); equal records are inconclusive.
    """

    _fields = ("char_poly", "unipotent", "snf_m_minus_i", "snf_m2_minus_i")

    def __init__(
        self,
        char_poly: tuple[int, ...],
        unipotent: bool,
        snf_m_minus_i: tuple[int, ...],
        snf_m2_minus_i: tuple[int, ...],
    ):
        self.__dict__.update(
            char_poly=char_poly,
            unipotent=unipotent,
            snf_m_minus_i=snf_m_minus_i,
            snf_m2_minus_i=snf_m2_minus_i,
        )


def conjugacy_invariants(m: SymplecticMatrix | IntMatrix) -> ConjugacyInvariants:
    if isinstance(m, IntMatrix):
        if m.rows != m.cols or m.rows % 2:
            raise NotSymplectic("conjugacy invariants need a 2g x 2g matrix")
        m = SymplecticMatrix(m, m.rows // 2)
    mat = m.m
    n = mat.rows
    ident = IntMatrix.identity(n)
    poly = char_poly(mat)
    return ConjugacyInvariants(
        char_poly=poly,
        # Cayley-Hamilton: (M - I)^n = 0 iff det(xI - M) = (x - 1)^n
        unipotent=poly == tuple((-1) ** k * comb(n, k) for k in range(n + 1)),
        snf_m_minus_i=smith_normal_form(mat - ident).diagonal(),
        snf_m2_minus_i=smith_normal_form(mat * mat - ident).diagonal(),
    )
