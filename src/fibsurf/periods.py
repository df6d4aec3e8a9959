"""The explicit period-matrix family: sections, Riemann matrices, the
congruence-group action, and monodromy at the cusps.

The family is parametrized by a point Z of the Siegel space H_{g-1} and a
scalar z in the upper half plane.  For a degree d >= 2 the 2g+2 sections

    u_r(z)      = (row r of Z, 0)                       r = 1..g-1
    u_g(z)      = (0_{g-1}, z)
    u_{g+r}(z)  = (e_r, 0)       e_r rows of diag(1, ..., 1, d)
    u_{2g}(z)   = (0_{g-1}, 1)
    u_{2g+1}(z) = (1/d) (0, ..., 0, d, z)
    u_{2g+2}(z) = (1/d) (row g-1 of Z, 1)

span a rank-2g lattice U(z) in C^g with the exact relations

    d u_{2g+1} - u_g = u_{2g-1},      d u_{2g+2} - u_{g-1} = u_{2g}.

NORMALIZATION.  The Riemann matrix T is computed from first principles in
the frame alpha_r = u_r (r <= g-2), alpha_{g-1} = u_{2g+2},
alpha_g = u_{2g+1}, beta_r = u_{g+r}, normalized so that the beta-period
block is the identity.  With S = diag(1, ..., 1, 1/d) this gives the
symmetric block form

    T = [[S Z S, S c], [c^t S, z/d]],        c = (0, ..., 0, 1)^t,

so the corner row of T is (0, ..., 0, 1/d) and the (g,g) entry is z/d (not
z).  This is the unique scaling in which T is symmetric, satisfies the
Riemann relations, and transforms under z -> z + d by the symplectic
action of the parabolic monodromy matrix I_{2g} + E_{g,2g} exactly; that
translation identity is the authoritative check and is exposed as
``monodromy_translation_defect``.

The SL_2(Z) action z -> (az+b)/(cz+d') re-expresses U(z) inside U(Mz)
through an integral change of basis L on u_1..u_{2g} exactly when M is
congruent to the identity mod d; ``gamma_action`` returns that matrix and
``gamma_action_defect`` measures the analytic identity it encodes.

ARITHMETIC.  Matrices are at most 3x3 tuples of rows of Python complex;
the solve, the Cholesky pivot and the defects are written out below.
Inputs must be finite and defects must be <= tol.  Im Z and Im T count as
positive definite when, scaled to unit diagonal, their smallest Cholesky
pivot is > tol: Im T has diagonal entries from Im(Z)/d^2 up to Im(z)/d,
and one rule for both keeps every scale of Im Z valid.  The degree is at
most 2**511, so that 1/d^2 is a normal double.

CHECKS.  Each check runs once per thing it depends on.  A cusp's
monodromy depends only on g and the cusp case, so it is built and
verified symplectic once per (g, case).  A PeriodData is validated in
full once, when it is constructed.  The moved points z + d
(monodromy_translation_defect) and Mz (gamma_action) keep its g, d, Z and
tol, so only their z is checked again, on every move: it must be finite
with Im z > 0, and Im(Mz) can underflow to 0.  T is solved and its relations verified once per point,
then kept on the PeriodData.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
from itertools import chain
from numbers import Real

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    InvalidPeriodData,
    NotInGammaD,
    PostconditionFailed,
    Record,
    RiemannRelationViolation,
    UnsupportedCombination,
    _int_argument,
    _rows_argument,
)
from .intlinalg import IntMatrix
from .lattice_core import (
    ConjugacyInvariants,
    SymplecticMatrix,
    conjugacy_invariants,
    standard_symplectic_gram,
)
from .modular import IRREGULAR, REGULAR, gamma_d_contains

DISTINGUISHED = "Distinguished"
INCONCLUSIVE = "Inconclusive"

ComplexMatrix = tuple[tuple[complex, ...], ...]

# the largest degree d whose 1/d^2, an entry of Im T, is a normal double
_MAX_DEGREE = math.isqrt(int(1.0 / sys.float_info.min))

# the default of PeriodData's tol: read default_tolerance() on construction
_OMITTED = object()


def default_tolerance() -> float:
    """Absolute tolerance for floating checks: FIBSURF_TOL or 1e-9."""
    env = os.environ.get("FIBSURF_TOL", "")
    try:
        tol = float(env) if env else 1.0e-9
    except ValueError:
        tol = math.nan  # rejected below, like the other invalid values
    if not 0.0 <= tol < math.inf:
        raise InvalidPeriodData(f"FIBSURF_TOL must be a finite nonnegative number, got {env!r}")
    return tol


def _transpose(a) -> ComplexMatrix:
    return tuple(zip(*a))


def _max_abs_diff(a, b) -> float:
    """Largest entrywise |a - b| of two equal-shape matrices; NaN if any
    difference is NaN."""
    worst = 0.0
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            e = abs(x - y)
            if e > worst or e != e:
                worst = e
    return worst


def _symmetric_imag(a) -> list[list[float]]:
    """(Im a + Im a^t) / 2."""
    return [[(x.imag + y.imag) / 2.0 for x, y in zip(row, col)] for row, col in zip(a, zip(*a))]


def _smallest_cholesky_pivot(a) -> float:
    """Smallest pivot of a diagonally pivoted Cholesky factorization.

    The input is assumed (real) symmetric; the return value is positive
    iff the matrix is positive definite, and its magnitude measures the
    margin.  The first pivot that is not positive (or NaN) ends the search.
    """
    m = a  # each step builds a new Schur complement; a is not modified
    smallest = math.inf
    while m:
        diag = [row[i] for i, row in enumerate(m)]
        piv = max(diag)
        if not piv > 0.0:
            return piv
        k = diag.index(piv)
        if piv < smallest:
            smallest = piv
        pivot_row = m[k]
        m = [
            [x - row[k] * y / piv for j, (x, y) in enumerate(zip(row, pivot_row)) if j != k]
            for i, row in enumerate(m)
            if i != k
        ]
    return smallest


def _unit_diagonal_cholesky_pivot(a) -> float:
    """``_smallest_cholesky_pivot`` of D^-1/2 a D^-1/2 with D = diag(a), so
    the margin does not change when coordinates are rescaled.  A diagonal
    entry that is not positive (or NaN) is returned as it is."""
    diag = [row[i] for i, row in enumerate(a)]
    for v in diag:
        if not v > 0.0:
            return v
    r = [1.0 / math.sqrt(v) for v in diag]
    return _smallest_cholesky_pivot(
        [
            [1.0 if i == j else x * ri * rj for j, (x, rj) in enumerate(zip(row, r))]
            for i, (row, ri) in enumerate(zip(a, r))
        ]
    )


def _solve(a, b) -> ComplexMatrix:
    """X with a X = b for a square complex a (n <= 3) and an n x m b, by
    Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    m = [[complex(v) for v in chain(ra, rb)] for ra, rb in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not m[p][k]:
            raise InvalidArgument("matrix is singular")
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k] / pivot_row[k]
                m[i] = [x - f * y for x, y in zip(m[i], pivot_row)]
    return tuple(tuple(v / row[k] for v in row[n:]) for k, row in enumerate(m))


class PeriodData(Record):
    """A point (Z, z) of H_{g-1} x H together with the degree d and the
    tolerance used for all floating checks derived from it.  An omitted
    tol is read from ``default_tolerance()`` when the point is built."""

    _fields = ("g", "d", "Z", "z", "tol")
    # memo: T at this point, set by the first period_matrix call
    _period_matrix: PeriodMatrix | None = None

    def __init__(self, g: int, d: int, Z: ComplexMatrix, z: complex, tol: float = _OMITTED):
        if not (isinstance(g, int) and isinstance(d, int)):
            raise InvalidPeriodData(
                f"genus and degree must be integers, got g={g!r}, d={d!r}"
            )
        if g not in (2, 3):
            raise InvalidPeriodData(f"genus must be 2 or 3, got {g}")
        if d < 2:
            raise InvalidPeriodData(f"degree must be >= 2, got {d}")
        if d > _MAX_DEGREE:
            raise InvalidPeriodData(
                f"degree must be at most 2**{_MAX_DEGREE.bit_length() - 1} "
                f"(about {_MAX_DEGREE:.3g}), so that 1/d^2 is a normal double"
            )
        if tol is _OMITTED:
            tol = default_tolerance()
        elif isinstance(tol, bool) or not isinstance(tol, Real):
            raise InvalidPeriodData(f"tolerance must be a real number, got {tol!r}")
        if not 0.0 <= tol < math.inf:
            raise InvalidPeriodData("tolerance must be finite and nonnegative")
        h = g - 1
        try:
            rows = tuple(tuple(map(complex, row)) for row in _rows_argument(Z, "Z"))
            z = complex(z)
        except (InvalidArgument, TypeError, ValueError) as exc:
            raise InvalidPeriodData(f"malformed period data: {exc}") from exc
        if len(rows) != h or any(len(row) != h for row in rows):
            raise InvalidPeriodData(f"Z must be {h}x{h}")
        if not all(map(cmath.isfinite, chain((z,), *rows))):
            raise InvalidPeriodData("Z and z must have finite entries")
        asym = _max_abs_diff(rows, _transpose(rows))
        if not asym <= tol:
            raise InvalidPeriodData(f"Z is not symmetric (defect {asym:.3e})")
        if not _unit_diagonal_cholesky_pivot(_symmetric_imag(rows)) > tol:
            raise InvalidPeriodData("Im(Z) is not positive definite")
        if not z.imag > 0:
            raise InvalidPeriodData("z must lie in the upper half plane")
        self.__dict__.update(g=g, d=d, Z=rows, z=z, tol=tol)

    def _moved(self, z: complex) -> PeriodData:
        """This point with z replaced by the complex z.  g, d, Z and tol are
        already valid; z is checked again, since Im(Mz) can underflow."""
        if not cmath.isfinite(z):
            raise InvalidPeriodData("Z and z must have finite entries")
        if not z.imag > 0:
            raise InvalidPeriodData("z must lie in the upper half plane")
        moved = object.__new__(PeriodData)
        vars(moved).update(g=self.g, d=self.d, Z=self.Z, z=z, tol=self.tol)
        return moved


def lattice_sections(p: PeriodData) -> tuple[tuple[complex, ...], ...]:
    """The values u_1(z), ..., u_{2g+2}(z) at (Z, z), each a vector in C^g;
    see the module docstring."""
    g, d, z = p.g, p.d, p.z
    h = g - 1
    pad = (0j,) * (h - 1)
    u = [row + (0j,) for row in p.Z]  # u_1 .. u_{g-1}
    u.append(pad + (0j, z))  # u_g
    u += [tuple(complex(j == r) for j in range(g)) for r in range(h - 1)]  # u_{g+1} .. u_{2g-2}
    u.append(pad + (complex(d), 0j))  # u_{2g-1}
    u.append(pad + (0j, 1 + 0j))  # u_{2g}
    u.append(pad + (1 + 0j, z / d))  # u_{2g+1}
    u.append(tuple(v / d for v in p.Z[h - 1]) + (complex(1.0 / d),))  # u_{2g+2}
    return tuple(u)


class PeriodMatrix(Record):
    """A Riemann matrix in the beta-normalized frame described above."""

    _fields = ("T", "basis_labels")

    def __init__(self, T: ComplexMatrix, basis_labels: tuple[str, ...]):
        self.__dict__.update(T=T, basis_labels=basis_labels)


def period_matrix(p: PeriodData) -> PeriodMatrix:
    """Express the alpha-periods in the beta-frame and verify the Riemann
    relations (symmetry and positivity of the imaginary part) within tol.
    The verified matrix is kept on p, so each point is solved once."""
    if p._period_matrix is not None:
        return p._period_matrix
    g, d = p.g, p.d
    u = lattice_sections(p)
    alphas = (*u[: g - 2], u[2 * g + 1], u[2 * g])
    betas = u[g : 2 * g]
    t = _solve(_transpose(betas), _transpose(alphas))

    asym = _max_abs_diff(t, _transpose(t))
    if not asym <= p.tol:
        raise RiemannRelationViolation(f"T is not symmetric (defect {asym:.3e})")
    if not _unit_diagonal_cholesky_pivot(_symmetric_imag(t)) > p.tol:
        raise RiemannRelationViolation("Im(T) is not positive definite")
    # structural constants of the construction in this normalization
    corner = (0.0,) * (g - 2) + (1.0 / d,)
    corner_defect = _max_abs_diff((t[g - 1][: g - 1],), (corner,))
    if not corner_defect <= p.tol:
        raise PostconditionFailed(
            f"corner of T differs from its structural value (defect {corner_defect:.3e})"
        )
    labels = tuple(f"{side}_{r}" for side in ("alpha", "beta") for r in range(1, g + 1))
    pm = PeriodMatrix(T=t, basis_labels=labels)
    object.__setattr__(p, "_period_matrix", pm)
    return pm


def siegel_action(m: IntMatrix, t) -> ComplexMatrix:
    """Action of a 2g x 2g block matrix [[A,B],[C,D]] on a g x g Riemann
    matrix T (any nested sequence of rows, no text): T -> (A T + B)(C T + D)^{-1},
    computed as the solve (C T + D)^t X^t = (A T + B)^t and returned as
    tuples."""
    try:
        n = [list(map(complex, row)) for row in _rows_argument(t, "T")]
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"T must have complex entries: {exc}") from exc
    g = len(n)
    if m.rows != 2 * g or m.cols != 2 * g or any(len(row) != g for row in n):
        raise DimensionMismatch(f"expected a {2 * g}x{2 * g} matrix and a {g}x{g} T")
    e = m.entries()

    def affine(rows):  # X T + Y for the blocks [X, Y] of these rows of m
        return [[sum(r[k] * n[k][j] for k in range(g)) + r[g + j] for j in range(g)] for r in rows]

    return _transpose(_solve(_transpose(affine(e[g:])), _transpose(affine(e[:g]))))


def gamma_action(p: PeriodData, m: IntMatrix) -> tuple[PeriodData, IntMatrix]:
    """Move (Z, z) by M in the congruence group of level d and return the
    integral change of basis L on u_1..u_{2g}.

    L is the identity except on the pair (u_g, u_{2g}), which transforms by
    the inverse of M:  u_g -> delta*u_g - beta*u_{2g},
    u_{2g} -> -gamma*u_g + alpha*u_{2g}.  Columns hold the images.
    """
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatch("the action takes a 2x2 integer matrix")
    if not gamma_d_contains(m, p.d):
        raise NotInGammaD(
            f"matrix is not congruent to the identity modulo {p.d}"
        )
    al, be, ga, de = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    g = p.g
    try:
        z_new = (al * p.z + be) / (ga * p.z + de)
    except OverflowError as exc:  # an entry of M beyond the float range
        raise InvalidPeriodData(f"cannot move z by M in floating point: {exc}") from exc
    p_new = p._moved(z_new)

    entries = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
    entries[g - 1][g - 1] = de
    entries[2 * g - 1][g - 1] = -be
    entries[g - 1][2 * g - 1] = -ga
    entries[2 * g - 1][2 * g - 1] = al
    return p_new, IntMatrix._of(tuple(map(tuple, entries)))


def gamma_action_defect(p: PeriodData, m: IntMatrix) -> float:
    """Max entrywise defect of the lattice identity encoded by gamma_action:
    the map fixing the first g-1 coordinates and dividing the last by
    (gamma*z + delta) carries u_i(z) to sum_j L[j,i] u_j(Mz)."""
    p_new, l_mat = gamma_action(p, m)
    scale = m[1, 0] * p.z + m[1, 1]
    n = 2 * p.g
    old = lattice_sections(p)[:n]
    new = lattice_sections(p_new)[:n]
    phis = [v[:-1] + (v[-1] / scale,) for v in old]
    images = [
        [sum(c * new[j][k] for j, c in enumerate(col) if c) for k in range(p.g)]
        for col in l_mat.columns()
    ]
    return _max_abs_diff(phis, images)


class MonodromyMatrix(Record):
    """A symplectic monodromy transformation tagged by its cusp case."""

    _fields = ("m", "cusp_case")

    def __init__(self, m: SymplecticMatrix, cusp_case: str):
        self.__dict__.update(m=m, cusp_case=cusp_case)


# the degree-2 irregular-cusp monodromy for genus 3
_IRREGULAR_G3_D2 = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 0, -1, 0, 1, -1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, -1),
)


@functools.cache
def _monodromy(g: int, case: str) -> MonodromyMatrix:
    """I_{2g} + E_{g,2g} for a regular cusp, ``_IRREGULAR_G3_D2`` (g = 3)
    for the irregular one, built and verified symplectic once per (g, case)."""
    if case == REGULAR:
        entries = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
        entries[g - 1][2 * g - 1] = 1
    else:
        entries = _IRREGULAR_G3_D2
    return MonodromyMatrix(m=SymplecticMatrix(IntMatrix(entries), g), cusp_case=case)


def monodromy_at_cusp(g: int, d: int, case: str = REGULAR) -> MonodromyMatrix:
    """Monodromy around the cusp at infinity.

    Regular cusps (any d >= 2, g in {2, 3}) give the parabolic matrix
    I_{2g} + E_{g,2g}; the irregular case exists only for d = 2 and is
    implemented for g = 3, where it has (x+1)^2 dividing its
    characteristic polynomial (hence is not unipotent).
    """
    g, d = _int_argument(g, "the genus g"), _int_argument(d, "the degree d")
    if case == REGULAR:
        if g not in (2, 3) or d < 2:
            raise UnsupportedCombination(
                f"regular monodromy needs g in {{2, 3}} and d >= 2, got ({g}, {d})"
            )
        return _monodromy(g, REGULAR)
    if case == IRREGULAR:
        if g != 3 or d != 2:
            raise UnsupportedCombination(
                f"irregular monodromy is implemented only for g=3, d=2, "
                f"got ({g}, {d})"
            )
        return _monodromy(3, IRREGULAR)
    raise UnsupportedCombination(f"unknown cusp case {case!r}")


def monodromy_translation_defect(p: PeriodData) -> float:
    """Max-norm defect of the translation identity: the symplectic action
    of the regular monodromy on T(z) must equal T(z + d)."""
    mono = monodromy_at_cusp(p.g, p.d, REGULAR)
    t_here = period_matrix(p).T
    t_there = period_matrix(p._moved(p.z + p.d)).T
    return _max_abs_diff(siegel_action(mono.m.m, t_here), t_there)


def _as_int_matrix(m) -> IntMatrix:
    if isinstance(m, MonodromyMatrix):
        return m.m.m
    if isinstance(m, SymplecticMatrix):
        return m.m
    return m


def compare_monodromies(a, b) -> tuple[str, ConjugacyInvariants, ConjugacyInvariants]:
    """The verdict of ``distinguish_monodromies`` together with the two
    invariant records it is read from, each computed once."""
    ma, mb = _as_int_matrix(a), _as_int_matrix(b)
    if (ma.rows, ma.cols) != (mb.rows, mb.cols):
        raise DimensionMismatch("monodromy matrices have different sizes")
    inv_a, inv_b = conjugacy_invariants(ma), conjugacy_invariants(mb)
    return (INCONCLUSIVE if inv_a == inv_b else DISTINGUISHED), inv_a, inv_b


def distinguish_monodromies(a, b) -> str:
    """Compare two symplectic matrices by their conjugacy invariants.

    Returns DISTINGUISHED when the invariants differ (so the matrices are
    certainly not conjugate in the symplectic group) and INCONCLUSIVE
    otherwise.
    """
    return compare_monodromies(a, b)[0]


def section_pairing_gram(g: int, d: int) -> IntMatrix:
    """Exact Gram matrix of the principal alternating form on the sections
    u_1, ..., u_{2g} (a sublattice of index d^2 in the full period lattice).

    In the symplectic frame (alpha_1..alpha_g, beta_1..beta_g) the sections
    expand as u_r = alpha_r (r <= g-2), u_{g-1} = d*alpha_{g-1} - beta_g,
    u_g = d*alpha_g - beta_{g-1}, u_{g+r} = beta_r, u_{2g} = beta_g; the
    Gram is C^t J C for that integral coordinate matrix C.
    """
    g, d = _int_argument(g, "the genus g"), _int_argument(d, "the degree d")
    if g < 2 or d < 2:
        raise DimensionMismatch("section pairings need g >= 2 and d >= 2")
    n = 2 * g
    cols: list[list[int]] = []
    for i in range(1, n + 1):
        col = [0] * n
        if i <= g - 2:
            col[i - 1] = 1
        elif i == g - 1:
            col[g - 2] = d
            col[2 * g - 1] = -1
        elif i == g:
            col[g - 1] = d
            col[2 * g - 2] = -1
        else:  # u_{g+r} = beta_r, r = 1..g
            col[i - 1] = 1
        cols.append(col)
    c = IntMatrix.from_columns(cols)
    return c.transpose() * standard_symplectic_gram(g) * c
