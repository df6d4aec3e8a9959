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
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPeriodData,
    NotInGammaD,
    PostconditionFailed,
    RiemannRelationViolation,
    UnsupportedCombination,
)
from .intlinalg import IntMatrix
from .lattice_core import SymplecticMatrix, conjugacy_invariants
from .modular import IRREGULAR, REGULAR, gamma_d_contains

DISTINGUISHED = "Distinguished"
INCONCLUSIVE = "Inconclusive"

ComplexMatrix = tuple[tuple[complex, ...], ...]


def default_tolerance() -> float:
    """Absolute tolerance for floating checks: FIBSURF_TOL or 1e-9."""
    env = os.environ.get("FIBSURF_TOL", "")
    return float(env) if env else 1.0e-9


def _smallest_cholesky_pivot(a: np.ndarray) -> float:
    """Smallest pivot of a diagonally pivoted Cholesky factorization.

    The input is assumed (real) symmetric; the return value is positive
    iff the matrix is positive definite, and its magnitude measures the
    margin.  Deterministic, O(n^3), fine for the tiny sizes used here.
    """
    m = np.array(a, dtype=float)
    smallest = math.inf
    while m.size:
        k = int(np.argmax(np.diag(m)))
        piv = float(m[k, k])
        smallest = min(smallest, piv)
        if piv <= 0.0:
            break
        m = m - np.outer(m[:, k], m[k, :]) / piv
        m = np.delete(np.delete(m, k, axis=0), k, axis=1)
    return smallest


@dataclass(frozen=True)
class PeriodData:
    """A point (Z, z) of H_{g-1} x H together with the degree d and the
    tolerance used for all floating checks derived from it."""

    g: int
    d: int
    Z: ComplexMatrix
    z: complex
    tol: float = field(default_factory=default_tolerance)

    def __post_init__(self):
        if self.g not in (2, 3):
            raise InvalidPeriodData(f"genus must be 2 or 3, got {self.g}")
        if self.d < 2:
            raise InvalidPeriodData(f"degree must be >= 2, got {self.d}")
        if not (self.tol >= 0):
            raise InvalidPeriodData("tolerance must be nonnegative")
        h = self.g - 1
        try:
            rows = tuple(tuple(complex(v) for v in row) for row in self.Z)
            z_val = complex(self.z)
        except (TypeError, ValueError) as exc:
            raise InvalidPeriodData(f"malformed period data: {exc}") from exc
        if len(rows) != h or any(len(row) != h for row in rows):
            raise InvalidPeriodData(f"Z must be {h}x{h}")
        object.__setattr__(self, "Z", rows)
        object.__setattr__(self, "z", z_val)
        zm = self.z_matrix()
        asym = float(np.max(np.abs(zm - zm.T))) if h else 0.0
        if asym > self.tol:
            raise InvalidPeriodData(f"Z is not symmetric (defect {asym:.3e})")
        if _smallest_cholesky_pivot((zm.imag + zm.imag.T) / 2.0) <= -self.tol:
            raise InvalidPeriodData("Im(Z) is not positive definite")
        if not self.z.imag > 0:
            raise InvalidPeriodData("z must lie in the upper half plane")

    def z_matrix(self) -> np.ndarray:
        return np.array(self.Z, dtype=complex).reshape(self.g - 1, self.g - 1)


@dataclass(frozen=True)
class LatticeSections:
    """The values u_1(z), ..., u_{2g+2}(z), each a vector in C^g."""

    u: tuple[tuple[complex, ...], ...]

    def vector(self, i: int) -> np.ndarray:
        """u_i as an array, 1-based index."""
        return np.array(self.u[i - 1], dtype=complex)


def lattice_sections(p: PeriodData) -> LatticeSections:
    """Evaluate the 2g+2 sections at (Z, z); see the module docstring."""
    g, d = p.g, p.d
    zm = p.z_matrix()
    h = g - 1
    delta = np.diag([1.0] * (h - 1) + [float(d)])
    zero = np.zeros(1, dtype=complex)
    secs: list[np.ndarray] = []
    for r in range(h):
        secs.append(np.concatenate([zm[r, :], zero]))  # u_1 .. u_{g-1}
    secs.append(np.concatenate([np.zeros(h), [p.z]]))  # u_g
    for r in range(h):
        secs.append(np.concatenate([delta[r, :], zero]))  # u_{g+1} .. u_{2g-1}
    secs.append(np.concatenate([np.zeros(h), [1.0]]))  # u_{2g}
    u_last = np.zeros(g, dtype=complex)
    u_last[h - 1] = 1.0
    u_last[h] = p.z / d
    secs.append(u_last)  # u_{2g+1}
    secs.append(np.concatenate([zm[h - 1, :] / d, [1.0 / d]]))  # u_{2g+2}
    return LatticeSections(u=tuple(tuple(complex(x) for x in v) for v in secs))


@dataclass(frozen=True)
class PeriodMatrix:
    """A Riemann matrix in the beta-normalized frame described above."""

    T: ComplexMatrix
    basis_labels: tuple[str, ...]

    def array(self) -> np.ndarray:
        return np.array(self.T, dtype=complex)


def period_matrix(p: PeriodData) -> PeriodMatrix:
    """Express the alpha-periods in the beta-frame and verify the Riemann
    relations (symmetry and positivity of the imaginary part) within tol."""
    g, d = p.g, p.d
    secs = lattice_sections(p)
    alphas = [secs.vector(r) for r in range(1, g - 1)] + [
        secs.vector(2 * g + 2),
        secs.vector(2 * g + 1),
    ]
    betas = [secs.vector(g + r) for r in range(1, g + 1)]
    a_mat = np.column_stack(alphas)
    b_mat = np.column_stack(betas)
    t = np.linalg.solve(b_mat, a_mat)

    asym = float(np.max(np.abs(t - t.T)))
    if asym > p.tol:
        raise RiemannRelationViolation(f"T is not symmetric (defect {asym:.3e})")
    if _smallest_cholesky_pivot((t.imag + t.imag.T) / 2.0) <= -p.tol:
        raise RiemannRelationViolation("Im(T) is not positive definite")
    # structural constants of the construction in this normalization
    corner = np.zeros(g, dtype=complex)
    corner[g - 2] = 1.0 / d
    corner_defect = float(np.max(np.abs(t[g - 1, : g - 1] - corner[: g - 1])))
    if not corner_defect <= p.tol:
        raise PostconditionFailed(
            f"corner of T differs from its structural value (defect {corner_defect:.3e})"
        )
    labels = tuple(f"alpha_{r}" for r in range(1, g + 1)) + tuple(
        f"beta_{r}" for r in range(1, g + 1)
    )
    return PeriodMatrix(
        T=tuple(tuple(complex(v) for v in row) for row in t), basis_labels=labels
    )


def siegel_action(m: IntMatrix, t: np.ndarray) -> np.ndarray:
    """Action of a 2g x 2g block matrix [[A,B],[C,D]] on a g x g Riemann
    matrix: T -> (A T + B)(C T + D)^{-1}."""
    n = np.array(t, dtype=complex)
    g = n.shape[0]
    if m.rows != 2 * g or m.cols != 2 * g:
        raise DimensionMismatch(f"expected a {2 * g}x{2 * g} matrix")
    blocks = np.array(m.tolists(), dtype=complex)
    a, b = blocks[:g, :g], blocks[:g, g:]
    c, dd = blocks[g:, :g], blocks[g:, g:]
    return (a @ n + b) @ np.linalg.inv(c @ n + dd)


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
    z_new = (al * p.z + be) / (ga * p.z + de)
    p_new = PeriodData(g=p.g, d=p.d, Z=p.Z, z=z_new, tol=p.tol)

    entries = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
    entries[g - 1][g - 1] = de
    entries[2 * g - 1][g - 1] = -be
    entries[g - 1][2 * g - 1] = -ga
    entries[2 * g - 1][2 * g - 1] = al
    return p_new, IntMatrix(entries)


def gamma_action_defect(p: PeriodData, m: IntMatrix) -> float:
    """Max entrywise defect of the lattice identity encoded by gamma_action:
    the map fixing the first g-1 coordinates and dividing the last by
    (gamma*z + delta) carries u_i(z) to sum_j L[j,i] u_j(Mz)."""
    p_new, l_mat = gamma_action(p, m)
    ga, de = m[1, 0], m[1, 1]
    old = lattice_sections(p)
    new = lattice_sections(p_new)
    scale = ga * p.z + de
    worst = 0.0
    for i in range(1, 2 * p.g + 1):
        v = old.vector(i)
        phi = v.copy()
        phi[-1] = v[-1] / scale
        image = sum(l_mat[j - 1, i - 1] * new.vector(j) for j in range(1, 2 * p.g + 1))
        worst = max(worst, float(np.max(np.abs(phi - image))))
    return worst


@dataclass(frozen=True)
class MonodromyMatrix:
    """A symplectic monodromy transformation tagged by its cusp case."""

    m: SymplecticMatrix
    cusp_case: str


# the degree-2 irregular-cusp monodromy for genus 3
_IRREGULAR_G3_D2 = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 0, -1, 0, 1, -1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, -1),
)


def monodromy_at_cusp(g: int, d: int, case: str = REGULAR) -> MonodromyMatrix:
    """Monodromy around the cusp at infinity.

    Regular cusps (any d >= 2, g in {2, 3}) give the parabolic matrix
    I_{2g} + E_{g,2g}; the irregular case exists only for d = 2 and is
    implemented for g = 3, where it has (x+1)^2 dividing its
    characteristic polynomial (hence is not unipotent).
    """
    if case == REGULAR:
        if g not in (2, 3) or d < 2:
            raise UnsupportedCombination(
                f"regular monodromy needs g in {{2, 3}} and d >= 2, got ({g}, {d})"
            )
        entries = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
        entries[g - 1][2 * g - 1] = 1
        return MonodromyMatrix(
            m=SymplecticMatrix(IntMatrix(entries), g), cusp_case=REGULAR
        )
    if case == IRREGULAR:
        if g != 3 or d != 2:
            raise UnsupportedCombination(
                f"irregular monodromy is implemented only for g=3, d=2, "
                f"got ({g}, {d})"
            )
        return MonodromyMatrix(
            m=SymplecticMatrix(IntMatrix([list(r) for r in _IRREGULAR_G3_D2]), 3),
            cusp_case=IRREGULAR,
        )
    raise UnsupportedCombination(f"unknown cusp case {case!r}")


def monodromy_translation_defect(p: PeriodData) -> float:
    """Max-norm defect of the translation identity: the symplectic action
    of the regular monodromy on T(z) must equal T(z + d)."""
    mono = monodromy_at_cusp(p.g, p.d, REGULAR)
    t_here = period_matrix(p).array()
    shifted = PeriodData(g=p.g, d=p.d, Z=p.Z, z=p.z + p.d, tol=p.tol)
    t_there = period_matrix(shifted).array()
    return float(np.max(np.abs(siegel_action(mono.m.m, t_here) - t_there)))


def _as_int_matrix(m) -> IntMatrix:
    if isinstance(m, MonodromyMatrix):
        return m.m.m
    if isinstance(m, SymplecticMatrix):
        return m.m
    return m


def distinguish_monodromies(a, b) -> str:
    """Compare two symplectic matrices by their conjugacy invariants.

    Returns DISTINGUISHED when the invariants differ (so the matrices are
    certainly not conjugate in the symplectic group) and INCONCLUSIVE
    otherwise.
    """
    ma, mb = _as_int_matrix(a), _as_int_matrix(b)
    if (ma.rows, ma.cols) != (mb.rows, mb.cols):
        raise DimensionMismatch("monodromy matrices have different sizes")
    if conjugacy_invariants(ma) == conjugacy_invariants(mb):
        return INCONCLUSIVE
    return DISTINGUISHED


def section_pairing_gram(g: int, d: int) -> IntMatrix:
    """Exact Gram matrix of the principal alternating form on the sections
    u_1, ..., u_{2g} (a sublattice of index d^2 in the full period lattice).

    In the symplectic frame (alpha_1..alpha_g, beta_1..beta_g) the sections
    expand as u_r = alpha_r (r <= g-2), u_{g-1} = d*alpha_{g-1} - beta_g,
    u_g = d*alpha_g - beta_{g-1}, u_{g+r} = beta_r, u_{2g} = beta_g; the
    Gram is C^t J C for that integral coordinate matrix C.
    """
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
    c_mat = IntMatrix(cols).transpose()
    j_entries = [[0] * n for _ in range(n)]
    for r in range(g):
        j_entries[r][g + r] = 1
        j_entries[g + r][r] = -1
    j_mat = IntMatrix(j_entries)
    return c_mat.transpose() * j_mat * c_mat
