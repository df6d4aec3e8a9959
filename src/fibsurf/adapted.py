"""Construction and classification of adapted lattice bases.

Setting: a rank-2g lattice U carrying a principal alternating form, with a
pair of orthogonal sublattices U_A (rank 2g-2, polarization type
(1, ..., 1, d)) and U_E (rank 2, type (d)).  An *adapted basis* is a basis
u_1, ..., u_g, u_{g+1}, ..., u_{2g-2}, u_{2g+1}, u_{2g+2} of U such that,
with the derived vectors

    u_{2g-1} = d * u_{2g+1} - u_g,      u_{2g} = d * u_{2g+2} - u_{g-1},

the tuple u_1..u_{g-1}, u_{g+1}..u_{2g-1} is a symplectic basis of U_A of
type (1, ..., 1, d) and u_g, u_{2g} is a symplectic basis of U_E of type
(d).  Such a basis always exists in the geometric situation; the
construction below mirrors the existence proof, made fully explicit:

1.  symplectic normal forms of U_A and U_E (W = U_A + U_E, type
    (1,...,1,d,d) with elementary-divisor product d^2, matrix determinant
    d^4), written in the coordinates of U (the columns of the matrix U);
2.  Smith normal form S W T = D of the inclusion W -> U; the quotient must
    be (Z/d)^2, generated by two columns v_1, v_2 of S^-1.  Steps 2-4 carry
    each vector v of U as the coordinates of d*v in the basis of W, read off
    T for v_1, v_2, so that no d*v needs a solve to split into its U_A and
    U_E parts;
3.  re-choose v_1, v_2 so that the U_E-components of d*v_1, d*v_2 are
    exactly a symplectic pair (x, y) of U_E — possible precisely when the
    quotient projects isomorphically onto the discriminant group of U_E;
4.  translate v_2 by an element of U_A to force (a', a) = d, where
    d*v_1 = a + x and d*v_2 = a' + y;
5.  split off the rank-(2g-4) orthogonal complement of (a, a') inside U_A
    by an integral projection, computed in the coordinates of U; the
    complement's basis is taken in ambient coordinates.

Verification: ``is_adapted_basis`` checks the three defining conditions in
full once per (problem, basis) pair and records the problem object on the
basis, so a later call with the same problem object answers at once.  Both
are frozen records (``errors.Record``) over immutable data: an attribute
cannot be assigned, and ``_replace`` builds a new record, with no memo.  So
the answer cannot go stale.  A record equals only a record of its own class
with equal fields, never a plain tuple; an equal but distinct problem or
basis is checked again.

Basis changes: for M in SL_2(Z) acting on the pair (u_g, u_{2g}), the
transformed tuple is again adapted iff M is congruent to the identity mod
d.  ``change_basis`` finds the new glue vectors without a solve: the glue
relations above fix the coordinates of their numerators in the listed
basis, and the division by d is exact integer arithmetic on those
coordinates.  The trade-off is that this division is, in effect, a
congruence test on M rather than a search for lattice coordinates.  Its
result is checked against the glue relations of the moved basis, and on
linearly dependent listed vectors it can differ from what a solve finds.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import mul
from typing import Sequence

from .errors import (
    Degenerate,
    DimensionMismatch,
    InvalidArgument,
    InvariantViolation,
    NotUnimodular,
    PostconditionFailed,
    QuotientNotBicyclic,
    Record,
    _int_argument,
    _rows_argument,
)
from .intlinalg import IntMatrix, SmithForm, _column_lattice_basis, smith_normal_form
from .lattice_core import (
    AlternatingForm,
    block_normal_gram,
    coprincipal_type,
    frobenius_basis,
    principal_type,
    standard_symplectic_gram,
)

Vector = tuple[int, ...]


def _column_matrix(cols) -> IntMatrix:
    """Trusted matrix whose columns are the given int vectors."""
    return IntMatrix._of(tuple(zip(*cols)))


def _mat_vec(m: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if m.cols != len(v):
        raise DimensionMismatch("matrix-vector shape mismatch")
    return tuple([sum(map(mul, r, v)) for r in m.entries()])


def _combo(vectors: Sequence[Sequence[int]], coeffs: Sequence[int]) -> tuple[int, ...]:
    """Integer linear combination of equal-length vectors."""
    if len(vectors) != len(coeffs):
        raise DimensionMismatch("coefficient count mismatch")
    return tuple([sum(map(mul, coeffs, entries)) for entries in zip(*vectors)])


def _pairing(gram: IntMatrix, x: Sequence[int], y: Sequence[int]) -> int:
    """Evaluate the bilinear form x^T * gram * y."""
    return sum(map(mul, x, _mat_vec(gram, y)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0.  Step 4
    lifts the g = 2 frame from this particular Bezout pair; another one (say
    from ``pow(a, -1, b)``) gives adapted bases other than the pinned ones."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class AdaptedBasisProblem(Record):
    """Input data: ambient form plus column-generator matrices for U, U_A, U_E.

    The Smith form of U is computed on first use and kept with the problem,
    so validation, construction and every verification share it; U_A and
    U_E need none.  It is not a field: equality and hashing see only the
    declared data.
    """

    _fields = ("g", "d", "U", "form", "U_A", "U_E")

    def __init__(
        self, g: int, d: int, U: IntMatrix, form: AlternatingForm, U_A: IntMatrix, U_E: IntMatrix
    ):
        self.__dict__.update(g=g, d=d, U=U, form=form, U_A=U_A, U_E=U_E)

    @cached_property
    def factored_U(self) -> SmithForm:
        return smith_normal_form(self.U)


class _NotAdapted:
    """Sentinel: the transformed vectors do not form an adapted basis."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NotAdapted"

    def __bool__(self) -> bool:
        return False


NOT_ADAPTED = _NotAdapted()


class AdaptedBasis(Record):
    """The 2g listed vectors of an adapted basis, in the order
    u_1..u_g, u_{g+1}..u_{2g-2}, u_{2g+1}, u_{2g+2} (ambient coordinates);
    u_{2g-1} and u_{2g} are derived."""

    _fields = ("g", "d", "vectors")
    # memo: the problem object this basis last passed is_adapted_basis against
    _verified_for: AdaptedBasisProblem | None = None

    def __init__(self, g: int, d: int, vectors: tuple[Vector, ...]):
        g, d = _int_argument(g, "the genus g"), _int_argument(d, "the degree d")
        if g < 2 or d < 2:
            raise DimensionMismatch("adapted bases need g >= 2 and d >= 2")
        vectors = _rows_argument(vectors, "adapted basis vectors")
        if len(vectors) != 2 * g:
            raise DimensionMismatch(f"expected {2 * g} vectors, got {len(vectors)}")
        n = len(vectors[0])
        if n == 0 or any(len(v) != n for v in vectors):
            raise DimensionMismatch("ambient dimensions differ between vectors or are 0")
        if any(type(c) is not int for v in vectors for c in v):
            raise InvalidArgument("adapted basis vectors must have int entries")
        self.__dict__.update(g=g, d=d, vectors=vectors)

    def u(self, i: int) -> Vector:
        """The section u_i, 1 <= i <= 2g+2 (derived vectors computed)."""
        g, d = self.g, self.d
        if 1 <= i <= 2 * g - 2:
            return self.vectors[i - 1]
        if i == 2 * g + 1:
            return self.vectors[2 * g - 2]
        if i == 2 * g + 2:
            return self.vectors[2 * g - 1]
        if i == 2 * g - 1:
            return _combo([self.u(2 * g + 1), self.u(g)], [d, -1])
        if i == 2 * g:
            return _combo([self.u(2 * g + 2), self.u(g - 1)], [d, -1])
        raise DimensionMismatch(f"section index {i} out of range")

    def listed_matrix(self) -> IntMatrix:
        return _column_matrix(self.vectors)

    def u_a_part(self) -> list[Vector]:
        """u_1..u_{g-1}, u_{g+1}..u_{2g-1} — the symplectic basis of U_A."""
        return [self.u(i) for i in range(1, 2 * self.g) if i != self.g]

    def u_e_part(self) -> tuple[Vector, Vector]:
        """u_g, u_{2g} — the symplectic basis of U_E."""
        return self.u(self.g), self.u(2 * self.g)


def canonical_problem(g: int, d: int) -> AdaptedBasisProblem:
    """The reference configuration: ambient Z^(2g) with the standard
    principal form, U the full lattice, and

        U_A = <eps_1..eps_{g-1}, eps_{g+1}..eps_{2g-2}, d*eps_{2g-1} - eps_g>,
        U_E = <eps_g, d*eps_{2g} - eps_{g-1}>.
    """
    g, d = _int_argument(g, "the genus g"), _int_argument(d, "the degree d")
    if g < 2 or d < 2:
        raise InvalidArgument(f"the canonical problem needs g >= 2 and d >= 2, got ({g}, {d})")
    n = 2 * g
    ident = IntMatrix.identity(n)
    eps = ident.columns()
    ua_cols = (
        eps[: g - 1]
        + eps[g : 2 * g - 2]
        + [_combo([eps[2 * g - 2], eps[g - 1]], [d, -1])]
    )
    ue_cols = [eps[g - 1], _combo([eps[2 * g - 1], eps[g - 2]], [d, -1])]
    return AdaptedBasisProblem(
        g=g,
        d=d,
        U=ident,
        form=AlternatingForm(standard_symplectic_gram(g)),
        U_A=IntMatrix.from_columns(ua_cols),
        U_E=IntMatrix.from_columns(ue_cols),
    )


def _validate_problem(p: AdaptedBasisProblem) -> tuple[IntMatrix, IntMatrix]:
    """Check every input invariant; return the symplectic normal-form bases
    of U_A and U_E in the coordinates of U."""
    g, d = _int_argument(p.g, "the genus g"), _int_argument(p.d, "the degree d")
    if g < 2:
        raise InvariantViolation("genus must be at least 2")
    if d < 2:
        raise InvariantViolation("associated degree must be at least 2")
    n = p.form.dim
    for name, mat, cols in (
        ("U", p.U, 2 * g),
        ("U_A", p.U_A, 2 * g - 2),
        ("U_E", p.U_E, 2),
    ):
        if mat.rows != n:
            raise InvariantViolation(f"{name} does not live in the ambient space")
        if mat.cols != cols:
            raise InvariantViolation(f"{name} must have {cols} generator columns")
    if p.factored_U.rank() != 2 * g:
        raise InvariantViolation("U does not have full rank 2g")
    # coordinates of [U_A | U_E] in U, from one solve
    n_a = 2 * g - 2
    joint = p.factored_U.solve(_column_matrix(p.U_A.columns() + p.U_E.columns()))
    if joint is None:
        name = "U_E" if p.factored_U.solve(p.U_A) is not None else "U_A"
        raise InvariantViolation(f"{name} is not contained in U")
    gram_u = p.U.transpose() * p.form.gram * p.U
    # alternating, so det = Pf^2 = (d_1 * ... * d_g)^2: principal iff det = 1
    if gram_u.det() != 1:
        raise InvariantViolation("form restricted to U is not principal")
    # the form on U_A, on U_E and between them, as blocks of one Gram matrix
    gram_w = joint.transpose() * gram_u * joint
    a_idx, e_idx = range(n_a), range(n_a, n_a + 2)
    basis_a = _symplectic_basis(gram_w.submatrix(a_idx, a_idx), "U_A", coprincipal_type(g - 1, d))
    basis_e = _symplectic_basis(gram_w.submatrix(e_idx, e_idx), "U_E", coprincipal_type(1, d))
    # with both forms nondegenerate this also makes U_A and U_E meet
    # trivially: a common vector pairs to zero with all of U_A
    if not gram_w.submatrix(a_idx, e_idx).is_zero():
        raise InvariantViolation("U_A and U_E are not orthogonal")
    coords = joint.columns()
    return _column_matrix(coords[:n_a]) * basis_a, _column_matrix(coords[n_a:]) * basis_e


def _symplectic_basis(gram: IntMatrix, name: str, want) -> IntMatrix:
    """Symplectic normal-form basis of the form with this Gram matrix, whose
    type must be ``want`` (a degenerate form is an invalid input too)."""
    try:
        basis, found = frobenius_basis(AlternatingForm(gram))
    except Degenerate:
        found = None
    if found != want:
        raise InvariantViolation(f"form restricted to {name} is not of type {want.divisors}")
    return basis


def _coprime_congruent_pair(alpha: int, beta: int, d: int) -> tuple[int, int]:
    """Some (p, q) == (alpha, beta) mod d with gcd(p, q) = 1.

    Requires gcd(alpha, beta, d) = 1.  For every prime l dividing both the
    first coordinate and d, l cannot divide beta, so the scan below only has
    to dodge the primes of the first coordinate away from d; a valid offset
    exists within their radical.  Without the precondition no offset works
    (gcd(alpha, beta, d) divides every candidate pair), so it is checked.
    """
    a, b = alpha % d, beta % d
    if a == 0 and b == 0:
        raise InvariantViolation("frame is degenerate modulo d")
    if gcd(a, b, d) != 1:
        raise InvariantViolation(f"gcd({alpha}, {beta}, {d}) != 1: frame is not primitive mod d")
    if a == 0:
        return d, b  # gcd(d, beta) = 1 here
    if b == 0:
        return a, d
    k = 0
    while gcd(a, b + k * d) != 1:
        k += 1
    return a, b + k * d


def _ensure(condition: bool, what: str) -> None:
    """Check an internal step; raised, not asserted, so it also runs under
    ``python -O``."""
    if not condition:
        raise PostconditionFailed(what)


def _divided(v: Vector, d: int) -> Vector:
    """v / d, which must be integral."""
    _ensure(all(c % d == 0 for c in v), "numerator is not divisible by d")
    return tuple(c // d for c in v)


def construct_adapted_basis(p: AdaptedBasisProblem) -> AdaptedBasis:
    """Produce an adapted basis for a valid problem (see module docstring).

    A vector v of U is carried as c(v), the coordinates of d*v in the basis
    (e_1..e_{g-1}, f_1..f_{g-1}, x, y) of W = U_A + U_E: its first 2g-2
    entries are the U_A-part of d*v and its last two the U_E-part.  Pairings
    are c(v)^T gram_w c(v') / d^2.  Vectors leave the frame once, at the
    end, through W and then U."""
    # symplectic normal forms of the two sublattices
    basis_a, basis_e = _validate_problem(p)
    g, d = p.g, p.d
    n_a = 2 * g - 2
    cols_a = basis_a.columns()  # e_1..e_{g-1}, f_1..f_{g-1}
    x = basis_e.column(0)  # (x, y) = d

    # quotient U / W via the Smith form S W T = D of the inclusion
    frame = _column_matrix(cols_a + basis_e.columns())
    w = smith_normal_form(frame)
    expected = (1,) * n_a + (d, d)
    if w.diagonal() != expected:
        raise QuotientNotBicyclic(
            f"U/(U_A + U_E) has invariant factors {w.diagonal()}, expected {expected}"
        )
    # W T = S^-1 D: the generators v1, v2 are columns 2g-2, 2g-1 of S^-1,
    # where D is d, so c(v1), c(v2) are the same columns of T
    c1, c2 = w.t.column(n_a), w.t.column(n_a + 1)
    # the frame is a symplectic normal form, so its Gram matrix is known:
    # [[0, D], [-D, 0]] on U_A, D = diag(1, ..., 1, d), and (x, y) = d
    gram_a = block_normal_gram(coprincipal_type(g - 1, d))
    gram_w = IntMatrix._of(
        tuple(r + (0, 0) for r in gram_a.entries())
        + ((0,) * n_a + (0, d), (0,) * n_a + (-d, 0))
    )
    # c(t) = d * (i-th unit vector) for the i-th column t of basis_a
    c_a = [tuple(d if k == i else 0 for k in range(2 * g)) for i in range(n_a)]

    def pair(cu: Vector, cv: Vector) -> int:
        """(u, v) for u, v in U with c(u) = cu, c(v) = cv."""
        q, r = divmod(_pairing(gram_w, cu, cv), d * d)
        _ensure(r == 0, "pairing of lattice vectors is not integral")
        return q

    # --- step 3: force the U_E-components to be exactly (x, y) -------------
    (p1, q1), (p2, q2) = c1[n_a:], c2[n_a:]
    det_e = p1 * q2 - p2 * q1
    if gcd(det_e, d) != 1:
        raise InvariantViolation(
            "quotient of U by U_A + U_E does not project isomorphically "
            "onto the discriminant group of U_E"
        )
    # the columns of [[p1, p2], [q1, q2]]^-1 mod d give the new generators
    inv_det = pow(det_e, -1, d)
    c1, c2 = (
        _combo([c1, c2], [inv_det * q2 % d, -inv_det * q1 % d]),
        _combo([c1, c2], [-inv_det * p2 % d, inv_det * p1 % d]),
    )
    # translating v1, v2 by elements of U_E moves the (x, y)-coordinates of
    # the E-parts of d*v1, d*v2 by multiples of d, onto exactly x and y
    _ensure(
        all((c - t) % d == 0 for c, t in zip(c1[n_a:] + c2[n_a:], (1, 0, 0, 1))),
        "generator change failed mod d",
    )
    c1, c2 = c1[:n_a] + (1, 0), c2[:n_a] + (0, 1)

    # --- step 4: normalize the U_A-side pairing to (a2, a1) = d ------------
    # (a1, a2) = -d + j*d^2 by integrality of (v1, v2).  Translating v1 by
    # w1 and v2 by w2 (both in U_A) shifts j by (v1,w2) + (w1,v2) + (w1,w2),
    # and j = 0 is always reachable: for g >= 3 a hyperbolic pair of U_A
    # kills any j exactly, and for g = 2 the coordinate frame of (a2, a1)
    # lifts from SL2(Z/d) to SL2(Z).
    pa = _pairing(gram_a, c1[:n_a], c2[:n_a])
    j, rem = divmod(pa + d, d * d)
    _ensure(rem == 0, "cross pairing inconsistent with an integral lattice")
    if j and g >= 3:
        e1, f1 = c_a[0], c_a[g - 1]  # c(e1), c(f1), with (e1, f1) = 1
        k = 1 - pair(c1, f1)
        t = -j - k * pair(e1, c2)
        c1 = _combo([c1, e1], [1, k])
        c2 = _combo([c2, f1], [1, t])
        pa = _pairing(gram_a, c1[:n_a], c2[:n_a])
    elif j:  # g == 2: U_A = <e, f> with (e, f) = d
        (al1, be1), (al2, be2) = c1[:2], c2[:2]  # a_i = al_i * e + be_i * f
        # (a1, a2) = -d + j*d^2 forces al_i, be_i to frame SL2(Z/d); lift
        # the frame to an exact determinant-1 pair of rows
        pq = _coprime_congruent_pair(al2, be2, d)
        _, lam, mu = _xgcd(*pq)
        r0, s0 = -mu, lam  # pq[0]*s0 - pq[1]*r0 = 1
        k = (lam * (al1 - r0) + mu * (be1 - s0)) % d
        rs = (r0 + k * pq[0], s0 + k * pq[1])
        _ensure(
            (rs[0] - al1) % d == 0 and (rs[1] - be1) % d == 0,
            "lifted frame is not congruent mod d",
        )
        c1, c2 = rs + (1, 0), pq + (0, 1)  # d*v1 = a1 + x, d*v2 = a2 + y
        pa = _pairing(gram_a, rs, pq)
    _ensure(pa == -d, "normalization failed to reach (a1, a2) = -d")
    a1, a2 = (_combo(cols_a, c[:n_a]) for c in (c1, c2))

    # --- step 5: orthogonal complement of (a1, a2) inside U_A, ambient ------
    k_ambient: list[Vector] = []  # empty for g = 2
    if g >= 3:
        projected = []
        for t, ct in zip(cols_a, c_a):
            # pi(t) = t + (t, v2)*a1 - (t, v1)*a2 kills pairings with a1, a2
            projected.append(_combo([t, a1, a2], [1, pair(ct, c2), -pair(ct, c1)]))
        k_cols = _column_lattice_basis(p.U * _column_matrix(projected))
        _ensure(len(k_cols) == 2 * g - 4, "complement has unexpected rank")
        k_mat = _column_matrix(k_cols)
        basis_k, ptype_k = frobenius_basis(
            AlternatingForm(k_mat.transpose() * p.form.gram * k_mat)
        )
        _ensure(ptype_k == principal_type(g - 2), "complement is not principal")
        k_ambient = [_mat_vec(k_mat, c) for c in basis_k.columns()]
    k_e, k_f = k_ambient[: g - 2], k_ambient[g - 2 :]

    v1, v2 = (_divided(_mat_vec(frame, c), d) for c in (c1, c2))
    a2, x, v1, v2 = (_mat_vec(p.U, v) for v in (a2, x, v1, v2))
    vectors = tuple(k_e) + (a2, x) + tuple(k_f) + (v1, v2)
    result = AdaptedBasis(g=g, d=d, vectors=vectors)
    if not is_adapted_basis(p, result):
        raise PostconditionFailed("construction postcondition failed")
    return result


def is_adapted_basis(p: AdaptedBasisProblem, b: AdaptedBasis) -> bool:
    """Exact predicate: the three defining conditions of an adapted basis.

    A basis that passed against this very problem object (``is``, not
    ``==``) passes again without a check."""
    if b._verified_for is p:
        return True
    if b.g != p.g or b.d != p.d:
        raise DimensionMismatch("basis and problem disagree on (g, d)")
    if len(b.vectors[0]) != p.form.dim:
        raise DimensionMismatch("basis vectors live in the wrong ambient space")
    # (1) the listed vectors are a Z-basis of U
    coords = p.factored_U.solve(b.listed_matrix())
    if coords is None or coords.det() not in (1, -1):
        return False
    # (2) u_1..u_{g-1}, u_{g+1}..u_{2g-1} is a symplectic basis of U_A of
    #     type (1, ..., 1, d); (3) u_g, u_{2g} is one of U_E of type (d)
    gram, d = p.form.gram, p.d
    if not (
        _is_normal_basis_of(gram, b.u_a_part(), coprincipal_type(p.g - 1, d), p.U_A)
        and _is_normal_basis_of(gram, b.u_e_part(), coprincipal_type(1, d), p.U_E)
    ):
        return False
    object.__setattr__(b, "_verified_for", p)
    return True


def _is_normal_basis_of(gram: IntMatrix, part, ptype, gens: IntMatrix) -> bool:
    """Whether ``part`` is a symplectic basis of type ``ptype`` of the span
    of the columns of ``gens``: its Gram matrix is N = [[0, D], [-D, 0]], and
    as N is nondegenerate the spans agree iff gens = part * X, X unimodular,
    with X = N^-1 (part, gens): -(f_i, y)/d_i on e_i, (e_i, y)/d_i on f_i."""
    if gens.cols != len(part):
        raise DimensionMismatch(f"{gens.cols} generators for a rank-{len(part)} part")
    m = _column_matrix(part)
    left = m.transpose() * gram
    pairs = (left * gens).entries()  # raises first if gens is in another space
    if left * m != block_normal_gram(ptype):
        return False
    divs = ptype.divisors
    rows = [tuple(-v // d_i for v in r) for r, d_i in zip(pairs[len(divs) :], divs)]
    rows += [tuple(v // d_i for v in r) for r, d_i in zip(pairs, divs)]
    x = IntMatrix._of(tuple(rows))
    # gens = part * X makes (part, gens) = N * X, so every division was exact
    return m * x == gens and x.det() in (1, -1)


def change_basis(
    b: AdaptedBasis, m: IntMatrix, d: int
) -> AdaptedBasis | _NotAdapted:
    """Act by M on (u_g, u_{2g}) and rebuild the glue vectors.

    Returns the new adapted basis, or NOT_ADAPTED when the division by d
    fails (exactly when M is not congruent to the identity mod d).  The glue
    relations fix the coordinates of the numerators u'_g + u_{2g-1} and
    u'_{2g} + u_{g-1} on (u_g, u_{g-1}, u_{2g+1}, u_{2g+2}); the new glue
    vectors are these combinations divided by d.  On linearly independent
    listed vectors these are the only coordinates, so a solve finds the
    same.  On dependent ones a solve could find others, divisible by d where
    these are not or the reverse; only these are used.
    """
    if _int_argument(d, "the degree d") < 2:
        raise DimensionMismatch(f"basis change needs d >= 2, got {d}")
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatch("basis change takes a 2x2 matrix")
    if m.det() != 1:
        raise NotUnimodular(f"determinant {m.det()} != 1")
    g, e = b.g, b.d  # e enters b's glue relations, d is the divisor asked for
    (m00, m01), (m10, m11) = m.entries()
    # coordinates of the two numerators on (u_g, u_{g-1}, u_{2g+1}, u_{2g+2})
    numerators = ((m00 - 1, -m01, e, m01 * e), (m10, 1 - m11, 0, m11 * e))
    if any(c % d for coords in numerators for c in coords):
        return NOT_ADAPTED
    u_g, u_2g = b.u_e_part()
    new_u_g = _combo([u_g, u_2g], [m00, m01])
    new_u_2g = _combo([u_g, u_2g], [m10, m11])
    frame = [u_g, b.u(g - 1), b.u(2 * g + 1), b.u(2 * g + 2)]

    vectors = list(b.vectors)
    vectors[g - 1] = new_u_g
    vectors[2 * g - 2], vectors[2 * g - 1] = (
        _combo(frame, [c // d for c in coords]) for coords in numerators
    )
    moved = AdaptedBasis(g=g, d=d, vectors=tuple(vectors))
    # the new glue relations: u_{2g-1} is kept and u_{2g} becomes u'_{2g}
    _ensure(
        moved.u(2 * g - 1) == b.u(2 * g - 1) and moved.u(2 * g) == new_u_2g,
        "moved basis does not satisfy the glue relations",
    )
    return moved
