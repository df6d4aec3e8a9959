"""Numerical invariants of maximally irregular fibred surfaces.

For fibre genus 2 the base curve is the modular curve X(d) itself; for fibre
genus 3 it is a double cover B -> X(d) ramified over the hyperelliptic
points.  Every table field has the form (a*d + b) * Delta_d for small
integers a, b, and Delta_d = J_2(d)/24 with Jordan's totient J_2(d) an
integer (see ``fibsurf.modular``).  So each field is one division by 24 of
an int, checked to leave no remainder, and the tables hold ints only; the
Fractions left are ``SurfaceInvariants.delta`` and ``slope``.

The identities (Noether, the signature formula, Riemann-Hurwitz, the chi
and H derivations, the Euler fibre sums) and the inequalities drawn from
them are written once, as the table ``_identities`` of (name, lhs, rhs) on
ints.  A level is factored once while it stays in the bounded memo of
J_2 in ``fibsurf.modular``, and every public call still evaluates the whole
table; a failure raises ``IdentityViolation`` with the name and both sides.

Conventions: chi means chi(O), K2 the self-intersection of the canonical
class, tau the index (signature), H the number of hyperelliptic fibres,
lambda_ the degree of the pushed-forward dualizing sheaf, delta0/delta1
the counts entering H = 18*lambda - 2*delta0 - 3*delta1.  The genus-2
tables leave the genus-3-only fields as None.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateSlope,
    IdentityViolation,
    InfeasibleCover,
    InvalidArgument,
    LevelTooSmall,
    Record,
    UnsupportedGenus,
    _int_argument,
)
from .modular import delta, modular_data


class SurfaceInvariants(Record):
    _fields = (
        "g", "d", "delta", "base_genus", "s", "c2", "chi", "K2",
        "tau", "H", "lambda_", "delta0", "delta1", "general_type",
    )

    def __init__(
        self,
        g: int,
        d: int,
        delta: Fraction,
        base_genus: int,
        s: int,
        c2: int,
        chi: int,
        K2: int,
        tau: int | None = None,
        H: int | None = None,
        lambda_: int | None = None,
        delta0: int | None = None,
        delta1: int | None = None,
        general_type: bool = True,
    ):
        self.__dict__.update(
            g=g, d=d, delta=delta, base_genus=base_genus, s=s, c2=c2, chi=chi, K2=K2,
            tau=tau, H=H, lambda_=lambda_, delta0=delta0, delta1=delta1,
            general_type=general_type,
        )


class SingularFibreType(Record):
    _fields = ("genus", "variant", "euler_defect")

    def __init__(self, genus: int, variant: str, euler_defect: int):
        self.__dict__.update(genus=genus, variant=variant, euler_defect=euler_defect)


class FibreTypeCatalogue(Record):
    """Enumerated singular-fibre shapes for one fibre genus, together with
    the defect rule for hyperelliptic fibres and the semistability flag
    (both asserted only for genus 3)."""

    _fields = ("genus", "types", "hyperelliptic_defect", "semistable")

    def __init__(
        self,
        genus: int,
        types: tuple[SingularFibreType, ...],
        hyperelliptic_defect: int | None,
        semistable: bool | None,
    ):
        self.__dict__.update(
            genus=genus, types=types, hyperelliptic_defect=hyperelliptic_defect,
            semistable=semistable,
        )


TWO_ELLIPTIC_ONE_NODE = "TwoEllipticOneNode"
ELLIPTIC_WITH_NODE = "EllipticWithNode"
GENUS2_WITH_NODE = "Genus2WithNode"
GENUS2_PLUS_RATIONAL_TWO_NODES = "Genus2PlusRationalTwoNodes"

HYPERELLIPTIC_FIBRE_DEFECT = 2


#: What run_identity_checks reports, in order: every table field is an
#: integer, then the names of _identities.
_CHECKS = (
    "tables_construct", "noether_g2", "noether_g3", "tau_formula",
    "tau_positive_iff_d_gt_3", "riemann_hurwitz", "chi_derivation",
    "h_derivation", "euler_fibre_sum", "g2_common_defect",
    "unique_fibration_g3", "arakelov_g3",
)


#: The table fields as (name, a, b): each field is (a*d + b) * Delta_d; the
#: genus-3 fields are followed by delta0 = 24*Delta_d and delta1 = 0.
_G2_FIELDS = (("s", 5, -6), ("c2", 9, -18), ("chi", 2, -6), ("K2", 15, -54))
_G3_FIELDS = (
    ("g(B) - 1", 20, -36), ("c2", 160, -264), ("chi", 42, -72),
    ("K2", 344, -600), ("tau", 8, -24), ("H", 36, -48), ("lambda", 2, 0),
)


def _over24(d: int, j: int, fields: tuple) -> list[int]:
    """(a*d + b) * j / 24 for each (name, a, b) of fields, where
    j = J_2(d) = 24*Delta_d, each checked to be an integer."""
    out = []
    for name, a, b in fields:
        q, r = divmod((a * d + b) * j, 24)
        if r:
            raise IdentityViolation(f"24 divides 24*{name}", d, r, 0)
        out.append(q)
    return out


def _fibre_defect(g: int, c2: int, b: int) -> int:
    """Total singular-fibre defect c2 - chi_top(F)*chi_top(B) of a family of
    fibre genus g over a base of genus b."""
    return c2 - (2 - 2 * g) * (2 - 2 * b)


def _fields(d: int) -> tuple:
    """(Delta_d, g(X), t, genus-2 fields, genus-3 fields) at level d, from
    one factoring of d.  The genus-2 fields are (s, c2, chi, K2), the
    genus-3 fields (g(B), c2, chi, K2, tau, H, lambda, delta0, delta1)."""
    if _int_argument(d, "the level d") < 3:
        raise LevelTooSmall(f"invariants need d >= 3, got {d}")
    data = modular_data(d)
    dl = data.delta
    j = dl.numerator * (24 // dl.denominator)  # J_2(d) = 24*Delta_d
    gb_1, *g3 = _over24(d, j, _G3_FIELDS)
    g3 = (gb_1 + 1, *g3, j, 0)
    return dl, data.genus, data.cusps, _over24(d, j, _G2_FIELDS), g3


def _identities(d: int, gx: int, t: int, g2: list[int], g3: tuple[int, ...]) -> tuple:
    """Every identity the two tables obey at level d, as (name, lhs, rhs);
    sides with chi or Delta are cleared of denominators, and a name that
    repeats covers both genera."""
    s, c2, chi, k2 = g2
    gb, c3, chi3, k3, tau, h, lam, d0, d1 = g3
    j = d0  # J_2(d) = 24*Delta_d
    return (
        ("noether_g2", k2 + c2, 12 * chi),
        ("noether_g3", k3 + c3, 12 * chi3),
        ("tau_formula", 3 * tau, k3 - 2 * c3),
        ("tau_positive_iff_d_gt_3", tau > 0, d > 3),
        ("riemann_hurwitz", 2 * (gb - 1), 2 * (2 * gx - 2) + h),
        # genus 2: chi = 2g(X) - 2 + t/2 and K2 = 6chi + 3g(X) - 3;
        # genus 3: chi = 2(g(B) - 1) + 2d*Delta
        ("chi_derivation", 2 * chi, 2 * (2 * gx - 2) + t),
        ("chi_derivation", k2, 6 * chi + 3 * gx - 3),
        ("chi_derivation", 24 * chi3, 48 * (gb - 1) + 2 * d * j),
        ("h_derivation", h, 18 * lam - 2 * d0 - 3 * d1),
        # each cusp carries total defect 2, so the defect is 2t = 24*Delta
        ("euler_fibre_sum", _fibre_defect(3, c3, gb), j),
        # s + t = (5d+6)*Delta, and c2 = s + t + 4g(X) - 4
        ("g2_common_defect", 24 * (s + t), (5 * d + 6) * j),
        ("g2_common_defect", s + t, _fibre_defect(2, c2, gx)),
        ("unique_fibration_g3", unique_fibration_criterion(k3, 3), True),
        ("arakelov_g3", k3 >= 8 * (gb - 1) * (3 - 1), True),
    )


def _verified(d: int) -> tuple:
    """_fields(d), less t, once every identity has held."""
    dl, gx, t, g2, g3 = _fields(d)
    for name, lhs, rhs in _identities(d, gx, t, g2, g3):
        if lhs != rhs:
            raise IdentityViolation(name, d, lhs, rhs)
    return dl, gx, g2, g3


def invariants_g2(d: int) -> SurfaceInvariants:
    """Invariant table for fibre genus 2 over X(d), d >= 3.

    s = (5d-6)Delta, c2 = (9d-18)Delta, chi = (2d-6)Delta,
    K2 = (15d-54)Delta, with Delta = J_2(d)/24; every identity of both
    tables is verified, among them c2 = s + t + 4g(X) - 4,
    chi = 2g(X) - 2 + t/2 and K2 = 6chi + 3g(X) - 3.  d = 3 yields chi = 0
    and K2 < 0; the formula values are still returned but flagged as not
    of general type.
    """
    dl, gx, (s, c2, chi, k2), _ = _verified(d)
    return SurfaceInvariants(
        g=2, d=d, delta=dl, base_genus=gx, s=s, c2=c2, chi=chi, K2=k2,
        general_type=chi > 0 and k2 > 0,
    )


def invariants_g3(d: int) -> SurfaceInvariants:
    """Invariant table for fibre genus 3 over the double cover B -> X(d).

    s = 0, g(B) = (20d-36)Delta + 1, c2 = (160d-264)Delta,
    chi = (42d-72)Delta, K2 = (344d-600)Delta, tau = (8d-24)Delta,
    lambda = 2d*Delta, delta0 = 24*Delta, delta1 = 0,
    H = (36d-48)Delta, with Delta = J_2(d)/24; every identity of both
    tables is verified, among them Noether, Riemann-Hurwitz and the chi
    and H derivations.
    """
    dl, _, _, (gb, c2, chi, k2, tau, h, lam, d0, d1) = _verified(d)
    return SurfaceInvariants(
        g=3, d=d, delta=dl, base_genus=gb, s=0, c2=c2, chi=chi, K2=k2,
        tau=tau, H=h, lambda_=lam, delta0=d0, delta1=d1,
        general_type=chi > 0 and k2 > 0,
    )


def pullback_K2(
    base: SurfaceInvariants, n: int, b_tilde: int, b: int | None = None
) -> int:
    """K2 of the pullback family along a degree-n cover of the base with
    total space genus b_tilde: n*K2 + 8*(b_tilde - 1 + n*b - n).

    Only the Riemann-Hurwitz inequality 2*b_tilde - 2 >= n*(2b - 2) is
    enforced; the formula is evaluated verbatim.
    """
    if base.g != 3:
        raise UnsupportedGenus("pullback formula applies to the genus-3 table")
    n = _int_argument(n, "the covering degree n")
    b_tilde = _int_argument(b_tilde, "the genus b_tilde")
    if n < 1:
        raise InvalidArgument(f"covering degree must be >= 1, got {n}")
    b = base.base_genus if b is None else _int_argument(b, "the base genus b")
    if 2 * b_tilde - 2 < n * (2 * b - 2):
        raise InfeasibleCover(
            f"no degree-{n} cover: 2*{b_tilde} - 2 < {n}*(2*{b} - 2)"
        )
    return n * base.K2 + 8 * (b_tilde - 1 + n * b - n)


def euler_fibre_sum_check(inv: SurfaceInvariants) -> bool:
    """The Euler-number bookkeeping for the genus-3 family: the total
    singular-fibre defect c2 - chi_top(F)*chi_top(B) must equal 2*t(d)
    (each cusp of X(d) contributes total defect 2, whether split into two
    defect-1 fibres or one defect-2 hyperelliptic fibre)."""
    if inv.g != 3:
        raise UnsupportedGenus("the Euler fibre sum applies to genus 3")
    return _fibre_defect(3, inv.c2, inv.base_genus) == 24 * delta(inv.d)


def slope(inv: SurfaceInvariants, b: int, g: int) -> Fraction:
    """The slope lambda solving K2 = lambda*chi + (8-lambda)*(b-1)*(g-1)."""
    b, g = _int_argument(b, "the base genus b"), _int_argument(g, "the fibre genus g")
    core = (b - 1) * (g - 1)
    if inv.chi == core:
        raise DegenerateSlope("chi equals (b-1)(g-1); the relation is singular")
    return Fraction(inv.K2 - 8 * core, inv.chi - core)


def arakelov_holds(inv: SurfaceInvariants, b: int, g: int) -> bool:
    """K2 >= 8*(b-1)*(g-1)."""
    b, g = _int_argument(b, "the base genus b"), _int_argument(g, "the fibre genus g")
    return inv.K2 >= 8 * (b - 1) * (g - 1)


def unique_fibration_criterion(K2: int, g: int) -> bool:
    """K2 > 4*(g-1)^2 forces any fibration of fibre genus g to be unique."""
    K2 = _int_argument(K2, "K2")
    if _int_argument(g, "the fibre genus g") < 2:
        raise UnsupportedGenus(f"fibre genus must be >= 2, got {g}")
    return K2 > 4 * (g - 1) ** 2


def moduli_dimension(g: int, b: int, m: int, d: int) -> int:
    """Dimension of the family of degree-m base changes from curves of
    genus b: 2b - 2 - m*(2g(X(d)) - 2) + 1 for fibre genus 2 and
    2b - m*(2g(B) - 2) + 3 for fibre genus 3."""
    g, b = _int_argument(g, "the fibre genus g"), _int_argument(b, "the base genus b")
    m = _int_argument(m, "the cover degree m")
    if _int_argument(d, "the level d") < 3:
        raise LevelTooSmall(f"moduli dimensions need d >= 3, got {d}")
    if m < 1:
        raise InvalidArgument(f"cover degree must be >= 1, got {m}")
    if b < 2:
        raise InvalidArgument(f"base genus must be >= 2, got {b}")
    if g == 2:
        gx = modular_data(d).genus
        return 2 * b - 2 - m * (2 * gx - 2) + 1
    if g == 3:
        gb = invariants_g3(d).base_genus
        return 2 * b - m * (2 * gb - 2) + 3
    raise UnsupportedGenus(f"fibre genus must be 2 or 3, got {g}")


def fibre_types(g: int) -> FibreTypeCatalogue:
    """The singular fibres that occur over the cusps.

    Genus 3: a genus-2 curve with one node, or a smooth genus-2 curve
    meeting a rational curve in two points — both defect 1 — while
    hyperelliptic fibres count with defect 2; the family is semistable.
    Genus 2: two elliptic curves at a node, or an elliptic curve with a
    node — defect 1 each.
    """
    if _int_argument(g, "the fibre genus g") == 2:
        return FibreTypeCatalogue(
            genus=2,
            types=(
                SingularFibreType(2, TWO_ELLIPTIC_ONE_NODE, 1),
                SingularFibreType(2, ELLIPTIC_WITH_NODE, 1),
            ),
            hyperelliptic_defect=None,
            semistable=None,
        )
    if g == 3:
        return FibreTypeCatalogue(
            genus=3,
            types=(
                SingularFibreType(3, GENUS2_WITH_NODE, 1),
                SingularFibreType(3, GENUS2_PLUS_RATIONAL_TWO_NODES, 1),
            ),
            hyperelliptic_defect=HYPERELLIPTIC_FIBRE_DEFECT,
            semistable=True,
        )
    raise UnsupportedGenus(f"fibre genus must be 2 or 3, got {g}")


def run_identity_checks(d_lo: int = 3, d_hi: int = 100) -> list[tuple[str, bool]]:
    """Evaluate every exact identity of this module over a range of levels,
    factoring each level once.

    Returns (name, passed) pairs in the order of _CHECKS.  A table
    field that is not an integer at some level fails "tables_construct"
    and skips the identities of that level.
    """
    if _int_argument(d_lo, "the level d_lo") < 3:
        raise LevelTooSmall(f"identity checks need d >= 3, got {d_lo}")
    if _int_argument(d_hi, "the level d_hi") < d_lo:
        raise InvalidArgument("empty level range")
    ok = dict.fromkeys(_CHECKS, True)
    for d in range(d_lo, d_hi + 1):
        try:
            _, gx, t, g2, g3 = _fields(d)
        except IdentityViolation:
            ok["tables_construct"] = False
            continue
        for name, lhs, rhs in _identities(d, gx, t, g2, g3):
            if lhs != rhs:
                ok[name] = False
    return list(ok.items())
