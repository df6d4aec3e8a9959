"""Numerical invariants of maximally irregular fibred surfaces.

For fibre genus 2 the base curve is the modular curve X(d) itself and the
invariants are linear in d times Delta_d; for fibre genus 3 the base is a
double cover B -> X(d) ramified over the hyperelliptic points and all
invariants again clear denominators against Delta_d.  Everything here is
computed with exact rationals and asserted integral; the defining
identities (Noether, Riemann-Hurwitz, the chi and H derivations, the Euler
fibre sums) are re-checked on every construction so a transcription error
cannot survive silently.

Conventions: chi means chi(O), K2 the self-intersection of the canonical
class, tau the index (signature), H the number of hyperelliptic fibres,
lambda_ the degree of the pushed-forward dualizing sheaf, delta0/delta1
the counts entering H = 18*lambda - 2*delta0 - 3*delta1.  The genus-2
tables leave the genus-3-only fields as None.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateSlope,
    IdentityViolation,
    InfeasibleCover,
    InvalidArgument,
    LevelTooSmall,
    UnsupportedGenus,
)
from .modular import delta, modular_data


@dataclass(frozen=True)
class SurfaceInvariants:
    g: int
    d: int
    delta: Fraction
    base_genus: int
    s: int
    c2: int
    chi: int
    K2: int
    tau: int | None = None
    H: int | None = None
    lambda_: int | None = None
    delta0: int | None = None
    delta1: int | None = None
    general_type: bool = True


@dataclass(frozen=True)
class SingularFibreType:
    genus: int
    variant: str
    euler_defect: int


@dataclass(frozen=True)
class FibreTypeCatalogue:
    """Enumerated singular-fibre shapes for one fibre genus, together with
    the defect rule for hyperelliptic fibres and the semistability flag
    (both asserted only for genus 3)."""

    genus: int
    types: tuple[SingularFibreType, ...]
    hyperelliptic_defect: int | None
    semistable: bool | None


TWO_ELLIPTIC_ONE_NODE = "TwoEllipticOneNode"
ELLIPTIC_WITH_NODE = "EllipticWithNode"
GENUS2_WITH_NODE = "Genus2WithNode"
GENUS2_PLUS_RATIONAL_TWO_NODES = "Genus2PlusRationalTwoNodes"

HYPERELLIPTIC_FIBRE_DEFECT = 2


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise IdentityViolation(f"{what} = {value} is not an integer")
    return int(value)


def _require(condition: bool, name: str) -> None:
    if not condition:
        raise IdentityViolation(f"identity {name} failed")


def invariants_g2(d: int) -> SurfaceInvariants:
    """Invariant table for fibre genus 2 over X(d), d >= 3.

    s = (5d-6)Delta, c2 = (9d-18)Delta, chi = (2d-6)Delta,
    K2 = (15d-54)Delta; the defining identities
    c2 = s + t + 4g(X) - 4, chi = 2g(X) - 2 + t/2 and
    K2 = 6chi + 3g(X) - 3 are re-verified.  d = 3 yields chi = 0 and
    K2 < 0; the formula values are still returned but flagged as not of
    general type.
    """
    if d < 3:
        raise LevelTooSmall(f"invariants need d >= 3, got {d}")
    dd = Fraction(d)
    data = modular_data(d)
    dl, gx, t = data.delta, data.genus, data.cusps

    s = _exact_int((5 * dd - 6) * dl, "s")
    c2 = _exact_int((9 * dd - 18) * dl, "c2")
    chi = _exact_int((2 * dd - 6) * dl, "chi")
    k2 = _exact_int((15 * dd - 54) * dl, "K2")

    _require(c2 == s + t + 4 * gx - 4, "c2 = s + t + 4g(X) - 4")
    _require(Fraction(chi) == 2 * gx - 2 + Fraction(t, 2), "chi = 2g(X) - 2 + t/2")
    _require(k2 == 6 * chi + 3 * gx - 3, "K2 = 6chi + 3g(X) - 3")
    _require(k2 + c2 == 12 * chi, "Noether")

    return SurfaceInvariants(
        g=2,
        d=d,
        delta=dl,
        base_genus=gx,
        s=s,
        c2=c2,
        chi=chi,
        K2=k2,
        general_type=chi > 0 and k2 > 0,
    )


def invariants_g3(d: int) -> SurfaceInvariants:
    """Invariant table for fibre genus 3 over the double cover B -> X(d).

    s = 0, g(B) = (20d-36)Delta + 1, c2 = (160d-264)Delta,
    chi = (42d-72)Delta, K2 = (344d-600)Delta, tau = (8d-24)Delta,
    lambda = 2d*Delta, delta0 = 24*Delta, delta1 = 0,
    H = (36d-48)Delta; Noether, Riemann-Hurwitz, the chi derivation and
    the H derivation are re-verified.
    """
    if d < 3:
        raise LevelTooSmall(f"invariants need d >= 3, got {d}")
    dd = Fraction(d)
    data = modular_data(d)
    dl, gx = data.delta, data.genus

    gb = _exact_int((20 * dd - 36) * dl + 1, "base genus")
    c2 = _exact_int((160 * dd - 264) * dl, "c2")
    chi = _exact_int((42 * dd - 72) * dl, "chi")
    k2 = _exact_int((344 * dd - 600) * dl, "K2")
    tau = _exact_int((8 * dd - 24) * dl, "tau")
    lam = _exact_int(2 * dd * dl, "lambda")
    d0 = _exact_int(24 * dl, "delta0")
    d1 = 0
    h = _exact_int((36 * dd - 48) * dl, "H")

    _require(k2 + c2 == 12 * chi, "Noether")
    _require(3 * tau == k2 - 2 * c2, "tau = (K2 - 2c2)/3")
    _require(2 * (gb - 1) == 2 * (2 * gx - 2) + h, "Riemann-Hurwitz for B -> X(d)")
    _require(Fraction(chi) == 2 * (gb - 1) + 2 * dd * dl, "chi = 2(g(B)-1) + 2d*Delta")
    _require(h == 18 * lam - 2 * d0 - 3 * d1, "H = 18*lambda - 2*delta0 - 3*delta1")

    return SurfaceInvariants(
        g=3,
        d=d,
        delta=dl,
        base_genus=gb,
        s=0,
        c2=c2,
        chi=chi,
        K2=k2,
        tau=tau,
        H=h,
        lambda_=lam,
        delta0=d0,
        delta1=d1,
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
    if n < 1:
        raise InvalidArgument(f"covering degree must be >= 1, got {n}")
    if b is None:
        b = base.base_genus
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
    defect = inv.c2 - (2 - 2 * inv.g) * (2 - 2 * inv.base_genus)
    return Fraction(defect) == 24 * delta(inv.d)


def slope(inv: SurfaceInvariants, b: int, g: int) -> Fraction:
    """The slope lambda solving K2 = lambda*chi + (8-lambda)*(b-1)*(g-1)."""
    core = (b - 1) * (g - 1)
    if inv.chi == core:
        raise DegenerateSlope("chi equals (b-1)(g-1); the relation is singular")
    return Fraction(inv.K2 - 8 * core, inv.chi - core)


def arakelov_holds(inv: SurfaceInvariants, b: int, g: int) -> bool:
    """K2 >= 8*(b-1)*(g-1)."""
    return inv.K2 >= 8 * (b - 1) * (g - 1)


def unique_fibration_criterion(K2: int, g: int) -> bool:
    """K2 > 4*(g-1)^2 forces any fibration of fibre genus g to be unique."""
    if g < 2:
        raise UnsupportedGenus(f"fibre genus must be >= 2, got {g}")
    return K2 > 4 * (g - 1) ** 2


def moduli_dimension(g: int, b: int, m: int, d: int) -> int:
    """Dimension of the family of degree-m base changes from curves of
    genus b: 2b - 2 - m*(2g(X(d)) - 2) + 1 for fibre genus 2 and
    2b - m*(2g(B) - 2) + 3 for fibre genus 3."""
    if d < 3:
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
    if g == 2:
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
    """Evaluate every exact identity of this module over a range of levels.

    Returns (name, passed) pairs; construction-time assertions surface as
    a failed "tables" entry rather than an exception.
    """
    if d_lo < 3:
        raise LevelTooSmall(f"identity checks need d >= 3, got {d_lo}")
    if d_hi < d_lo:
        raise InvalidArgument("empty level range")

    names = [
        "tables_construct",
        "noether_g2",
        "noether_g3",
        "tau_formula",
        "tau_positive_iff_d_gt_3",
        "riemann_hurwitz",
        "chi_derivation",
        "h_derivation",
        "euler_fibre_sum",
        "g2_common_defect",
        "unique_fibration_g3",
        "arakelov_g3",
    ]
    ok = dict.fromkeys(names, True)

    for d in range(d_lo, d_hi + 1):
        try:
            i2 = invariants_g2(d)
            i3 = invariants_g3(d)
        except IdentityViolation:
            ok["tables_construct"] = False
            continue
        dl = i2.delta
        t = 12 * dl
        ok["noether_g2"] &= i2.K2 + i2.c2 == 12 * i2.chi
        ok["noether_g3"] &= i3.K2 + i3.c2 == 12 * i3.chi
        ok["tau_formula"] &= 3 * i3.tau == i3.K2 - 2 * i3.c2
        ok["tau_positive_iff_d_gt_3"] &= (i3.tau > 0) == (d > 3)
        ok["riemann_hurwitz"] &= 2 * (i3.base_genus - 1) == 2 * (
            2 * i2.base_genus - 2
        ) + i3.H
        ok["chi_derivation"] &= (
            Fraction(i3.chi) == 2 * (i3.base_genus - 1) + 2 * d * dl
        )
        ok["h_derivation"] &= i3.H == 18 * i3.lambda_ - 2 * i3.delta0 - 3 * i3.delta1
        ok["euler_fibre_sum"] &= euler_fibre_sum_check(i3)
        ok["g2_common_defect"] &= Fraction(i2.s + t) == (5 * d + 6) * dl and (
            i2.s + t == i2.c2 - (-2) * (2 - 2 * i2.base_genus)
        )
        ok["unique_fibration_g3"] &= unique_fibration_criterion(i3.K2, 3)
        ok["arakelov_g3"] &= arakelov_holds(i3, i3.base_genus, 3)
    return [(name, bool(ok[name])) for name in names]
