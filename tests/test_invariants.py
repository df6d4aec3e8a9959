"""Numerical invariants of the two families of fibred surfaces: frozen
tables for small levels, then the defining identities over a whole range."""

from fractions import Fraction

import pytest

import fibsurf.invariants as invariants
from fibsurf import (
    ELLIPTIC_WITH_NODE,
    GENUS2_PLUS_RATIONAL_TWO_NODES,
    GENUS2_WITH_NODE,
    TWO_ELLIPTIC_ONE_NODE,
    DegenerateSlope,
    IdentityViolation,
    InfeasibleCover,
    InvalidArgument,
    LevelTooSmall,
    UnsupportedGenus,
    arakelov_holds,
    delta,
    euler_fibre_sum_check,
    fibre_types,
    invariants_g2,
    invariants_g3,
    moduli_dimension,
    modular_data,
    pullback_K2,
    run_identity_checks,
    slope,
    unique_fibration_criterion,
)

# (d, s, c2, chi, K2) recomputed by hand from Delta_3 = 1/3, Delta_4 = 1/2,
# Delta_5 = 1
G2_TABLE = {
    3: (3, 3, 0, -3),
    4: (7, 9, 1, 3),
    5: (19, 27, 4, 21),
}

# (d, base_genus, c2, chi, K2, tau, H, lambda, delta0, delta1)
G3_TABLE = {
    3: (9, 72, 18, 144, 0, 20, 2, 8, 0),
    4: (23, 188, 48, 388, 4, 48, 4, 12, 0),
}


def test_genus2_table_frozen():
    for d, (s, c2, chi, k2) in G2_TABLE.items():
        inv = invariants_g2(d)
        assert (inv.s, inv.c2, inv.chi, inv.K2) == (s, c2, chi, k2), d
        assert inv.g == 2 and inv.d == d
        assert inv.base_genus == modular_data(d).genus
        assert inv.tau is None and inv.H is None


def test_genus2_general_type_flag():
    assert not invariants_g2(3).general_type  # chi = 0, K2 < 0
    assert invariants_g2(4).general_type
    assert invariants_g2(7).general_type


def test_genus3_table_frozen():
    for d, (gb, c2, chi, k2, tau, h, lam, d0, d1) in G3_TABLE.items():
        inv = invariants_g3(d)
        assert inv.base_genus == gb, d
        assert (inv.c2, inv.chi, inv.K2) == (c2, chi, k2), d
        assert (inv.tau, inv.H) == (tau, h), d
        assert (inv.lambda_, inv.delta0, inv.delta1) == (lam, d0, d1), d
        assert inv.s == 0
        assert inv.general_type


def test_level_too_small():
    with pytest.raises(LevelTooSmall):
        invariants_g2(2)
    with pytest.raises(LevelTooSmall):
        invariants_g3(2)


def test_identity_loop():
    """Noether, signature, Riemann-Hurwitz, chi, H and the Euler counts,
    re-derived here from Delta and the curve data alone."""
    for d in range(3, 101):
        dl = delta(d)
        data = modular_data(d)
        gx, t = data.genus, data.cusps
        i2 = invariants_g2(d)
        i3 = invariants_g3(d)

        assert i2.K2 + i2.c2 == 12 * i2.chi
        assert i3.K2 + i3.c2 == 12 * i3.chi
        assert Fraction(3 * i3.tau) == (24 * d - 72) * dl
        assert 3 * i3.tau == i3.K2 - 2 * i3.c2
        assert 2 * (i3.base_genus - 1) == 2 * (2 * gx - 2) + i3.H
        assert Fraction(i3.chi) == 2 * (i3.base_genus - 1) + 2 * d * dl
        assert i3.H == 18 * i3.lambda_ - 2 * i3.delta0 - 3 * i3.delta1
        assert i2.c2 == i2.s + t + 4 * gx - 4
        assert Fraction(i2.chi) == 2 * gx - 2 + Fraction(t, 2)
        assert euler_fibre_sum_check(i3)
        assert (i3.tau > 0) == (d > 3)


def test_run_identity_checks_all_green():
    results = run_identity_checks()
    assert len(results) == 12
    assert all(ok for _, ok in results), results


def test_run_identity_checks_argument_validation():
    with pytest.raises(LevelTooSmall):
        run_identity_checks(d_lo=2)
    with pytest.raises(InvalidArgument):
        run_identity_checks(d_lo=5, d_hi=4)


def test_identity_table_names_are_the_reported_names():
    """The table's names, in order of first appearance, are the names that
    run_identity_checks reports after tables_construct."""
    _, gx, t, g2, g3 = invariants._fields(7)
    names = list(dict.fromkeys(name for name, _, _ in invariants._identities(7, gx, t, g2, g3)))
    assert ["tables_construct", *names] == [name for name, _ in run_identity_checks(7, 7)]


def test_tables_are_ints_and_delta_a_fraction():
    for d in (3, 4, 12, 97, 10**9 + 7):
        for inv in (invariants_g2(d), invariants_g3(d)):
            assert type(inv.delta) is Fraction and inv.delta == delta(d)
            for field in ("base_genus", "s", "c2", "chi", "K2", "tau", "H", "lambda_", "delta0"):
                value = getattr(inv, field)
                assert value is None or type(value) is int, (d, field)


def _break(monkeypatch, target: str):
    """Make the left side of every table entry named ``target`` wrong by 1."""
    original = invariants._identities

    def broken(*args):
        return tuple(
            (name, lhs + 1 if name == target else lhs, rhs)
            for name, lhs, rhs in original(*args)
        )

    monkeypatch.setattr(invariants, "_identities", broken)
    return original


@pytest.mark.parametrize("target", ["noether_g3", "riemann_hurwitz", "euler_fibre_sum"])
def test_failed_identity_is_named_with_both_sides(monkeypatch, target):
    original = _break(monkeypatch, target)
    with pytest.raises(IdentityViolation) as info:
        invariants_g3(7)
    exc = info.value
    _, gx, t, g2, g3 = invariants._fields(7)
    lhs, rhs = next((l, r) for n, l, r in original(7, gx, t, g2, g3) if n == target)
    assert (exc.identity, exc.d, exc.lhs, exc.rhs) == (target, 7, lhs + 1, rhs)
    assert target in str(exc) and "d=7" in str(exc)
    assert f"{lhs + 1} != {rhs}" in str(exc)

    results = dict(run_identity_checks(3, 9))
    assert results["tables_construct"] is True
    assert [name for name, ok in results.items() if not ok] == [target]


def test_non_integral_field_fails_tables_construct(monkeypatch):
    # s = (5d - 5) * Delta_d is no integer at d = 3, where J_2(3) = 8
    monkeypatch.setattr(invariants, "_G2_FIELDS", (("s", 5, -5),) + invariants._G2_FIELDS[1:])
    with pytest.raises(IdentityViolation, match="24 divides 24\\*s") as info:
        invariants_g2(3)
    assert (info.value.identity, info.value.d, info.value.lhs, info.value.rhs) == (
        "24 divides 24*s", 3, 80 % 24, 0)
    results = dict(run_identity_checks(3, 9))
    assert results["tables_construct"] is False


# ------------------------------------------------------------- derived maps


def test_pullback_K2():
    base = invariants_g3(3)  # K2 = 144, base genus 9
    assert pullback_K2(base, 2, 17) == 2 * 144 + 8 * (17 - 1 + 2 * 9 - 2)
    assert pullback_K2(base, 2, 17) == 544
    assert pullback_K2(base, 1, 9) == 272
    with pytest.raises(InfeasibleCover):
        pullback_K2(base, 2, 16)  # 2*16 - 2 < 2*(2*9 - 2)
    with pytest.raises(InvalidArgument):
        pullback_K2(base, 0, 17)
    with pytest.raises(UnsupportedGenus):
        pullback_K2(invariants_g2(4), 2, 17)


def test_euler_fibre_sum_check():
    assert euler_fibre_sum_check(invariants_g3(3))
    assert euler_fibre_sum_check(invariants_g3(4))
    broken = invariants_g3(3)._replace(c2=invariants_g3(3).c2 + 1)
    assert not euler_fibre_sum_check(broken)
    with pytest.raises(UnsupportedGenus):
        euler_fibre_sum_check(invariants_g2(4))


def test_slope_values():
    assert slope(invariants_g3(3), 9, 3) == 8
    assert slope(invariants_g3(4), 23, 3) == 9
    assert slope(invariants_g2(4), 0, 2) == Fraction(11, 2)
    with pytest.raises(DegenerateSlope):
        slope(invariants_g2(3), 1, 5)  # chi = 0 = (b-1)(g-1)


def test_slope_closed_forms():
    """slope = 12 - 12/d for the genus-3 family over its own base, and
    7 - 6/d for the genus-2 family over X(d)."""
    for d in range(3, 40):
        i3 = invariants_g3(d)
        assert slope(i3, i3.base_genus, 3) == Fraction(12 * (d - 1), d)
        i2 = invariants_g2(d)
        assert slope(i2, i2.base_genus, 2) == Fraction(7 * d - 6, d)


def test_arakelov_inequality():
    for d in range(3, 40):
        i3 = invariants_g3(d)
        assert arakelov_holds(i3, i3.base_genus, 3)
        i2 = invariants_g2(d)
        assert arakelov_holds(i2, i2.base_genus, 2)
    weak = invariants_g3(3)._replace(K2=0)
    assert not arakelov_holds(weak, 9, 3)


def test_unique_fibration_criterion():
    assert unique_fibration_criterion(144, 3)
    assert not unique_fibration_criterion(4, 2)  # equality does not suffice
    assert unique_fibration_criterion(5, 2)
    with pytest.raises(UnsupportedGenus):
        unique_fibration_criterion(100, 1)


def test_moduli_dimension():
    # genus 2 over X(4) (genus 0): 2b - 2 - m*(-2) + 1
    assert moduli_dimension(2, 2, 1, 4) == 5
    # genus 3 over the d=3 base (genus 9): 2b - m*16 + 3
    assert moduli_dimension(3, 25, 2, 3) == 21
    assert moduli_dimension(3, 15, 1, 3) == 17
    with pytest.raises(LevelTooSmall):
        moduli_dimension(2, 5, 1, 2)
    with pytest.raises(InvalidArgument):
        moduli_dimension(2, 5, 0, 4)
    with pytest.raises(InvalidArgument):
        moduli_dimension(2, 1, 1, 4)
    with pytest.raises(UnsupportedGenus):
        moduli_dimension(4, 5, 1, 4)


def test_fibre_types_genus3():
    cat = fibre_types(3)
    assert cat.genus == 3
    variants = {t.variant: t.euler_defect for t in cat.types}
    assert variants == {
        GENUS2_WITH_NODE: 1,
        GENUS2_PLUS_RATIONAL_TWO_NODES: 1,
    }
    assert all(t.genus == 3 for t in cat.types)
    assert cat.hyperelliptic_defect == 2
    assert cat.semistable is True


def test_fibre_types_genus2():
    cat = fibre_types(2)
    variants = {t.variant: t.euler_defect for t in cat.types}
    assert variants == {TWO_ELLIPTIC_ONE_NODE: 1, ELLIPTIC_WITH_NODE: 1}
    assert cat.hyperelliptic_defect is None
    assert cat.semistable is None


def test_fibre_types_unsupported():
    with pytest.raises(UnsupportedGenus):
        fibre_types(4)


def test_fibre_defect_accounting():
    """Each cusp contributes total defect 2, however it is split: the
    catalogue defects are consistent with the Euler bookkeeping."""
    cat = fibre_types(3)
    pair = sum(t.euler_defect for t in cat.types)
    assert pair == cat.hyperelliptic_defect
    for d in (3, 4, 5, 7):
        inv = invariants_g3(d)
        total = inv.c2 - (2 - 2 * 3) * (2 - 2 * inv.base_genus)
        assert Fraction(total) == pair * 12 * delta(inv.d)


@pytest.mark.parametrize(
    "call",
    [
        lambda: moduli_dimension(2, 5.5, 1, 4),
        lambda: pullback_K2(invariants_g3(4), 2.5, 100),
        lambda: arakelov_holds(invariants_g3(4), 2.5, 3),
        lambda: unique_fibration_criterion(2.5, 3),
        lambda: slope(invariants_g3(4), 2.5, 3),
    ],
    ids=["moduli_dimension", "pullback_K2", "arakelov_holds", "unique_fibration", "slope"],
)
def test_non_integer_arguments_are_refused(call):
    """Each of these answered (12.0, 2202.0, True, False) or raised a raw
    TypeError before its integer arguments were read."""
    with pytest.raises(InvalidArgument, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: moduli_dimension(2.0, 5, 1, 4),
        lambda: moduli_dimension(2, 5, True, 4),
        lambda: pullback_K2(invariants_g3(4), 2, 100.0),
        lambda: pullback_K2(invariants_g3(4), 2, 100, b="9"),
        lambda: arakelov_holds(invariants_g3(4), 9, 3.0),
        lambda: unique_fibration_criterion(144, 3.0),
        lambda: slope(invariants_g3(4), 23, None),
        lambda: fibre_types(2.0),
    ],
    ids=["g", "m", "b_tilde", "b", "arakelov-g", "unique-g", "slope-g", "fibre_types-g"],
)
def test_every_integer_argument_is_read(call):
    with pytest.raises(InvalidArgument, match="must be an integer"):
        call()
