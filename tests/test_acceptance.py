"""Acceptance gate: one test per shipped guarantee, each ending in a single
printed PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Every numeric claim is checked at its stated tolerance — exact integer
equality unless a tolerance is written next to the assert — and the timed
criteria enforce their runtime budgets.
"""

import time
from random import Random

import numpy as np

from fibsurf import (
    IRREGULAR,
    REGULAR,
    AlternatingForm,
    IntMatrix,
    PeriodData,
    PolarizationType,
    block_normal_gram,
    change_basis,
    char_poly,
    conjugacy_invariants,
    construct_adapted_basis,
    coprincipal_type,
    delta,
    distinguish_monodromies,
    gamma_d_contains,
    invariants_g2,
    invariants_g3,
    is_adapted_basis,
    is_symplectic,
    modular_data,
    monodromy_at_cusp,
    monodromy_translation_defect,
    period_matrix,
    polarization_type,
    section_pairing_gram,
)
from fibsurf.intlinalg import _unimodular_inverse
from helpers import (
    gram_in_basis,
    random_sl2_word,
    random_unimodular,
    randomized_problem,
)


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


def _random_period_point(rng: Random, g: int, d: int) -> PeriodData:
    h = g - 1
    a = np.array([[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)])
    im = a @ a.T + 0.3 * np.eye(h)
    re = np.array([[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)])
    re = (re + re.T) / 2.0
    z_mat = re + 1j * im
    z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
    return PeriodData(
        g=g, d=d, Z=tuple(tuple(row) for row in z_mat), z=z, tol=1e-9
    )


def test_criterion_1_modular_curve_classical_values():
    """Genus and cusp count of X(d) against the classical table, < 1 s."""
    classical = {3: (0, 4), 5: (0, 12), 7: (3, 24), 11: (26, 60)}
    start = time.perf_counter()
    for d, (genus, cusps) in classical.items():
        data = modular_data(d)
        assert (data.genus, data.cusps) == (genus, cusps), d
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(1, f"4 classical (genus, cusps) rows exact in {elapsed * 1e3:.1f} ms")


def test_criterion_2_noether_and_signature():
    """K2 + c2 = 12 chi for both tables and 3*tau = (24d - 72)*Delta,
    exactly, for every 3 <= d <= 100, < 1 s."""
    start = time.perf_counter()
    for d in range(3, 101):
        i2 = invariants_g2(d)
        i3 = invariants_g3(d)
        assert i2.K2 + i2.c2 == 12 * i2.chi, d
        assert i3.K2 + i3.c2 == 12 * i3.chi, d
        assert 3 * i3.tau == i3.K2 - 2 * i3.c2, d
        assert 3 * i3.tau == (24 * d - 72) * delta(d), d
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(2, f"Noether + signature exact on 3..100 in {elapsed * 1e3:.0f} ms")


def test_criterion_3_structural_identities():
    """Riemann-Hurwitz, the chi and H derivations, and the Euler fibre
    sums, exactly, for every 3 <= d <= 100."""
    from fractions import Fraction

    for d in range(3, 101):
        dl = delta(d)
        data = modular_data(d)
        i2 = invariants_g2(d)
        i3 = invariants_g3(d)
        assert 2 * (i3.base_genus - 1) == 2 * (2 * data.genus - 2) + i3.H, d
        assert Fraction(i3.chi) == 2 * (i3.base_genus - 1) + 2 * d * dl, d
        assert i3.H == 18 * i3.lambda_ - 2 * i3.delta0 - 3 * i3.delta1, d
        assert Fraction(i2.chi) == 2 * data.genus - 2 + Fraction(data.cusps, 2), d
        assert i2.c2 == i2.s + data.cusps + 4 * data.genus - 4, d
        defect = i3.c2 - (2 - 2 * 3) * (2 - 2 * i3.base_genus)
        assert Fraction(defect) == 2 * 12 * dl, d
    _passed(3, "RH, chi, H and Euler-sum identities exact on 3..100")


def test_criterion_4_adapted_basis_equivalence():
    """>= 200 randomized constructions all verify, and basis change
    succeeds exactly on the congruence subgroup; < 30 s."""
    rng = Random(20260815)
    trials = 0
    changes = 0
    start = time.perf_counter()
    for g in (2, 3):
        for d in range(2, 8):
            for _ in range(17):
                problem = randomized_problem(rng, g, d)
                basis = construct_adapted_basis(problem)
                assert is_adapted_basis(problem, basis), (g, d)
                trials += 1
                m = random_sl2_word(rng, max_len=8)
                moved = change_basis(basis, m, d)
                member = gamma_d_contains(m, d)
                assert bool(moved) == member, (g, d, m.tolists())
                if moved:
                    assert is_adapted_basis(problem, moved), (g, d)
                    changes += 1
    elapsed = time.perf_counter() - start
    assert trials >= 200
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _passed(
        4,
        f"{trials} constructions verified, {changes} basis changes, "
        f"in {elapsed:.2f} s",
    )


def test_criterion_5_polarization_type_recovery():
    """>= 100 unimodular conjugates of the five reference type shapes:
    the divisor chain and det(gram) = (prod d_i)^2 are recovered exactly."""
    rng = Random(20260816)
    recovered = 0
    for _ in range(21):
        d = rng.randint(2, 9)
        for divisors in ((1,), (d,), (1, d), (1, 1, d), (1, d, d)):
            ptype = PolarizationType(divisors)
            gram = block_normal_gram(ptype)
            p = random_unimodular(rng, gram.rows)
            twisted = gram_in_basis(gram, p)
            form = AlternatingForm(twisted)
            assert polarization_type(form) == ptype, divisors
            prod = 1
            for v in divisors:
                prod *= v
            assert twisted.det() == prod * prod, divisors
            recovered += 1
    assert recovered >= 100
    _passed(5, f"{recovered} conjugate forms classified exactly")


def test_criterion_6_period_family_checks():
    """50 random (Z, z) per (g, d) in {2,3} x {3,4,5}: Riemann relations
    and the monodromy translation within 1e-9; the coprincipal restriction
    of the section pairing exact."""
    rng = Random(20260817)
    points = 0
    for g in (2, 3):
        for d in (3, 4, 5):
            gram = section_pairing_gram(g, d)
            idx = list(range(g - 1)) + list(range(g, 2 * g - 1))
            restricted = polarization_type(AlternatingForm(gram.submatrix(idx, idx)))
            assert restricted == coprincipal_type(g - 1, d), (g, d)
            for _ in range(50):
                p = _random_period_point(rng, g, d)
                t = np.array(period_matrix(p).T)
                assert float(np.max(np.abs(t - t.T))) < 1e-9, (g, d)
                eigs = np.linalg.eigvalsh((t.imag + t.imag.T) / 2.0)
                assert eigs.min() > 0, (g, d)
                assert monodromy_translation_defect(p) < 1e-9, (g, d)
                points += 1
    assert points == 300
    _passed(6, "300 period points within 1e-9; restriction types exact")


def test_criterion_7_degree_two_discrimination():
    """The two degree-2 monodromies are separated: unipotent (x-1)^6
    against a non-unipotent polynomial divisible by (x+1)."""
    reg = monodromy_at_cusp(3, 2, REGULAR)
    irr = monodromy_at_cusp(3, 2, IRREGULAR)
    assert is_symplectic(reg.m.m, 3)
    assert is_symplectic(irr.m.m, 3)
    assert distinguish_monodromies(reg, irr) == "Distinguished"
    inv_reg = conjugacy_invariants(reg.m.m)
    inv_irr = conjugacy_invariants(irr.m.m)
    assert inv_reg.unipotent and not inv_irr.unipotent
    assert inv_reg.char_poly == (1, -6, 15, -20, 15, -6, 1)  # (x-1)^6
    value_at_minus_1 = 0
    for c in char_poly(irr.m.m):
        value_at_minus_1 = value_at_minus_1 * (-1) + c
    assert value_at_minus_1 == 0  # (x+1) divides it
    _passed(7, "monodromies Distinguished; unipotent vs (x+1)-factor confirmed")


def test_criterion_8_c2_rederivation():
    """c2 is never read off a single line: both tables reproduce it from
    the base genus and the Euler bookkeeping, exactly, for 3 <= d <= 100."""
    from fractions import Fraction

    for d in range(3, 101):
        data = modular_data(d)
        i2 = invariants_g2(d)
        i3 = invariants_g3(d)
        assert i2.c2 == i2.s + data.cusps + 4 * data.genus - 4, d
        cross = Fraction((2 - 2 * 3) * (2 - 2 * i3.base_genus)) + 24 * delta(d)
        assert Fraction(i3.c2) == cross, d
    _passed(8, "c2 re-derived from g(B) + Euler sums on 3..100")
