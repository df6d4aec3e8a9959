"""Principal congruence subgroups, modular-curve numerology and the
sign-twisted complements of {+-1} inside Gamma(2)."""

from fractions import Fraction
from random import Random

import pytest

from fibsurf import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    IRREGULAR,
    IRREGULAR_STABILIZER,
    REGULAR,
    REGULAR_STABILIZER,
    IntMatrix,
    InvalidArgument,
    InvalidCuspSet,
    LevelTooSmall,
    UnsupportedCusp,
    cusp_case,
    delta,
    gamma2_complement_contains,
    gamma_d_contains,
    invariants_g2,
    invariants_g3,
    modular_data,
    moduli_dimension,
    normalize_cusp,
    normalize_cusp_set,
    run_identity_checks,
)
from fibsurf.intlinalg import _unimodular_inverse
from helpers import random_gamma_d_element, random_sl2_word

# level -> Delta_d, checked by hand from the defining product
DELTA_TABLE = {
    2: Fraction(1, 8),
    3: Fraction(1, 3),
    4: Fraction(1, 2),
    5: Fraction(1),
    6: Fraction(1),
    7: Fraction(2),
    8: Fraction(2),
    9: Fraction(3),
    10: Fraction(3),
    11: Fraction(5),
    12: Fraction(4),
}

# level -> (genus, cusp count) of the level-d modular curve
CURVE_TABLE = {
    3: (0, 4),
    4: (0, 6),
    5: (0, 12),
    6: (1, 12),
    7: (3, 24),
    8: (5, 24),
    9: (10, 36),
    11: (26, 60),
    12: (25, 48),
}


def test_delta_frozen_values():
    for d, expected in DELTA_TABLE.items():
        assert delta(d) == expected, f"delta({d})"


def test_delta_rejects_small_levels():
    for d in (-1, 0, 1):
        with pytest.raises(LevelTooSmall):
            delta(d)


def test_modular_data_classical_table():
    for d, (genus, cusps) in CURVE_TABLE.items():
        data = modular_data(d)
        assert data.genus == genus, f"genus of X({d})"
        assert data.cusps == cusps, f"cusps of X({d})"
        assert data.delta == delta(d)


def test_modular_data_rejects_small_levels():
    with pytest.raises(LevelTooSmall):
        modular_data(2)


def test_genus_formula_consistency():
    # 2g - 2 = (d - 6) * cusps / 6 for every level
    for d in range(3, 60):
        data = modular_data(d)
        assert 6 * (2 * data.genus - 2) == (d - 6) * data.cusps


def test_gamma_d_membership():
    assert gamma_d_contains(IntMatrix.identity(2), 5)
    assert gamma_d_contains(IntMatrix([[1, 3], [0, 1]]), 3)
    assert not gamma_d_contains(IntMatrix([[1, 1], [0, 1]]), 3)
    assert not gamma_d_contains(IntMatrix([[-1, 0], [0, -1]]), 3)
    # determinant condition matters, congruence alone is not enough
    assert not gamma_d_contains(IntMatrix([[1, 3], [3, 13]]), 3)
    # congruent entries with unit determinant do qualify
    assert gamma_d_contains(IntMatrix([[1, 3], [3, 10]]), 3)


def test_gamma_d_closure_under_products_and_inverse():
    rng = Random(301)
    for d in (2, 3, 5):
        for _ in range(25):
            a = random_gamma_d_element(rng, d)
            b = random_gamma_d_element(rng, d)
            assert gamma_d_contains(a, d)
            assert gamma_d_contains(a * b, d)
            assert gamma_d_contains(_unimodular_inverse(a), d)


I2 = IntMatrix.identity(2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: delta(7.0), InvalidArgument),
        (lambda: modular_data(9.0), InvalidArgument),
        (lambda: invariants_g2(3.5), InvalidArgument),
        (lambda: invariants_g3(True), InvalidArgument),
        (lambda: run_identity_checks(3.5, 4), InvalidArgument),
        (lambda: run_identity_checks(3, 4.0), InvalidArgument),
        (lambda: moduli_dimension(2, 5, 1, 4.0), InvalidArgument),
        (lambda: delta(True), InvalidArgument),
        (lambda: modular_data("7"), InvalidArgument),
        (lambda: gamma_d_contains(I2, 2.5), InvalidArgument),
        (lambda: gamma_d_contains(I2, 0), LevelTooSmall),
        (lambda: gamma_d_contains(I2, -3), LevelTooSmall),
    ],
    ids=[
        "delta-float", "modular_data-float", "g2-float", "g3-bool",
        "checks-float-lo", "checks-float-hi", "moduli-float", "delta-bool",
        "modular_data-str", "gamma-float", "gamma-zero", "gamma-negative",
    ],
)
def test_levels_that_are_not_ints_or_too_small_are_refused(call, error):
    with pytest.raises(error):
        call()


def test_float_level_is_refused_after_the_int_level_is_remembered():
    """7.0 == 7 and hash(7.0) == hash(7): only the reader keeps the float
    from being answered out of the memo the int call filled."""
    assert delta(7) == Fraction(2)
    with pytest.raises(InvalidArgument):
        delta(7.0)
    assert modular_data(5).genus == 0
    with pytest.raises(InvalidArgument):
        modular_data(5.0)


def test_gamma_1_is_sl2():
    assert gamma_d_contains(IntMatrix([[2, 1], [1, 1]]), 1)
    assert not gamma_d_contains(IntMatrix([[2, 1], [1, 2]]), 1)


def test_normalize_cusp_variants():
    assert normalize_cusp("inf") == CUSP_INF
    assert normalize_cusp("oo") == CUSP_INF
    assert normalize_cusp(float("inf")) == CUSP_INF
    assert normalize_cusp(0) == CUSP_ZERO
    assert normalize_cusp("1") == CUSP_ONE
    with pytest.raises(InvalidCuspSet):
        normalize_cusp("2")


@pytest.mark.parametrize("c", [True, False])
def test_normalize_cusp_refuses_bools(c):
    """True equals 1 and False equals 0, and they were read as those cusps."""
    with pytest.raises(InvalidCuspSet, match="bool"):
        normalize_cusp(c)


def test_admissible_cusp_sets():
    assert normalize_cusp_set(["inf"]) == frozenset({CUSP_INF})
    assert normalize_cusp_set({0, 1, "oo"}) == frozenset(
        {CUSP_ZERO, CUSP_ONE, CUSP_INF}
    )
    for bad in [[], ["0", "1"], ["1", "inf"], ["0", "inf"], 5]:
        with pytest.raises(InvalidCuspSet):
            cusp_case(bad)
    with pytest.raises(InvalidCuspSet, match="iterable"):
        gamma2_complement_contains(IntMatrix.identity(2), 5)
    # read once: an iterator is no false duplicate
    assert cusp_case(iter(["inf"])).variant == IRREGULAR
    assert normalize_cusp_set(c for c in ("0", "1", "inf")) == frozenset(
        {CUSP_ZERO, CUSP_ONE, CUSP_INF}
    )


def test_cusp_case_all_four_complements():
    case = cusp_case(["inf"])
    assert case.variant == IRREGULAR
    assert case.stabilizer_generator == IRREGULAR_STABILIZER
    for s in (["0"], ["1"]):
        case = cusp_case(s)
        assert case.variant == REGULAR
        assert case.stabilizer_generator == REGULAR_STABILIZER
    case = cusp_case(["0", "1", "inf"])
    assert case.variant == IRREGULAR


def test_cusp_case_only_infinity_supported():
    with pytest.raises(UnsupportedCusp):
        cusp_case(["inf"], cusp="0")


def test_complement_membership_fixed_points():
    neg_par = IntMatrix([[-1, 2], [0, -1]])
    ident = IntMatrix.identity(2)
    neg_ident = IntMatrix([[-1, 0], [0, -1]])
    for s in (["inf"], ["0"], ["1"], ["0", "1", "inf"]):
        # the identity is a complement element, -identity never is
        assert gamma2_complement_contains(ident, s)
        assert not gamma2_complement_contains(neg_ident, s)
        # -[[1,-2],[0,1]] lies in the complement iff inf is irregular
        assert gamma2_complement_contains(neg_par, s) == ("inf" in s)


def test_complement_membership_sign_dichotomy():
    """Exactly one of m, -m lies in each complement, for every m in Gamma(2)."""
    rng = Random(302)
    for _ in range(50):
        m = random_gamma_d_element(rng, 2)
        for s in (["inf"], ["0"], ["1"], ["0", "1", "inf"]):
            assert gamma2_complement_contains(m, s) != gamma2_complement_contains(
                m.scale(-1), s
            )


def test_complement_membership_word_oracle():
    """Independent oracle: Gamma(2)/{+-1} is free on a = [[1,2],[0,1]] and
    b = [[1,0],[2,1]], so sigma * a^(k1) b^(k2) ... lies in the complement
    labelled by (eps_a, eps_b) iff sigma == eps_a^(sum k_a) * eps_b^(sum k_b).
    """
    rng = Random(303)
    a = IntMatrix([[1, 2], [0, 1]])
    b = IntMatrix([[1, 0], [2, 1]])
    signs = {
        frozenset({CUSP_INF}): (-1, 1),
        frozenset({CUSP_ZERO}): (1, -1),
        frozenset({CUSP_ONE}): (1, 1),
        frozenset({CUSP_ZERO, CUSP_ONE, CUSP_INF}): (-1, -1),
    }
    for _ in range(120):
        m = IntMatrix.identity(2)
        e_a = e_b = 0
        for _ in range(rng.randint(0, 6)):
            k = rng.choice([-2, -1, 1, 2])
            if rng.random() < 0.5:
                m = m * a.power(abs(k)) if k > 0 else m * _unimodular_inverse(a).power(-k)
                e_a += k
            else:
                m = m * b.power(abs(k)) if k > 0 else m * _unimodular_inverse(b).power(-k)
                e_b += k
        sigma = rng.choice([1, -1])
        word = m.scale(sigma)
        for s, (eps_a, eps_b) in signs.items():
            expected = sigma == (eps_a ** (e_a % 2)) * (eps_b ** (e_b % 2))
            got = gamma2_complement_contains(word, s)
            assert got == expected, (s, sigma, e_a, e_b)


def test_complement_rejects_non_gamma2():
    assert not gamma2_complement_contains(IntMatrix([[1, 1], [0, 1]]), ["inf"])


def test_complement_sections_multiply():
    """The section is a homomorphism on its image: membership is closed
    under products."""
    rng = Random(304)
    for s in (["inf"], ["0"], ["1"], ["0", "1", "inf"]):
        members = []
        attempts = 0
        while len(members) < 12 and attempts < 400:
            attempts += 1
            m = random_gamma_d_element(rng, 2)
            if rng.random() < 0.5:
                m = m.scale(-1)
            if gamma2_complement_contains(m, s):
                members.append(m)
        assert len(members) == 12
        for _ in range(20):
            x = rng.choice(members)
            y = rng.choice(members)
            assert gamma2_complement_contains(x * y, s)
            assert gamma2_complement_contains(_unimodular_inverse(x), s)


def test_stabilizer_generators_fix_infinity():
    for gen in (REGULAR_STABILIZER, IRREGULAR_STABILIZER):
        # upper triangular: fixes the cusp at infinity
        assert gen[1, 0] == 0
        assert gen.det() == 1
    assert REGULAR_STABILIZER == IntMatrix([[1, 2], [0, 1]])
    assert IRREGULAR_STABILIZER == IntMatrix([[-1, 2], [0, -1]])


def test_random_sl2_words_have_det_one():
    rng = Random(305)
    for _ in range(40):
        m = random_sl2_word(rng)
        assert m.det() == 1
