"""Factoring levels: trial division by small primes, deterministic
Miller-Rabin, the perfect-power test and Pollard-Brent rho, checked against
sympy; the psi_13 domain bound; and the bounded memo of J_2, which factors
a level once however many public calls ask about it."""

import json
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fibsurf
import fibsurf.cli as cli
from fibsurf import (
    LevelTooLarge,
    delta,
    euler_fibre_sum_check,
    invariants_g2,
    invariants_g3,
    modular_data,
    run_identity_checks,
)
from fibsurf.modular import PSI_13, _is_prime, _jordan2, _prime_factors

# Strong pseudoprimes to the first k prime bases: psi_1 .. psi_8 (psi_5
# coincides with psi_4 and is skipped), psi_9 = psi_10 = psi_11, and psi_12.
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)

# k with 6k+1, 12k+1, 18k+1 all prime: (6k+1)(12k+1)(18k+1) is a
# Carmichael number (Chernick's construction).
CHERNICK_K = tuple(
    k for k in range(1, 5000) if all(sympy.isprime(a * k + 1) for a in (6, 12, 18))
)


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts with no level remembered, so a timed call factors."""
    _jordan2.cache_clear()


def expected_factors(n: int) -> list[int]:
    return sorted(sympy.factorint(n))


def expected_delta(d: int) -> sympy.Rational:
    value = sympy.Rational(d * d, 24)
    for p in sympy.factorint(d):
        value *= 1 - sympy.Rational(1, p * p)
    return value


@st.composite
def prime_powers(draw):
    # rho on p^k takes about sqrt(p) steps; p <= 1e8 keeps each example fast
    p = draw(st.integers(2, 10**8).map(sympy.nextprime))
    k = draw(st.integers(1, 80))
    while p**k >= PSI_13:
        k -= 1
    return p**k


@st.composite
def balanced_semiprimes(draw):
    p = draw(st.integers(10**3, 10**9).map(sympy.nextprime))
    q = sympy.nextprime(draw(st.integers(p // 2, 2 * p)))
    return p * q


carmichael = st.sampled_from(CHERNICK_K).map(lambda k: (6 * k + 1) * (12 * k + 1) * (18 * k + 1))

levels = st.one_of(
    st.integers(1, 10**18),
    prime_powers(),
    balanced_semiprimes(),
    carmichael,
    st.sampled_from(STRONG_PSEUDOPRIMES[:-1]),
)


@settings(max_examples=200, deadline=None)
@given(levels)
def test_prime_factors_match_sympy(n):
    assert _prime_factors(n) == expected_factors(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(2, 10**15), balanced_semiprimes(), carmichael))
def test_delta_matches_formula(d):
    value = delta(d)
    assert (value.numerator, value.denominator) == expected_delta(d).as_numer_denom()


def test_small_levels_match_sympy():
    for n in range(1, 20000):
        assert _prime_factors(n) == expected_factors(n), n


def test_products_of_small_and_large_primes():
    big = 10**18 + 3  # prime
    for n in (2 * big, 97 * 101 * big, 2**20 * 3**5 * 101**2, 101**2, 103 * 107):
        assert _prime_factors(n) == expected_factors(n), n


def test_strong_pseudoprimes_are_found_composite():
    for n in STRONG_PSEUDOPRIMES:
        if n > 101 * 101:  # _is_prime assumes no prime factor below 100
            assert not _is_prime(n), n
        assert _prime_factors(n) == expected_factors(n), n


def test_psi_13_is_the_first_failure_of_the_bases():
    """psi_13 is composite, yet every base 2..41 calls it a strong probable
    prime: the domain bound is tight."""
    assert PSI_13 == 1287836182261 * 2575672364521
    assert _is_prime(PSI_13)


@pytest.mark.parametrize("d", [PSI_13, PSI_13 + 1, 10**30 + 57])
def test_levels_from_psi_13_on_are_refused(d):
    for fn in (delta, modular_data, invariants_g2, invariants_g3):
        with pytest.raises(LevelTooLarge, match="psi_13"):
            fn(d)


def test_cli_refuses_levels_from_psi_13_on(capsys):
    code = cli.main(["modular", "--d", str(10**27 + 39)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "LevelTooLarge"
    assert str(PSI_13) in err["message"]


def test_cli_prime_level_near_1e18(capsys):
    p = 10**18 + 3
    code = cli.main(["modular", "--d", str(p)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["cusps"] == str((p * p - 1) // 2)  # 12 * Delta_p


@pytest.mark.parametrize(
    "d",
    [10**18 + 3, 999999937 * 999999929],
    ids=["prime", "balanced-semiprime"],
)
def test_large_levels_are_fast(d):
    start = time.perf_counter()
    data = modular_data(d)
    elapsed = time.perf_counter() - start
    assert data.delta == expected_delta(d)
    assert elapsed < 1.0, f"modular_data({d}) took {elapsed:.3f} s"


LARGE_P = 1800000000047  # prime; p^2 is just below psi_13


@st.composite
def powerful_levels(draw):
    """p^k, or p^2 * q, with primes p, q > 97 and the product below psi_13."""
    p = draw(st.integers(98, 10**6).map(sympy.nextprime))
    if draw(st.booleans()):
        k = draw(st.integers(2, 12))
        while p**k >= PSI_13:
            k -= 1
        return p**k
    q = sympy.nextprime(draw(st.integers(98, 10**9)))
    return p * p * q


@settings(max_examples=100, deadline=None)
@given(powerful_levels())
def test_powerful_levels_match_sympy(n):
    assert _prime_factors(n) == expected_factors(n)


def _count_rho(monkeypatch) -> list:
    calls = []
    original = fibsurf.modular._rho_divisor

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fibsurf.modular, "_rho_divisor", counting)
    return calls


@pytest.mark.parametrize(
    "n",
    [LARGE_P**2, 1000003**3, 101**12, 10007**2 * 97**2],
    ids=["p^2", "p^3", "p^12", "p^2*small^2"],
)
def test_prime_powers_never_reach_rho(monkeypatch, n):
    calls = _count_rho(monkeypatch)
    assert _prime_factors(n) == expected_factors(n)
    assert calls == []


@pytest.mark.parametrize("p, q", [(101, 103), (10007, 1000003), (1000003, 10007), (999983, 999979)])
def test_square_times_prime_runs_rho_once(monkeypatch, p, q):
    """Finding a square factor of p^2*q is as hard as factoring it, so rho
    runs once, on p^2*q itself; whatever divisor it returns, the square left
    over is settled by the root test and never reaches rho."""
    calls = _count_rho(monkeypatch)
    assert _prime_factors(p * p * q) == sorted({p, q})
    assert calls == [p * p * q]


def test_square_of_large_prime_is_fast():
    start = time.perf_counter()
    value = delta(LARGE_P**2)
    elapsed = time.perf_counter() - start
    assert value == expected_delta(LARGE_P**2)
    assert elapsed < 0.1, f"delta(p^2) took {elapsed:.3f} s"


def test_one_factorization_per_public_call(monkeypatch):
    calls = []
    original = fibsurf.modular._prime_factors

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(fibsurf.modular, "_prime_factors", counting)
    d = 10**9 + 7
    for fn in (
        invariants_g2,
        invariants_g3,
        lambda d: run_identity_checks(d, d),
        lambda d: euler_fibre_sum_check(invariants_g3(d)),
    ):
        _jordan2.cache_clear()
        calls.clear()
        fn(d)
        assert calls == [d]  # a cold call factors exactly once
    # the three public calls of one operation of the levels benchmark
    _jordan2.cache_clear()
    calls.clear()
    invariants_g2(d), invariants_g3(d), run_identity_checks(d, d)
    assert calls == [d]


def _expected_modular_data(d: int) -> tuple:
    dl = expected_delta(d)
    return d, (d - 6) * dl + 1, 12 * dl, dl


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(3, 10**15), balanced_semiprimes(), carmichael))
def test_memo_changes_no_answer(d):
    _jordan2.cache_clear()
    expected = _expected_modular_data(d)
    for cold in (True, False):
        misses = _jordan2.cache_info().misses
        data = modular_data(d)
        assert (data.d, data.genus, data.cusps, data.delta) == expected
        assert delta(d) == expected[3]
        # only the first modular_data computes J_2; the rest read the memo
        assert _jordan2.cache_info().misses == misses + cold


def test_memo_stays_bounded():
    bound = _jordan2.cache_info().maxsize
    assert bound is not None
    run_identity_checks(3, 3002)
    assert 0 < _jordan2.cache_info().currsize <= bound


def test_too_large_level_is_refused_on_every_call():
    for _ in range(2):
        with pytest.raises(LevelTooLarge, match="psi_13"):
            delta(PSI_13)
    assert _jordan2.cache_info().currsize == 0
