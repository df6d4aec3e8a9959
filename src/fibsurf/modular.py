"""Arithmetic of the principal congruence subgroups and the curves X(d).

Three ingredients live here:

* the exact rational Delta_d = J_2(d)/24, where Jordan's totient
  J_2(d) = d^2 * prod_{p | d} (1 - 1/p^2) is an integer (Shimura,
  Introduction to the Arithmetic Theory of Automorphic Functions, 1.6;
  Diamond-Shurman, GTM 228, 3.9), and the genus/cusp counts of X(d), each
  an integer multiple of J_2(d) divided by 24, for 2 <= d < psi_13 (see
  FACTORING).  Only ``delta`` and ``ModularCurveData.delta`` are Fractions;
  everything else is computed on ints;
* membership in Gamma(d) = {M in SL_2(Z) : M = I mod d};
* the four index-2 complements of {+-1} inside Gamma(2), classified by their
  sets S of irregular cusps (S a subset of {0, 1, inf} of size 1 or 3).

Gamma(2)/{+-1} is free on the images of a = [[1,2],[0,1]] and
b = [[1,0],[2,1]] (the stabilizers of the cusps inf and 0).  A complement is
the image of the homomorphic section determined by a sign pair
(eps_a, eps_b): the section sends a-bar to eps_a*a and b-bar to eps_b*b.
The cusp dictionary is

    inf in S  <=>  eps_a = -1,
    0   in S  <=>  eps_b = -1,
    1   in S  <=>  eps_a * eps_b = +1,

because the stabilizer of the cusp 1 is generated by -+(a b^-1) and the
trace -2 representative lies in the section iff eps_a*eps_b = +1.  That
forces |S| in {1, 3}: exactly four complements.

Membership of M in a complement: write M = sigma * w(a, b) with sigma = +-1
by Euclidean reduction of the first column (the parity pattern of Gamma(2) -
odd diagonal, even off-diagonal - makes the reduction strict), then compare
sigma with eps_a^(e_A) * eps_b^(e_B), where e_A, e_B are the exponent sums
of the word (well defined modulo 2).

FACTORING.  J_2(d) needs the primes dividing d.  A level is factored once
while it stays in a bounded memo of J_2 (the last _JORDAN2_MEMO levels
asked about), so the calls of one question about one level share a single
factoring; every public call still checks its level, builds its own answer
and verifies it.  The primes are found by trial division by the primes
below 100, then, for the cofactor, Miller-Rabin to the 13 prime bases
2..41, an integer k-th root test for perfect powers, and Brent's variant
of Pollard rho (R. P. Brent, BIT 20, 1980).  Miller-Rabin to these bases
proves primality below psi_13 = 3 317 044 064 679 887 385 961 981, the
least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
86, 2017), so every answer is exact; levels d >= psi_13 raise
LevelTooLarge.  Squares and higher powers of primes never reach rho.  Rho
needs about p^(1/2) steps for the smallest prime p of a composite that is
no perfect power, so the running time is bounded over the whole domain:
well under a millisecond for most levels, and about 3 s at worst (a product
of two primes near 1.8e12).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .errors import (
    InvalidCuspSet,
    LevelTooLarge,
    LevelTooSmall,
    NonIntegralResult,
    Record,
    UnsupportedCusp,
    _int_argument,
)

# IntMatrix (in annotations) is imported from .intlinalg only where a matrix
# is built, so that the level arithmetic never loads the exact core.

CUSP_ZERO = "0"
CUSP_ONE = "1"
CUSP_INF = "inf"

REGULAR = "Regular"
IRREGULAR = "Irregular"


def _stabilizer(variant: str) -> IntMatrix:
    """Stabilizer generator of the cusp at infinity inside Gamma(2), of the
    regular or irregular flavour."""
    from .intlinalg import IntMatrix

    sign = 1 if variant == REGULAR else -1
    return IntMatrix([[sign, 2], [0, sign]])


def __getattr__(name: str):
    # REGULAR_STABILIZER and IRREGULAR_STABILIZER are built on access (PEP 562)
    if name == "REGULAR_STABILIZER":
        return _stabilizer(REGULAR)
    if name == "IRREGULAR_STABILIZER":
        return _stabilizer(IRREGULAR)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ModularCurveData(Record):
    _fields = ("d", "delta", "genus", "cusps")

    def __init__(self, d: int, delta: Fraction, genus: int, cusps: int):
        self.__dict__.update(d=d, delta=delta, genus=genus, cusps=cusps)


class CuspRegularityCase(Record):
    """The variant (REGULAR or IRREGULAR) of the cusp at infinity and the
    generator of its stabilizer."""

    _fields = ("variant", "stabilizer_generator")

    def __init__(self, variant: str, stabilizer_generator: IntMatrix):
        self.__dict__.update(variant=variant, stabilizer_generator=stabilizer_generator)


#: The least strong pseudoprime to every base in _MR_BASES; Miller-Rabin to
#: those bases is a proof of primality below it.
PSI_13 = 3317044064679887385961981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = _MR_BASES + (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
#: A number with no prime factor in _SMALL_PRIMES is prime below 101^2.
_SURELY_PRIME_BELOW = 101 * 101
#: Steps of the rho iteration per gcd.
_RHO_BATCH = 128
#: Levels whose J_2 is remembered; one levels question asks about a handful.
_JORDAN2_MEMO = 64


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for n < PSI_13 with no prime
    factor in _SMALL_PRIMES; a proof of primality in that range."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * e, e odd
    e = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Brent's variant of Pollard
    rho on x -> x^2 + c, multiplying _RHO_BATCH differences per gcd and
    stepping back one at a time when a batch overshoots to n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:  # otherwise both cycles closed together: next c
            return g


def _perfect_root(m: int) -> int:
    """r with r^k = m for a prime k, or m itself when m is no perfect power;
    for m < PSI_13 whose prime factors all exceed 97, so that k <= 11.  The
    float k-th root is within far less than 1/2 of the exact one there."""
    for k in (2, 3, 5, 7, 11):
        if 101**k > m:
            break
        r = isqrt(m) if k == 2 else round(m ** (1.0 / k))
        if r**k == m:
            return r
    return m


def _prime_divisor(m: int) -> int:
    """A prime dividing m > 1, where m has no prime factor in _SMALL_PRIMES."""
    while not (m < _SURELY_PRIME_BELOW or _is_prime(m)):
        r = _perfect_root(m)
        if r != m:
            m = r
        else:
            f = _rho_divisor(m)
            m = min(f, m // f)
    return m


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, for 1 <= n < PSI_13, in increasing
    order (see FACTORING in the module docstring)."""
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            n //= p
            while n % p == 0:
                n //= p
    # n is now 1, a prime below 97^2, or has every prime factor above 97;
    # each prime found is divided out in full before the next is sought
    large = []
    while n > 1:
        p = _prime_divisor(n)
        large.append(p)
        n //= p
        while n % p == 0:
            n //= p
    return out + sorted(large)


@lru_cache(maxsize=_JORDAN2_MEMO)
def _jordan2(d: int) -> int:
    """Jordan's totient J_2(d) = d^2 * prod over primes p | d of
    (1 - 1/p^2), an integer, equal to 24 * Delta_d; for 1 <= d < PSI_13.
    Memoized for the last _JORDAN2_MEMO levels.  Every entry point reads its
    level with _int_argument first, so no float or bool level (equal to an
    int, and hashed alike) is ever answered from the memo.  LevelTooLarge
    is not memoized, so it is raised on every call."""
    if d >= PSI_13:
        raise LevelTooLarge(
            f"levels are factored exactly only below psi_13 = {PSI_13}, got {d}"
        )
    j = d * d
    for p in _prime_factors(d):
        q = p * p
        j = j // q * (q - 1)
    return j


def delta(d: int) -> Fraction:
    """Delta_d = J_2(d) / 24 = (d^2 / 24) * prod over primes p | d of
    (1 - 1/p^2), for 2 <= d < PSI_13."""
    if _int_argument(d, "the level d") < 2:
        raise LevelTooSmall(f"delta is defined for d >= 2, got {d}")
    return Fraction(_jordan2(d), 24)


def modular_data(d: int) -> ModularCurveData:
    """Genus and cusp count of X(d): g = (d-6)*Delta_d + 1, t = 12*Delta_d,
    for 3 <= d < PSI_13; each is one division by 24 of an integer multiple
    of J_2(d) = 24*Delta_d, checked to leave no remainder."""
    if _int_argument(d, "the level d") < 3:
        raise LevelTooSmall(f"modular data requires d >= 3, got {d}")
    j = _jordan2(d)
    genus, rg = divmod((d - 6) * j + 24, 24)
    cusps, rc = divmod(12 * j, 24)
    if rg or rc:
        raise NonIntegralResult(
            f"genus or cusp count non-integral at d={d}: "
            f"{Fraction((d - 6) * j + 24, 24)}, {Fraction(12 * j, 24)}"
        )
    return ModularCurveData(d=d, delta=Fraction(j, 24), genus=genus, cusps=cusps)


def gamma_d_contains(m: IntMatrix, d: int) -> bool:
    """True iff m is in SL_2(Z) and congruent to the identity mod d, for
    d >= 1."""
    if _int_argument(d, "the level d") < 1:
        raise LevelTooSmall(f"Gamma(d) is defined for d >= 1, got {d}")
    if m.rows != 2 or m.cols != 2:
        return False
    a, b = m.row(0)
    c, e = m.row(1)
    if a * e - b * c != 1:
        return False
    return (a - 1) % d == 0 and b % d == 0 and c % d == 0 and (e - 1) % d == 0


def normalize_cusp(c) -> str:
    """The cusp named by c: 0, 1 or inf, as a number or a string.  A bool
    equals 0 or 1 but names no cusp, so it is refused."""
    if isinstance(c, bool):
        raise InvalidCuspSet(f"a cusp is 0, 1 or inf, not the bool {c!r}")
    if c in (0, "0"):
        return CUSP_ZERO
    if c in (1, "1"):
        return CUSP_ONE
    if c in ("inf", "oo", "∞", float("inf")):
        return CUSP_INF
    raise InvalidCuspSet(f"unknown cusp {c!r}; cusps are 0, 1, inf")


def normalize_cusp_set(s) -> frozenset[str]:
    """The cusps of ``s``, which is read once, so it may be an iterator."""
    try:
        given = list(s)
    except TypeError as exc:
        raise InvalidCuspSet(f"a cusp set must be iterable, got {s!r}") from exc
    cusps = frozenset(map(normalize_cusp, given))
    if len(cusps) != len(given):
        raise InvalidCuspSet("cusp set contains duplicates")
    if len(cusps) not in (1, 3):
        raise InvalidCuspSet(f"cusp set must have size 1 or 3, got {set(given)!r}")
    return cusps


def _section_signs(s: frozenset[str]) -> tuple[int, int]:
    eps_a = -1 if CUSP_INF in s else 1
    eps_b = -1 if CUSP_ZERO in s else 1
    # consistency: 1 is irregular exactly when eps_a * eps_b = +1
    if (CUSP_ONE in s) != (eps_a * eps_b == 1):
        raise InvalidCuspSet(
            f"cusp set {set(s)!r} does not correspond to a complement"
        )
    return eps_a, eps_b


def _nearest_remainder(v: int, step: int) -> int:
    """Minimal-magnitude representative of v modulo |step|, in
    (-|step|/2, |step|/2]."""
    step = abs(step)
    r = v % step  # in [0, step)
    if r > step // 2:
        r -= step
    return r


def gamma2_complement_contains(m: IntMatrix, s) -> bool:
    """Membership of m in the complement of {+-1} in Gamma(2) labelled by
    the irregular-cusp set ``s``.

    Writes m = sigma * word(A, B) with sigma = +-1 by Euclidean reduction of
    the first column: left-multiplying by A^-k subtracts 2k * row1 from
    row0, by B^-j subtracts 2j * row0 from row1.  The lower-left entry is
    even and the diagonal odd throughout, so the minimal-magnitude remainder
    is strictly smaller than the divisor and the reduction terminates with
    the lower-left entry equal to 0, i.e. with +-A^t.  m lies in the
    complement iff sigma equals eps_a^e_A * eps_b^e_B for the word's
    exponent sums (well defined modulo 2 on a free group).
    """
    cusps = normalize_cusp_set(s)
    eps_a, eps_b = _section_signs(cusps)
    if not gamma_d_contains(m, 2):
        return False

    a, b = m.row(0)
    c, e = m.row(1)
    e_a = 0
    e_b = 0
    while c != 0:
        if abs(a) > abs(c):
            # a odd, 2c stride: remainder is odd, hence != |c|, hence < |c|
            k = (a - _nearest_remainder(a, 2 * c)) // (2 * c)
            a -= 2 * k * c
            b -= 2 * k * e
            e_a += k
        else:
            # c even, 2a stride: remainder is even, hence != |a|, hence < |a|
            j = (c - _nearest_remainder(c, 2 * a)) // (2 * a)
            c -= 2 * j * a
            e -= 2 * j * b
            e_b += j
    # m reduced to [[a, b], [0, e]] with a = e = +-1: that is sigma * A^t
    sigma = a
    e_a += b // (2 * a)
    target = (eps_a if e_a % 2 else 1) * (eps_b if e_b % 2 else 1)
    return sigma == target


def cusp_case(s, cusp="inf") -> CuspRegularityCase:
    """Regularity of the cusp at infinity for the complement labelled by s."""
    cusps = normalize_cusp_set(s)
    _section_signs(cusps)  # validates admissibility
    if normalize_cusp(cusp) != CUSP_INF:
        raise UnsupportedCusp("only the cusp at infinity is supported")
    variant = IRREGULAR if CUSP_INF in cusps else REGULAR
    return CuspRegularityCase(variant, _stabilizer(variant))
