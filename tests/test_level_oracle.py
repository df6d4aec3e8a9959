"""An oracle for the level layer computed from the group itself: genus,
cusps and Delta_d of X(d) from the permutation action of S and T on
PSL_2(Z/d), against ``modular_data`` and ``delta``.  Nothing here uses the
package's factoring or Jordan's totient.

The cosets of Gamma(d) in SL_2(Z) are the elements of SL_2(Z/d), so with
S = [[0, -1], [1, 0]] and T = [[1, 1], [0, 1]] acting by right
multiplication on PSL_2(Z/d): the index is mu = |PSL_2(Z/d)|, the cusps are
the cycles of T, and e_2, e_3 are the fixed points of S and ST.  Then
genus = 1 + mu/12 - e_2/4 - e_3/3 - c/2 (Diamond-Shurman, GTM 228,
Thm 3.1.1) and Delta_d = mu / (12 d).  The cusps are counted a second way
as the +-classes of elements of order exactly d in (Z/d)^2 (Shimura,
Introduction to the Arithmetic Theory of Automorphic Functions, 1.6)."""

from collections import defaultdict
from fractions import Fraction
from math import gcd

import pytest

from fibsurf import delta, modular_data


def _psl2(d: int) -> set[tuple[int, int, int, int]]:
    """PSL_2(Z/d) for d >= 3, each +-pair by its smaller entry tuple
    (a, b, c, e) of [[a, b], [c, e]].  For each c, the b with b*c = r mod d
    are listed once per r, so a*e - b*c = 1 is solved in about d^3 steps."""
    group = set()
    for c in range(d):
        solutions = defaultdict(list)
        for b in range(d):
            solutions[b * c % d].append(b)
        for a in range(d):
            for e in range(d):
                for b in solutions[(a * e - 1) % d]:
                    group.add(_canonical(d, (a, b, c, e)))
    return group


def _canonical(d: int, x: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, e = x
    neg = (-a % d, -b % d, -c % d, -e % d)
    return x if x <= neg else neg


def _cycles(d: int, group: set, step) -> int:
    """The number of cycles of the permutation x -> x * step of the group."""
    seen, cycles = set(), 0
    for x in group:
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = _canonical(d, step(x, d))
    return cycles


def _times_t(x, d):  # x * [[1, 1], [0, 1]]
    a, b, c, e = x
    return a, (a + b) % d, c, (c + e) % d


def _times_s(x, d):  # x * [[0, -1], [1, 0]]
    a, b, c, e = x
    return b, -a % d, e, -c % d


def _times_st(x, d):  # x * [[0, -1], [1, 1]]
    a, b, c, e = x
    return b, (b - a) % d, e, (e - c) % d


def _fixed_points(d: int, group: set, step) -> int:
    return sum(1 for x in group if _canonical(d, step(x, d)) == x)


@pytest.mark.parametrize("d", range(3, 31))
def test_modular_data_matches_the_group(d):
    group = _psl2(d)
    mu = len(group)
    cusps = _cycles(d, group, _times_t)
    e2, e3 = _fixed_points(d, group, _times_s), _fixed_points(d, group, _times_st)
    genus = 1 + Fraction(mu, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(cusps, 2)
    order_d = sum(1 for x in range(d) for y in range(d) if gcd(x, y, d) == 1)
    assert order_d % 2 == 0 and cusps == order_d // 2
    data = modular_data(d)
    assert (data.genus, data.cusps, data.delta) == (genus, cusps, Fraction(mu, 12 * d))
    assert delta(d) == Fraction(mu, 12 * d)
