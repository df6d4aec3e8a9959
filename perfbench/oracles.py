"""Per-operation output oracles that do not call ``fibsurf``.

Each oracle takes a workload input and its encoded output and returns None
when the output is correct, else a one-line reason.  Exact checks use sympy
(rational matrices, integer factorisation); the period check uses the closed
form of the Riemann matrix.  ``corrupt`` damages one output so that a run can
confirm its oracle rejects a wrong answer.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from sympy import QQ, factorint
from sympy.polys.matrices import DomainMatrix

from workloads import IDENTITY_NAMES, TOL, cli_key

# ---------------------------------------------------------------- lattice


def _qq(rows) -> DomainMatrix:
    return DomainMatrix([[QQ(int(v)) for v in row] for row in rows], (len(rows), len(rows[0])), QQ)


def _cols(vectors) -> DomainMatrix:
    return _qq([list(r) for r in zip(*vectors)])


class _Sublattice:
    """Column lattice of a full-column-rank integer matrix, with an exact
    left inverse for computing coordinates."""

    def __init__(self, gens):
        self.gens = _qq(gens)
        gt = self.gens.transpose()
        self.left_inverse = (gt * self.gens).inv() * gt

    def unimodular_coords(self, vectors) -> bool:
        """True iff ``vectors`` is a Z-basis of this lattice."""
        target = _cols(vectors)
        coords = self.left_inverse * target
        if self.gens * coords != target:
            return False
        if any(QQ.denom(v) != 1 for row in coords.to_list() for v in row):
            return False
        return coords.det() in (QQ(1), QQ(-1))


def _pairings(gram: DomainMatrix, vectors) -> list[list[int]]:
    p = _cols(vectors)
    return [[int(v) for v in row] for row in (p.transpose() * gram * p).to_list()]


def _adapted_reason(x: dict, vectors, lattices) -> str | None:
    """The three defining conditions of an adapted basis (module docstring
    of ``fibsurf.adapted``)."""
    g, d = x["g"], x["d"]
    u_lat, a_lat, e_lat, gram = lattices
    if len(vectors) != 2 * g:
        return f"expected {2 * g} vectors, got {len(vectors)}"
    u = {i: vectors[i - 1] for i in range(1, 2 * g - 1)}
    u[2 * g + 1], u[2 * g + 2] = vectors[2 * g - 2], vectors[2 * g - 1]
    u[2 * g - 1] = [d * p - q for p, q in zip(u[2 * g + 1], u[g])]
    u[2 * g] = [d * p - q for p, q in zip(u[2 * g + 2], u[g - 1])]
    if not u_lat.unimodular_coords(vectors):
        return "listed vectors are not a basis of U"
    part_a = [u[i] for i in range(1, g)] + [u[i] for i in range(g + 1, 2 * g)]
    if not a_lat.unimodular_coords(part_a):
        return "U_A part is not a basis of U_A"
    h = g - 1
    want_a = [[0] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        div = d if i == h - 1 else 1
        want_a[i][h + i], want_a[h + i][i] = div, -div
    if _pairings(gram, part_a) != want_a:
        return "U_A part is not symplectic of type (1, ..., 1, d)"
    part_e = [u[g], u[2 * g]]
    if not e_lat.unimodular_coords(part_e):
        return "U_E part is not a basis of U_E"
    if _pairings(gram, part_e) != [[0, d], [-d, 0]]:
        return "U_E part is not symplectic of type (d)"
    return None


def in_gamma_d(m, d: int) -> bool:
    (a, b), (c, e) = m
    return a * e - b * c == 1 and (a - 1) % d == 0 and b % d == 0 and c % d == 0 and (e - 1) % d == 0


def lattice_oracle(x: dict, out: dict) -> str | None:
    lattices = (_Sublattice(x["U"]), _Sublattice(x["U_A"]), _Sublattice(x["U_E"]), _qq(x["gram"]))
    if out["verified"] is not True:
        return "is_adapted_basis returned False for the constructed basis"
    reason = _adapted_reason(x, out["vectors"], lattices)
    if reason:
        return "constructed basis: " + reason
    member = in_gamma_d(x["M"], x["d"])
    if (out["moved"] is not None) != member:
        return f"change_basis {'failed' if member else 'succeeded'} for M={x['M']}, d={x['d']}"
    if out["moved"] is not None:
        reason = _adapted_reason(x, out["moved"], lattices)
        if reason:
            return "moved basis: " + reason
    return None


# ---------------------------------------------------------------- periods


def closed_form_t(x: dict) -> list[list[complex]]:
    """T = [[S Z S, S c], [c^t S, z/d]] with S = diag(1, ..., 1, 1/d) and
    c = (0, ..., 0, 1)^t (the normalization stated in fibsurf.periods)."""
    g, d = x["g"], x["d"]
    h = g - 1
    s = [1.0] * (h - 1) + [1.0 / d]
    z_mat = [[complex(*v) for v in row] for row in x["Z"]]
    t = [[0j] * g for _ in range(g)]
    for r in range(h):
        for c in range(h):
            t[r][c] = s[r] * z_mat[r][c] * s[c]
    t[h - 1][h] = t[h][h - 1] = complex(s[h - 1])
    t[h][h] = complex(*x["z"]) / d
    return t


def periods_oracle(x: dict, out: dict) -> str | None:
    want = closed_form_t(x)
    got = [[complex(*v) for v in row] for row in out["T"]]
    if len(got) != len(want) or any(len(r) != len(want) for r in got):
        return "T has the wrong shape"
    worst = max(abs(a - b) for ra, rb in zip(got, want) for a, b in zip(ra, rb))
    if not worst < TOL:
        return f"T differs from the closed form by {worst:.3e}"
    for key in ("monodromy_defect", "gamma_defect"):
        if not out[key] < TOL:
            return f"{key} = {out[key]:.3e} is not below {TOL}"
    return None


# ----------------------------------------------------------------- levels


def delta_d(d: int) -> Fraction:
    value = Fraction(d * d, 24)
    for p in factorint(d):
        value *= Fraction(p * p - 1, p * p)
    return value


def expected_rows(d: int) -> tuple[list, list]:
    """Both invariant tables from the formulas in the fibsurf.invariants
    docstrings, with Delta_d from sympy's factorisation."""
    dl = delta_d(d)
    gx = (d - 6) * dl + 1

    def ints(*vals):
        return [str(v) if v.denominator == 1 else None for v in vals]

    s2, c2, chi2, k2 = ints((5 * d - 6) * dl, (9 * d - 18) * dl, (2 * d - 6) * dl, (15 * d - 54) * dl)
    g2 = [str(2), str(d), str(dl), str(gx)] + [s2, c2, chi2, k2] + [None] * 5
    g2.append(chi2 is not None and Fraction(chi2) > 0 and Fraction(k2) > 0)
    gb, c3, chi3, k3, tau, lam, d0, hh = ints(
        (20 * d - 36) * dl + 1, (160 * d - 264) * dl, (42 * d - 72) * dl,
        (344 * d - 600) * dl, (8 * d - 24) * dl, 2 * d * dl, 24 * dl, (36 * d - 48) * dl,
    )
    g3 = [str(3), str(d), str(dl), gb, "0", c3, chi3, k3, tau, hh, lam, d0, "0"]
    g3.append(chi3 is not None and Fraction(chi3) > 0 and Fraction(k3) > 0)
    return g2, g3


def levels_oracle(d: int, out: dict) -> str | None:
    g2, g3 = expected_rows(d)
    if out["g2"] != g2:
        return f"genus-2 row at d={d} is {out['g2']}, expected {g2}"
    if out["g3"] != g3:
        return f"genus-3 row at d={d} is {out['g3']}, expected {g3}"
    if out["checks"] != [[name, True] for name in IDENTITY_NAMES]:
        return f"identity checks at d={d} are {out['checks']}"
    return None


# -------------------------------------------------------------------- cli


def cli_oracle(argv: list[str], out: dict, expected: dict) -> str | None:
    if out["returncode"] != 0:
        return f"exit code {out['returncode']}: {out['stderr'][-200:]!r}"
    want = expected.get(cli_key(argv))
    if want is None:
        return "no recorded output for this input"
    if out["stdout"] != want:
        return "stdout differs from the recorded bytes"
    return None


# ------------------------------------------------------------------ shared


def check(workload: str, x, out: dict, expected_cli: dict) -> str | None:
    if "error" in out:
        return out["error"]
    if workload == "lattice":
        return lattice_oracle(x, out)
    if workload == "periods":
        return periods_oracle(x, out)
    if workload == "levels":
        return levels_oracle(x, out)
    return cli_oracle(x, out, expected_cli)


def corrupt(workload: str, out: dict) -> dict:
    """A copy of ``out`` with one value damaged in a way a correct oracle
    must reject."""
    bad = copy.deepcopy(out)
    if workload == "lattice":
        bad["vectors"][0][0] += 1
    elif workload == "periods":
        bad["T"][0][0][0] += 1e-6
    elif workload == "levels":
        bad["g3"][6] = str(int(bad["g3"][6]) + 1)
    else:
        bad["stdout"] += " "
    return bad
