"""Period-matrix family: sections, Riemann relations, the congruence-group
action and the monodromy matrices at the cusp."""

import math
from collections import Counter
from random import Random

import numpy as np
import pytest
import sympy

from fibsurf import (
    DISTINGUISHED,
    INCONCLUSIVE,
    IRREGULAR,
    REGULAR,
    AlternatingForm,
    DimensionMismatch,
    IntMatrix,
    InvalidArgument,
    InvalidPeriodData,
    NotInGammaD,
    PeriodData,
    PolarizationType,
    RiemannRelationViolation,
    UnsupportedCombination,
    block_normal_gram,
    canonical_problem,
    construct_adapted_basis,
    coprincipal_type,
    default_tolerance,
    distinguish_monodromies,
    gamma_action,
    gamma_action_defect,
    is_symplectic,
    lattice_sections,
    monodromy_at_cusp,
    monodromy_translation_defect,
    period_matrix,
    polarization_type,
    section_pairing_gram,
    siegel_action,
)
from fibsurf.intlinalg import _unimodular_inverse
import fibsurf.lattice_core
import fibsurf.periods
from fibsurf.periods import (
    _MAX_DEGREE,
    _smallest_cholesky_pivot,
    _unit_diagonal_cholesky_pivot,
)
from helpers import gram_in_basis, random_gamma_d_element, random_symplectic


def reference_point(g, d, tol=1e-9):
    """i*Identity in both factors."""
    h = g - 1
    z_rows = tuple(tuple(1j if i == j else 0j for j in range(h)) for i in range(h))
    return PeriodData(g=g, d=d, Z=z_rows, z=1j, tol=tol)


def random_point(rng: Random, g: int, d: int, tol=1e-9) -> PeriodData:
    """Random (Z, z): Im Z = A A^T + margin, Re Z symmetric, Im z > 0."""
    h = g - 1
    a = np.array([[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)])
    im = a @ a.T + 0.3 * np.eye(h)
    re = np.array([[rng.uniform(-1, 1) for _ in range(h)] for _ in range(h)])
    re = (re + re.T) / 2.0
    z_mat = re + 1j * im
    z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
    return PeriodData(g=g, d=d, Z=tuple(tuple(row) for row in z_mat), z=z, tol=tol)


# ---------------------------------------------------------------- validation


def test_period_data_accepts_small_im_z():
    """Im Z, like Im T, is scaled to unit diagonal before its smallest
    Cholesky pivot is compared with tol, so its size does not matter."""
    for g, z_mat in ((2, ((1e-10j,),)), (3, ((1e-10j, 0), (0, 2e-12j)))):
        p = PeriodData(g=g, d=3, Z=z_mat, z=1j)
        t = np.array(period_matrix(p).T)
        assert np.linalg.eigvalsh((t.imag + t.imag.T) / 2).min() > 0


def test_period_data_validation():
    with pytest.raises(InvalidPeriodData):
        PeriodData(g=4, d=3, Z=((1j, 0), (0, 1j)), z=1j)
    with pytest.raises(InvalidPeriodData):
        PeriodData(g=3, d=1, Z=((1j, 0), (0, 1j)), z=1j)
    with pytest.raises(InvalidPeriodData):  # non-integer degree
        PeriodData(g=2, d=2.5, Z=((1j,),), z=1j)
    with pytest.raises(InvalidPeriodData):  # non-integer genus
        PeriodData(g=2.0, d=3, Z=((1j,),), z=1j)
    with pytest.raises(InvalidPeriodData):  # Z not symmetric
        PeriodData(g=3, d=3, Z=((1j, 0.5), (0.2, 1j)), z=1j)
    with pytest.raises(InvalidPeriodData):  # Im Z not positive definite
        PeriodData(g=3, d=3, Z=((1j, 0), (0, -1j)), z=1j)
    with pytest.raises(InvalidPeriodData):  # Im Z only semidefinite
        PeriodData(g=2, d=3, Z=((0j,),), z=1j)
    with pytest.raises(InvalidPeriodData):  # Im Z singular, unit diagonal
        PeriodData(g=3, d=3, Z=((1j, 1j), (1j, 1j)), z=1j)
    with pytest.raises(InvalidPeriodData):  # z on the real axis
        PeriodData(g=3, d=3, Z=((1j, 0), (0, 1j)), z=0.5)
    with pytest.raises(InvalidPeriodData):  # wrong shape
        PeriodData(g=3, d=3, Z=((1j,),), z=1j)
    with pytest.raises(InvalidPeriodData):  # malformed entries
        PeriodData(g=2, d=3, Z=(("spam",),), z=1j)
    with pytest.raises(InvalidPeriodData):
        PeriodData(g=2, d=3, Z=((1j,),), z=1j, tol=-1.0)


@pytest.mark.parametrize("z_mat", ["j", ["j"], [b"j"]], ids=["str", "str-row", "bytes-row"])
def test_period_data_refuses_text_for_z(z_mat):
    """Z="j" was read one character at a time, as ((1j,),), and accepted."""
    with pytest.raises(InvalidPeriodData, match="text"):
        PeriodData(g=2, d=2, Z=z_mat, z=1j)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fields",
    [
        {"Z": ((complex(NAN, 1),),)},
        {"Z": ((complex(0, INF),),)},
        {"z": complex(NAN, 1)},
        {"z": complex(0, INF)},
        {"tol": INF},
        {"tol": NAN},
    ],
    ids=["Z-nan", "Z-inf", "z-nan", "z-inf", "tol-inf", "tol-nan"],
)
def test_period_data_rejects_non_finite(fields):
    kwargs = {"g": 2, "d": 3, "Z": ((1j,),), "z": 1j, "tol": 1e-9, **fields}
    with pytest.raises(InvalidPeriodData):
        PeriodData(**kwargs)


@pytest.mark.parametrize("tol", [None, "1e-9", True], ids=["None", "str", "bool"])
def test_period_data_refuses_a_tolerance_that_is_no_real_number(tol):
    """None and a string once ended in a raw TypeError from the range
    check, and True was read as the tolerance 1."""
    with pytest.raises(InvalidPeriodData, match="real number"):
        PeriodData(g=2, d=3, Z=((1j,),), z=1j, tol=tol)


def test_an_omitted_tolerance_is_read_when_the_point_is_built(monkeypatch):
    monkeypatch.setenv("FIBSURF_TOL", "1e-6")
    p = PeriodData(g=2, d=3, Z=((1j,),), z=1j)
    monkeypatch.setenv("FIBSURF_TOL", "1e-3")
    assert p.tol == 1e-6 and PeriodData(g=2, d=3, Z=((1j,),), z=1j).tol == 1e-3


def test_period_data_refuses_degrees_beyond_normal_doubles():
    """Im T has the entry Im(Z)/d^2, so a degree whose 1/d^2 is not a
    normal double is refused before any float is formed; the largest
    accepted degree still gives a verified T."""
    assert _MAX_DEGREE == 2**511
    for g in (2, 3):
        with pytest.raises(InvalidPeriodData, match=r"at most 2\*\*511"):
            reference_point(g, _MAX_DEGREE + 1)
        t = period_matrix(reference_point(g, _MAX_DEGREE)).T
        assert t[g - 2][g - 2] == complex(0, 2.0**-1022) and t[g - 1][g - 2] == 2.0**-511


def test_default_tolerance_env(monkeypatch):
    monkeypatch.delenv("FIBSURF_TOL", raising=False)
    assert default_tolerance() == 1e-9
    monkeypatch.setenv("FIBSURF_TOL", "1e-6")
    assert default_tolerance() == 1e-6
    monkeypatch.setenv("FIBSURF_TOL", "0")
    assert default_tolerance() == 0.0
    for bad in ("abc", "-1e-6", "inf", "nan", "-inf"):
        monkeypatch.setenv("FIBSURF_TOL", bad)
        with pytest.raises(InvalidPeriodData, match="FIBSURF_TOL"):
            default_tolerance()


# ------------------------------------------------------------------ sections


def test_sections_frozen_example():
    """g=3, d=3, Z=iI, z=i, written out by hand from the section formulas."""
    p = reference_point(3, 3)
    secs = lattice_sections(p)
    i = 1j
    expected = [
        (i, 0, 0),
        (0, i, 0),
        (0, 0, i),
        (1, 0, 0),
        (0, 3, 0),
        (0, 0, 1),
        (0, 1, i / 3),
        (0, i / 3, 1 / 3),
    ]
    assert len(secs) == 8
    for k, want in enumerate(expected, start=1):
        got = np.array(secs[k - 1])
        assert np.max(np.abs(got - np.array(want))) < 1e-12, f"u_{k}"


def test_sections_glue_relations():
    """d*u_{2g+1} = u_{2g-1} + u_g and d*u_{2g+2} = u_{2g} + u_{g-1}."""
    rng = Random(501)
    for g in (2, 3):
        for d in (2, 3, 5):
            p = random_point(rng, g, d)
            s = np.array(lattice_sections(p))

            def u(k):  # 1-based, as in the formulas
                return s[k - 1]

            assert np.max(np.abs(d * u(2 * g + 1) - u(2 * g - 1) - u(g))) < 1e-12
            assert np.max(np.abs(d * u(2 * g + 2) - u(2 * g) - u(g - 1))) < 1e-12


# ------------------------------------------------------------- period matrix


def test_period_matrix_frozen_example():
    p = reference_point(3, 3)
    t = np.array(period_matrix(p).T)
    want = np.diag([1j, 1j / 9, 1j / 3])
    want[1, 2] = want[2, 1] = 1.0 / 3
    assert np.max(np.abs(t - want)) < 1e-12


def test_period_matrix_riemann_relations():
    rng = Random(502)
    for g in (2, 3):
        for d in (3, 4, 5):
            for _ in range(5):
                p = random_point(rng, g, d)
                t = np.array(period_matrix(p).T)
                assert np.max(np.abs(t - t.T)) <= p.tol
                eigs = np.linalg.eigvalsh((t.imag + t.imag.T) / 2)
                assert eigs.min() > 0


def test_period_matrix_large_degree():
    """Im T spans Im(Z)/d^2 .. Im(z)/d; positivity is judged after scaling
    to unit diagonal, so large degrees pass at the default tolerance."""
    rng = Random(509)
    for g in (2, 3):
        for d in (10**5, 10**8):
            points = [reference_point(g, d)] + [random_point(rng, g, d) for _ in range(3)]
            for p in points:
                t = np.array(period_matrix(p).T)
                assert abs(t[g - 1, g - 2] - 1.0 / d) <= p.tol
                eigs = np.linalg.eigvalsh((t.imag + t.imag.T) / 2)
                assert eigs.min() > 0


def test_period_matrix_refuses_semidefinite_im_t(monkeypatch):
    """A symmetric T whose imaginary part is singular is still refused."""
    singular = ((0.5 + 1j, 1j), (1j, 0.25 + 1j))
    monkeypatch.setattr(fibsurf.periods, "_solve", lambda a, b: singular)
    with pytest.raises(RiemannRelationViolation, match="positive definite"):
        period_matrix(reference_point(2, 3))


def test_period_matrix_is_kept_on_the_point():
    """The verified T is stored on the point; equality, hashing and repr
    do not see it."""
    p, q = reference_point(3, 4), reference_point(3, 4)
    pm = period_matrix(p)
    assert period_matrix(p) is pm
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert period_matrix(q) == pm


def test_point_with_its_period_matrix_encodes_as_before():
    from fibsurf.serialize import to_jsonable

    p, q = reference_point(3, 4), reference_point(3, 4)
    period_matrix(p)
    assert to_jsonable(p) == to_jsonable(q)
    assert sorted(to_jsonable(p)) == ["Z", "d", "g", "tol", "z"]


def test_period_matrix_labels():
    pm = period_matrix(reference_point(2, 4))
    assert pm.basis_labels == ("alpha_1", "alpha_2", "beta_1", "beta_2")


# ------------------------------------------------------------- gamma action


def test_gamma_action_identity():
    p = reference_point(3, 3)
    q, l_mat = gamma_action(p, IntMatrix.identity(2))
    assert q.z == p.z
    assert l_mat == IntMatrix.identity(6)


def test_gamma_action_translation_matrix():
    p = reference_point(3, 3)
    _, l_mat = gamma_action(p, IntMatrix([[1, 3], [0, 1]]))
    want = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    want[5][2] = -3
    assert l_mat == IntMatrix(want)


def test_gamma_action_requires_congruence():
    p = reference_point(3, 3)
    with pytest.raises(NotInGammaD):
        gamma_action(p, IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(DimensionMismatch):
        gamma_action(p, IntMatrix.identity(3))


@pytest.mark.parametrize(
    "m", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]], ids=["2x3", "3x2"]
)
def test_gamma_action_refuses_a_matrix_that_is_not_2x2(m):
    p = reference_point(2, 3)
    for action in (gamma_action, gamma_action_defect):
        with pytest.raises(DimensionMismatch, match="2x2"):
            action(p, IntMatrix(m))


@pytest.mark.parametrize(
    "m", [[[1, 0], [3 * 10**400, 1]], [[1, 3 * 10**400], [0, 1]]]
)
def test_gamma_action_refuses_entries_beyond_floats(m):
    """Once an OverflowError traceback from the Moebius step."""
    p = reference_point(2, 3)
    with pytest.raises(InvalidPeriodData, match="floating point"):
        gamma_action(p, IntMatrix(m))
    with pytest.raises(InvalidPeriodData):
        gamma_action_defect(p, IntMatrix(m))


def test_gamma_action_cocycle():
    """L is a homomorphism on the congruence group (exact integers)."""
    rng = Random(503)
    p = reference_point(3, 4)
    for _ in range(20):
        m1 = random_gamma_d_element(rng, 4)
        m2 = random_gamma_d_element(rng, 4)
        _, l1 = gamma_action(p, m1)
        _, l2 = gamma_action(p, m2)
        _, l12 = gamma_action(p, m1 * m2)
        assert l12 == l1 * l2


def test_gamma_action_moves_z_by_moebius():
    p = reference_point(2, 5)
    m = IntMatrix([[1, 5], [0, 1]]) * IntMatrix([[1, 0], [5, 1]])
    q, _ = gamma_action(p, m)
    al, be, ga, de = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    assert abs(q.z - (al * p.z + be) / (ga * p.z + de)) < 1e-15
    assert q.Z == p.Z


def test_gamma_action_checks_the_moved_point():
    """Im(Mz) underflows to 0 at this point, so Mz is not in the upper half
    plane although z is: the moved point is still checked."""
    p = PeriodData(g=2, d=3, Z=((1j,),), z=0.5 + 1e-305j)
    m = IntMatrix([[1, 0], [3 * 10**10, 1]])
    for act in (gamma_action, gamma_action_defect):
        with pytest.raises(InvalidPeriodData, match="z must lie in the upper half plane"):
            act(p, m)


def test_gamma_action_moved_point_equals_a_validated_one():
    rng = Random(512)
    for g, d in ((2, 3), (3, 5)):
        p = random_point(rng, g, d)
        q, _ = gamma_action(p, random_gamma_d_element(rng, d))
        assert q == PeriodData(g=g, d=d, Z=p.Z, z=q.z, tol=p.tol)
        assert period_matrix(q) == period_matrix(PeriodData(g=g, d=d, Z=p.Z, z=q.z, tol=p.tol))


def test_gamma_action_defect_small():
    """The lattice identity holds to near machine precision."""
    rng = Random(504)
    for g, d in ((2, 3), (3, 3), (3, 5)):
        p = reference_point(g, d)
        for _ in range(6):
            m = random_gamma_d_element(rng, d, max_len=4)
            assert gamma_action_defect(p, m) < 1e-9
        p = random_point(rng, g, d)
        for _ in range(4):
            m = random_gamma_d_element(rng, d, max_len=3)
            assert gamma_action_defect(p, m) < 1e-7


def test_gamma_action_frame_conjugation():
    """Conjugating L(z -> z+d) into the symplectic (alpha, beta)-frame gives
    the inverse transpose of the regular monodromy matrix, exactly.

    The frame change divides u_{g-1}, u_g by d and mixes in u_{2g}, u_{2g-1}
    (alpha_{g-1} = (u_{g-1} + u_{2g}) / d, alpha_g = (u_g + u_{2g-1}) / d),
    so the computation runs over the rationals.
    """
    for g, d in ((2, 3), (3, 3), (3, 4)):
        p = reference_point(g, d)
        _, l_mat = gamma_action(p, IntMatrix([[1, d], [0, 1]]))
        n = 2 * g
        f = sympy.eye(n)
        f[g - 2, g - 2] = sympy.Rational(1, d)
        f[n - 1, g - 2] = sympy.Rational(1, d)
        f[g - 1, g - 1] = sympy.Rational(1, d)
        f[n - 2, g - 1] = sympy.Rational(1, d)
        s = f.inv() * sympy.Matrix(l_mat.tolists()) * f
        want = sympy.eye(n)
        want[n - 1, g - 1] = -1
        assert s == want
        mono = monodromy_at_cusp(g, d, REGULAR).m.m
        assert sympy.Matrix(mono.tolists()) == s.inv().T


# ---------------------------------------------------------------- monodromy


def test_regular_monodromy_shape():
    for g in (2, 3):
        for d in (2, 3, 7):
            mono = monodromy_at_cusp(g, d, REGULAR)
            assert mono.cusp_case == REGULAR
            m = mono.m.m
            want = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
            want[g - 1][2 * g - 1] = 1
            assert m == IntMatrix(want)
            assert is_symplectic(m, g)


def test_irregular_monodromy_frozen():
    mono = monodromy_at_cusp(3, 2, IRREGULAR)
    assert mono.cusp_case == IRREGULAR
    assert mono.m.m == IntMatrix(
        [
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, -1),
            (0, 0, -1, 0, 1, -1),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, -1),
        ]
    )
    assert is_symplectic(mono.m.m, 3)


def test_monodromy_char_polys():
    x = sympy.symbols("x")
    reg = monodromy_at_cusp(3, 2, REGULAR).m.m
    irr = monodromy_at_cusp(3, 2, IRREGULAR).m.m
    p_reg = sympy.Matrix(reg.tolists()).charpoly(x).as_expr()
    p_irr = sympy.Matrix(irr.tolists()).charpoly(x).as_expr()
    assert sympy.expand(p_reg - (x - 1) ** 6) == 0
    assert sympy.expand(p_irr - (x - 1) ** 4 * (x + 1) ** 2) == 0


def test_monodromy_unsupported_combinations():
    with pytest.raises(UnsupportedCombination):
        monodromy_at_cusp(4, 3, REGULAR)
    with pytest.raises(UnsupportedCombination):
        monodromy_at_cusp(3, 3, IRREGULAR)
    with pytest.raises(UnsupportedCombination):
        monodromy_at_cusp(2, 2, IRREGULAR)
    with pytest.raises(UnsupportedCombination):
        monodromy_at_cusp(3, 2, "Sideways")


def test_monodromy_translation_identity():
    """Acting by the regular monodromy on T(z) lands on T(z + d)."""
    rng = Random(505)
    for g in (2, 3):
        for d in (2, 3, 5):
            assert monodromy_translation_defect(reference_point(g, d)) < 1e-12
            p = random_point(rng, g, d)
            assert monodromy_translation_defect(p) < 1e-9


def test_each_constant_and_point_checked_once(monkeypatch):
    """One criterion-6 operation (T, both defects) validates its point in
    full once and solves T at its two points, z and z + d, once each; the
    regular monodromy is verified symplectic once per genus."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(PeriodData, "__init__", counting("validate", PeriodData.__init__))
    monkeypatch.setattr(fibsurf.periods, "PeriodMatrix", counting("solve", fibsurf.periods.PeriodMatrix))
    monkeypatch.setattr(
        fibsurf.lattice_core, "is_symplectic", counting("symplectic", fibsurf.lattice_core.is_symplectic)
    )
    fibsurf.periods._monodromy.cache_clear()  # start from an empty cache
    rng = Random(513)
    for g, d in ((2, 3), (3, 4), (2, 5), (3, 3)):
        counts["validate"] = counts["solve"] = 0
        p = random_point(rng, g, d)
        period_matrix(p)
        assert monodromy_translation_defect(p) < 1e-9
        assert gamma_action_defect(p, random_gamma_d_element(rng, d, max_len=3)) < 1e-7
        assert (counts["validate"], counts["solve"]) == (1, 2)
    assert counts["symplectic"] == 2


def test_both_cusp_monodromies_built_once(monkeypatch):
    """The irregular monodromy, like the regular one, is built and verified
    symplectic once; it was built again on every call."""
    original = fibsurf.lattice_core.is_symplectic
    calls = []
    monkeypatch.setattr(
        fibsurf.lattice_core, "is_symplectic", lambda *args: calls.append(args) or original(*args)
    )
    fibsurf.periods._monodromy.cache_clear()  # start from an empty cache
    first = [monodromy_at_cusp(3, 2, case) for case in (REGULAR, IRREGULAR)]
    again = [monodromy_at_cusp(3, 2, case) for case in (REGULAR, IRREGULAR)]
    assert len(calls) == 2 and all(a is b for a, b in zip(first, again))


def test_siegel_action_dimension_check():
    with pytest.raises(DimensionMismatch):
        siegel_action(IntMatrix.identity(4), np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatch):
        siegel_action(IntMatrix.identity(4), [[1j, 0], [0]])


@pytest.mark.parametrize(
    "t",
    ["3", ["3"], [b"3"], [bytearray(b"3")]],
    ids=["str", "str-row", "bytes-row", "bytearray-row"],
)
def test_siegel_action_refuses_text_for_t(t):
    """The string "3" was read as the 1x1 matrix [[3]], and answered."""
    with pytest.raises(InvalidArgument, match="text"):
        siegel_action(IntMatrix([[1, 1], [0, 1]]), t)
    # a decimal string is still an entry
    assert siegel_action(IntMatrix([[1, 1], [0, 1]]), [["3"]]) == ((4 + 0j,),)


@pytest.mark.parametrize("t", [[["x"]], [[None]]], ids=["malformed-str", "None"])
def test_siegel_action_refuses_entries_that_are_no_numbers(t):
    """complex() raised a raw ValueError or TypeError on these entries."""
    with pytest.raises(InvalidArgument, match="complex entries"):
        siegel_action(IntMatrix([[1, 1], [0, 1]]), t)


def test_siegel_action_matches_numpy():
    """(A T + B)(C T + D)^{-1} against numpy's inverse, for symplectic
    matrices whose C T + D needs row pivoting; nested lists in, tuples out."""
    rng = Random(507)
    for g in (2, 3):
        for d in (3, 5):
            t = np.array(period_matrix(random_point(rng, g, d)).T)
            for _ in range(10):
                m = random_symplectic(rng, g)
                got = siegel_action(m, t.tolist())
                assert isinstance(got, tuple) and all(isinstance(r, tuple) for r in got)
                blk = np.array(m.tolists(), dtype=complex)
                a, b, c, dd = blk[:g, :g], blk[:g, g:], blk[g:, :g], blk[g:, g:]
                want = (a @ t + b) @ np.linalg.inv(c @ t + dd)
                assert np.max(np.abs(np.array(got) - want)) < 1e-12


def test_siegel_action_singular_denominator():
    """J sends T to -T^{-1}, which does not exist for T = 0."""
    j = IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    with pytest.raises(InvalidArgument, match="singular"):
        siegel_action(j, [[0j, 0j], [0j, 0j]])


def test_smallest_cholesky_pivot_sign_matches_eigenvalues():
    """The pivot is positive exactly for positive definite matrices, and is
    never larger than the smallest eigenvalue."""
    rng = Random(508)
    for n in (1, 2, 3):
        for _ in range(200):
            a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            s = a @ a.T - rng.uniform(0, 0.5) * np.eye(n)
            piv = _smallest_cholesky_pivot(s.tolist())
            low = np.linalg.eigvalsh(s).min()
            assert (piv > 0) == (low > 0)
            if piv > 0:
                assert piv >= low - 1e-12
    assert math.isnan(_smallest_cholesky_pivot([[1.0, 0.0], [0.0, NAN]]))


def test_unit_diagonal_cholesky_pivot_ignores_coordinate_scale():
    """Rescaling the coordinates by positive factors leaves the pivot as it
    is; its sign still tells positive definite matrices apart."""
    rng = Random(510)
    for n in (1, 2, 3):
        for _ in range(200):
            a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            s = a @ a.T + rng.uniform(-0.2, 0.2) * np.eye(n)
            piv = _unit_diagonal_cholesky_pivot(s.tolist())
            assert (piv > 0) == (np.linalg.eigvalsh(s).min() > 0)
            scale = np.diag([10.0 ** rng.uniform(-6, 6) for _ in range(n)])
            scaled = _unit_diagonal_cholesky_pivot((scale @ s @ scale).tolist())
            if piv > 0:
                assert scaled == pytest.approx(piv, rel=1e-9)
            else:
                assert not scaled > 0
    assert _unit_diagonal_cholesky_pivot([[1.0, 0.0], [0.0, -2.0]]) == -2.0
    assert math.isnan(_unit_diagonal_cholesky_pivot([[NAN, 0.0], [0.0, 1.0]]))


# ------------------------------------------------------------ distinguishing


def test_distinguish_regular_from_irregular():
    reg = monodromy_at_cusp(3, 2, REGULAR)
    irr = monodromy_at_cusp(3, 2, IRREGULAR)
    assert distinguish_monodromies(reg, irr) == DISTINGUISHED
    assert distinguish_monodromies(reg, reg) == INCONCLUSIVE


def test_distinguish_sees_through_conjugation():
    """A symplectic conjugate of the regular matrix stays inconclusive
    against the original, but is still separated from the irregular one."""
    rng = Random(506)
    reg = monodromy_at_cusp(3, 2, REGULAR).m.m
    irr = monodromy_at_cusp(3, 2, IRREGULAR).m.m
    for _ in range(5):
        s = random_symplectic(rng, 3)
        conj = _unimodular_inverse(s) * reg * s
        assert distinguish_monodromies(reg, conj) == INCONCLUSIVE
        assert distinguish_monodromies(conj, irr) == DISTINGUISHED


def test_distinguish_accepts_mixed_input_kinds():
    reg = monodromy_at_cusp(3, 2, REGULAR)
    assert distinguish_monodromies(reg, reg.m) == INCONCLUSIVE
    assert distinguish_monodromies(reg.m.m, reg) == INCONCLUSIVE


def test_distinguish_size_mismatch():
    with pytest.raises(DimensionMismatch):
        distinguish_monodromies(
            monodromy_at_cusp(2, 2, REGULAR), monodromy_at_cusp(3, 2, REGULAR)
        )


# ------------------------------------------------------------ section grams


def test_section_pairing_gram_types():
    for g in (2, 3):
        for d in (2, 3, 4, 5, 6, 7):
            gram = section_pairing_gram(g, d)
            want_type = PolarizationType((1,) * (g - 2) + (d, d))
            assert gram == block_normal_gram(want_type), (g, d)
            assert polarization_type(AlternatingForm(gram)) == want_type
            idx = list(range(g - 1)) + list(range(g, 2 * g - 1))
            sub = gram.submatrix(idx, idx)
            restricted = polarization_type(AlternatingForm(sub))
            assert restricted == coprincipal_type(g - 1, d), (g, d)


def test_section_pairing_matches_adapted_basis():
    """The abstract Gram coincides with the Gram of an actual adapted basis
    for the canonical configuration, taken in the same vector order."""
    for g, d in ((2, 3), (3, 2), (3, 5)):
        p = canonical_problem(g, d)
        b = construct_adapted_basis(p)
        full = IntMatrix.from_columns([b.u(i) for i in range(1, 2 * g + 1)])
        assert gram_in_basis(p.form.gram, full) == section_pairing_gram(g, d)


def test_section_pairing_rejects_bad_parameters():
    with pytest.raises(DimensionMismatch):
        section_pairing_gram(1, 3)
    with pytest.raises(DimensionMismatch):
        section_pairing_gram(2, 1)
