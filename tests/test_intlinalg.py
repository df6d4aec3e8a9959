"""Exact integer linear algebra, cross-checked against sympy."""

from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsurf import (
    DimensionMismatch,
    IntMatrix,
    InvalidArgument,
    char_poly,
    smith_normal_form,
)
from fibsurf.adapted import _xgcd
from fibsurf.intlinalg import _column_lattice_basis, _unimodular_inverse
from helpers import random_unimodular, reference_smith_form


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_xgcd_bezout():
    rng = Random(101)
    for _ in range(300):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        g, s, t = _xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_xgcd_edge_cases():
    assert _xgcd(0, 0)[0] == 0
    g, s, t = _xgcd(0, -7)
    assert g == 7 and s * 0 + t * (-7) == 7
    g, s, t = _xgcd(12, 18)
    assert g == 6


def test_matrix_arithmetic_round_trip():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a * IntMatrix.identity(2) == a
    assert (-a) + a == IntMatrix.zero(2, 2)
    assert a.transpose().transpose() == a
    assert a.power(0) == IntMatrix.identity(2)
    assert a.power(3) == a * a * a


def test_matrix_shape_errors():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * IntMatrix([[1], [2], [3]])


def test_det_against_sympy():
    rng = Random(103)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            m = random_matrix(rng, n, n)
            assert m.det() == int(sympy.Matrix(m.tolists()).det())


def test_det_requires_square():
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_char_poly_against_sympy():
    rng = Random(104)
    x = sympy.symbols("x")
    for n in (1, 2, 3, 4):
        for _ in range(15):
            m = random_matrix(rng, n, n, bound=5)
            ours = char_poly(m)
            theirs = sympy.Matrix(m.tolists()).charpoly(x).all_coeffs()
            assert list(ours) == [int(c) for c in theirs]


def test_smith_form_postconditions():
    rng = Random(105)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=7)
        snf = smith_normal_form(m)
        assert snf.s * m * snf.t == snf.d
        assert snf.s * snf.s_inv == IntMatrix.identity(rows)
        assert snf.t * snf.t_inv == IntMatrix.identity(cols)
        diag = snf.diagonal()
        assert all(v >= 0 for v in diag)
        nonzero = [v for v in diag if v]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal entries vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert snf.d[i, j] == 0


def test_smith_diagonal_against_sympy():
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = Random(106)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, bound=6)
        ours = [v for v in smith_normal_form(m).diagonal() if v]
        theirs = [
            abs(int(v)) for v in sympy_snf(sympy.Matrix(m.tolists())).diagonal() if v
        ]
        assert ours == theirs


def test_rank_against_sympy():
    rng = Random(107)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        assert smith_normal_form(m).rank() == sympy.Matrix(m.tolists()).rank()


def test_factored_solve_round_trip():
    rng = Random(108)
    hits = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, bound=5)
        x = random_matrix(rng, n, rng.randint(1, 3), bound=5)
        b = a * x
        sol = smith_normal_form(a).solve(b)
        if sol is not None:
            assert a * sol == b
            hits += 1
    assert hits > 40  # most constructed systems must be recognized


def test_factored_solve_no_solution():
    a = IntMatrix([[2, 0], [0, 2]])
    b = IntMatrix([[1], [1]])
    assert smith_normal_form(a).solve(b) is None


def test_invert_unimodular():
    rng = Random(109)
    for n in (1, 2, 3, 4, 6):
        for _ in range(10):
            m = random_unimodular(rng, n)
            assert m.det() in (1, -1)
            inv = _unimodular_inverse(m)
            assert m * inv == IntMatrix.identity(n)
            assert inv * m == IntMatrix.identity(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: IntMatrix.identity(2.5),
        lambda: IntMatrix.identity(True),
        lambda: IntMatrix.zero(2, 1.5),
        lambda: IntMatrix.zero("2", 2),
    ],
    ids=["identity-float", "identity-bool", "zero-float", "zero-str"],
)
def test_dimensions_that_are_not_ints_are_refused(call):
    """These used to end in a raw TypeError (or, for a bool, a 1x1 matrix)."""
    with pytest.raises(InvalidArgument, match="matrix dimension"):
        call()


def test_column_lattice_basis_spans_same_lattice():
    rng = Random(110)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=4)
        basis = _column_lattice_basis(m)
        assert len(basis) == smith_normal_form(m).rank()
        if not basis:
            assert m.is_zero()
            continue
        b = IntMatrix.from_columns(basis)
        # every original column is an integer combination of the basis ...
        assert smith_normal_form(b).solve(m) is not None
        # ... and conversely
        assert smith_normal_form(m).solve(b) is not None


def test_mat_vec_and_pairing():
    from fibsurf.adapted import _mat_vec, _pairing

    m = IntMatrix([[1, 2], [3, 4]])
    assert _mat_vec(m, (1, 1)) == (3, 7)
    j = IntMatrix([[0, 1], [-1, 0]])
    assert _pairing(j, (1, 0), (0, 1)) == 1
    assert _pairing(j, (0, 1), (1, 0)) == -1


def test_immutability():
    m = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5


@pytest.mark.parametrize(
    "entries",
    [
        ["12"], "3", [b"12"], [bytearray(b"12")], b"12", bytearray(b"12"), [[1, 2], ""],
        iter([[1, 2], "34"]),
    ],
    ids=[
        "str-row", "str", "bytes-row", "bytearray-row", "bytes", "bytearray", "empty-str-row",
        "iterator",
    ],
)
def test_text_is_no_matrix_and_no_row(entries):
    """["12"] was read as the row 1 2, "3" as [3] and [b"12"] as the
    character codes [49 50]."""
    with pytest.raises(InvalidArgument, match="text"):
        IntMatrix(entries)


def test_rows_are_read_once():
    """One-shot rows and matrices are read once, and a decimal string is
    still an entry."""
    want = IntMatrix([[1, 2], [3, 4]])
    assert IntMatrix(iter([[1, "2"], ("3", 4)])) == want
    assert IntMatrix((x for x in r) for r in ((1, 2), (3, 4))) == want


def test_power_rejects_negative_exponent():
    with pytest.raises(DimensionMismatch):
        IntMatrix([[1, 1], [1, 1]]).power(-1)
    m = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(InvalidArgument, match="scale factor"):
        m.scale(0.5)
    for k in (2.5, True):
        with pytest.raises(InvalidArgument, match="exponent"):
            m.power(k)


BIG = st.integers(-10**30, 10**30)
LEFT_ENTRIES = {
    "zeros": st.just(0),
    "units": st.sampled_from((1, -1, 1, -1, 0)),
    "dense": BIG.filter(bool),
    "mixed": st.one_of(st.just(0), st.sampled_from((1, -1)), BIG),
}


def _matrix(draw, rows, cols, entries):
    flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    return IntMatrix([flat[i * cols:(i + 1) * cols] for i in range(rows)])


@st.composite
def product_operands(draw):
    """(A, B) with A of shape 1 x n, n x 1, n x n (n <= 8) or, rarely,
    12 x 12 or 20 x 20; A's entries come from one of the styles in
    LEFT_ENTRIES, so both sides of the zero-count threshold are reached."""
    shape = draw(st.sampled_from(("row", "column", "square", "square", "square", "large")))
    n = draw(st.integers(1, 8))
    if shape == "row":
        r, k, c = 1, n, draw(st.integers(1, 8))
    elif shape == "column":
        r, k, c = n, 1, draw(st.integers(1, 8))
    elif shape == "square":
        r = k = c = n
    else:
        r = k = c = draw(st.sampled_from((12, 20)))
    style = draw(st.sampled_from(sorted(LEFT_ENTRIES)))
    return _matrix(draw, r, k, LEFT_ENTRIES[style]), _matrix(draw, k, c, BIG)


@settings(max_examples=250, deadline=None)
@given(product_operands())
def test_product_matches_triple_loop(operands):
    a, b = operands
    want = [
        [sum(a[i, t] * b[t, j] for t in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    prod = a * b
    assert prod.tolists() == want
    assert all(type(r) is tuple for r in prod.entries())
    for m in (a, b):
        cols = m.columns()
        assert cols == [m.column(j) for j in range(m.cols)]
        assert all(type(c) is tuple for c in cols)


def test_product_at_the_zero_threshold():
    """A quarter of zeros takes the row-combination kernel and one zero
    fewer the dot-product kernel; both give the same product."""
    b = IntMatrix([[3, -1, 2, 5], [7, 0, -4, 1], [2, 2, 9, -3], [-6, 5, 1, 8]])
    quarter = IntMatrix([[0, 1, -1, 2], [3, 0, -1, 1], [1, 5, 0, -2], [-1, 4, 2, 0]])
    below = IntMatrix([[0, 1, -1, 2], [3, 0, -1, 1], [1, 5, 0, -2], [-1, 4, 2, 6]])
    for a in (quarter, below):
        assert (a * b).tolists() == (sympy.Matrix(a.tolists()) * sympy.Matrix(b.tolists())).tolist()


@st.composite
def smith_inputs(draw):
    """Matrices up to 6 x 6 whose eliminations hit the pivot rule's edge
    cases: +-1 ties, zero, singular and rank-deficient matrices, and large
    entries."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("units", "small", "zero", "singular", "low_rank", "large")))
    if kind == "zero":
        return IntMatrix.zero(rows, cols)
    if kind == "low_rank":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        small = st.integers(-3, 3)
        return _matrix(draw, rows, k, small) * _matrix(draw, k, cols, small)
    if kind == "singular":
        n = max(rows, 2)
        m = _matrix(draw, n - 1, n, st.integers(-4, 4)).tolists()
        c = draw(st.sampled_from((1, -1, 2)))
        return IntMatrix(m + [[c * x for x in m[draw(st.integers(0, n - 2))]]])
    entries = {
        "units": st.sampled_from((1, -1, 0)),
        "small": st.integers(-4, 4),
        "large": st.integers(-10**12, 10**12),
    }[kind]
    return _matrix(draw, rows, cols, entries)


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_smith_pivot_rule_matches_reference(m):
    """Stopping the pivot search at a unit and skipping the divisibility
    scan for a +-1 pivot leave D, S and T unchanged."""
    snf = smith_normal_form(m)
    assert (snf.d.entries(), snf.s.entries(), snf.t.entries()) == reference_smith_form(m)
