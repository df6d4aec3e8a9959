"""Symplectic normal form, polarization types, Sp(2g, Z) membership and
conjugacy invariants."""

import math
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibsurf import (
    AlternatingForm,
    ConjugacyInvariants,
    Degenerate,
    IntMatrix,
    InvalidArgument,
    NotAlternating,
    NotCoprincipal,
    NotSymplectic,
    OddDimension,
    PolarizationType,
    SymplecticMatrix,
    associated_degree,
    block_normal_gram,
    conjugacy_invariants,
    coprincipal_type,
    frobenius_basis,
    is_symplectic,
    polarization_type,
    principal_type,
    standard_symplectic_gram,
)
from fibsurf.intlinalg import _unimodular_inverse
from helpers import (
    gram_in_basis,
    random_symplectic,
    random_unimodular,
    reference_frobenius_basis,
)


def test_standard_gram_shape():
    j = standard_symplectic_gram(2)
    assert j == IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


def test_alternating_form_rejects_bad_grams():
    with pytest.raises(NotAlternating):
        AlternatingForm(IntMatrix([[1, 0], [0, 1]]))
    with pytest.raises(NotAlternating):
        AlternatingForm(IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(NotAlternating):
        AlternatingForm(IntMatrix([[0, 1, 0], [-1, 0, 0]]))


def test_alternating_form_names_the_first_bad_entry():
    with pytest.raises(NotAlternating, match=r"nonzero diagonal entry at 1"):
        AlternatingForm(IntMatrix([[0, 1, 2], [-1, 3, 0], [-2, 0, 5]]))
    with pytest.raises(NotAlternating, match=r"gram\[0\]\[2\] != -gram\[2\]\[0\]"):
        AlternatingForm(IntMatrix([[0, 1, 2], [-1, 0, 4], [2, 4, 0]]))


def test_alternating_form_refuses_a_gram_that_is_not_an_intmatrix():
    """A list of rows used to end in a raw AttributeError."""
    with pytest.raises(InvalidArgument, match="IntMatrix"):
        AlternatingForm([[0, 1], [-1, 0]])


def test_polarization_type_divisor_chain_enforced():
    with pytest.raises(InvalidArgument):
        PolarizationType((2, 3))
    with pytest.raises(InvalidArgument):
        PolarizationType((0, 2))
    assert tuple(PolarizationType((1, 2, 4))) == (1, 2, 4)
    assert len(coprincipal_type(3, 5)) == 3
    assert principal_type(2).divisors == (1, 1)


def test_frobenius_on_block_form_is_fixed_point():
    for divisors in [(1,), (3,), (1, 2), (1, 1, 4), (2, 6)]:
        ptype = PolarizationType(divisors)
        form = AlternatingForm(block_normal_gram(ptype))
        basis, found = frobenius_basis(form)
        assert found == ptype
        assert gram_in_basis(form.gram, basis) == block_normal_gram(ptype)


def test_frobenius_postcondition_random():
    rng = Random(201)
    for _ in range(60):
        k = rng.randint(1, 3)
        chain = [rng.randint(1, 3)]
        while len(chain) < k:
            chain.append(chain[-1] * rng.randint(1, 3))
        ptype = PolarizationType(tuple(chain))
        n = 2 * k
        p = random_unimodular(rng, n)
        gram = gram_in_basis(block_normal_gram(ptype), p)
        basis, found = frobenius_basis(AlternatingForm(gram))
        assert found == ptype
        assert gram_in_basis(gram, basis) == block_normal_gram(ptype)


def test_type_recovery_under_gl_conjugation():
    """The divisor chain is a GL(2k, Z)-invariant of the form."""
    rng = Random(202)
    cases = []
    for d in range(2, 10):
        cases += [(d,), (1, d), (1, 1, d), (1, d, d)]
    cases.append((1,))
    for divisors in cases:
        ptype = PolarizationType(divisors)
        reference = block_normal_gram(ptype)
        for _ in range(4):
            p = random_unimodular(rng, reference.rows)
            gram = gram_in_basis(reference, p)
            assert polarization_type(AlternatingForm(gram)) == ptype
            prod = 1
            for v in divisors:
                prod *= v
            assert gram.det() == prod * prod


@st.composite
def alternating_forms(draw):
    """A nondegenerate alternating form on Z^(2g), g in 1..3, with entries
    in -6..6 above the diagonal."""
    n = 2 * draw(st.integers(1, 3))
    upper = draw(st.lists(st.integers(-6, 6), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    rows = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(it)
            rows[j][i] = -rows[i][j]
    gram = IntMatrix(rows)
    assume(gram.det() != 0)
    return gram


@st.composite
def unimodular_words(draw, n):
    """A word of row shears (coefficient +-1 or +-2), row swaps and sign
    flips applied to the n x n identity; its determinant is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2), st.sampled_from((-2, -1, 1, 2))
    )
    for i, j, op, c in draw(st.lists(steps, max_size=16)):
        if op == 0 and i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntMatrix(m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frobenius_postcondition_and_type_invariance(data):
    """frobenius_basis returns a unimodular P with P^T G P in block normal
    form, and the type it finds does not change under G -> Q^T G Q for a
    random Q in GL(2g, Z)."""
    gram = data.draw(alternating_forms())
    basis, ptype = frobenius_basis(AlternatingForm(gram))
    assert basis.det() in (1, -1)
    assert gram_in_basis(gram, basis) == block_normal_gram(ptype)
    assert gram.det() == math.prod(ptype.divisors) ** 2

    q = data.draw(unimodular_words(gram.rows))
    assert polarization_type(AlternatingForm(gram_in_basis(gram, q))) == ptype


def test_polarization_type_errors():
    with pytest.raises(OddDimension):
        polarization_type(AlternatingForm(IntMatrix([[0]])))
    for gram in (
        [[0, 0], [0, 0]],
        # rank 2: the first block reduces, the second has no nonzero pairing
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    ):
        with pytest.raises(Degenerate):
            polarization_type(AlternatingForm(IntMatrix(gram)))


def test_associated_degree():
    assert associated_degree(coprincipal_type(3, 4)) == 4
    assert associated_degree(principal_type(2)) == 1
    with pytest.raises(NotCoprincipal):
        associated_degree(PolarizationType((1, 2, 4)))
    with pytest.raises(NotCoprincipal):
        associated_degree(PolarizationType((2, 2)))


def test_is_symplectic_basics():
    g = 2
    assert is_symplectic(IntMatrix.identity(4), g)
    assert is_symplectic(standard_symplectic_gram(g), g)  # J itself
    assert not is_symplectic(IntMatrix.identity(4).scale(2), g)
    shear = IntMatrix([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_symplectic(shear, g)


def test_random_symplectic_generator_products():
    rng = Random(203)
    for g in (1, 2, 3):
        for _ in range(15):
            m = random_symplectic(rng, g)
            assert is_symplectic(m, g)
            assert m.det() == 1


def test_symplectic_matrix_wrapper_validates():
    with pytest.raises(NotSymplectic):
        SymplecticMatrix(IntMatrix.identity(4).scale(2), 2)
    from fibsurf import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        SymplecticMatrix(IntMatrix.identity(3), 1)
    sm = SymplecticMatrix(IntMatrix.identity(4), 2)
    assert sm.g == 2


def test_conjugacy_invariants_structure():
    inv = conjugacy_invariants(IntMatrix.identity(4))
    assert isinstance(inv, ConjugacyInvariants)
    assert inv.char_poly == (1, -4, 6, -4, 1)  # (x-1)^4
    assert inv.unipotent is True


def test_conjugacy_invariants_stable_under_symplectic_conjugation():
    rng = Random(204)
    for g in (1, 2, 3):
        for _ in range(10):
            m = random_symplectic(rng, g)
            p = random_symplectic(rng, g)
            p_inv = _unimodular_inverse(p)
            conj = p_inv * m * p
            assert conjugacy_invariants(m) == conjugacy_invariants(conj)


def test_conjugacy_invariants_reject_odd_dimension():
    with pytest.raises(NotSymplectic):
        conjugacy_invariants(IntMatrix.identity(3))


def test_non_symplectic_input_rejected():
    with pytest.raises(NotSymplectic):
        conjugacy_invariants(IntMatrix([[2, 0], [0, 2]]))


@st.composite
def transvection_products(draw):
    """Products of symplectic transvections x -> x + k (x, v) v on Z^(2g),
    g <= 4.  Half of them are along a single vector, so unipotent matrices
    are common; products along several vectors often are not."""
    g = draw(st.integers(1, 4))
    n = 2 * g
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    if draw(st.booleans()):
        vectors = [draw(vector)]
    else:
        vectors = draw(st.lists(vector, min_size=2, max_size=4))
    j = standard_symplectic_gram(g)
    m = IntMatrix.identity(n)
    for v in vectors:
        col = IntMatrix([[x] for x in v])
        k = draw(st.integers(-2, 2))
        # (x, v) = x^T J v, so the transvection is I + k v (J v)^T = I - k v v^T J
        m = m * (IntMatrix.identity(n) - (col * col.transpose() * j).scale(k))
    return m


@settings(max_examples=300, deadline=None)
@given(transvection_products())
def test_unipotent_matches_nilpotent_power(m):
    """Unipotency read off the characteristic polynomial agrees with
    (M - I)^n = 0, the power taken by repeated products."""
    n = m.rows
    assert is_symplectic(m, n // 2)
    nilpart = m - IntMatrix.identity(n)
    power = nilpart
    for _ in range(n - 1):
        power = power * nilpart
    assert conjugacy_invariants(m).unipotent == power.is_zero()


@st.composite
def pinned_forms(draw):
    """Alternating forms whose reductions hit the pivot rule's edge cases:
    +-1 ties, the zero form, and X^T J X for a block normal J of a random
    type, with X of full rank, of lower rank or not square."""
    kind = draw(st.sampled_from(("ties", "zero", "xjx", "xjx", "singular_x")))
    if kind in ("ties", "zero"):
        n = 2 * draw(st.integers(1, 3))
        values = st.sampled_from((1, -1, 0)) if kind == "ties" else st.just(0)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = draw(values)
                rows[j][i] = -rows[i][j]
        return IntMatrix(rows)
    g = draw(st.integers(1, 3))
    divisors = [1]
    for _ in range(g - 1):
        divisors.append(divisors[-1] * draw(st.sampled_from((1, 1, 2, 3))))
    j = block_normal_gram(PolarizationType(tuple(divisors)))
    n = 2 * g
    m = 2 * draw(st.integers(1, g))
    x = [draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)) for _ in range(n)]
    if kind == "singular_x" and m > 1:
        col = draw(st.integers(1, m - 1))
        for r in x:
            r[col] = r[0]
    x = IntMatrix(x)
    return x.transpose() * j * x


@settings(max_examples=300, deadline=None)
@given(pinned_forms())
def test_frobenius_pivot_rule_matches_reference(gram):
    """Stopping the pivot search at a unit and skipping the divisibility
    scans for a unit pivot leave the basis and the type unchanged."""
    try:
        want = reference_frobenius_basis(gram)
    except ValueError:
        with pytest.raises(Degenerate):
            frobenius_basis(AlternatingForm(gram))
        return
    basis, ptype = frobenius_basis(AlternatingForm(gram))
    assert (basis.entries(), ptype.divisors) == want
