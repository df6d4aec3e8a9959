"""Construction and transformation of adapted bases."""

import hashlib
import json
import math
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibsurf import (
    NOT_ADAPTED,
    AdaptedBasis,
    AdaptedBasisProblem,
    AlternatingForm,
    DimensionMismatch,
    IntMatrix,
    InvalidArgument,
    InvariantViolation,
    NotUnimodular,
    PolarizationType,
    QuotientNotBicyclic,
    SmithForm,
    canonical_problem,
    change_basis,
    construct_adapted_basis,
    coprincipal_type,
    gamma_d_contains,
    is_adapted_basis,
    is_symplectic,
    monodromy_at_cusp,
    section_pairing_gram,
    smith_normal_form,
    standard_symplectic_gram,
)
from fibsurf.adapted import _combo, _pairing
from helpers import (
    gram_in_basis,
    random_gamma_d_element,
    random_sl2_word,
    random_unimodular,
    randomized_problem,
    reference_change_basis,
    reference_is_adapted_basis,
)

SMALL_CASES = [(g, d) for g in (2, 3) for d in (2, 3, 4, 5)]


def test_identity_vectors_are_adapted_for_canonical_problem():
    """In the canonical configuration the standard basis vectors, listed in
    the construction order, already form an adapted basis."""
    for g, d in SMALL_CASES:
        p = canonical_problem(g, d)
        b = AdaptedBasis(g=g, d=d, vectors=tuple(IntMatrix.identity(2 * g).columns()))
        assert is_adapted_basis(p, b), (g, d)


def test_construct_on_canonical_problems():
    for g, d in SMALL_CASES:
        p = canonical_problem(g, d)
        b = construct_adapted_basis(p)
        assert is_adapted_basis(p, b) and reference_is_adapted_basis(p, b), (g, d)


def test_construct_on_randomized_problems():
    rng = Random(401)
    for g, d in SMALL_CASES:
        for _ in range(5):
            p = randomized_problem(rng, g, d)
            b = construct_adapted_basis(p)
            assert is_adapted_basis(p, b) and reference_is_adapted_basis(p, b), (g, d)


# construct_adapted_basis on randomized_problem(Random(seed), g, d), whose U
# is not the identity, so that a mix-up between U-coordinates and ambient
# coordinates changes the vectors.  (2, 5, 20261015) takes the g = 2 branch
# of step 4 (j = -35), (3, 4, 20261009) the g >= 3 branch (j = -2).
FROZEN_U_FRAME = {
    (2, 5, 20261015): ((6, 4, -1, 20), (2, 1, 0, 0), (0, 0, 0, -1), (3, 1, 0, 4)),
    (2, 6, 20261000): ((-64, 12, 3, -10), (0, 1, 0, -1), (1, 0, 0, 0), (-8, 0, -1, -1)),
    (3, 4, 20261009): (
        (0, 2, -2, -48, 5, 28), (8, 1, -1, -6, -2, 5), (0, -1, 9, 4, 18, -2),
        (1, 1, -1, -22, 2, 13), (0, 0, 2, -5, 5, 3), (2, 0, 1, -1, 2, 1),
    ),
    (3, 6, 20261000): (
        (1, -2, 0, 1, 0, 0), (12, -11, 11, 12, 6, 0), (0, -4, 4, 1, 0, 5),
        (0, 1, 0, 0, 0, 0), (8, -8, 8, 8, 4, 1), (2, -2, 2, 2, 1, 0),
    ),
}


@pytest.mark.parametrize("g, d, seed", sorted(FROZEN_U_FRAME))
def test_construct_frozen_vectors_in_non_identity_u(g, d, seed):
    p = randomized_problem(Random(seed), g, d)
    assert p.U != IntMatrix.identity(2 * g)
    assert construct_adapted_basis(p).vectors == FROZEN_U_FRAME[g, d, seed]


# sha256 of every vector construct_adapted_basis gives on the 64 problems
# below, as json.dumps([g, d, vectors]) one after the other.  The frozen
# bases above miss some changes of answer: taking the step-5 complement in
# U-coordinates and mapping it by U afterwards changes 14 of the 32 g = 3
# bases here, yet leaves the two frozen g = 3 bases as they were.  A change
# of this digest is a change of the answers and has to be made on purpose.
CONSTRUCTION_DIGEST = "797c6e5e70c856e282ad40b09deae3aadd6e502d5624ad0e4f939730930a0a61"


def test_construction_outputs_unchanged():
    rng = Random(20261019)
    h = hashlib.sha256()
    for g in (2, 3):
        for d in (2, 3, 4, 5, 6, 7, 12, 97):
            for _ in range(4):
                p = randomized_problem(rng, g, d)
                assert p.U != IntMatrix.identity(2 * g)
                vectors = [list(v) for v in construct_adapted_basis(p).vectors]
                h.update(json.dumps([g, d, vectors]).encode())
    assert h.hexdigest() == CONSTRUCTION_DIGEST


def test_derived_vector_relations():
    """u_{2g-1} = d*u_{2g+1} - u_g and u_{2g} = d*u_{2g+2} - u_{g-1}."""
    rng = Random(402)
    for g, d in SMALL_CASES:
        b = construct_adapted_basis(randomized_problem(rng, g, d))
        lhs = b.u(2 * g - 1)
        rhs = tuple(s - t for s, t in zip(tuple(d * x for x in b.u(2 * g + 1)), b.u(g)))
        assert lhs == rhs
        lhs = b.u(2 * g)
        rhs = tuple(s - t for s, t in zip(tuple(d * x for x in b.u(2 * g + 2)), b.u(g - 1)))
        assert lhs == rhs


def test_adapted_basis_gram_is_block_normal():
    """The defining conditions force the full Gram on u_1..u_g,
    u_{g+1}..u_{2g} to be the block normal form of type (1, .., 1, d, d):
    the last TWO hyperbolic pairs each pair to d."""
    from fibsurf import PolarizationType, block_normal_gram

    rng = Random(403)
    for g, d in SMALL_CASES:
        p = randomized_problem(rng, g, d)
        b = construct_adapted_basis(p)
        full = IntMatrix.from_columns([b.u(i) for i in range(1, 2 * g + 1)])
        want = block_normal_gram(PolarizationType((1,) * (g - 2) + (d, d)))
        assert gram_in_basis(p.form.gram, full) == want


def test_inclusion_smith_form_is_bicyclic():
    """Coordinates of U_A + U_E inside U have Smith form (1,..,1,d,d)."""
    rng = Random(404)
    for g, d in SMALL_CASES:
        p = randomized_problem(rng, g, d)
        joint = IntMatrix.from_columns(p.U_A.columns() + p.U_E.columns())
        coords = smith_normal_form(p.U).solve(joint)
        assert coords is not None
        diag = smith_normal_form(coords).diagonal()
        assert diag == (1,) * (2 * g - 2) + (d, d), (g, d)


def test_construct_rejects_non_bicyclic_quotient():
    """Index-d^2 configurations whose quotient is not (Z/d)^2 are refused.

    Here U/(U_A + U_E) is Z/2 x Z/2 x Z/4 with d = 4: every per-lattice
    check passes (types (4) and (4), orthogonal, index 16), only the
    quotient shape fails.
    """
    gram = IntMatrix(
        [[0, 2, 0, 1], [-2, 0, -1, 0], [0, 1, 0, 1], [-1, 0, -1, 0]]
    )
    p = AdaptedBasisProblem(
        g=2,
        d=4,
        U=IntMatrix.identity(4),
        form=AlternatingForm(gram),
        U_A=IntMatrix.from_columns([(1, 0, 0, 0), (0, 2, 0, 0)]),
        U_E=IntMatrix.from_columns([(-1, 0, 2, 0), (0, -2, 0, 4)]),
    )
    with pytest.raises(QuotientNotBicyclic):
        construct_adapted_basis(p)


def test_validation_rejects_wrong_shapes():
    p = canonical_problem(2, 3)
    bad = AdaptedBasisProblem(
        g=p.g, d=p.d, U=p.U, form=p.form, U_A=p.U_E, U_E=p.U_E
    )
    with pytest.raises(InvariantViolation):
        construct_adapted_basis(bad)


def test_validation_rejects_overlapping_sublattices():
    p = canonical_problem(2, 3)
    overlapping = AdaptedBasisProblem(
        g=p.g, d=p.d, U=p.U, form=p.form, U_A=p.U_A,
        U_E=p.U_A.submatrix(range(4), (0, 1)),
    )
    with pytest.raises(InvariantViolation):
        construct_adapted_basis(overlapping)
    # g = 3: U_E = <eps_1, 3*eps_4> has type (3) and shares eps_1 with U_A;
    # U_E = <eps_1, eps_2> lies inside U_A and carries the zero form
    p = canonical_problem(3, 3)
    for ue in ([(1, 0, 0, 0, 0, 0), (0, 0, 0, 3, 0, 0)], p.U_A.columns()[:2]):
        overlapping = AdaptedBasisProblem(
            g=p.g, d=p.d, U=p.U, form=p.form, U_A=p.U_A, U_E=IntMatrix.from_columns(ue)
        )
        with pytest.raises(InvariantViolation):
            construct_adapted_basis(overlapping)


def test_validation_rejects_vectors_outside_u():
    p = canonical_problem(2, 3)
    scaled_u = IntMatrix.identity(4).scale(2)  # U_A no longer inside U
    bad = AdaptedBasisProblem(
        g=2, d=3, U=scaled_u, form=p.form, U_A=p.U_A, U_E=p.U_E
    )
    with pytest.raises(InvariantViolation):
        construct_adapted_basis(bad)


def test_validation_rejects_small_parameters():
    p = canonical_problem(2, 2)
    for g, d in ((1, 2), (2, 1)):
        bad = AdaptedBasisProblem(
            g=g, d=d, U=p.U, form=p.form, U_A=p.U_A, U_E=p.U_E
        )
        with pytest.raises(InvariantViolation):
            construct_adapted_basis(bad)


def test_change_basis_by_gamma_d_stays_adapted():
    rng = Random(405)
    for g, d in SMALL_CASES:
        p = randomized_problem(rng, g, d)
        b = construct_adapted_basis(p)
        for _ in range(4):
            m = random_gamma_d_element(rng, d)
            moved = change_basis(b, m, d)
            assert moved is not NOT_ADAPTED
            assert is_adapted_basis(p, moved), (g, d)


def test_change_basis_iff_congruence():
    """change_basis succeeds exactly on the level-d congruence subgroup."""
    rng = Random(406)
    for g, d in SMALL_CASES:
        p = randomized_problem(rng, g, d)
        b = construct_adapted_basis(p)
        for _ in range(10):
            m = random_sl2_word(rng)
            moved = change_basis(b, m, d)
            if gamma_d_contains(m, d):
                assert moved is not NOT_ADAPTED
                assert is_adapted_basis(p, moved)
            else:
                assert moved is NOT_ADAPTED, (g, d, m)


def test_change_basis_composition():
    p = canonical_problem(3, 3)
    b = construct_adapted_basis(p)
    m1 = IntMatrix([[1, 3], [0, 1]])
    m2 = IntMatrix([[1, 0], [3, 1]])
    once = change_basis(change_basis(b, m1, 3), m2, 3)
    # acting on the row vector (u_g, u_{2g}): b -> m1 b -> m2 (m1 b)
    both = change_basis(b, m2 * m1, 3)
    assert once.vectors == both.vectors


@st.composite
def basis_moves(draw):
    """(b, M, d'): a constructed adapted basis, or 2g random linearly
    independent listed vectors, a random SL_2 word or Gamma(d) element, and
    the divisor, mostly the basis's own d."""
    g, d = draw(st.sampled_from([2, 3])), draw(st.integers(2, 7))
    rng = Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        b = construct_adapted_basis(randomized_problem(rng, g, d))
    else:
        n = 2 * g + draw(st.integers(0, 1))
        entries = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
        vectors = draw(st.lists(entries.map(tuple), min_size=2 * g, max_size=2 * g))
        assume(smith_normal_form(IntMatrix.from_columns(vectors)).rank() == 2 * g)
        b = AdaptedBasis(g=g, d=d, vectors=tuple(vectors))
    m = random_gamma_d_element(rng, d) if draw(st.booleans()) else random_sl2_word(rng)
    return b, m, draw(st.sampled_from([d, d, d, d + 1, 2 * d]))


@settings(max_examples=150, deadline=None)
@given(basis_moves())
def test_change_basis_matches_solve_reference(case):
    """On independent listed vectors the glue numerators have one set of
    coordinates, so the closed form and a solve agree, NOT_ADAPTED
    included."""
    b, m, d = case
    assert change_basis(b, m, d) == reference_change_basis(b, m, d)


def test_change_basis_on_dependent_vectors_uses_the_glue_coordinates():
    """With dependent listed vectors (here u_2 = -u_1) the numerators have
    other coordinates too.  A solve finds some divisible by d although M is
    not congruent to the identity mod d; the closed form uses the glue
    coordinates only and refuses.  For M in Gamma(d) it still gives the
    glue relations of the moved basis."""
    g, d = 2, 3
    vectors = ((-2, 1, 0, 1), (2, -1, 0, -1), (-3, 3, 2, -3), (-1, 1, -2, -2))
    b = AdaptedBasis(g=g, d=d, vectors=vectors)
    m = IntMatrix([[0, 1], [-1, 2]])
    assert reference_change_basis(b, m, d) is not NOT_ADAPTED
    assert change_basis(b, m, d) is NOT_ADAPTED
    moved = change_basis(b, IntMatrix([[1, 3], [3, 10]]), d)
    u_g, u_2g = b.u_e_part()
    assert moved.u(2 * g - 1) == b.u(2 * g - 1)
    assert moved.u_e_part() == (_combo([u_g, u_2g], [1, 3]), _combo([u_g, u_2g], [3, 10]))


def test_verification_is_remembered_per_problem_object(monkeypatch):
    """A passed check is kept on the basis for that problem object only: an
    equal but distinct problem or basis is checked in full again, and so is
    a failed check."""
    p = randomized_problem(Random(408), 3, 4)
    b = construct_adapted_basis(p)
    solves = [0]
    original = SmithForm.solve

    def counted(self, rhs):
        solves[0] += 1
        return original(self, rhs)

    monkeypatch.setattr(SmithForm, "solve", counted)
    assert is_adapted_basis(p, b) and solves[0] == 0
    q, fresh = p._replace(), AdaptedBasis(g=b.g, d=b.d, vectors=b.vectors)
    assert q == p and q is not p
    assert fresh == b and hash(fresh) == hash(b) and repr(fresh) == repr(b)
    assert is_adapted_basis(q, b) and solves[0] == 1
    assert is_adapted_basis(p, fresh) and solves[0] == 2
    assert is_adapted_basis(p, fresh) and solves[0] == 2
    bad = _failing_only(p, 2, False)
    assert not is_adapted_basis(bad, b) and not is_adapted_basis(bad, b)
    assert solves[0] == 4


def test_verified_basis_encodes_as_before():
    """The memo is not part of the value, so it is not serialized either."""
    from fibsurf.serialize import to_jsonable

    b = construct_adapted_basis(canonical_problem(2, 3))
    fresh = AdaptedBasis(g=2, d=3, vectors=b.vectors)
    assert to_jsonable(b) == to_jsonable(fresh)
    assert sorted(to_jsonable(b)) == ["d", "g", "vectors"]


def test_not_adapted_sentinel_is_falsy():
    assert not NOT_ADAPTED
    assert repr(NOT_ADAPTED) == "NotAdapted"


def test_change_basis_rejects_bad_matrices():
    b = construct_adapted_basis(canonical_problem(2, 3))
    with pytest.raises(NotUnimodular):
        change_basis(b, IntMatrix([[1, 0], [0, 2]]), 3)
    with pytest.raises(NotUnimodular):
        change_basis(b, IntMatrix([[0, 1], [1, 0]]), 3)  # det -1
    with pytest.raises(DimensionMismatch):
        change_basis(b, IntMatrix.identity(3), 3)


@pytest.mark.parametrize("d", [0, 1, -3])
def test_change_basis_rejects_degree_below_two(d):
    b = construct_adapted_basis(canonical_problem(2, 3))
    with pytest.raises(DimensionMismatch, match="d >= 2"):
        change_basis(b, IntMatrix.identity(2), d)


def test_adapted_basis_index_bounds():
    b = construct_adapted_basis(canonical_problem(2, 3))
    assert b.u(1) == (1, 0, 0, 0)
    with pytest.raises(DimensionMismatch):
        b.u(0)
    with pytest.raises(DimensionMismatch):
        b.u(9)


def test_is_adapted_basis_detects_broken_pairing():
    p = canonical_problem(2, 3)
    b = construct_adapted_basis(p)
    vectors = list(b.vectors)
    vectors[0] = tuple(2 * x for x in vectors[0])
    broken = AdaptedBasis(g=2, d=3, vectors=tuple(vectors))
    assert not is_adapted_basis(p, broken)


def test_adapted_basis_refuses_non_integer_entries():
    """A float entry was once truncated by int() and the basis verified."""
    p = canonical_problem(2, 3)
    rest = construct_adapted_basis(p).vectors[1:]
    for first in ((1.9, 0, 0, 0), (True, 0, 0, 0), (1.0, 0, 0, 0)):
        with pytest.raises(InvalidArgument):
            AdaptedBasis(g=2, d=3, vectors=(first,) + rest)
    with pytest.raises(DimensionMismatch):
        AdaptedBasis(g=2, d=3, vectors=((),) * 4)


def _doubled_first(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns([tuple(2 * x for x in m.column(0))] + m.columns()[1:])


def _shifted_first(m: IntMatrix, by: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns([_combo([m.column(0), by.column(0)], [1, 1])] + m.columns()[1:])


def _failing_only(p: AdaptedBasisProblem, k: int, shift: bool) -> AdaptedBasisProblem:
    """p with one of U, U_A, U_E changed, so that a basis adapted to p fails
    condition (k) on it and meets the other two, which read only the parts
    of p that stay unchanged.  U becomes U_A + U_E, of index d^2.  U_A or
    U_E gets its first generator doubled or, with ``shift``, moved by a
    generator of the other one: the pairings with the part stay the same,
    the span does not."""
    if k == 1:
        return p._replace(U=IntMatrix.from_columns(p.U_A.columns() + p.U_E.columns()))
    if k == 2:
        return p._replace(U_A=_shifted_first(p.U_A, p.U_E) if shift else _doubled_first(p.U_A))
    return p._replace(U_E=_shifted_first(p.U_E, p.U_A) if shift else _doubled_first(p.U_E))


@pytest.mark.parametrize("g, d, seed", [(2, 3, 501), (3, 4, 502), (3, 2, 503)])
@pytest.mark.parametrize("k, shift", [(1, False), (2, False), (2, True), (3, False), (3, True)])
def test_basis_failing_one_condition_is_refused(g, d, seed, k, shift):
    p = randomized_problem(Random(seed), g, d)
    b = construct_adapted_basis(p)
    assert is_adapted_basis(p, b) and reference_is_adapted_basis(p, b)
    q = _failing_only(p, k, shift)
    assert not reference_is_adapted_basis(q, b)
    assert not is_adapted_basis(q, b)


def test_sublattice_with_a_wrong_generator_count_is_a_dimension_mismatch():
    """The earlier predicate raised or returned False here, depending on
    whether a solve happened to succeed."""
    p = randomized_problem(Random(504), 3, 4)
    b = construct_adapted_basis(p)
    extra = p.U_E.columns()[:1]
    for q in (
        p._replace(U_A=IntMatrix.from_columns(p.U_A.columns() + extra)),
        p._replace(U_A=IntMatrix.from_columns(p.U_A.columns()[:-1])),
        p._replace(U_E=IntMatrix.from_columns(p.U_E.columns() + extra)),
    ):
        with pytest.raises(DimensionMismatch):
            is_adapted_basis(q, b)


def test_normal_basis_check_reads_the_gram_matrix():
    """With pairing 4 instead of d = 3 the floored coordinates are still the
    identity; only the Gram matrix tells this part from a normal one."""
    from fibsurf.adapted import _is_normal_basis_of

    part = [(1, 0), (0, 4)]
    gram = IntMatrix([[0, 1], [-1, 0]])
    assert not _is_normal_basis_of(gram, part, coprincipal_type(1, 3), IntMatrix.from_columns(part))
    assert _is_normal_basis_of(gram, part, coprincipal_type(1, 4), IntMatrix.from_columns(part))


@st.composite
def bases_and_problems(draw):
    """A random problem, an adapted basis of it, and one of: the basis
    itself, moved by Gamma(d), with its listed vectors remixed, negated or
    sheared, or the problem changed so that one condition fails."""
    g, d = draw(st.sampled_from([2, 3])), draw(st.integers(2, 7))
    rng = Random(draw(st.integers(0, 2**32)))
    p = randomized_problem(rng, g, d)
    b = construct_adapted_basis(p)
    vectors = list(b.vectors)
    i, j = draw(st.integers(0, 2 * g - 1)), draw(st.integers(0, 2 * g - 1))
    kind = draw(st.sampled_from(["same", "gamma", "remix", "negate", "shear", "problem", "off_span"]))
    if kind == "gamma":
        return p, change_basis(b, random_gamma_d_element(rng, d), d)
    if kind == "remix":
        vectors = (IntMatrix.from_columns(vectors) * random_unimodular(rng, 2 * g, steps=3)).columns()
    elif kind == "negate":
        vectors[i] = tuple(-x for x in vectors[i])
    elif kind == "shear" and i != j:
        vectors[i] = tuple(x + draw(st.sampled_from([-d, -1, 1, d])) * y for x, y in zip(vectors[i], vectors[j]))
    elif kind == "problem":
        p = _failing_only(p, draw(st.integers(1, 3)), draw(st.booleans()))
    elif kind == "off_span":  # one generator of U_A replaced by one of U_E
        p = p._replace(U_A=IntMatrix.from_columns(p.U_A.columns()[:-1] + p.U_E.columns()[:1]))
    return p, AdaptedBasis(g=g, d=d, vectors=tuple(vectors))


@settings(max_examples=120, deadline=None)
@given(bases_and_problems())
def test_predicate_matches_smith_reference(case):
    p, b = case
    assert is_adapted_basis(p, b) == reference_is_adapted_basis(p, b)


def test_adapted_pairings_spotcheck():
    """(u_g, u_{2g}) = d, and the A-part pairs by the type (1, .., 1, d),
    directly under the ambient form."""
    rng = Random(407)
    g, d = 3, 4
    p = randomized_problem(rng, g, d)
    b = construct_adapted_basis(p)
    gram = p.form.gram
    u_g, u_2g = b.u_e_part()
    assert _pairing(gram, u_g, u_2g) == d
    a_part = b.u_a_part()
    half = len(a_part) // 2  # = g - 1
    divisors = (1,) * (g - 2) + (d,)
    for i, x in enumerate(a_part):
        for j, y in enumerate(a_part):
            want = 0
            if j - i == half:
                want = divisors[i]
            if i - j == half:
                want = -divisors[j]
            assert _pairing(gram, x, y) == want


def test_coprime_congruent_pair_rejects_imprimitive_frame():
    """gcd(2, 2 + 4k) = 2 for every k: once this looped forever."""
    from fibsurf.adapted import _coprime_congruent_pair

    with pytest.raises(InvariantViolation):
        _coprime_congruent_pair(2, 2, 4)
    with pytest.raises(InvariantViolation):
        _coprime_congruent_pair(3, 6, 9)
    for alpha, beta, d in ((2, 3, 4), (3, 0, 5), (0, 5, 6), (4, 6, 7), (6, 10, 15)):
        p, q = _coprime_congruent_pair(alpha, beta, d)
        assert (p - alpha) % d == 0 and (q - beta) % d == 0
        assert math.gcd(p, q) == 1


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: monodromy_at_cusp(2.0, 3), "genus g must be an integer"),
        (lambda: monodromy_at_cusp(2, 2.5), "degree d must be an integer"),
        (
            lambda: change_basis(
                construct_adapted_basis(canonical_problem(2, 3)), IntMatrix.identity(2), 2.5
            ),
            "degree d must be an integer",
        ),
        (
            lambda: AdaptedBasis(g=2.5, d=3, vectors=((1, 0, 0, 0),) * 5),
            "genus g must be an integer",
        ),
        (lambda: section_pairing_gram(2.5, 3), "genus g must be an integer"),
        (lambda: is_symplectic(IntMatrix.identity(3), 1.5), "genus g must be an integer"),
        (lambda: canonical_problem(2.5, 3), "genus g must be an integer"),
        (
            lambda: construct_adapted_basis(canonical_problem(2, 3)._replace(d=3.0)),
            "degree d must be an integer",
        ),
        (lambda: canonical_problem(1, 3), "g >= 2 and d >= 2"),
        (lambda: canonical_problem(2, 1), "g >= 2 and d >= 2"),
        (lambda: PolarizationType((1.5,)), "divisor must be an integer"),
        (lambda: PolarizationType((2, 3)), "2 does not divide 3"),
        (lambda: PolarizationType((0,)), "positive divisors"),
        (lambda: standard_symplectic_gram(0), "positive divisors"),
        (lambda: coprincipal_type(2, 2.5), "divisor must be an integer"),
    ],
    ids=[
        "monodromy-g", "monodromy-d", "change_basis-d", "AdaptedBasis-g",
        "section_pairing_gram-g", "is_symplectic-g", "canonical_problem-g", "problem-d",
        "canonical_problem-g1", "canonical_problem-d1", "PolarizationType-float",
        "PolarizationType-chain", "PolarizationType-zero", "standard_gram-0",
        "coprincipal_type-d",
    ],
)
def test_genus_degree_and_divisors_are_read(call, match):
    """Each of these answered, raised a raw TypeError or ValueError, or
    named the wrong argument before its genus, degree or divisors were read."""
    with pytest.raises(InvalidArgument, match=match):
        call()
