"""The answer records (``errors.Record``): each is a value of its own class,
equal only to a record of that class with equal fields, frozen, and
rebuilt, with its validation, by ``_replace``.  The reprs are pinned in the
format every record has printed in since the first release."""

import json

import pytest

from fibsurf import (
    TWO_ELLIPTIC_ONE_NODE,
    AdaptedBasis,
    AdaptedBasisProblem,
    AlternatingForm,
    ConjugacyInvariants,
    CuspRegularityCase,
    DimensionMismatch,
    FibreTypeCatalogue,
    IntMatrix,
    InvalidArgument,
    InvalidPeriodData,
    ModularCurveData,
    MonodromyMatrix,
    NotAlternating,
    NotSymplectic,
    PeriodData,
    PeriodMatrix,
    PolarizationType,
    SingularFibreType,
    SmithForm,
    SurfaceInvariants,
    SymplecticMatrix,
    canonical_problem,
    conjugacy_invariants,
    construct_adapted_basis,
    fibre_types,
    invariants_g2,
    modular_data,
    monodromy_at_cusp,
    period_matrix,
    smith_normal_form,
)
from fibsurf.errors import Record
from fibsurf.modular import REGULAR
from fibsurf.serialize import encode_json


def _point():
    return PeriodData(g=2, d=2, Z=((1j,),), z=1j, tol=1e-9)


# (class, a factory of one record, its repr)
RECORDS = [
    (
        AlternatingForm,
        lambda: AlternatingForm(IntMatrix([[0, 1], [-1, 0]])),
        "AlternatingForm(gram=IntMatrix[0 1; -1 0])",
    ),
    (PolarizationType, lambda: PolarizationType((1, 2)), "PolarizationType(divisors=(1, 2))"),
    (
        SymplecticMatrix,
        lambda: SymplecticMatrix(IntMatrix.identity(2), 1),
        "SymplecticMatrix(m=IntMatrix[1 0; 0 1], g=1)",
    ),
    (
        ConjugacyInvariants,
        lambda: conjugacy_invariants(IntMatrix.identity(2)),
        "ConjugacyInvariants(char_poly=(1, -2, 1), unipotent=True, snf_m_minus_i=(0, 0), "
        "snf_m2_minus_i=(0, 0))",
    ),
    (
        ModularCurveData,
        lambda: modular_data(7),
        "ModularCurveData(d=7, delta=Fraction(2, 1), genus=3, cusps=24)",
    ),
    (
        CuspRegularityCase,
        lambda: CuspRegularityCase(REGULAR, IntMatrix([[1, 2], [0, 1]])),
        "CuspRegularityCase(variant='Regular', stabilizer_generator=IntMatrix[1 2; 0 1])",
    ),
    (
        AdaptedBasisProblem,
        lambda: canonical_problem(2, 2),
        "AdaptedBasisProblem(g=2, d=2, U=IntMatrix[1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1], "
        "form=AlternatingForm(gram=IntMatrix[0 0 1 0; 0 0 0 1; -1 0 0 0; 0 -1 0 0]), "
        "U_A=IntMatrix[1 0; 0 -1; 0 2; 0 0], U_E=IntMatrix[0 -1; 1 0; 0 0; 0 2])",
    ),
    (
        AdaptedBasis,
        lambda: construct_adapted_basis(canonical_problem(2, 2)),
        "AdaptedBasis(g=2, d=2, vectors=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))",
    ),
    (PeriodData, _point, "PeriodData(g=2, d=2, Z=((1j,),), z=1j, tol=1e-09)"),
    (
        PeriodMatrix,
        lambda: period_matrix(_point()),
        "PeriodMatrix(T=((0.25j, (0.5+0j)), ((0.5+0j), 0.5j)), "
        "basis_labels=('alpha_1', 'alpha_2', 'beta_1', 'beta_2'))",
    ),
    (
        MonodromyMatrix,
        lambda: monodromy_at_cusp(2, 2),
        "MonodromyMatrix(m=SymplecticMatrix(m=IntMatrix[1 0 0 0; 0 1 0 1; 0 0 1 0; 0 0 0 1], g=2), "
        "cusp_case='Regular')",
    ),
    (
        SurfaceInvariants,
        lambda: invariants_g2(5),
        "SurfaceInvariants(g=2, d=5, delta=Fraction(1, 1), base_genus=0, s=19, c2=27, chi=4, "
        "K2=21, tau=None, H=None, lambda_=None, delta0=None, delta1=None, general_type=True)",
    ),
    (
        SingularFibreType,
        lambda: SingularFibreType(2, TWO_ELLIPTIC_ONE_NODE, 1),
        "SingularFibreType(genus=2, variant='TwoEllipticOneNode', euler_defect=1)",
    ),
    (
        SmithForm,
        lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]])),
        "SmithForm(d=IntMatrix[2 0; 0 4], s=IntMatrix[1 0; 3 -1], t=IntMatrix[1 -2; 0 1])",
    ),
    (
        FibreTypeCatalogue,
        lambda: fibre_types(2),
        "FibreTypeCatalogue(genus=2, types=(SingularFibreType(genus=2, "
        "variant='TwoEllipticOneNode', euler_defect=1), SingularFibreType(genus=2, "
        "variant='EllipticWithNode', euler_defect=1)), hyperelliptic_defect=None, semistable=None)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_type_is_listed():
    import fibsurf

    exported = [getattr(fibsurf, name) for names in fibsurf._EXPORTS.values() for name in names]
    records = {v.__name__ for v in exported if isinstance(v, type) and issubclass(v, Record)}
    assert records == set(IDS) and len(IDS) == 15


@pytest.mark.parametrize("cls, make, text", RECORDS, ids=IDS)
def test_record_is_a_value_of_its_own_class(cls, make, text):
    rec = make()
    assert type(rec) is cls and repr(rec) == text
    values = tuple(getattr(rec, f) for f in cls._fields)
    assert rec != values and values != rec
    # the same fields and values under another record type
    twin_type = type("Twin", (Record,), {"_fields": cls._fields})
    twin = object.__new__(twin_type)
    vars(twin).update(zip(cls._fields, values))
    assert rec != twin and twin != rec
    copy = rec._replace()
    assert copy == rec and copy is not rec and hash(copy) == hash(rec) and repr(copy) == text
    with pytest.raises(TypeError):
        rec._replace(no_such_field=1)


@pytest.mark.parametrize("cls, make, text", RECORDS, ids=IDS)
def test_record_is_frozen(cls, make, text):
    rec = make()
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        delattr(rec, first)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(rec) == text


@pytest.mark.parametrize(
    "make, changes, error",
    [
        (
            lambda: AlternatingForm(IntMatrix([[0, 1], [-1, 0]])),
            {"gram": IntMatrix([[1, 0], [0, 0]])},
            NotAlternating,
        ),
        (lambda: PolarizationType((1, 2)), {"divisors": (2, 3)}, InvalidArgument),
        (
            lambda: SymplecticMatrix(IntMatrix.identity(2), 1),
            {"m": IntMatrix([[2, 0], [0, 1]])},
            NotSymplectic,
        ),
        (
            lambda: construct_adapted_basis(canonical_problem(2, 2)),
            {"vectors": ((1, 0, 0, 0),)},
            DimensionMismatch,
        ),
        (_point, {"z": -1j}, InvalidPeriodData),
        (_point, {"tol": None}, InvalidPeriodData),
    ],
    ids=[
        "AlternatingForm", "PolarizationType", "SymplecticMatrix", "AdaptedBasis",
        "PeriodData-z", "PeriodData-tol",
    ],
)
def test_replace_validates_again(make, changes, error):
    with pytest.raises(error):
        make()._replace(**changes)


def test_memos_are_no_fields():
    """A memo stays out of equality, hashing, the repr and the JSON, and
    _replace starts the new record without it."""
    p = _point()
    fresh = p._replace()
    t = period_matrix(p)
    assert p._period_matrix is t and fresh._period_matrix is None
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert encode_json(p) == encode_json(fresh)
    problem = canonical_problem(2, 2)
    b = construct_adapted_basis(problem)
    assert b._verified_for is problem and b._replace()._verified_for is None
    assert encode_json(b) == encode_json(b._replace())
    assert "factored_U" in vars(problem) and "factored_U" not in vars(problem._replace())


def test_smith_form_is_a_record_in_json_too():
    """A SmithForm is written as an object keyed by field name, like every
    record; as a NamedTuple it was written as a JSON list."""
    snf = smith_normal_form(IntMatrix([[2]]))
    assert list(json.loads(encode_json(snf))) == ["d", "s", "t"]


@pytest.mark.parametrize("kind", [list, iter], ids=["list", "iterator"])
def test_sequence_fields_are_read_once_into_tuples(kind):
    """A list kept as given made the record unhashable and unequal to its
    tuple-built twin; a one-shot iterator is read once."""
    ptype = PolarizationType(kind([1, 2]))
    assert ptype == PolarizationType((1, 2)) and hash(ptype) == hash(PolarizationType((1, 2)))
    basis = construct_adapted_basis(canonical_problem(2, 2))
    twin = AdaptedBasis(2, 2, kind([list(v) for v in basis.vectors]))
    assert twin == basis and hash(twin) == hash(basis) and repr(twin) == repr(basis)
    assert PeriodData(g=2, d=2, Z=kind([[1j]]), z=1j, tol=1e-9) == _point()
