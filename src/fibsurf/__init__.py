"""Exact lattice algebra, congruence-subgroup arithmetic, period matrices
and surface-invariant tables for maximally irregular fibred surfaces of
fibre genus 2 and 3.

The namespace is lazy (PEP 562): ``import fibsurf`` loads no submodule, and
``fibsurf.X`` or ``from fibsurf import X`` loads only the module that
defines X and the modules it imports.  Submodules resolve as attributes
too.
"""

from importlib import import_module as _import_module

#: The public names, by the module that defines them.
_EXPORTS = {
    "errors": (
        "Degenerate", "DegenerateSlope", "DimensionMismatch", "DomainError",
        "IdentityViolation", "InfeasibleCover", "InvalidArgument",
        "InvalidCuspSet", "InvalidPeriodData", "InvariantViolation",
        "LevelTooLarge", "LevelTooSmall", "NonIntegralResult",
        "NotAlternating", "NotCoprincipal", "NotInGammaD", "NotSymplectic",
        "NotUnimodular", "OddDimension", "PostconditionFailed",
        "QuotientNotBicyclic", "RiemannRelationViolation",
        "UnsupportedCombination", "UnsupportedCusp", "UnsupportedGenus",
        "UsageError",
    ),
    "intlinalg": (
        "IntMatrix", "SmithForm", "char_poly", "smith_normal_form",
    ),
    "lattice_core": (
        "AlternatingForm", "ConjugacyInvariants", "PolarizationType",
        "SymplecticMatrix", "associated_degree", "block_normal_gram",
        "conjugacy_invariants", "coprincipal_type", "frobenius_basis",
        "is_symplectic", "polarization_type", "principal_type",
        "standard_symplectic_gram",
    ),
    "modular": (
        "CUSP_INF", "CUSP_ONE", "CUSP_ZERO", "IRREGULAR",
        "IRREGULAR_STABILIZER", "REGULAR", "REGULAR_STABILIZER",
        "CuspRegularityCase", "ModularCurveData", "cusp_case", "delta",
        "gamma2_complement_contains", "gamma_d_contains", "modular_data",
        "normalize_cusp", "normalize_cusp_set",
    ),
    "adapted": (
        "NOT_ADAPTED", "AdaptedBasis", "AdaptedBasisProblem",
        "canonical_problem", "change_basis", "construct_adapted_basis",
        "is_adapted_basis",
    ),
    "periods": (
        "DISTINGUISHED", "INCONCLUSIVE", "MonodromyMatrix", "PeriodData",
        "PeriodMatrix", "default_tolerance", "distinguish_monodromies",
        "gamma_action", "gamma_action_defect", "lattice_sections",
        "monodromy_at_cusp", "monodromy_translation_defect", "period_matrix",
        "section_pairing_gram", "siegel_action",
    ),
    "invariants": (
        "ELLIPTIC_WITH_NODE", "GENUS2_PLUS_RATIONAL_TWO_NODES",
        "GENUS2_WITH_NODE", "HYPERELLIPTIC_FIBRE_DEFECT",
        "TWO_ELLIPTIC_ONE_NODE", "FibreTypeCatalogue", "SingularFibreType",
        "SurfaceInvariants", "arakelov_holds", "euler_fibre_sum_check",
        "fibre_types", "invariants_g2", "invariants_g3", "moduli_dimension",
        "pullback_K2", "run_identity_checks", "slope",
        "unique_fibration_criterion",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "serialize", "cli")

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
