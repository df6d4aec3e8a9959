"""Error hierarchy and record base shared by every module.

Each error carries a stable machine-readable ``code`` (used by the CLI's JSON
error output) equal to the class name.  All domain errors derive from
:class:`DomainError`, so callers can catch one type.  ``_int_argument`` is
the one check that an integer argument is an int, and ``_rows_argument``
the one check that a matrix argument is a sequence of rows and no text,
shared by every layer.  :class:`Record` is the base of every answer record.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the package's frozen answer records.

    A subclass lists its fields in ``_fields`` and writes its own
    ``__init__``, which validates the arguments and then stores them with
    ``self.__dict__.update(...)``, in field order.  A record equals only a
    record of the same class with equal fields (never a plain tuple or
    another record type), hashes by its fields, and has the repr
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``; ``_replace(**changes)`` builds a new record through
    ``__init__``, so it is validated again.  A memo (a value derived from
    the fields and kept on the instance) is no field: it stays out of
    equality, hashing, the repr and ``serialize``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what equality and hashing compare: the field values, in C (one
        # value alone for a one-field record)
        cls._key = attrgetter(*cls._fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is a frozen record")


class DomainError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class PostconditionFailed(DomainError):
    """A computed result failed the check that certifies it.  Raised instead
    of ``assert`` so the check also runs under ``python -O``."""


# --- exact linear algebra / alternating forms ------------------------------

class NotAlternating(DomainError):
    """Gram matrix is not antisymmetric with zero diagonal."""


class OddDimension(DomainError):
    """Alternating-form operation requires an even-dimensional matrix."""


class Degenerate(DomainError):
    """Alternating form has determinant zero."""


class NotCoprincipal(DomainError):
    """Polarization type has more than one divisor exceeding 1."""


class DimensionMismatch(DomainError):
    """Matrix/vector dimensions are inconsistent with the operation."""


class NotSymplectic(DomainError):
    """Matrix does not preserve the standard symplectic form."""


# --- congruence subgroups / modular curves ---------------------------------

class LevelTooSmall(DomainError):
    """Level d below the smallest value the formula is stated for."""


class LevelTooLarge(DomainError):
    """Level d at or above psi_13, where factoring it is no longer proven
    exact (see ``fibsurf.modular``)."""


class NonIntegralResult(DomainError):
    """A quantity that must be an exact integer failed to be one."""


class InvalidCuspSet(DomainError):
    """Irregular-cusp set is not a subset of {0, 1, inf} of size 1 or 3."""


class UnsupportedCusp(DomainError):
    """Only the cusp at infinity is supported."""


# --- adapted bases ----------------------------------------------------------

class InvariantViolation(DomainError):
    """An input invariant of the adapted-basis problem fails; the message
    names the check that failed."""


class QuotientNotBicyclic(DomainError):
    """U/(U_A + U_E) is not isomorphic to (Z/d)^2."""


class NotUnimodular(DomainError):
    """Change-of-basis matrix must have determinant 1."""


# --- period family ----------------------------------------------------------

class InvalidPeriodData(DomainError):
    """(Z, z) is not a valid point of the product of half-spaces."""


class RiemannRelationViolation(DomainError):
    """Period matrix failed symmetry or positivity beyond tolerance."""


class NotInGammaD(DomainError):
    """2x2 matrix is not congruent to the identity mod d (or not in SL2)."""


class UnsupportedCombination(DomainError):
    """No monodromy matrix is defined for this (genus, degree, case)."""


# --- surface invariants -----------------------------------------------------

class IdentityViolation(DomainError):
    """An identity between invariants failed at level ``d``: its two sides
    ``lhs`` and ``rhs`` differ."""

    def __init__(self, identity: str, d: int, lhs, rhs):
        super().__init__(f"identity {identity} failed at d={d}: {lhs} != {rhs}")
        self.identity, self.d, self.lhs, self.rhs = identity, d, lhs, rhs


class InfeasibleCover(DomainError):
    """No cover with the requested degree/genus data can exist."""


class DegenerateSlope(DomainError):
    """Slope equation is degenerate (chi equals (b-1)(g-1))."""


class UnsupportedGenus(DomainError):
    """Fibre genus outside {2, 3}."""


class InvalidArgument(DomainError):
    """Argument outside the stated precondition of an operation."""


def _int_argument(value, what: str) -> int:
    """``value``, refused with InvalidArgument naming ``what`` unless it is
    an int and no bool.  A float or bool equal to an int is refused too, so
    that it is never answered from a memo the int filled."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    return value


_TEXT = (str, bytes, bytearray)
_ROW_TYPES = frozenset((list, tuple))


def _rows_argument(value, what: str) -> tuple[tuple, ...]:
    """The rows of the matrix ``value`` as tuples.  ``value`` is read once,
    so it may be an iterator.  Refused with InvalidArgument naming ``what``
    when ``value`` or one of its rows is not iterable or is text (a str,
    bytes or bytearray), which would otherwise be read as a row or as the
    entries of one, character by character."""
    if isinstance(value, _TEXT):
        raise InvalidArgument(f"{what} must be a sequence of rows, not text, got {value!r}")
    try:
        outer = tuple(value)
        # rows that are lists or tuples, the usual case, need no text check
        if not _ROW_TYPES.issuperset(map(type, outer)):
            for row in outer:
                if isinstance(row, _TEXT):
                    raise InvalidArgument(f"{what} rows must not be text, got {row!r}")
        return tuple(map(tuple, outer))
    except TypeError as exc:
        raise InvalidArgument(f"{what} rows must be sequences: {exc}") from exc


# --- CLI --------------------------------------------------------------------

class UsageError(DomainError):
    """Command line was syntactically valid but semantically unusable."""
