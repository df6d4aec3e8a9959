"""Deterministic JSON / TSV encoding shared by the CLI and test fixtures.

Conventions (chosen so golden files stay diff-friendly and overflow-proof):
integers become decimal strings; fractions the reduced "p/q" form; complex
numbers become [re, im] pairs of decimal strings (shortest round-trip
repr); integer and complex matrices become {"rows": n, "cols": m,
"entries": [[...], ...]} with numeric shape fields and string entries.
Records (``errors.Record``) serialize their fields, in the order of the
class's ``_fields``, by field name, with the trailing-underscore escape for
Python keywords stripped (``lambda_`` -> "lambda").  A record is a value of
its own class: its fields are what it compares, hashes and prints by, it
equals no plain tuple or other record type, and it is frozen (``_replace``
builds a new one).  A memo kept on a record is not a field, so not part of
the value.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import Record, UsageError

# IntMatrix (in annotations) is imported from .intlinalg only where a matrix
# is read or written, so that the CLI's level subcommands never load the
# exact core.


def _field_name(name: str) -> str:
    """The JSON key or TSV column of a record field (``lambda_`` -> "lambda")."""
    return name[:-1] if name.endswith("_") else name


class _Raw:
    """Wrapper marking a value as already being in final jsonable form."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def to_jsonable(obj):
    """Recursively convert a value into json.dumps-ready primitives."""
    if isinstance(obj, _Raw):
        return obj.value
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Record):
        return {_field_name(f): to_jsonable(v) for f, v in zip(obj._fields, obj._values())}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = list(obj)
        if isinstance(obj, (frozenset, set)):
            items = sorted(items, key=str)
        return [to_jsonable(v) for v in items]
    # an IntMatrix exists only once intlinalg is loaded, so this is a lookup
    from .intlinalg import IntMatrix

    if isinstance(obj, IntMatrix):
        return {
            "rows": obj.rows,
            "cols": obj.cols,
            "entries": [[str(v) for v in row] for row in obj.tolists()],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def complex_matrix_jsonable(rows) -> _Raw:
    """Encode a rectangular complex matrix as {"rows", "cols", "entries"}
    with numeric shape fields and [re, im] decimal-string entries."""
    grid = [[complex(v) for v in row] for row in rows]
    ncols = len(grid[0]) if grid else 0
    return _Raw(
        {
            "rows": len(grid),
            "cols": ncols,
            "entries": [[to_jsonable(v) for v in row] for row in grid],
        }
    )


def encode_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def tsv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r},{v.imag!r}"
    return str(v)


def tsv_table(header, rows) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(tsv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def record_table(value) -> tuple[list[str], list[list]]:
    """The TSV header and rows of a record or a list of records: one row per
    record, its JSON values in field order under its JSON keys."""
    objs = [to_jsonable(r) for r in (value if isinstance(value, list) else [value])]
    return list(objs[0]), [list(obj.values()) for obj in objs]


def read_int(v, what: str) -> int:
    """A JSON integer or a decimal string, never a bool; anything else is a
    UsageError naming ``what``."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            pass
    raise UsageError(f"{what} must be an integer, got {v!r}")


# the largest matrix side and entry size accepted.  At 20x20 with 6-digit
# entries (cold, shared 2-vCPU VM, Python 3.11) adapted-basis factoring a
# dense U took 0.11-0.44 s over 12 seeds, and distinguish on products of
# symplectic transvections (each drawn from random.Random(seed), stopped
# before an entry reaches 10^6) 0.13-1.1 s over seeds 0..11, except
# 5.7-6.4 s for seed 3, whose Smith forms of M - I and M^2 - I grow large
# entries.  Earlier runs took up to 4.6 s with 7 digits and 9.3 s with 9,
# and up to 10 s at 24x24 with 6-digit entries
_MAX_MATRIX_DIM = 20
_MAX_ENTRY_DIGITS = 6
_ROWS_RULE = "matrix rows must be nonempty JSON arrays of equal length"


def parse_int_matrix(data) -> IntMatrix:
    """Decode an integer matrix from the JSON encoding (either the
    {"rows","cols","entries"} object or a bare list of rows), at most
    _MAX_MATRIX_DIM rows and columns of entries of at most _MAX_ENTRY_DIGITS
    decimal digits."""
    entries = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(entries, list) or not entries:
        raise UsageError("expected a nonempty matrix")
    if not all(isinstance(row, list) for row in entries):
        raise UsageError(_ROWS_RULE)
    rows = [[read_int(v, "matrix entry") for v in row] for row in entries]
    width = max(map(len, rows))
    if max(len(rows), width) > _MAX_MATRIX_DIM:
        raise UsageError(
            f"matrix of {len(rows)} rows and {width} columns exceeds the cap of "
            f"{_MAX_MATRIX_DIM} rows and {_MAX_MATRIX_DIM} columns"
        )
    if not width or any(len(row) != width for row in rows):
        raise UsageError(_ROWS_RULE)
    if any(abs(v) >= 10**_MAX_ENTRY_DIGITS for row in rows for v in row):
        raise UsageError(f"matrix entries exceed the cap of {_MAX_ENTRY_DIGITS} decimal digits")
    if isinstance(data, dict):
        want = (data.get("rows"), data.get("cols"))
        have = (len(rows), len(rows[0]))
        if all(w is not None for w in want):
            shape = tuple(read_int(w, "matrix shape") for w in want)
            if shape != have:
                raise UsageError(f"matrix shape {have} does not match header {want}")
    from .intlinalg import IntMatrix

    return IntMatrix(rows)


def _to_complex(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v)
    raise UsageError(f"cannot read complex value from {v!r}")


def parse_complex_matrix(data) -> tuple[tuple[complex, ...], ...]:
    """Decode a complex matrix: entries as [re, im] pairs of decimal
    strings (preferred) or bare numbers."""
    entries = data.get("entries") if isinstance(data, dict) else data
    if not isinstance(entries, list) or not entries:
        raise UsageError("expected a nonempty complex matrix")
    try:
        return tuple(tuple(_to_complex(v) for v in row) for row in entries)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed complex matrix: {exc}") from exc


def parse_complex_pair(text: str) -> complex:
    """Decode "re,im" with decimal components."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"malformed complex number {text!r}: {exc}") from exc
