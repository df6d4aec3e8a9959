"""Command-line front end.

Subcommands: modular, invariants, check, adapted-basis, period, monodromy,
polarization, distinguish.  Output is JSON (default) or TSV via --format;
both are byte-deterministic for fixed inputs.  Exit status: 0 on success,
1 on a domain error (error code + message on stderr), 2 on usage errors.
Each ``_cmd_*`` handler returns ``(value, table, code)`` and never reads
--format: ``main`` writes ``encode_json(value)``, or ``tsv_table(*table)``,
where a ``table`` of None means that the value is a record or a list of
records, one TSV row each (``serialize.record_table``).
Each subcommand imports only the modules it uses, so a cold start of
``modular`` does not load the lattice or period code.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, NotCoprincipal, UsageError
from .serialize import (
    complex_matrix_jsonable,
    encode_json,
    parse_complex_matrix,
    parse_complex_pair,
    parse_int_matrix,
    read_int,
    record_table,
    tsv_table,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibsurf",
        description="Exact lattice, modular-curve, period and surface-invariant "
        "computations for maximally irregular fibred surfaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("modular", parents=[fmt], help="genus and cusp count of X(d)")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser(
        "invariants", parents=[fmt], help="surface invariant tables (g = 2 or 3)"
    )
    p.add_argument("mode", nargs="?", choices=("table",))
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--d-range", dest="d_range", help="lo:hi (table mode)")

    p = sub.add_parser("check", parents=[fmt], help="run every exact identity")
    p.add_argument("--d-range", dest="d_range", default="3:100")

    p = sub.add_parser(
        "adapted-basis",
        parents=[fmt],
        help="construct an adapted basis from a problem description",
    )
    p.add_argument("--input", required=True, help="JSON file with g, d, U, gram, U_A, U_E")

    p = sub.add_parser("period", parents=[fmt], help="Riemann matrix of the family")
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Z", required=True, help="complex matrix as JSON")
    p.add_argument("--z", required=True, help="re,im in the upper half plane")
    p.add_argument("--tol", type=float)

    p = sub.add_parser("monodromy", parents=[fmt], help="monodromy matrix at the cusp")
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--case", choices=("regular", "irregular"), default="regular")

    p = sub.add_parser(
        "polarization", parents=[fmt], help="polarization type of an alternating form"
    )
    p.add_argument("--gram", required=True, help="integer matrix as JSON")

    p = sub.add_parser(
        "distinguish",
        parents=[fmt],
        help="compare monodromies by symplectic conjugacy invariants",
    )
    p.add_argument("--a", help="first matrix as JSON (default: regular case)")
    p.add_argument("--b", help="second matrix as JSON (default: irregular case)")
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    return ap


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise UsageError(f"malformed JSON for {what}: {exc}") from exc


# the widest --d-range accepted; 10 000 levels of `check` take a few seconds
_MAX_RANGE_LEVELS = 10_000


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"malformed range {text!r}") from exc
    if hi < lo:
        raise UsageError(f"empty range {text!r}: hi must be at least lo")
    if hi - lo + 1 > _MAX_RANGE_LEVELS:
        raise UsageError(
            f"range {text!r} spans {hi - lo + 1} levels; at most {_MAX_RANGE_LEVELS} are allowed"
        )
    return lo, hi


def _cmd_modular(args) -> tuple[object, tuple | None, int]:
    from .modular import modular_data

    return modular_data(args.d), None, 0


def _cmd_invariants(args) -> tuple[object, tuple | None, int]:
    from .invariants import invariants_g2, invariants_g3

    table = invariants_g2 if args.g == 2 else invariants_g3
    if args.mode == "table":
        if not args.d_range:
            raise UsageError("table mode needs --d-range lo:hi")
        lo, hi = _parse_range(args.d_range)
        return [table(d) for d in range(lo, hi + 1)], None, 0
    if args.d is None:
        raise UsageError("--d is required (or use the 'table' mode)")
    return table(args.d), None, 0


def _cmd_check(args) -> tuple[object, tuple | None, int]:
    from .invariants import run_identity_checks

    lo, hi = _parse_range(args.d_range)
    results = run_identity_checks(lo, hi)
    all_ok = all(passed for _, passed in results)
    payload = {
        "d_range": f"{lo}:{hi}",
        "results": dict(results),
        "all_passed": all_ok,
    }
    verdict = "all identities passed" if all_ok else "identity failures detected"
    table = ("identity", "passed"), [*results, (verdict,)]
    return payload, table, 0 if all_ok else 1


def _cmd_adapted_basis(args) -> tuple[object, tuple | None, int]:
    from .adapted import AdaptedBasisProblem, construct_adapted_basis
    from .lattice_core import AlternatingForm

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from exc
    data = _loads(text, args.input)
    if not isinstance(data, dict):
        raise UsageError("problem file must be a JSON object")
    gram = data.get("gram", data.get("form"))
    missing = [k for k in ("g", "d", "U", "U_A", "U_E") if k not in data]
    if missing or gram is None:
        raise UsageError(f"problem file lacks fields: {missing + ['gram'] if gram is None else missing}")
    problem = AdaptedBasisProblem(
        g=read_int(data["g"], "problem field 'g'"),
        d=read_int(data["d"], "problem field 'd'"),
        U=parse_int_matrix(data["U"]),
        form=AlternatingForm(parse_int_matrix(gram)),
        U_A=parse_int_matrix(data["U_A"]),
        U_E=parse_int_matrix(data["U_E"]),
    )
    basis = construct_adapted_basis(problem)
    n = 2 * basis.g + 2
    labels = [f"u{i}" for i in range(1, n + 1)]
    vectors = [basis.u(i) for i in range(1, n + 1)]
    payload = {
        "g": basis.g,
        "d": basis.d,
        "labels": labels,
        "vectors": vectors,
        "adapted": True,  # construct_adapted_basis raises unless it verified this
    }
    rows = [(lab, *vec) for lab, vec in zip(labels, vectors)]
    header = ("section",) + tuple(f"x{i}" for i in range(1, len(vectors[0]) + 1))
    return payload, (header, rows), 0


def _cmd_period(args) -> tuple[object, tuple | None, int]:
    from .periods import PeriodData, period_matrix

    z_mat = parse_complex_matrix(_loads(args.Z, "--Z"))
    z = parse_complex_pair(args.z)
    tol = {} if args.tol is None else {"tol": args.tol}  # PeriodData reads an omitted tol
    p = PeriodData(g=args.g, d=args.d, Z=z_mat, z=z, **tol)
    pm = period_matrix(p)
    payload = {
        "T": complex_matrix_jsonable(pm.T),
        "basis_labels": list(pm.basis_labels),
    }
    header = tuple(f"T{j}" for j in range(1, args.g + 1))
    return payload, (header, pm.T), 0


def _cmd_monodromy(args) -> tuple[object, tuple | None, int]:
    from .modular import IRREGULAR, REGULAR
    from .periods import monodromy_at_cusp

    case = REGULAR if args.case == "regular" else IRREGULAR
    mono = monodromy_at_cusp(args.g, args.d, case)
    m = mono.m.m
    header = tuple(f"c{j}" for j in range(1, m.cols + 1))
    return {"cusp_case": mono.cusp_case, "m": m}, (header, m.tolists()), 0


def _cmd_polarization(args) -> tuple[object, tuple | None, int]:
    from .lattice_core import AlternatingForm, associated_degree, polarization_type

    form = AlternatingForm(parse_int_matrix(_loads(args.gram, "--gram")))
    ptype = polarization_type(form)
    try:
        degree = associated_degree(ptype)
    except NotCoprincipal:
        degree = None
    det = form.gram.det()
    payload = {
        "type": list(ptype.divisors),
        "degree": degree,
        "det": det,
    }
    row = (",".join(str(v) for v in ptype.divisors), degree, det)
    return payload, (("type", "degree", "det"), [row]), 0


def _cmd_distinguish(args) -> tuple[object, tuple | None, int]:
    from .modular import IRREGULAR, REGULAR
    from .periods import compare_monodromies, monodromy_at_cusp

    if (args.a is None) != (args.b is None):
        raise UsageError("provide both --a and --b, or neither")
    if args.a is not None:
        ma = parse_int_matrix(_loads(args.a, "--a"))
        mb = parse_int_matrix(_loads(args.b, "--b"))
    else:
        ma = monodromy_at_cusp(args.g, args.d, REGULAR).m.m
        mb = monodromy_at_cusp(args.g, args.d, IRREGULAR).m.m
    result, inv_a, inv_b = compare_monodromies(ma, mb)
    payload = {"result": result, "a": inv_a, "b": inv_b}
    rows = [
        ("result", result),
        ("a_unipotent", inv_a.unipotent),
        ("b_unipotent", inv_b.unipotent),
    ]
    return payload, (("key", "value"), rows), 0


_HANDLERS = {
    "modular": _cmd_modular,
    "invariants": _cmd_invariants,
    "check": _cmd_check,
    "adapted-basis": _cmd_adapted_basis,
    "period": _cmd_period,
    "monodromy": _cmd_monodromy,
    "polarization": _cmd_polarization,
    "distinguish": _cmd_distinguish,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        value, table, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DomainError as exc:
        if args.format == "json":
            sys.stderr.write(
                json.dumps(
                    {"error": exc.code, "message": str(exc)}, sort_keys=True
                )
                + "\n"
            )
        else:
            sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1
    if args.format == "json":
        sys.stdout.write(encode_json(value))
    else:
        sys.stdout.write(tsv_table(*(record_table(value) if table is None else table)))
    return code


if __name__ == "__main__":
    sys.exit(main())
