"""Command-line front end.

Subcommands: modular, invariants, check, adapted-basis, period, monodromy,
polarization, distinguish.  Output is JSON (default) or TSV via --format;
both are byte-deterministic for fixed inputs.  Exit status: 0 on success,
1 on a domain error (error code + message on stderr), 2 on usage errors.
Each subcommand imports only the modules it uses, so a cold start of
``modular`` does not load the lattice or period code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import DomainError, NotCoprincipal, UsageError
from .serialize import (
    complex_matrix_jsonable,
    encode_json,
    field_name,
    parse_complex_matrix,
    parse_complex_pair,
    parse_int_matrix,
    read_int,
    tsv_table,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fibsurf",
        description="Exact lattice, modular-curve, period and surface-invariant "
        "computations for maximally irregular fibred surfaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def with_format(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        return p

    p = with_format(sub.add_parser("modular", help="genus and cusp count of X(d)"))
    p.add_argument("--d", type=int, required=True)

    p = with_format(
        sub.add_parser("invariants", help="surface invariant tables (g = 2 or 3)")
    )
    p.add_argument("mode", nargs="?", choices=("table",))
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--d-range", dest="d_range", help="lo:hi (table mode)")

    p = with_format(sub.add_parser("check", help="run every exact identity"))
    p.add_argument("--d-range", dest="d_range", default="3:100")

    p = with_format(
        sub.add_parser(
            "adapted-basis",
            help="construct an adapted basis from a problem description",
        )
    )
    p.add_argument("--input", required=True, help="JSON file with g, d, U, gram, U_A, U_E")

    p = with_format(sub.add_parser("period", help="Riemann matrix of the family"))
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--Z", required=True, help="complex matrix as JSON")
    p.add_argument("--z", required=True, help="re,im in the upper half plane")
    p.add_argument("--tol", type=float)

    p = with_format(sub.add_parser("monodromy", help="monodromy matrix at the cusp"))
    p.add_argument("--g", type=int, choices=(2, 3), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--case", choices=("regular", "irregular"), default="regular")

    p = with_format(
        sub.add_parser("polarization", help="polarization type of an alternating form")
    )
    p.add_argument("--gram", required=True, help="integer matrix as JSON")

    p = with_format(
        sub.add_parser(
            "distinguish",
            help="compare monodromies by symplectic conjugacy invariants",
        )
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


def _cmd_modular(args) -> tuple[str, int]:
    from .modular import modular_data

    data = modular_data(args.d)
    if args.format == "json":
        return encode_json(data), 0
    row = (data.d, data.delta, data.genus, data.cusps)
    return tsv_table(("d", "delta", "genus", "cusps"), [row]), 0


def _cmd_invariants(args) -> tuple[str, int]:
    from .invariants import SurfaceInvariants, invariants_g2, invariants_g3

    table = invariants_g2 if args.g == 2 else invariants_g3
    if args.mode == "table":
        if not args.d_range:
            raise UsageError("table mode needs --d-range lo:hi")
        lo, hi = _parse_range(args.d_range)
        invs = [table(d) for d in range(lo, hi + 1)]
    elif args.d is None:
        raise UsageError("--d is required (or use the 'table' mode)")
    else:
        invs = [table(args.d)]
    if args.format == "json":
        return encode_json(invs if args.mode == "table" else invs[0]), 0
    names = [f.name for f in fields(SurfaceInvariants)]
    rows = [[getattr(inv, name) for name in names] for inv in invs]
    return tsv_table([field_name(name) for name in names], rows), 0


def _cmd_check(args) -> tuple[str, int]:
    from .invariants import run_identity_checks

    lo, hi = _parse_range(args.d_range)
    results = run_identity_checks(lo, hi)
    all_ok = all(passed for _, passed in results)
    if args.format == "json":
        out = encode_json(
            {
                "d_range": f"{lo}:{hi}",
                "results": dict(results),
                "all_passed": all_ok,
            }
        )
    else:
        out = tsv_table(("identity", "passed"), results)
        out += "all identities passed\n" if all_ok else "identity failures detected\n"
    return out, 0 if all_ok else 1


def _cmd_adapted_basis(args) -> tuple[str, int]:
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
    if args.format == "json":
        return encode_json(payload), 0
    rows = [(lab, *vec) for lab, vec in zip(labels, vectors)]
    header = ("section",) + tuple(f"x{i}" for i in range(1, len(vectors[0]) + 1))
    return tsv_table(header, rows), 0


def _cmd_period(args) -> tuple[str, int]:
    from .periods import PeriodData, default_tolerance, period_matrix

    z_mat = parse_complex_matrix(_loads(args.Z, "--Z"))
    z = parse_complex_pair(args.z)
    tol = args.tol if args.tol is not None else default_tolerance()
    p = PeriodData(g=args.g, d=args.d, Z=z_mat, z=z, tol=tol)
    pm = period_matrix(p)
    if args.format == "json":
        payload = {
            "T": complex_matrix_jsonable(pm.T),
            "basis_labels": list(pm.basis_labels),
        }
        return encode_json(payload), 0
    return tsv_table(
        tuple(f"T{j}" for j in range(1, args.g + 1)),
        [tuple(row) for row in pm.T],
    ), 0


def _cmd_monodromy(args) -> tuple[str, int]:
    from .modular import IRREGULAR, REGULAR
    from .periods import monodromy_at_cusp

    case = REGULAR if args.case == "regular" else IRREGULAR
    mono = monodromy_at_cusp(args.g, args.d, case)
    if args.format == "json":
        return encode_json({"cusp_case": mono.cusp_case, "m": mono.m.m}), 0
    return tsv_table(
        tuple(f"c{j}" for j in range(1, mono.m.m.cols + 1)),
        mono.m.m.tolists(),
    ), 0


def _cmd_polarization(args) -> tuple[str, int]:
    from .lattice_core import AlternatingForm, associated_degree, polarization_type

    form = AlternatingForm(parse_int_matrix(_loads(args.gram, "--gram")))
    ptype = polarization_type(form)
    try:
        degree = associated_degree(ptype)
    except NotCoprincipal:
        degree = None
    det = form.gram.det()
    if args.format == "json":
        payload = {
            "type": list(ptype.divisors),
            "degree": degree,
            "det": det,
        }
        return encode_json(payload), 0
    row = (",".join(str(v) for v in ptype.divisors), degree, det)
    return tsv_table(("type", "degree", "det"), [row]), 0


def _cmd_distinguish(args) -> tuple[str, int]:
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
    if args.format == "json":
        payload = {"result": result, "a": inv_a, "b": inv_b}
        return encode_json(payload), 0
    rows = [
        ("result", result),
        ("a_unipotent", inv_a.unipotent),
        ("b_unipotent", inv_b.unipotent),
    ]
    return tsv_table(("key", "value"), rows), 0


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
        out, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DomainError as exc:
        if getattr(args, "format", "json") == "json":
            sys.stderr.write(
                json.dumps(
                    {"error": exc.code, "message": str(exc)}, sort_keys=True
                )
                + "\n"
            )
        else:
            sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
