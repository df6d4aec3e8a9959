"""Command-line interface: frozen outputs, exit codes, determinism."""

import json

import pytest

import fibsurf.cli as cli
import fibsurf.lattice_core


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A self-contained problem description: standard symplectic form on Z^4,
# U_A spanned by (1,0,0,0), (0,-1,3,0), U_E by (0,1,0,0), (-1,0,0,3).
PROBLEM_G2_D3 = {
    "g": 2,
    "d": 3,
    "U": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "gram": [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    "U_A": [[1, 0], [0, -1], [0, 3], [0, 0]],
    "U_E": [[0, -1], [1, 0], [0, 0], [0, 3]],
}


# ------------------------------------------------------------------ modular


def test_modular_tsv_frozen(capsys):
    code, out, err = run_cli(capsys, ["modular", "--d", "7", "--format", "tsv"])
    assert code == 0 and err == ""
    assert out == "d\tdelta\tgenus\tcusps\n7\t2\t3\t24\n"


def test_modular_json_frozen(capsys):
    code, out, _ = run_cli(capsys, ["modular", "--d", "7"])
    assert code == 0
    assert json.loads(out) == {"d": "7", "delta": "2", "genus": "3", "cusps": "24"}


def test_modular_domain_error(capsys):
    code, out, err = run_cli(capsys, ["modular", "--d", "2"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "LevelTooSmall"
    assert "message" in payload


def test_domain_error_tsv_flavour(capsys):
    code, _, err = run_cli(capsys, ["modular", "--d", "2", "--format", "tsv"])
    assert code == 1
    assert err.startswith("LevelTooSmall:")


# --------------------------------------------------------------- invariants


def test_invariants_tsv_frozen(capsys):
    code, out, _ = run_cli(
        capsys, ["invariants", "--g", "3", "--d", "4", "--format", "tsv"]
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.split("\t") == [
        "g", "d", "delta", "base_genus", "s", "c2", "chi", "K2",
        "tau", "H", "lambda", "delta0", "delta1", "general_type",
    ]
    assert row.split("\t") == [
        "3", "4", "1/2", "23", "0", "188", "48", "388",
        "4", "48", "4", "12", "0", "true",
    ]


def test_invariants_json_genus2(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "--g", "2", "--d", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "19"
    assert payload["c2"] == "27"
    assert payload["chi"] == "4"
    assert payload["K2"] == "21"
    assert payload["tau"] is None and payload["lambda"] is None
    assert payload["general_type"] is True


def test_invariants_table_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        ["invariants", "table", "--g", "2", "--d-range", "3:6", "--format", "tsv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + one row per level
    assert lines[1].split("\t")[1] == "3"
    assert lines[4].split("\t")[1] == "6"


def test_invariants_usage_errors(capsys):
    code, _, err = run_cli(capsys, ["invariants", "--g", "2"])
    assert code == 2 and err.startswith("usage error:")
    code, _, err = run_cli(capsys, ["invariants", "table", "--g", "2"])
    assert code == 2
    code, _, err = run_cli(
        capsys, ["invariants", "table", "--g", "2", "--d-range", "6"]
    )
    assert code == 2 and "lo:hi" in err


# -------------------------------------------------------------------- check


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, ["check", "--d-range", "3:25"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 12
    assert all(v is True for v in payload["results"].values())


def test_check_tsv_mentions_verdict(capsys):
    code, out, _ = run_cli(capsys, ["check", "--d-range", "3:10", "--format", "tsv"])
    assert code == 0
    assert out.rstrip().endswith("all identities passed")


def test_check_bad_range(capsys):
    code, _, err = run_cli(capsys, ["check", "--d-range", "nonsense"])
    assert code == 2 and err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--d-range", "3:1000000000"],
        ["check", "--d-range", "3:10003"],
        ["invariants", "table", "--g", "3", "--d-range", "3:1000000000"],
    ],
)
def test_range_wider_than_cap_is_refused(capsys, argv):
    """Ranges of more than 10 000 levels are a usage error, raised before
    any level is computed."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "at most 10000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--d-range", "5:3"],
        ["invariants", "table", "--g", "2", "--d-range", "5:3"],
    ],
)
def test_empty_range_is_refused(capsys, argv):
    """hi < lo is one usage error for both subcommands that take a range."""
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "5:3" in err


def test_check_names_the_failing_identity(capsys, monkeypatch):
    import fibsurf.invariants as invariants

    original = invariants._identities

    def broken(*args):
        return tuple(
            (name, lhs + 1 if name == "h_derivation" else lhs, rhs)
            for name, lhs, rhs in original(*args)
        )

    monkeypatch.setattr(invariants, "_identities", broken)
    code, out, _ = run_cli(capsys, ["check", "--d-range", "3:5"])
    assert code == 1
    results = json.loads(out)["results"]
    assert [name for name, ok in results.items() if not ok] == ["h_derivation"]
    code, out, _ = run_cli(capsys, ["check", "--d-range", "3:5", "--format", "tsv"])
    assert code == 1
    assert out.endswith("\nidentity failures detected\n")

    code, out, err = run_cli(capsys, ["invariants", "--g", "3", "--d", "5"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "IdentityViolation"
    assert "h_derivation" in payload["message"] and "d=5" in payload["message"]


# ------------------------------------------------------------ adapted-basis


def test_adapted_basis_end_to_end(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM_G2_D3))
    code, out, _ = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["adapted"] is True
    assert payload["labels"] == ["u1", "u2", "u3", "u4", "u5", "u6"]
    assert payload["vectors"] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "-1", "3", "0"],
        ["-1", "0", "0", "3"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]


def test_adapted_basis_tsv(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM_G2_D3))
    code, out, _ = run_cli(
        capsys, ["adapted-basis", "--input", str(path), "--format", "tsv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section\tx1\tx2\tx3\tx4"
    assert lines[1] == "u1\t1\t0\t0\t0"
    assert len(lines) == 7


def test_adapted_basis_missing_file(capsys):
    code, _, err = run_cli(capsys, ["adapted-basis", "--input", "/no/such/file"])
    assert code == 2 and err.startswith("usage error:")


def test_adapted_basis_incomplete_problem(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"g": 2, "d": 3}))
    code, _, err = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 2 and "lacks fields" in err


def test_adapted_basis_domain_error(tmp_path, capsys):
    bad = dict(PROBLEM_G2_D3, d=4)  # index is 9, not d^2 = 16
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 1
    assert json.loads(err)["error"] in ("InvariantViolation", "QuotientNotBicyclic")


@pytest.mark.parametrize(
    "field, value",
    [("g", "x"), ("d", "3.5"), ("d", 3.0), ("g", None), ("d", True), ("g", [2])],
)
def test_adapted_basis_rejects_non_integer_fields(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(PROBLEM_G2_D3, **{field: value})))
    code, out, err = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and repr(field) in err


def test_adapted_basis_accepts_decimal_string_fields(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(PROBLEM_G2_D3, g="2", d="3")))
    code, out, _ = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 0 and json.loads(out)["adapted"] is True


# ------------------------------------------------------------------- period


@pytest.mark.parametrize(
    "g, z_arg",
    [("2", "[[[0,1]]]"), ("3", "[[[0,1],[0,0]],[[0,0],[0,1]]]")],
)
def test_period_large_degree(capsys, g, z_arg):
    """Im T has entries Im(Z)/d^2 and Im(z)/d; at d = 100000 the first is
    1e-10, below the default tolerance, yet T is a valid Riemann matrix."""
    code, out, err = run_cli(
        capsys, ["period", "--g", g, "--d", "100000", "--Z", z_arg, "--z", "0,1"]
    )
    assert code == 0 and err == ""
    entries = json.loads(out)["T"]["entries"]
    assert entries[-2][-2] == ["0.0", "1e-10"]
    assert entries[-1][-1] == ["0.0", "1e-05"]


@pytest.mark.parametrize(
    "g, d, z_arg",
    [
        ("2", str(10**400), "[[[0,1]]]"),
        ("3", str(10**200), "[[[0,1],[0,0]],[[0,0],[0,1]]]"),
    ],
    ids=["g2-1e400", "g3-1e200"],
)
def test_period_refuses_degree_beyond_normal_doubles(capsys, g, d, z_arg):
    """1/d^2 is an entry of Im T; once it is not a normal double the degree
    is refused with a JSON error, not a traceback or a false violation."""
    code, out, err = run_cli(capsys, ["period", "--g", g, "--d", d, "--Z", z_arg, "--z", "0,1"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidPeriodData" and "2**511" in payload["message"]


def test_period_largest_degree(capsys):
    z_arg = "[[[0,1],[0,0]],[[0,0],[0,1]]]"
    code, out, err = run_cli(
        capsys, ["period", "--g", "3", "--d", str(2**511), "--Z", z_arg, "--z", "0,1"]
    )
    assert code == 0 and err == ""
    entries = json.loads(out)["T"]["entries"]
    assert entries[1][1] == ["0.0", repr(2.0**-1022)]
    assert entries[2][2] == ["0.0", repr(2.0**-511)]


def test_period_end_to_end(capsys):
    z_arg = json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]])
    code, out, _ = run_cli(
        capsys, ["period", "--g", "3", "--d", "3", "--Z", z_arg, "--z", "0,1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_labels"] == [
        "alpha_1", "alpha_2", "alpha_3", "beta_1", "beta_2", "beta_3",
    ]
    t = payload["T"]
    assert t["rows"] == 3 and t["cols"] == 3
    want = [
        [1j, 0, 0],
        [0, 1j / 9, 1 / 3],
        [0, 1 / 3, 1j / 3],
    ]
    for i in range(3):
        for j in range(3):
            re, im = (float(s) for s in t["entries"][i][j])
            assert abs(complex(re, im) - want[i][j]) < 1e-12, (i, j)


def test_period_tsv_uses_plain_decimal_cells(capsys):
    """Complex cells are re,im pairs of bare floats (exact binary values
    here, so the output is frozen byte for byte)."""
    z_arg = json.dumps([[[0.5, 2.0]]])
    code, out, _ = run_cli(
        capsys,
        ["period", "--g", "2", "--d", "4", "--Z", z_arg, "--z", "0.25,1.5",
         "--format", "tsv"],
    )
    assert code == 0
    assert out == (
        "T1\tT2\n"
        "0.03125,0.125\t0.25,0.0\n"
        "0.25,0.0\t0.0625,0.375\n"
    )


def test_period_accepts_small_im_z(capsys):
    """Positivity of Im Z is judged after scaling to unit diagonal, as for
    Im T, so a small positive Im Z is a valid point."""
    code, out, err = run_cli(
        capsys, ["period", "--g", "2", "--d", "3", "--Z", "[[[0,1e-10]]]", "--z", "0,1"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["T"]["entries"][0][0] == ["0.0", "1.1111111111111111e-11"]


def test_period_rejects_bad_point(capsys):
    z_arg = json.dumps([[[0, 1], [0, 0]], [[0, 0], [0, 1]]])
    code, _, err = run_cli(
        capsys, ["period", "--g", "3", "--d", "3", "--Z", z_arg, "--z", "0,-1"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "InvalidPeriodData"


@pytest.mark.parametrize(
    "z_arg, z, extra",
    [
        ('[[["0", "0"]]]', "0,1", []),  # Im Z = 0 is only semidefinite
        ('[[["nan", "1"]]]', "0,1", []),
        ('[[[0, 1]]]', "nan,1", []),
        ('[[[0, 1]]]', "0,inf", []),
        ('[[[0, 1]]]', "0,1", ["--tol", "inf"]),
        ('[[[0, 1]]]', "0,1", ["--tol", "nan"]),
    ],
    ids=["semidefinite", "Z-nan", "z-nan", "z-inf", "tol-inf", "tol-nan"],
)
def test_period_rejects_invalid_data(capsys, z_arg, z, extra):
    code, out, err = run_cli(
        capsys, ["period", "--g", "2", "--d", "3", "--Z", z_arg, "--z", z, *extra]
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidPeriodData"


@pytest.mark.parametrize("value", ["abc", "-1", "inf"])
def test_period_rejects_bad_tolerance_env(capsys, monkeypatch, value):
    monkeypatch.setenv("FIBSURF_TOL", value)
    code, out, err = run_cli(
        capsys, ["period", "--g", "2", "--d", "3", "--Z", "[[[0, 1]]]", "--z", "0,1"]
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidPeriodData" and "FIBSURF_TOL" in payload["message"]


def test_period_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, ["period", "--g", "2", "--d", "3", "--Z", "[[", "--z", "0,1"]
    )
    assert code == 2 and "malformed JSON" in err
    code, _, err = run_cli(
        capsys, ["period", "--g", "2", "--d", "3", "--Z", "[[[0,1]]]", "--z", "i"]
    )
    assert code == 2 and "re,im" in err


# ---------------------------------------------------------------- monodromy


def test_monodromy_irregular_json_frozen(capsys):
    code, out, _ = run_cli(
        capsys, ["monodromy", "--g", "3", "--d", "2", "--case", "irregular"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cusp_case"] == "Irregular"
    m = payload["m"]
    assert m["rows"] == 6 and m["cols"] == 6
    assert m["entries"] == [
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "-1"],
        ["0", "0", "-1", "0", "1", "-1"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "0", "-1"],
    ]


def test_monodromy_regular_tsv(capsys):
    code, out, _ = run_cli(
        capsys, ["monodromy", "--g", "2", "--d", "5", "--format", "tsv"]
    )
    assert code == 0
    assert out == (
        "c1\tc2\tc3\tc4\n"
        "1\t0\t0\t0\n"
        "0\t1\t0\t1\n"
        "0\t0\t1\t0\n"
        "0\t0\t0\t1\n"
    )


def test_monodromy_unsupported(capsys):
    code, _, err = run_cli(
        capsys, ["monodromy", "--g", "2", "--d", "2", "--case", "irregular"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "UnsupportedCombination"


# ------------------------------------------------------------- polarization


def test_polarization_json(capsys):
    gram = json.dumps([[0, 3], [-3, 0]])
    code, out, _ = run_cli(capsys, ["polarization", "--gram", gram])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"type": ["3"], "degree": "3", "det": "9"}


def test_polarization_non_coprincipal_has_null_degree(capsys):
    gram = json.dumps([[0, 0, 2, 0], [0, 0, 0, 6], [-2, 0, 0, 0], [0, -6, 0, 0]])
    code, out, _ = run_cli(capsys, ["polarization", "--gram", gram])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == ["2", "6"]
    assert payload["degree"] is None
    assert payload["det"] == "144"


def test_polarization_rejects_symmetric_matrix(capsys):
    gram = json.dumps([[0, 1], [1, 0]])
    code, _, err = run_cli(capsys, ["polarization", "--gram", gram])
    assert code == 1
    assert json.loads(err)["error"] == "NotAlternating"


@pytest.mark.parametrize("shape", ['"x"', "[2]", "2.9", "true"])
def test_polarization_rejects_malformed_shape(capsys, shape):
    gram = '{"rows": %s, "cols": 2, "entries": [[0, 1], [-1, 0]]}' % shape
    code, out, err = run_cli(capsys, ["polarization", "--gram", gram])
    assert code == 2 and out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize(
    "gram",
    ["[[0,1],[-1]]", "[[]]", "[[0,1],[]]", '["12", "34"]', '[{"1": 0, "2": 0}, {"3": 0, "4": 0}]'],
)
def test_polarization_refuses_ragged_and_empty_rows(capsys, gram):
    """Like every other malformed matrix: exit 2, not a DimensionMismatch.
    A row that is not a JSON array is refused, not iterated as one."""
    code, out, err = run_cli(capsys, ["polarization", "--gram", gram])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "equal length" in err
    code, out, err = run_cli(capsys, ["distinguish", "--a", gram, "--b", gram])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "equal length" in err


# -------------------------------------------------------------- distinguish


def test_distinguish_default_pair(capsys):
    code, out, _ = run_cli(capsys, ["distinguish"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "Distinguished"
    assert payload["a"]["unipotent"] is True
    assert payload["b"]["unipotent"] is False


def test_distinguish_computes_each_record_once(capsys, monkeypatch):
    """Two records of two Smith forms each: M - I and M^2 - I per matrix."""
    calls = []
    original = fibsurf.lattice_core.smith_normal_form

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(fibsurf.lattice_core, "smith_normal_form", counting)
    code, out, _ = run_cli(capsys, ["distinguish"])
    assert code == 0 and json.loads(out)["result"] == "Distinguished"
    assert len(calls) == 4


def test_distinguish_explicit_matrices(capsys):
    ident = json.dumps([[1, 0], [0, 1]])
    code, out, _ = run_cli(capsys, ["distinguish", "--a", ident, "--b", ident])
    assert code == 0
    assert json.loads(out)["result"] == "Inconclusive"


def test_distinguish_needs_both_or_neither(capsys):
    code, _, err = run_cli(capsys, ["distinguish", "--a", "[[1,0],[0,1]]"])
    assert code == 2 and err.startswith("usage error:")


# --------------------------------------------------------- matrix size cap


def _standard_gram(n: int) -> list[list[int]]:
    """The standard principal alternating form on Z^n (n even)."""
    h = n // 2
    return [[(j == i + h) - (i == j + h) for j in range(n)] for i in range(n)]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_polarization_accepts_the_cap_and_refuses_beyond(capsys):
    code, out, _ = run_cli(capsys, ["polarization", "--gram", json.dumps(_standard_gram(20))])
    assert code == 0 and json.loads(out)["type"] == ["1"] * 10
    code, out, err = run_cli(capsys, ["polarization", "--gram", json.dumps(_standard_gram(22))])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "cap of 20 rows and 20 columns" in err


def test_distinguish_refuses_oversized_matrices(capsys):
    big = json.dumps(_identity(22))
    code, out, err = run_cli(capsys, ["distinguish", "--a", big, "--b", big])
    assert code == 2 and out == ""
    assert "cap of 20 rows and 20 columns" in err


def test_adapted_basis_refuses_oversized_matrices(tmp_path, capsys):
    """A 22-row ambient space (g = 11) is refused before any factoring; so
    is a wide header-less row."""
    big = dict(PROBLEM_G2_D3, g=11, U=_identity(22), gram=_standard_gram(22))
    wide = dict(PROBLEM_G2_D3, U_A=[[1] * 21])
    for problem in (big, wide):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(problem))
        code, out, err = run_cli(capsys, ["adapted-basis", "--input", str(path)])
        assert code == 2 and out == ""
        assert "cap of 20 rows and 20 columns" in err


def test_polarization_accepts_six_digit_entries_and_refuses_seven(capsys):
    code, out, _ = run_cli(capsys, ["polarization", "--gram", "[[0, -999999], [999999, 0]]"])
    assert code == 0 and json.loads(out)["type"] == ["999999"]
    code, out, err = run_cli(capsys, ["polarization", "--gram", "[[0, -1000000], [1000000, 0]]"])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "cap of 6 decimal digits" in err


def test_entry_cap_covers_every_matrix_subcommand(tmp_path, capsys):
    """Decimal-string entries count too."""
    big = json.dumps([[1, 0], [0, 10**12]])
    code, out, err = run_cli(capsys, ["distinguish", "--a", big, "--b", big])
    assert code == 2 and out == "" and "cap of 6 decimal digits" in err
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(PROBLEM_G2_D3, U_E=[["0", "-1"], ["1", "0"], ["0", "0"], ["0", "-3000000"]])))
    code, out, err = run_cli(capsys, ["adapted-basis", "--input", str(path)])
    assert code == 2 and out == "" and "cap of 6 decimal digits" in err


# ----------------------------------------------------------- shell contract


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as ei:
        cli.main(["modular"])  # missing required --d
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        cli.main(["no-such-command"])
    assert ei.value.code == 2


def test_outputs_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["invariants", "--g", "3", "--d", "5"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    z_arg = json.dumps([[[0.3, 1.7]]])
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, ["period", "--g", "2", "--d", "4", "--Z", z_arg, "--z", "0.1,2.3"]
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_cli_runs_as_module():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fibsurf.cli", "modular", "--d", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["genus"] == "0"
