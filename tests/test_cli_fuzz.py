"""Fuzzing the command line in process: every generated argv ends in exit 0,
1 or 2, and no other exception leaves ``fibsurf.cli.main``.

argparse reports a usage error by raising ``SystemExit(2)``; that is caught
and read as the exit status.  No subprocess is started.  Inputs stay small
so each example is fast: matrices of at most 6x6 with entries of at most 3
digits, plus over-cap ones that are refused while parsing; degrees below
1e9; ranges at most 200 levels wide.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibsurf.cli as cli
from fibsurf import canonical_problem

SMALL = st.integers(-999, 999)
ODD_ENTRY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["12", "-7", "1e3", "0x1f", " 5", [], {}, [1]]),
)
DEGREE = st.one_of(st.integers(-2, 12), st.integers(-10, 10**9 - 1))


def _square(draw, n, entry):
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def int_matrices(draw):
    """A JSON matrix value: well formed, alternating, symplectic, ragged,
    with odd entries, over either cap, wrapped in a {"rows", "cols",
    "entries"} object, or not a matrix at all."""
    kind = draw(st.sampled_from(
        ["plain", "alternating", "symplectic", "ragged", "odd", "big", "long", "other"]
    ))
    if kind == "plain":
        r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        rows = [draw(st.lists(SMALL, min_size=c, max_size=c)) for _ in range(r)]
    elif kind == "alternating":
        n = draw(st.integers(1, 6))
        upper = _square(draw, n, SMALL)
        rows = [[upper[i][j] if i < j else -upper[j][i] if i > j else 0 for j in range(n)]
                for i in range(n)]
    elif kind == "symplectic":  # I + k E_{g,2g}, the regular monodromy for k = 1
        g = draw(st.integers(1, 3))
        rows = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
        rows[g - 1][2 * g - 1] = draw(SMALL)
    elif kind == "ragged":
        rows = draw(st.lists(st.lists(SMALL, max_size=6), min_size=1, max_size=6))
    elif kind == "odd":
        n = draw(st.integers(1, 4))
        rows = _square(draw, n, st.one_of(SMALL, ODD_ENTRY))
    elif kind == "big":  # more than 20 rows or columns
        r, c = draw(st.integers(1, 25)), draw(st.integers(21, 25))
        rows = [[0] * c for _ in range(r)]
        if draw(st.booleans()):
            rows = [list(col) for col in zip(*rows)]
    elif kind == "long":  # an entry of more than 6 digits
        n = draw(st.integers(1, 4))
        rows = _square(draw, n, SMALL)
        rows[0][0] = draw(st.sampled_from([1, -1])) * draw(st.integers(10**6, 10**9))
    else:
        return draw(st.sampled_from([None, 3, "[[1]]", [], [[]], {}, {"entries": 3}, [1, 2]]))
    if draw(st.booleans()):
        header = st.one_of(st.integers(-1, 7), st.sampled_from([None, "2", "x", 1.5, [2]]))
        return {"rows": draw(header), "cols": draw(header), "entries": rows}
    return rows


def _json_arg(draw, value) -> str:
    """The JSON text of a value, or now and then text that is not JSON."""
    if draw(st.integers(0, 9)) == 7:
        return draw(st.sampled_from(["", "[[1, 2]", "not json", "{", "[[1,2],[3,4]]]"]))
    return json.dumps(value)


def _fmt(draw) -> list[str]:
    formats = [[], [], ["--format", "tsv"], ["--format", "json"], ["--format", "xml"]]
    return draw(st.sampled_from(formats))


def _range(draw) -> str:
    if draw(st.integers(0, 4)) == 3:
        return draw(st.sampled_from(["3", "a:b", "5:3", "::", "3:4:5", "", ":7", "1e3:2e3"]))
    lo = draw(st.integers(-5, 10**6))
    return f"{lo}:{lo + draw(st.integers(-2, 199))}"


@st.composite
def argvs(draw, problem_path):
    command = draw(st.sampled_from([
        "modular", "invariants", "check", "adapted-basis", "period", "monodromy",
        "polarization", "distinguish",
    ]))
    g = draw(st.sampled_from(["2", "3", "2", "3", "4", "x"]))
    argv = [command]
    if command == "modular":
        argv += ["--d", str(draw(DEGREE))]
    elif command == "invariants":
        argv += ["--g", g]
        if draw(st.booleans()):
            argv += ["table", "--d-range", _range(draw)]
        else:
            argv += ["--d", str(draw(DEGREE))]
    elif command == "check":
        argv += ["--d-range", _range(draw)]
    elif command == "adapted-basis":
        problem_path.write_text(draw(problem_files()), encoding="utf-8")
        argv += ["--input", str(problem_path)]
    elif command == "period":
        z_mat = draw(complex_matrices(int(g) - 1 if g.isdigit() else 1))
        argv += ["--g", g, "--d", str(draw(DEGREE)), "--Z", _json_arg(draw, z_mat),
                 "--z", draw(complex_pairs())]
        odd_tol = st.sampled_from(["nan", "-1", "inf", "0", "1e-300", "1e300", "abc"])
        tol = draw(st.one_of(st.none(), st.floats().map(repr), odd_tol))
        if tol is not None:
            argv += ["--tol", tol]
    elif command == "monodromy":
        argv += ["--g", g, "--d", str(draw(DEGREE)),
                 "--case", draw(st.sampled_from(["regular", "irregular", "other"]))]
    elif command == "polarization":
        argv += ["--gram", _json_arg(draw, draw(int_matrices()))]
    else:
        if draw(st.booleans()):
            argv += ["--a", _json_arg(draw, draw(int_matrices()))]
            if draw(st.integers(0, 9)):
                argv += ["--b", _json_arg(draw, draw(int_matrices()))]
        else:
            argv += ["--g", g, "--d", str(draw(DEGREE))]
    return argv + _fmt(draw)


@st.composite
def complex_matrices(draw, h):
    """A JSON value for --Z: a point i*y*I of the Siegel space H_h, or
    [re, im] pairs, bare numbers and odd entries in square, ragged or empty
    shapes."""
    pair = st.tuples(st.floats(), st.floats()).map(lambda p: [repr(p[0]), repr(p[1])])
    odd = st.sampled_from(["1j", "nan", "inf", "x", None, [1], [1, 2, 3]])
    entry = st.one_of(pair, st.floats(-3, 3), odd)
    kind = draw(st.sampled_from(["point", "square", "square", "ragged"]))
    if kind == "ragged":
        return draw(st.lists(st.lists(entry, max_size=3), max_size=3))
    if kind == "point":
        y = repr(draw(st.floats(1e-3, 1e3)))
        rows = [[["0", y] if i == j else ["0", "0"] for j in range(h)] for i in range(h)]
    else:
        rows = _square(draw, draw(st.integers(0, 3)), entry)
    return {"entries": rows} if draw(st.integers(0, 4)) == 0 else rows


@st.composite
def complex_pairs(draw) -> str:
    if draw(st.booleans()):
        return draw(st.sampled_from(
            ["0,1", "1.5,2", "nan,1", "inf,1", "0,-1", "0,0", "1e308,1e308", "1e-320,1e-320",
             "a,b", "1", "", "1,2,3", " 1 , 2 "]
        ))
    im = st.floats() if draw(st.booleans()) else st.floats(1e-6, 1e6)
    return f"{draw(st.floats(-1e6, 1e6))!r},{draw(im)!r}"


@st.composite
def problem_files(draw) -> str:
    """Text of an adapted-basis problem file: a canonical problem with one
    field changed, a problem assembled from random fields, or not a problem."""
    kind = draw(st.sampled_from(["canonical", "random", "other"]))
    if kind == "other":
        return draw(st.sampled_from(["", "[]", "3", "{", '"g"', "null"]))
    odd_int = st.one_of(st.integers(-2, 8), st.sampled_from(["3", "x", True, 2.5, None, [2]]))
    if kind == "canonical":
        p = canonical_problem(draw(st.integers(2, 3)), draw(st.integers(2, 9)))
        data = {"g": p.g, "d": p.d, "U": p.U.tolists(), "gram": p.form.gram.tolists(),
                "U_A": p.U_A.tolists(), "U_E": p.U_E.tolists()}
        key = draw(st.sampled_from(sorted(data)))
        if key in ("g", "d"):
            data[key] = draw(odd_int)
        elif draw(st.booleans()):
            rows = data[key]
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
            rows[i][j] += draw(st.integers(-3, 3))
        else:
            data[key] = draw(int_matrices())
    else:
        data = {"g": draw(odd_int), "d": draw(odd_int)}
        for key in ("U", "gram", "U_A", "U_E"):
            data[key] = draw(int_matrices())
    for key in draw(st.sets(st.sampled_from(sorted(data)), max_size=1)):
        del data[key]
    return json.dumps(data)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz") / "problem.json"


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage error or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_status(problem_path, data):
    argv = data.draw(argvs(problem_path), label="argv")
    code, out, err = _main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert out or err, argv
    if code == 2:
        assert err and not out, (argv, out)
