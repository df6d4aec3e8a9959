"""The package namespace is lazy: ``import fibsurf`` loads no submodule, a
public name loads only the module that defines it (and what that module
imports), and each CLI subcommand imports only what it uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibsurf

PACKAGE = Path(fibsurf.__file__).resolve().parent


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str) -> set[str]:
    proc = _run("-c", code + "\nprint(' '.join(m for m in sys.modules if m.startswith('fibsurf')))")
    return set(proc.stdout.strip().splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert _loaded("import sys, fibsurf") == {"fibsurf"}


def test_invariants_load_only_the_levels_layer():
    loaded = _loaded("import sys, fibsurf\nfibsurf.invariants_g2(5)")
    assert {"fibsurf.invariants", "fibsurf.modular"} <= loaded
    assert not loaded & {
        "fibsurf.adapted",
        "fibsurf.periods",
        "fibsurf.lattice_core",
        "fibsurf.intlinalg",
    }


def test_cli_modular_loads_only_what_it_uses():
    """-X importtime lists every module the real ``python -m`` start-up
    imports, on stderr."""
    proc = _run("-X", "importtime", "-m", "fibsurf.cli", "modular", "--d", "7")
    assert '"genus": "3"' in proc.stdout
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "fibsurf.modular" in loaded
    assert not loaded & {
        "fibsurf.periods",
        "fibsurf.adapted",
        "fibsurf.invariants",
        "fibsurf.lattice_core",
    }


def test_public_names_resolve():
    names = set(fibsurf.__all__)
    assert {"invariants_g2", "IntMatrix", "period_matrix", "IdentityViolation"} <= names
    assert {"errors", "intlinalg", "lattice_core", "modular", "adapted", "periods", "invariants"} <= names
    assert names <= set(dir(fibsurf))
    for name in fibsurf.__all__:
        assert getattr(fibsurf, name) is not None, name
    from fibsurf import construct_adapted_basis, invariants  # noqa: F401
    from fibsurf.adapted import construct_adapted_basis as direct

    assert construct_adapted_basis is direct
    assert fibsurf.serialize.encode_json is not None
    assert fibsurf.cli.main is not None


@pytest.mark.parametrize(
    "name",
    [
        "no_such_name",
        # helpers that left the public surface: private or gone
        "xgcd",
        "invert_unimodular",
        "combo",
        "mat_vec",
        "pairing",
        "gram_in_basis",
        "column_lattice_basis",
    ],
)
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(fibsurf, name)


def test_intlinalg_exports_only_the_exact_core():
    assert fibsurf._EXPORTS["intlinalg"] == (
        "IntMatrix", "SmithForm", "char_poly", "smith_normal_form",
    )


@pytest.mark.parametrize(
    "argv, needed",
    [
        (("modular", "--d", "7"), "fibsurf.modular"),
        (("check", "--d-range", "3:5"), "fibsurf.invariants"),
    ],
)
def test_level_subcommands_do_not_load_the_exact_core(argv, needed):
    """Reading and writing JSON needs ``intlinalg`` only for matrices."""
    proc = _run("-X", "importtime", "-m", "fibsurf.cli", *argv)
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert needed in loaded
    assert not loaded & {"fibsurf.intlinalg", "fibsurf.lattice_core"}


def test_no_module_imports_dataclasses():
    """The records derive from ``errors.Record``; ``dataclasses`` (and the
    ``inspect`` it loads) would cost every cold start several milliseconds."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


@pytest.mark.parametrize(
    "argv, module",
    [
        (
            ("period", "--g", "3", "--d", "4", "--Z", "[[[0, 1], [0.5, 0]], [[0.5, 0], [0, 2]]]",
             "--z", "0,1"),
            "fibsurf.periods",
        ),
        (("invariants", "--g", "3", "--d", "4"), "fibsurf.invariants"),
        (("adapted-basis", "--input", "{problem}"), "fibsurf.adapted"),
    ],
    ids=["period", "invariants", "adapted-basis"],
)
def test_record_subcommands_load_neither_dataclasses_nor_inspect(argv, module, tmp_path):
    """Between them these three load all five record modules."""
    from fibsurf import canonical_problem
    from fibsurf.serialize import encode_json

    p = canonical_problem(2, 3)
    problem = tmp_path / "problem.json"
    problem.write_text(
        encode_json({"g": p.g, "d": p.d, "U": p.U, "gram": p.form.gram, "U_A": p.U_A, "U_E": p.U_E}),
        encoding="utf-8",
    )
    argv = [str(problem) if a == "{problem}" else a for a in argv]
    proc = _run("-X", "importtime", "-m", "fibsurf.cli", *argv)
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert module in loaded
    assert not loaded & {"dataclasses", "inspect"}
