"""Postconditions are typed errors, not asserts, so they also fire under
``python -O``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibsurf
from fibsurf import (
    AlternatingForm,
    DomainError,
    IntMatrix,
    PeriodData,
    PostconditionFailed,
    canonical_problem,
    change_basis,
    char_poly,
    construct_adapted_basis,
    frobenius_basis,
    period_matrix,
    smith_normal_form,
    standard_symplectic_gram,
)

SRC = Path(fibsurf.__file__).resolve().parent.parent


def test_postcondition_failed_is_a_domain_error():
    assert issubclass(PostconditionFailed, DomainError)
    assert PostconditionFailed("x").code == "PostconditionFailed"


def test_construction_postcondition(monkeypatch):
    monkeypatch.setattr(fibsurf.adapted, "is_adapted_basis", lambda p, b: False)
    with pytest.raises(PostconditionFailed, match="construction postcondition"):
        construct_adapted_basis(canonical_problem(2, 3))


def test_change_basis_internal_check(monkeypatch):
    """The moved basis keeps u_{2g-1} and has u'_{2g} as its derived
    vector by construction; a glue vector that breaks this is a failed
    check, not an ``assert``."""
    basis = construct_adapted_basis(canonical_problem(2, 3))
    original = fibsurf.adapted._combo
    glue_calls = [0]

    def first_glue_vector_off(vectors, coeffs):
        out = original(vectors, coeffs)
        if len(vectors) == 4:  # a glue vector, from the 4-vector frame
            glue_calls[0] += 1
            if glue_calls[0] == 1:
                return (out[0] + 1,) + out[1:]
        return out

    monkeypatch.setattr(fibsurf.adapted, "_combo", first_glue_vector_off)
    with pytest.raises(PostconditionFailed, match="glue relations"):
        change_basis(basis, IntMatrix([[1, 3], [0, 1]]), 3)
    assert glue_calls[0] == 2


def test_construction_internal_check(monkeypatch):
    """A wrong Frobenius type for the complement of (a1, a2) in U_A."""
    original = fibsurf.adapted.frobenius_basis

    def wrong_type(form):
        basis, _ = original(form)
        return basis, fibsurf.coprincipal_type(form.dim // 2, 2)

    monkeypatch.setattr(fibsurf.adapted, "frobenius_basis", wrong_type)
    with pytest.raises(PostconditionFailed, match="complement is not principal"):
        construct_adapted_basis(canonical_problem(3, 2))


def test_invert_unimodular_internal_check(monkeypatch):
    """A Smith form of a unimodular matrix whose diagonal is not all ones,
    met when S^-1 is read."""
    snf = smith_normal_form(IntMatrix([[2, 1], [1, 1]]))
    original = fibsurf.intlinalg._smith_form

    def non_unit_diagonal(m):
        snf = original(m)
        return snf._replace(d=snf.d.scale(2))

    monkeypatch.setattr(fibsurf.intlinalg, "_smith_form", non_unit_diagonal)
    with pytest.raises(PostconditionFailed, match="no integral inverse"):
        snf.s_inv


def test_frobenius_postcondition(monkeypatch):
    original = fibsurf.lattice_core.block_normal_gram
    monkeypatch.setattr(
        fibsurf.lattice_core, "block_normal_gram", lambda t: original(t).scale(2)
    )
    with pytest.raises(PostconditionFailed, match="normal-form"):
        frobenius_basis(AlternatingForm(standard_symplectic_gram(2)))


def test_char_poly_exact_division(monkeypatch):
    monkeypatch.setattr(IntMatrix, "trace", lambda self: 1)
    with pytest.raises(PostconditionFailed, match="not exact"):
        char_poly(IntMatrix([[1, 2], [3, 4]]))


def test_period_corner_postcondition(monkeypatch):
    """Sections built for another degree give a symmetric, positive T whose
    corner is 1/(d+1) instead of 1/d."""
    original = fibsurf.periods.lattice_sections

    def wrong_degree(p):
        return original(PeriodData(g=p.g, d=p.d + 1, Z=p.Z, z=p.z, tol=p.tol))

    monkeypatch.setattr(fibsurf.periods, "lattice_sections", wrong_degree)
    p = PeriodData(g=3, d=3, Z=[[2j, 0.5], [0.5, 3j]], z=1.5j, tol=1e-9)
    with pytest.raises(PostconditionFailed, match="corner"):
        period_matrix(p)


_OPTIMIZED_SCRIPT = """
import sys
assert not __debug__, "run with python -O"
import fibsurf.adapted
import fibsurf.cli
fibsurf.adapted.is_adapted_basis = lambda p, b: False
sys.exit(fibsurf.cli.main(["adapted-basis", "--input", sys.argv[1]]))
"""


def test_postcondition_fires_under_python_O(tmp_path):
    p = canonical_problem(2, 3)
    problem = {
        "g": 2,
        "d": 3,
        "U": p.U.tolists(),
        "gram": p.form.gram.tolists(),
        "U_A": p.U_A.tolists(),
        "U_E": p.U_E.tolists(),
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "PostconditionFailed"
    assert "construction postcondition" in err["message"]
