"""Every CLI invocation recorded in ``perfbench/cli_expected.json``, replayed
in process through ``cli.main``: stdout must match the recorded bytes.

The argv lists come from ``perfbench/workloads.py`` (standard library only),
the same pool the ``cli`` bench workload draws from, so this is the bench's
per-invocation byte oracle over the whole pool instead of a random subset.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import fibsurf.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = json.loads((PERFBENCH / "cli_expected.json").read_text(encoding="utf-8"))
POOL = [argv for pool in workloads.CLI_POOL.values() for argv in pool]


def test_the_pool_is_the_recorded_set():
    assert len(POOL) == 35
    assert sorted(workloads.cli_key(argv) for argv in POOL) == sorted(EXPECTED)


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "problem.json"
    path.write_text(json.dumps(workloads.CLI_PROBLEM), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", POOL, ids=[workloads.cli_key(argv) for argv in POOL])
def test_recorded_stdout(argv, problem_path, monkeypatch, capsys):
    monkeypatch.delenv("FIBSURF_TOL", raising=False)
    code = cli.main(workloads.cli_argv(argv, problem_path))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == EXPECTED[workloads.cli_key(argv)]
