"""Record the stdout of every CLI input in the pool to cli_expected.json.

    python3 perfbench/record_cli.py

Run it only when the CLI's output is meant to change; the cli workload
counts any difference from the recorded bytes as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import workloads
from worker import HERE, OUT_DIR, cli_subprocess_op, problem_path


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = problem_path()
    recorded = {}
    for pool in workloads.CLI_POOL.values():
        for argv in pool:
            out = cli_subprocess_op(workloads.cli_argv(argv, path))
            if out.get("returncode") != 0:
                sys.stderr.write(f"{workloads.cli_key(argv)}: {out}\n")
                return 1
            recorded[workloads.cli_key(argv)] = out["stdout"]
    with open(os.path.join(HERE, "cli_expected.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
