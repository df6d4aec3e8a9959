"""One benchmark pass in a fresh interpreter; results go to a JSON file.

Usage (spawned by run.py):

    python3 perfbench/worker.py --workload W --seed S --mode MODE
        [--seconds X] [--count N] --out PATH

Modes:
  setup    import the package, run one warm-up operation, report when ready
  timed    closed loop for --seconds of busy time, or --count operations
           (CLI: one subprocess per operation), then report latencies and
           peak RSS; every mode but setup writes the operations' outputs to
           OUT.outputs.jsonl
  inproc   like timed, but CLI operations call ``fibsurf.cli.main`` in this
           process
  traced   the first --count operations in process, under the tracer
  profile  the first --count operations in process, under cProfile
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BATCH = 64
WARMUP_SEED = -1
CLI_TIMEOUT_S = 60

import workloads  # noqa: E402  (stdlib only; fibsurf is imported later, timed)


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FIBSURF_TOL", "PYTHONPATH")}
    env["PYTHONPATH"] = "src"
    return env


def problem_path() -> str:
    path = os.path.join(OUT_DIR, "cli_problem.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workloads.CLI_PROBLEM, fh)
    return path


def cli_subprocess_op(argv: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fibsurf.cli", *argv],
            cwd=ROOT,
            env=cli_env(),
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {CLI_TIMEOUT_S} s"}
    return {
        "returncode": proc.returncode,
        "stdout": proc.stdout.decode("utf-8", "replace"),
        "stderr": proc.stderr.decode("utf-8", "replace"),
    }


def import_package(workload: str):
    """Import fibsurf from this checkout (never an installed copy)."""
    os.environ.pop("FIBSURF_TOL", None)
    sys.path.insert(0, SRC)
    import fibsurf

    if not os.path.abspath(fibsurf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported fibsurf from {fibsurf.__file__}, not from {SRC}")
    if workload == "cli":
        import fibsurf.cli
    return fibsurf


def make_op(workload: str, mode: str, fs):
    """(op, encode): op(x) runs one operation on a generated input and is
    what gets timed; encode(result) turns its result into JSON data."""
    if workload != "cli":
        run = workloads.OPS[workload]
        return (lambda x: run(fs, x)), workloads.ENCODERS[workload]
    path = problem_path()
    if mode == "timed":
        return (lambda argv: cli_subprocess_op(workloads.cli_argv(argv, path))), dict

    def inproc(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fs.cli.main(workloads.cli_argv(argv, path))
        return {"returncode": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    return inproc, dict


def run_ops(op, encode, workload: str, seed: int, seconds: float | None, count: int | None,
            sink) -> dict:
    """Closed loop, one client: each operation starts after the previous one
    returns.  Inputs are generated in batches outside the timed region; the
    loop stops after ``count`` operations or ``seconds`` of busy time.
    Outputs are written to ``sink`` as JSON lines rather than kept, so the
    process's peak RSS does not grow with the number of operations."""
    latencies: list[int] = []
    failed = 0
    busy = 0
    limit_ns = None if seconds is None else int(seconds * 1e9)
    clock = time.perf_counter_ns
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if limit_ns is not None and busy >= limit_ns:
            break
        n = BATCH if count is None else min(BATCH, count - i)
        for x in workloads.make_inputs(workload, seed, i, n):
            t0 = clock()
            try:
                raw = op(x)
            except Exception as exc:  # counted as a failed operation
                dt = clock() - t0
                out = {"error": f"{type(exc).__name__}: {exc}"}
                failed += 1
            else:
                dt = clock() - t0
                out = encode(raw)
            latencies.append(dt)
            sink.write(json.dumps(out) + "\n")
            busy += dt
            i += 1
            if limit_ns is not None and busy >= limit_ns:
                break
    return {"ops": i, "latencies_ns": latencies, "busy_ns": busy, "failed": failed}


def peak_rss_kb(workload: str, mode: str) -> int:
    """Peak RSS of this process, or on the cli workload of its children.

    ru_maxrss of a process started by fork/vfork + exec also counts the
    parent's peak at the fork, so for this process the kernel's VmHWM, which
    covers only the image since exec, is used.  The children's ru_maxrss
    has the same floor, this process's own peak, which stays far below a
    CLI process's."""
    if workload == "cli" and mode == "timed":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "inproc", "traced", "profile"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--out", required=True, help="result JSON; outputs go to OUT.outputs.jsonl")
    args = ap.parse_args()
    wl, mode = args.workload, args.mode
    result: dict = {}

    if mode == "timed" and wl == "cli":
        os.makedirs(OUT_DIR, exist_ok=True)
        op, encode = make_op(wl, mode, None)
        op(workloads.cli_input(WARMUP_SEED, 0))  # compiles bytecode, warms the page cache
    else:
        t0 = time.perf_counter_ns()
        warm = workloads.make_inputs(wl, WARMUP_SEED, 0, 1)[0]
        result["gen_ns"] = time.perf_counter_ns() - t0
        fs = import_package(wl)
        os.makedirs(OUT_DIR, exist_ok=True)
        op, encode = make_op(wl, "inproc", fs)
        op(warm)
        result["ready_ns"] = time.monotonic_ns()
        if mode == "setup":
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            return 0

    with open(args.out + ".outputs.jsonl", "w", encoding="utf-8") as sink:
        if mode == "traced":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            traced_op = tracer.root(f"benchmark.{wl}.op", op)
            result.update(run_ops(traced_op, encode, wl, args.seed, None, args.count, sink))
            result["layers"] = tracer.layer_table()
            result["smith_distinct"] = len(tracer.smith_inputs)
            result["smith_max_bits"] = tracer.smith_max_bits
            tracer.write(os.path.join(OUT_DIR, f"spans-{wl}-{args.seed}.json"))
        elif mode == "profile":
            from tracing import profile_by_module

            box = {}
            result["profile"] = profile_by_module(
                lambda: box.update(run_ops(op, encode, wl, args.seed, None, args.count, sink))
            )
            result["ops"], result["failed"] = box["ops"], box["failed"]
        else:
            result.update(run_ops(op, encode, wl, args.seed, args.seconds, args.count, sink))
            result["peak_rss_kb"] = peak_rss_kb(wl, mode)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
