"""fibsurf benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {lattice,periods,levels,cli}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.

--trace 0 measures the named workload with tracing off, as a closed loop
with one client.  S seconds of busy time are split over PASSES fresh worker
processes that replay the same inputs; every PROBE_EVERY-th pass is
preceded by a fresh process that only sets up.  Per operation the best of
the PASSES latencies is kept: neighbours on a shared host slow stretches of
a run by up to ~1.6x, and the best of several passes separated in time
removes most of that.  It prints throughput (operations over the sum of best latencies), p50 and p90
of the best latencies, fail ratio, set-up time (median of the probes) and
peak RSS.

--trace 1 runs every workload on the same inputs in fresh processes,
alternately plain and with the tracer, then profiles ``lattice`` and times
the interpreter and imports.  It prints the per-layer metrics, each taken
from the workload that exercises its layer (HOME), and the tracing overhead
of each workload.

Every operation's output is checked by an oracle that does not call the
package (oracles.py), and one deliberately corrupted output must be
rejected.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads
from worker import HERE, OUT_DIR, ROOT, SRC, cli_env

WORKER = os.path.join(HERE, "worker.py")
PASSES = 12
PROBE_EVERY = 2  # passes; one set-up probe before every second pass
IMPORT_PROBES = 5
TRACE_PAIRS = 2
TRACE_SHARE = 1 / 16  # of --seconds, per workload, for the first plain pass of a traced run
DIGEST_OPS = {"lattice": 200, "periods": 500, "levels": 200, "cli": 16}
WORKER_SLACK_S = 60
REFERENCE_N = 300_000

E2E = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Workload whose traced pass each layer's metrics come from.
HOME = {
    "intlinalg": "lattice",
    "lattice_core": "lattice",
    "adapted": "lattice",
    "periods": "periods",
    "modular": "levels",
    "invariants": "levels",
    "serialize": "cli",
    "cli": "cli",
}

# (metric, unit, workload, span name, statistic) for span-derived metrics.
SPAN_METRICS = (
    ("intlinalg.smith_normal_form.calls_per_op", "count/op", "lattice", "intlinalg.smith_normal_form", "calls"),
    ("intlinalg.smith_normal_form.self_ms_per_op", "ms/op", "lattice", "intlinalg.smith_normal_form", "self_ms"),
    ("intlinalg.solve_integer.calls_per_op", "count/op", "lattice", "intlinalg.solve_integer", "calls"),
    ("intlinalg.solve_integer.self_ms_per_op", "ms/op", "lattice", "intlinalg.solve_integer", "self_ms"),
    ("intlinalg.IntMatrix.init.calls_per_op", "count/op", "lattice", "intlinalg.IntMatrix.init", "calls"),
    ("intlinalg.IntMatrix.mul.calls_per_op", "count/op", "lattice", "intlinalg.IntMatrix.mul", "calls"),
    ("intlinalg.IntMatrix.mul.self_ms_per_op", "ms/op", "lattice", "intlinalg.IntMatrix.mul", "self_ms"),
    ("intlinalg.det.calls_per_op", "count/op", "lattice", "intlinalg.IntMatrix.det", "calls"),
    ("lattice_core.frobenius_basis.calls_per_op", "count/op", "lattice", "lattice_core.frobenius_basis", "calls"),
    ("lattice_core.frobenius_basis.self_ms_per_op", "ms/op", "lattice", "lattice_core.frobenius_basis", "self_ms"),
    ("lattice_core.is_symplectic.calls_per_op", "count/op", "periods", "lattice_core.is_symplectic", "calls"),
    ("lattice_core.is_symplectic.self_ms_per_op", "ms/op", "periods", "lattice_core.is_symplectic", "self_ms"),
    ("adapted.construct_adapted_basis.self_ms_per_op", "ms/op", "lattice", "adapted.construct_adapted_basis", "self_ms"),
    ("adapted.is_adapted_basis.calls_per_op", "count/op", "lattice", "adapted.is_adapted_basis", "calls"),
    ("adapted.is_adapted_basis.self_ms_per_op", "ms/op", "lattice", "adapted.is_adapted_basis", "self_ms"),
    ("adapted.change_basis.self_ms_per_op", "ms/op", "lattice", "adapted.change_basis", "self_ms"),
    ("periods.PeriodData.init.calls_per_op", "count/op", "periods", "periods.PeriodData.init", "calls"),
    ("periods.PeriodData.init.self_ms_per_op", "ms/op", "periods", "periods.PeriodData.init", "self_ms"),
    ("periods.period_matrix.calls_per_op", "count/op", "periods", "periods.period_matrix", "calls"),
    ("periods.period_matrix.self_ms_per_op", "ms/op", "periods", "periods.period_matrix", "self_ms"),
    ("periods.lattice_sections.calls_per_op", "count/op", "periods", "periods.lattice_sections", "calls"),
    ("periods.siegel_action.self_ms_per_op", "ms/op", "periods", "periods.siegel_action", "self_ms"),
    ("periods.monodromy_translation_defect.self_ms_per_op", "ms/op", "periods",
     "periods.monodromy_translation_defect", "self_ms"),
    ("periods.gamma_action_defect.self_ms_per_op", "ms/op", "periods", "periods.gamma_action_defect", "self_ms"),
    ("modular.delta.calls_per_op", "count/op", "levels", "modular.delta", "calls"),
    ("modular.delta.self_ms_per_op", "ms/op", "levels", "modular.delta", "self_ms"),
    ("modular.modular_data.calls_per_op", "count/op", "levels", "modular.modular_data", "calls"),
    ("modular.modular_data.self_ms_per_op", "ms/op", "levels", "modular.modular_data", "self_ms"),
    ("invariants.invariants_g2.self_ms_per_op", "ms/op", "levels", "invariants.invariants_g2", "self_ms"),
    ("invariants.invariants_g3.self_ms_per_op", "ms/op", "levels", "invariants.invariants_g3", "self_ms"),
    ("invariants.run_identity_checks.self_ms_per_op", "ms/op", "levels", "invariants.run_identity_checks", "self_ms"),
    ("serialize.encode_json.calls_per_op", "count/op", "cli", "serialize.encode_json", "calls"),
    ("serialize.encode_json.self_ms_per_op", "ms/op", "cli", "serialize.encode_json", "self_ms"),
    ("cli.main.self_ms_per_op", "ms/op", "cli", "cli.main", "self_ms"),
)

# Metrics that are not a span statistic: (metric, unit).
OTHER_METRICS = (
    ("intlinalg.smith_normal_form.distinct_input_ratio", "ratio"),
    ("intlinalg.smith_transform_max_bits", "bits"),
    ("periods.translation_defect_max", "abs"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_fibsurf_cli_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    *((f"{layer}.errors_per_op", "count/op") for layer in HOME),
    *((f"trace_overhead.{wl}", "ratio") for wl in workloads.WORKLOADS),
    ("host.ref_loop_start_mops_s", "Mops/s"),
    ("host.ref_loop_end_mops_s", "Mops/s"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, mode: str, seconds: float | None = None,
          count: int | None = None) -> tuple[dict, int]:
    """Run one worker pass to completion; returns (its result, the
    monotonic time just before it was started)."""
    out = os.path.join(OUT_DIR, f"worker-{workload}-{mode}-{seed}.json")
    outputs = out + ".outputs.jsonl"
    for path in (out, outputs):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", out]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if count is not None:
        cmd += ["--count", str(count)]
    timeout = (seconds or 0) * 4 + WORKER_SLACK_S
    started = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(out):
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise BenchError(f"{mode} worker for {workload} failed: {' | '.join(tail)}")
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    if os.path.exists(outputs):
        with open(outputs, encoding="utf-8") as fh:
            res["outputs"] = [json.loads(line) for line in fh]
        os.remove(outputs)
    return res, started


def reference_rate() -> float:
    """Millions of iterations per second of a fixed pure-Python loop: a
    gauge of host speed, reported as context only."""
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_N):
            acc = (acc + i * i) % 1000003
        rates.append(REFERENCE_N / (time.perf_counter() - t0) / 1e6)
    return statistics.median(rates)


def verify(workload: str, seed: int, passes: list[list[dict]], report: list[str]) -> tuple[int, bool]:
    """Check every output of every pass, and that the oracle rejects a
    corrupted output.  Returns (operations failed, self-check passed).
    Passes replay the same inputs, so an output identical to one already
    judged for the same input is not checked twice."""
    import oracles

    with open(os.path.join(HERE, "cli_expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    inputs = workloads.make_inputs(workload, seed, 0, max(len(p) for p in passes))
    verdicts: dict = {}
    failed = 0
    for outputs in passes:
        for i, out in enumerate(outputs):
            key = (i, json.dumps(out, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = oracles.check(workload, inputs[i], out, expected)
            if verdicts[key] is not None:
                failed += 1
                if failed <= 5:
                    report.append(f"  FAILED {workload} op {i}: {verdicts[key]}")
    first = passes[0][0] if passes[0] else None
    if first is None or oracles.check(workload, inputs[0], first, expected) is not None:
        problem = "no correct output to corrupt"
    elif oracles.check(workload, inputs[0], oracles.corrupt(workload, first), expected) is None:
        problem = "the oracle accepted a corrupted output"
    else:
        problem = None
    report.append(f"  oracle self-check ({workload}): "
                  + ("a corrupted output is counted as failed" if problem is None else "FAILED, " + problem))
    return failed, problem is None


def best_latencies(passes: list[dict]) -> list[int]:
    """Per operation, the smallest latency any pass measured (ns)."""
    return [min(col) for col in zip(*(p["latencies_ns"] for p in passes))]


def untraced(workload: str, seed: int, seconds: float, report: list[str]) -> tuple[dict, int, int, bool]:
    setup: list[float] = []
    passes: list[dict] = []
    for j in range(PASSES):
        if j % PROBE_EVERY == 0:
            res, started = spawn(workload, seed, "setup")
            setup.append((res["ready_ns"] - started - res["gen_ns"]) / 1e9)
        # the first pass runs for its share of the time, the rest replay its operations
        if j == 0:
            res, _ = spawn(workload, seed, "timed", seconds=seconds / PASSES)
        else:
            res, _ = spawn(workload, seed, "timed", count=passes[0]["ops"])
        passes.append(res)
    n = passes[0]["ops"]
    best_ms = [v / 1e6 for v in best_latencies(passes)]
    # linear interpolation between order statistics; with the few operations
    # of the cli workload this leans less on the single slowest one
    deciles = statistics.quantiles(best_ms, n=10, method="inclusive") if n >= 2 else best_ms * 9
    metrics = {
        "throughput_ops_s": n / (sum(best_ms) / 1e3),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_p90_ms": deciles[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
    }
    failed, self_ok = verify(workload, seed, [p["outputs"] for p in passes], report)
    attempted = n * PASSES
    n_digest = min(n, DIGEST_OPS[workload])
    digest = workloads.outputs_digest(workload, passes[0]["outputs"][:n_digest])
    pooled = sum(p["busy_ns"] for p in passes) / 1e9
    report.append(f"  closed loop, 1 client: {PASSES} fresh-process passes over the same {n} operations; "
                  f"latencies are per operation the best of {PASSES}, "
                  f"{sum(v > deciles[8] for v in best_ms)} of them above p90")
    report.append(f"  all passes together: {attempted} operations in {pooled:.2f} s busy "
                  f"= {attempted / pooled:.4g} ops/s (context only)")
    report.append(f"  setup_s samples: {', '.join(f'{v:.4f}' for v in setup)}")
    report.append(f"  output digest (sha256, first {n_digest} operations): {digest}")
    return metrics, attempted, failed, self_ok


def _run_python(*args: str) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, check=True, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"python {' '.join(args)} failed: {exc}") from exc


def cli_probes() -> dict:
    """Interpreter floor and import costs, each the best of fresh runs."""
    interp, imp_cli, imp_numpy = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        _run_python("-c", "pass")
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = _run_python("-X", "importtime", "-c", "import fibsurf.cli")
        top = {}
        numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            if name.strip() == "numpy":
                numpy_us = int(parts[1])
            if not name.startswith("  "):  # top-level import
                top[name.strip()] = int(parts[1])
        imp_cli.append((top.get("fibsurf", 0) + top.get("fibsurf.cli", 0)) / 1e3)
        imp_numpy.append(numpy_us / 1e3)
    return {
        "cli.interpreter_ms": min(interp),
        "cli.import_fibsurf_cli_ms": min(imp_cli),
        "cli.import_numpy_ms": min(imp_numpy),
    }


def merged_layers(passes: list[dict]) -> dict:
    """Sum the per-span counts and self times of several traced passes."""
    total: dict = {}
    for res in passes:
        for name, row in res["layers"].items():
            acc = total.setdefault(name, {"calls": 0, "self_ns": 0, "errors": 0})
            acc["calls"] += row["calls"]
            acc["errors"] += row["errors"]
            acc["self_ns"] = None if row["self_ns"] is None else acc["self_ns"] + row["self_ns"]
    return total


def traced(seed: int, seconds: float, report: list[str]) -> tuple[dict, int, int, bool]:
    metrics: dict = {}
    tables = {}
    attempted = failed = 0
    self_ok = True
    for wl in workloads.WORKLOADS:
        # plain, traced, plain, traced: alternating spreads host drift over both
        plain, spanned = [spawn(wl, seed, "inproc", seconds=seconds * TRACE_SHARE)[0]], []
        n = plain[0]["ops"]
        for j in range(TRACE_PAIRS):
            if j:
                plain.append(spawn(wl, seed, "inproc", count=n)[0])
            spanned.append(spawn(wl, seed, "traced", count=n)[0])
        n *= TRACE_PAIRS
        metrics[f"trace_overhead.{wl}"] = sum(best_latencies(spanned)) / sum(best_latencies(plain))
        tables[wl] = (merged_layers(spanned), n, spanned[0])
        f, ok = verify(wl, seed, [p["outputs"] for p in plain + spanned], report)
        attempted += 2 * n
        failed += f
        self_ok &= ok
    prof, _ = spawn("lattice", seed, "profile", count=tables["lattice"][1] // TRACE_PAIRS)
    attempted += prof["ops"]
    failed += prof["failed"]

    def stat(wl: str, span: str, kind: str) -> float:
        layers, n, _ = tables[wl]
        row = layers.get(span, {"calls": 0, "self_ns": 0, "errors": 0})
        return row["calls"] / n if kind == "calls" else row["self_ns"] / n / 1e6

    for name, _unit, wl, span, kind in SPAN_METRICS:
        metrics[name] = stat(wl, span, kind)
    first = tables["lattice"][2]
    smith_calls = first["layers"].get("intlinalg.smith_normal_form", {"calls": 0})["calls"]
    metrics["intlinalg.smith_normal_form.distinct_input_ratio"] = first["smith_distinct"] / max(smith_calls, 1)
    metrics["intlinalg.smith_transform_max_bits"] = first["smith_max_bits"]
    metrics["periods.translation_defect_max"] = max(
        (o.get("monodromy_defect", 0.0) for o in tables["periods"][2]["outputs"]), default=0.0)
    for layer, wl in HOME.items():
        layers, n, _ = tables[wl]
        errors = sum(r["errors"] for name, r in layers.items() if name.startswith(layer + "."))
        metrics[f"{layer}.errors_per_op"] = errors / n
    metrics.update(cli_probes())

    report.append("  wait time: none recorded -- no layer queues work, every call runs to completion")
    for wl in workloads.WORKLOADS:
        layers, n, _ = tables[wl]
        report.append(f"  traced {wl}: {n} operations in {TRACE_PAIRS} passes, overhead "
                      f"x{metrics['trace_overhead.' + wl]:.3f} (best-of-{TRACE_PAIRS} time per "
                      f"operation, traced over plain, same inputs)")
        report.append(f"    {'span':<46} {'calls/op':>10} {'self ms/op':>11} {'errors/op':>10}")
        rows = sorted(layers.items(), key=lambda kv: -(kv[1]["self_ns"] or 0))
        for name, r in rows:
            if r["calls"]:
                self_ms = "-" if r["self_ns"] is None else f"{r['self_ns'] / n / 1e6:.4f}"
                report.append(f"    {name:<46} {r['calls'] / n:>10.2f} {self_ms:>11} {r['errors'] / n:>10.3f}")
    report.append(f"  cProfile, lattice, {prof['ops']} operations -- internal time by module (s):")
    for module, secs in prof["profile"]["by_module_s"].items():
        report.append(f"    {module:<32} {secs:.4f}")
    report.append("  cProfile top functions by internal time:")
    for row in prof["profile"]["top"]:
        report.append(f"    {row['function']:<58} calls {row['calls']:>8} "
                      f"tottime {row['tottime_s']:.4f} cumtime {row['cumtime_s']:.4f}")
    report.append(f"  spans written to {os.path.relpath(OUT_DIR, ROOT)}/spans-<workload>-{seed}.json")
    return metrics, attempted, failed, self_ok


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    have_layer = {(m[0], m[1]) for m in SPAN_METRICS} | set(OTHER_METRICS)
    if want_e2e != list(E2E) or want_layer != have_layer:
        raise BenchError("BENCHMARK.json and perfbench/run.py disagree on the metric list")
    return spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not os.path.isfile(os.path.join(SRC, "fibsurf", "__init__.py")):
            raise BenchError(f"no fibsurf package under {SRC}; run from the root of a checkout")
        spec = benchmark_spec()
        os.makedirs(OUT_DIR, exist_ok=True)
        ref_start = reference_rate()
        report: list[str] = []
        if args.trace:
            metrics, attempted, failed, self_ok = traced(args.seed, args.seconds, report)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, attempted, failed, self_ok = untraced(args.workload, args.seed, args.seconds, report)
            units = dict(E2E)
        ref_end = reference_rate()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    if args.trace:
        metrics["host.ref_loop_start_mops_s"] = ref_start
        metrics["host.ref_loop_end_mops_s"] = ref_end

    mode = "traced run of every workload" if args.trace else f"workload {args.workload}"
    print(f"perfbench: {mode}, seed {args.seed}, {args.seconds:g} s")
    print(f"  host reference loop (context only): {ref_start:.2f} Mops/s at start, {ref_end:.2f} at end")
    for line in report:
        print(line)
    print(f"  fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} operations; "
          "wrong output, exception, nonzero exit or timeout)")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0 and self_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
