"""hyp2 benchmark: one closed-loop workload per run, answers checked, metrics printed.

    python3 perfbench/run.py --workload extend-audit --seed 1 --seconds 25 --trace 0

Workloads (one client each; see perfbench/README.md for why each exists):
  extend-audit  full_extend + ExtensionTrace.audit(samples=1000) per op
  norm-certify  norm_spectral + norm_bruteforce (both formulas, budget 10^5)
  cli-cold      one cold `python -m hyp2.cli <cmd>` subprocess per op

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 runs the same loop with spans and counters around hyp2's public
entry points, reruns one pass untraced for the tracing overhead, times cold CLI
calls and runs the acceptance suite, and reports the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
full result, with the run record, goes to .bench_results/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracle
import record
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

#: Fresh workers (in-process workloads) or reference builds (cli-cold) per
#: untraced run; setup_s is their median.
SETUP_REPS = {"extend-audit": 5, "norm-certify": 5, "cli-cold": 3}
#: Cold calls of each subcommand in the CLI probe of a traced run.
PROBE_REPS = 3
CHILD_TIMEOUT = 60.0
WORKER_TIMEOUT = 170.0
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an op failing)."""


# -- in-process workloads --------------------------------------------------------------


def _spawn_worker(workload: str, seed: int) -> tuple[subprocess.Popen, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "run", workload, str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=CHILD_ENV,
    )
    ready = proc.stdout.readline().strip()
    setup = time.perf_counter() - t0
    if ready != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not start")
    return proc, setup


def _finish(proc: subprocess.Popen, line: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(line + "\n", timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reps = 1 if trace else SETUP_REPS[workload]
    setups = []
    for k in range(reps):
        proc, setup = _spawn_worker(workload, seed)
        setups.append(setup)
        if k < reps - 1:
            _finish(proc, "exit", 30.0)
    out = _finish(proc, json.dumps({"seconds": seconds, "trace": int(trace)}), WORKER_TIMEOUT)
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups
    return result


# -- cli-cold ----------------------------------------------------------------------------


def run_child(argv: list[str], traced: bool) -> tuple[float, subprocess.CompletedProcess]:
    """One cold hyp2 CLI process: `python -m hyp2.cli`, or the tracing shim."""
    head = [str(HERE / "cli_shim.py")] if traced else ["-m", "hyp2.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *head, *argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT, env=CHILD_ENV,
    )
    return time.perf_counter() - t0, proc


def child_trace(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith(tracing.MARKER):
            return json.loads(line[len(tracing.MARKER):])
    raise BenchError("traced CLI child wrote no trace")


def cli_shortfalls(report: dict) -> list[float]:
    spectral = report["spectral"]["value"]
    return [
        (spectral[c] - report[key]["value"][c]) / spectral[c]
        for key in ("brute_force", "brute_force_unit")
        for c in ("p", "q")
        if spectral[c] > 0
    ]


def cli_setup(seed: int, directory: Path) -> tuple[float, list, list, dict]:
    """Write the instance files and compute every op's reference in-process."""
    import hyp2.cli

    t0 = time.perf_counter()
    pool = workloads.cli_pool(seed)
    paths = workloads.write_pool(pool, directory)
    refs = {}
    for i in range(workloads.OPS["cli-cold"]):
        cmd, j, argv = workloads.cli_op(i, pool, paths)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = hyp2.cli.main(argv)
        text = buf.getvalue()
        refs[cmd, j] = (rc, text, oracle.check_cli(cmd, argv, pool[j], json.loads(text)))
    return time.perf_counter() - t0, pool, paths, refs


def measure_cli(seconds: float, pool, paths, refs, traced: bool) -> dict:
    trace = {"spans": [], "counts": dict.fromkeys(tracing.COUNTERS, 0)}
    verdicts = []

    def run_one(i: int) -> float:
        op = len(verdicts)
        cmd, j, argv = workloads.cli_op(i, pool, paths)
        try:
            elapsed, proc = run_child(argv, traced)
        except subprocess.TimeoutExpired:
            verdicts.append(workloads.verdict(raised=f"{cmd} timed out"))
            return CHILD_TIMEOUT
        ref_rc, ref_text, ref_wrong = refs[cmd, j]
        if proc.stdout != ref_text or proc.returncode != ref_rc:
            wrong = [f"{cmd} output differs from the in-process reference"]
        else:
            wrong = ref_wrong
        flagged = f"{cmd} exited {proc.returncode}" if proc.returncode else None
        verdicts.append(workloads.verdict(flagged=flagged, wrong=wrong))
        if traced:
            tracing.merge(trace, child_trace(proc.stderr), op=op)
        return elapsed

    runs, elapsed = workloads.closed_loop(run_one, seconds, workloads.OPS["cli-cold"])
    shortfalls = [
        s for (cmd, _), (_, text, _) in refs.items() if cmd == "norm"
        for s in cli_shortfalls(json.loads(text))
    ]
    return {"runs": runs, "elapsed": elapsed, "verdicts": verdicts,
            "norm_shortfalls": shortfalls, "trace": trace}


def run_cli_cold(seed: int, seconds: float, trace: bool, directory: Path) -> dict:
    setups = []
    for _ in range(1 if trace else SETUP_REPS["cli-cold"]):
        setup, pool, paths, refs = cli_setup(seed, directory)
        setups.append(setup)
    result = measure_cli(seconds, pool, paths, refs, trace)
    if trace:
        result["untraced_seconds"] = sum(
            run_child(workloads.cli_op(i, pool, paths)[2], False)[0]
            for i in range(workloads.OPS["cli-cold"])
        )
    result["setups"] = setups
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["blas"] = record.blas_info()
    result["pool"] = (pool, paths)
    return result


# -- the traced run's extra passes ---------------------------------------------------------


def cli_probe(pool, paths) -> tuple[dict, dict, list[float]]:
    """Cold wall times of the bare interpreter, `import hyp2.cli` and each
    subcommand (untraced), then each subcommand once through the shim."""
    times: dict[str, list] = {"bare": [], "import": [], "stdout_bytes": []}
    commands = len(workloads.CLI_COMMANDS)
    for _ in range(PROBE_REPS):
        for key, code in (("bare", "pass"), ("import", "import hyp2.cli")):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=CHILD_ENV,
                           timeout=CHILD_TIMEOUT)
            times[key].append(time.perf_counter() - t0)
        for i in range(commands):
            cmd, _, argv = workloads.cli_op(i, pool, paths)
            times.setdefault(cmd, []).append(run_child(argv, False)[0])
    probe = {"spans": [], "counts": dict.fromkeys(tracing.COUNTERS, 0)}
    shortfalls = []
    for i in range(commands):
        cmd, _, argv = workloads.cli_op(i, pool, paths)
        _, proc = run_child(argv, True)
        tracing.merge(probe, child_trace(proc.stderr), op=i)
        times["stdout_bytes"].append(len(proc.stdout.encode()))
        if cmd == "norm":
            shortfalls = cli_shortfalls(json.loads(proc.stdout))
    return times, probe, shortfalls


def acceptance_pass() -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "acceptance"],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT, env=CHILD_ENV,
    )
    if proc.returncode != 0:
        raise BenchError(f"acceptance pass failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics ---------------------------------------------------------------------------------


def end_to_end(result: dict) -> dict:
    lat = [t for _, t in result["runs"]]
    return {
        "setup_s": statistics.median(result["setups"]),
        "throughput_ops_s": len(lat) / result["elapsed"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def tally(runs: list[tuple[int, float]], verdicts: list[dict]) -> dict:
    """Failures per distinct op: an op failed if any of its runs failed."""
    per_op: dict[int, list[dict]] = {}
    for (i, _), v in zip(runs, verdicts):
        per_op.setdefault(i, []).append(v)
    ops = [per_op[i] for i in sorted(per_op)]
    failures = {k: sum(1 for vs in ops if any(v[k] for v in vs))
                for k in ("raised", "flagged", "wrong", "missed", "silent_wrong")}
    failed = [(i, next(v for v in vs if v["failed"]))
              for i, vs in enumerate(ops) if any(v["failed"] for v in vs)]
    examples = [{"op": i, **{k: v[k] for k in ("raised", "flagged", "wrong", "missed")}}
                for i, v in failed[:10]]
    return {"attempted": len(ops), "failed": len(failed),
            "error_rate": len(failed) / len(ops), "failures": failures, "examples": examples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyp2" / "__init__.py").is_file():
        print(f"error: no hyp2 source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workdir)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    w, trace = args.workload, bool(args.trace)
    if w == "cli-cold":
        result = run_cli_cold(args.seed, args.seconds, trace, workdir)
        pool, paths = result.pop("pool")
    else:
        result = run_in_process(w, args.seed, args.seconds, trace)
    counts = tally(result["runs"], result["verdicts"])
    e2e = end_to_end(result)
    runs = len(result["runs"])
    out = {
        "workload": w, "seed": args.seed, "seconds": args.seconds, "trace": int(trace),
        "record": record.run_record(ROOT, result["blas"]),
        "runs": runs, "passes": runs // counts["attempted"], "loop_seconds": result["elapsed"],
        **counts, "end_to_end": e2e,
        "latencies_ms": [[i, 1e3 * t] for i, t in result["runs"]],
    }
    if trace:
        if w != "cli-cold":
            pool = workloads.cli_pool(args.seed)
            paths = workloads.write_pool(pool, workdir)
        times, probe, probe_shortfalls = cli_probe(pool, paths)
        acceptance = acceptance_pass()
        overhead = sum(t for _, t in result["runs"][:counts["attempted"]]) / result["untraced_seconds"]
        metrics = layers.layer_metrics(
            result["trace"], runs, probe,
            result["norm_shortfalls"] or probe_shortfalls, times, acceptance, overhead,
        )
        units = layers.declared("per_layer")
        out["acceptance"] = acceptance
        spans_file = RESULTS / f"SPANS_{w}_seed{args.seed}.json"
        spans_file.write_text(json.dumps({"workload": result["trace"], "cli_probe": probe}))
    else:
        metrics, units = e2e, layers.declared("end_to_end")
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics {sorted(metrics)} are not those BENCHMARK.json declares")
    out["metrics"] = metrics
    label = f"{w}_seed{args.seed}_trace{int(trace)}"
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(out, indent=2))

    print(f"# {label}: {counts['attempted']} distinct ops in {out['passes']} passes, "
          f"{counts['failed']} failed {counts['failures']}")
    print(f"# error_rate = {counts['error_rate']:.6g} ratio "
          f"({counts['failed']}/{counts['attempted']} distinct ops)")
    if not trace:
        print(f"# latency percentiles and throughput over {runs} op runs "
              f"in {result['elapsed']:.1f} s")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": counts["failures"]["silent_wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
