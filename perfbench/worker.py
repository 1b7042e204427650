"""Worker process for the in-process workloads, and for the acceptance pass.

    python perfbench/worker.py run <workload> <seed>
        Imports hyp2, runs one untimed warm-up op (the same for every seed)
        and prints "ready".  It then reads one line from stdin: "exit", or
        {"seconds": s, "trace": 0|1} to run the closed loop and print the
        result as one JSON line.
    python perfbench/worker.py acceptance
        Runs hyp2.acceptance.run_all() with no wrapper installed.

perfbench/run.py starts it; the set-up time it measures runs from the spawn to
the "ready" line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hyp2  # noqa: E402,F401
import oracle  # noqa: E402
import record  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check(workload: str, inp: dict, out: dict) -> dict:
    if workload == "extend-audit":
        failed = out["failed_checks"]
        return workloads.verdict(
            flagged=f"audit failed {failed}" if failed else None,
            wrong=oracle.check_extension(inp, out),
        )
    wrong, missed = oracle.check_norms(
        inp["C1"], inp["C2"], out["spectral"], out["quotient"], out["unit"]
    )
    return workloads.verdict(wrong=wrong, missed=missed)


def measure(workload: str, seed: int, seconds: float, tracer: tracing.Tracer | None) -> dict:
    """The closed loop over ops 0..OPS-1 of the seed; every answer, repeats
    included, is checked after it, off the clock."""
    inputs = [workloads.make_input(workload, seed, i) for i in range(workloads.OPS[workload])]
    outputs: list[dict | str] = []

    def run_one(i: int) -> float:
        if tracer is not None:
            tracer.op = len(outputs)
        t0 = time.perf_counter()
        try:
            elapsed, out = workloads.run_op(workload, inputs[i])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        outputs.append(out)
        return elapsed

    runs, elapsed = workloads.closed_loop(run_one, seconds, len(inputs))
    verdicts = [
        workloads.verdict(raised=out) if isinstance(out, str) else check(workload, inputs[i], out)
        for (i, _), out in zip(runs, outputs)
    ]
    shortfalls = [
        oracle.shortfall(inputs[i][f"C{c + 1}"], out[key][c])
        for (i, _), out in zip(runs, outputs)
        if workload == "norm-certify" and not isinstance(out, str)
        for key in ("quotient", "unit")
        for c in (0, 1)
    ]
    return {
        "runs": runs,
        "elapsed": elapsed,
        "verdicts": verdicts,
        "norm_shortfalls": shortfalls,
    }


def untraced_seconds(workload: str, seed: int) -> float:
    """Summed op latency of one pass again, with no wrapper installed."""
    tracing.assert_pristine()
    total = 0.0
    for i in range(workloads.OPS[workload]):
        inp = workloads.make_input(workload, seed, i)
        t0 = time.perf_counter()
        try:
            total += workloads.run_op(workload, inp)[0]
        except Exception:  # counted as failed in the traced pass already
            total += time.perf_counter() - t0
    return total


def run(workload: str, seed: int) -> int:
    workloads.run_op(workload, workloads.warmup_input(workload))
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line != "exit" and line:
        command = json.loads(line)
        if command["trace"]:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                result = measure(workload, seed, command["seconds"], tracer)
            finally:
                tracing.uninstall(patches)
            result["trace"] = tracer.summary()
            result["untraced_seconds"] = untraced_seconds(workload, seed)
        else:
            tracing.assert_pristine()
            result = measure(workload, seed, command["seconds"], None)
            tracing.assert_pristine()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["blas"] = record.blas_info()
        print(json.dumps(result), flush=True)
    return 0


def acceptance() -> int:
    import hyp2.acceptance

    tracing.assert_pristine()
    t0 = time.perf_counter()
    results = hyp2.acceptance.run_all()
    total = time.perf_counter() - t0
    print(json.dumps({
        "total_s": total,
        "criteria": [
            {"name": r.name, "passed": r.passed, "runtime": r.runtime, "budget": r.budget}
            for r in results
        ],
    }), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        sys.exit(run(sys.argv[2], int(sys.argv[3])))
    if sys.argv[1:] == ["acceptance"]:
        sys.exit(acceptance())
    sys.exit(f"usage: {sys.argv[0]} run <workload> <seed> | acceptance")
