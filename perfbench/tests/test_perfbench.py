"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _bindings() -> dict:
    """Every hyp2 module and class attribute, by identity."""
    return {
        (id(owner), key): value
        for owner in tracing._namespaces()
        for key, value in vars(owner).items()
    }


# -- a corrupted answer is a failure --------------------------------------------------


def _extend_op(i: int) -> tuple[dict, dict]:
    inp = workloads.extend_input(5, i)
    return inp, workloads.run_op("extend-audit", inp)[1]


@pytest.mark.parametrize("i", [0, 2, 3, 7])  # scaled, plain, zero divisor (each side)
def test_extension_answers_pass_the_oracle(i):
    inp, out = _extend_op(i)
    assert oracle.check_extension(inp, out) == []


@pytest.mark.parametrize("field", ["norm_f", "norm_F", "F1"])
def test_corrupted_extension_is_a_silent_wrong_answer(field):
    # an unscaled op with a nonzero first component of M and of z
    i = next(i for i in range(4, 64, 8) if workloads.extend_input(5, i)["basis1"].shape[0])
    inp, out = _extend_op(i)
    if field == "F1":
        bump = np.zeros_like(out["F1"])
        bump[0, 1], bump[1, 0] = 1e-3, -1e-3
        out["F1"] = out["F1"] + bump
    else:
        out[field] = (out[field][0] * 1.001, out[field][1])
    wrong = oracle.check_extension(inp, out)
    v = workloads.verdict(wrong=wrong)
    assert wrong and v["failed"] and v["silent_wrong"]


def test_extension_larger_off_m_is_a_silent_wrong_answer():
    # F changed only in a direction orthogonal to M and z: f on M x [z] and the
    # reported norms stay right, but F's norm on X x [z] grows
    i = next(i for i in range(4, 64, 8)
             if len(workloads.extend_input(5, i)["basis1"]) < workloads.extend_input(5, i)["n"] - 1)
    inp, out = _extend_op(i)
    z = inp["z1"]
    u = np.linalg.svd(np.vstack([inp["basis1"], z]))[2][-1]
    out["F1"] = out["F1"] + 1e-3 * (np.outer(u, z) - np.outer(z, u))
    wrong = oracle.check_extension(inp, out)
    assert len(wrong) == 1 and "on X x [z]" in wrong[0]
    assert workloads.verdict(wrong=wrong)["silent_wrong"]


def test_corrupted_norms_are_wrong_or_missed():
    inp = workloads.norm_input(5, 0)
    out = workloads.run_op("norm-certify", inp)[1]
    args = (inp["C1"], inp["C2"])
    assert oracle.check_norms(*args, out["spectral"], out["quotient"], out["unit"]) == ([], [])
    spectral = (out["spectral"][0] * 1.01, out["spectral"][1])
    assert oracle.check_norms(*args, spectral, out["quotient"], out["unit"])[0]
    above = (out["spectral"][0] + 1e-6, out["quotient"][1])
    assert oracle.check_norms(*args, out["spectral"], above, out["unit"])[0]
    short = (out["quotient"][0] * 0.9, out["quotient"][1])
    wrong, missed = oracle.check_norms(*args, out["spectral"], short, out["unit"])
    assert not wrong and missed
    v = workloads.verdict(missed=missed)
    assert v["failed"] and not v["silent_wrong"]


def test_corrupted_cli_report_is_wrong(tmp_path):
    import hyp2.cli
    import contextlib
    import io

    pool = workloads.cli_pool(5)
    paths = workloads.write_pool(pool, tmp_path)
    for i in range(workloads.OPS["cli-cold"]):
        cmd, j, argv = workloads.cli_op(i, pool, paths)
        if cmd == "check-axioms":
            continue  # slow, and it has no number to corrupt
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            hyp2.cli.main(argv)
        report = json.loads(buf.getvalue())
        assert oracle.check_cli(cmd, argv, pool[j], report) == [], cmd
        if cmd == "extend":
            report["final"]["norm_F"]["p"] *= 1.001
        elif cmd == "norm":
            report["spectral"]["value"]["q"] *= 1.001
        elif cmd == "corollary":
            report["value"]["p"] *= 1.001
        else:
            report["n"] += 1
        assert oracle.check_cli(cmd, argv, pool[j], report), cmd


def test_loop_runs_whole_passes_and_failures_count_once_per_op():
    calls = []

    def run_one(i):
        calls.append(i)
        return 0.001 * (i + 1)

    runs, elapsed = workloads.closed_loop(run_one, 0.0, 3)
    assert calls == [0, 1, 2] and runs == [(0, 0.001), (1, 0.002), (2, 0.003)] and elapsed >= 0
    runs = runs * 3
    ok, bad = workloads.verdict(), workloads.verdict(flagged="audit failed")
    verdicts = [ok, ok, ok, ok, bad, ok, ok, bad, ok]  # op 1 fails on two of its three runs
    counts = run.tally(runs, verdicts)
    assert (counts["attempted"], counts["failed"]) == (3, 1)
    assert [e["op"] for e in counts["examples"]] == [1]


# -- wrappers ----------------------------------------------------------------------------


def test_wrappers_count_and_leave_no_trace():
    import hyp2
    import hyp2.cli
    import hyp2.hahn_banach as hb
    import hyp2.two_functional as tf
    import hyp2.two_norm as tn

    before = _bindings()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # every binding of a target is wrapped, not only the defining one
        assert tf.wedge_area_batch is tn.wedge_area_batch is hb.wedge_area_batch
        assert getattr(tn.wedge_area_batch, "__perfbench_wrapper__", False)
        assert hyp2.cli.full_extend is hb.full_extend is hyp2.full_extend
        assert hyp2.cli.acceptance.norm_bruteforce is tf.norm_bruteforce
        assert vars(hyp2.Hyperbolic)["__rmul__"] is vars(hyp2.Hyperbolic)["__mul__"]
        assert vars(hyp2.D2Norm)["evaluate"] is vars(hyp2.D2Norm)["__call__"]
        assert tracing.wrapped_bindings()
        for i in range(3):
            tracer.op = i
            workloads.run_op("extend-audit", workloads.extend_input(1, i))
    finally:
        tracing.uninstall(patches)
    tracing.assert_pristine()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s[0] for s in tracer.spans}
    assert {"hahn_banach.full_extend", "hahn_banach.ExtensionTrace.audit",
            "two_norm.wedge_area_batch", "dmodule.DSubmodule.__init__"} <= names
    assert {s[4] for s in tracer.spans} == {0, 1, 2}
    counts = tracer.counts
    assert counts["hyperbolic.scalars"] > 0 and counts["dmodule.dvectors"] > 0
    assert 0 < counts["hyperbolic.mul_fallbacks"] <= counts["hyperbolic.mul_calls"]
    for calls, self_s, incl in tracing.self_times(tracer.spans).values():
        assert 0.0 <= self_s <= incl + 1e-9


# -- metric names ------------------------------------------------------------------------


def test_untraced_run_prints_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "extend-audit", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.declared("end_to_end")
    assert result["attempted"] == workloads.OPS["extend-audit"]


def test_layer_metrics_cover_the_declared_names():
    trace = {"spans": [], "counts": dict.fromkeys(tracing.COUNTERS, 0)}
    times = {k: [0.1] for k in ("bare", "import", *workloads.CLI_COMMANDS)}
    times["stdout_bytes"] = [10]
    acceptance = {"total_s": 1.0, "criteria": [
        {"name": c, "runtime": 1.0, "budget": 2.0} for c in layers.CRITERIA]}
    values = layers.layer_metrics(trace, 1, trace, [], times, acceptance, 1.0)
    assert values.keys() == layers.declared("per_layer").keys()


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extend-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_for_a_seed_and_keep_the_mix():
    a, b = workloads.extend_input(9, 11), workloads.extend_input(9, 11)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert sorted(workloads.block_n(4, i) for i in range(7, 14)) == list(range(2, 9))
    zero_divisors = [i for i in range(8) if not (workloads.extend_input(2, i)["z1"].any()
                                                 and workloads.extend_input(2, i)["z2"].any())]
    assert zero_divisors == [3, 7]
    assert [workloads.extend_input(2, i)["scales"] != (1.0, 1.0, 1.0) for i in range(8)] == \
        [True] * 4 + [False] * 4
