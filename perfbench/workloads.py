"""Seeded inputs and single operations of the three workloads.

Every input is drawn from numpy generators keyed by (seed, op index), so op i
of a seed is the same whatever ran before it.  A run cycles through a fixed
number of distinct ops, so the ops it checks depend on the seed alone.  n is
drawn in blocks of seven consecutive ops, each block a seeded permutation of
2..8: n stays uniform, and a run's mix of sizes does not drift with the seed.

hyp2 is reached through module attributes at call time, so the tracing
wrappers see every call made here.
"""

from __future__ import annotations

import json
import time

import numpy as np

WORKLOADS = ("extend-audit", "norm-certify", "cli-cold")
CLI_COMMANDS = ("gen", "check-axioms", "norm", "extend", "corollary")
#: Dimensions of the CLI instance files: gen's default and the largest the
#: CLI accepts.  Their contents are drawn from the seed.
CLI_POOL_N = (3, 8)
#: Distinct ops of a run, which the closed loop cycles through in whole
#: passes: whole permutations of n (7 and 4 of them), or one round of the CLI
#: pool (every command on every instance).  A pass takes about 5 s.
OPS = {"extend-audit": 49, "norm-certify": 28, "cli-cold": len(CLI_COMMANDS) * len(CLI_POOL_N)}
AUDIT_SAMPLES = 1000
NORM_BUDGET = 100_000
#: n of the warm-up op a worker runs before it reports ready.
WARMUP_N = 5


def block_n(seed: int, i: int) -> int:
    perm = np.random.default_rng([seed, i // 7, 0]).permutation(7)
    return 2 + int(perm[i % 7])


def _antisymmetric(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a - a.T) / 2.0


def extend_input(seed: int, i: int, n: int | None = None) -> dict:
    """One extension problem.  Every 4th z is a zero divisor (the vanishing
    component alternates); ops with i % 8 < 4 scale f, z and M's basis each
    by 10^U(-3, 3), to which the mathematics is invariant."""
    n = n or block_n(seed, i)
    rng = np.random.default_rng([seed, i, 1])
    k1, k2 = (int(k) for k in rng.integers(0, n, size=2))
    inp = {
        "n": n,
        "basis1": rng.standard_normal((k1, n)),
        "basis2": rng.standard_normal((k2, n)),
        "z1": rng.standard_normal(n),
        "z2": rng.standard_normal(n),
        "C1": _antisymmetric(rng, n),
        "C2": _antisymmetric(rng, n),
    }
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
    if i % 4 == 3:
        inp[f"z{(i // 4) % 2 + 1}"] = np.zeros(n)
    inp["scales"] = tuple(float(s) for s in scales) if i % 8 < 4 else (1.0, 1.0, 1.0)
    return inp


def norm_input(seed: int, i: int, n: int | None = None) -> dict:
    n = n or block_n(seed, i)
    rng = np.random.default_rng([seed, i, 2])
    return {
        "n": n,
        "C1": _antisymmetric(rng, n),
        "C2": _antisymmetric(rng, n),
        "bf_seed": int(rng.integers(0, 2**31)),
    }


def make_input(workload: str, seed: int, i: int) -> dict:
    return extend_input(seed, i) if workload == "extend-audit" else norm_input(seed, i)


def warmup_input(workload: str) -> dict:
    """The untimed op a worker runs before it reports ready.  It is the same
    for every seed (n = WARMUP_N; op 4 is unscaled and its z is no zero
    divisor), so set-up time does not depend on the seed."""
    if workload == "extend-audit":
        return extend_input(0, 4, n=WARMUP_N)
    return norm_input(0, 4, n=WARMUP_N)


# -- in-process ops -------------------------------------------------------------


def run_op(workload: str, inp: dict) -> tuple[float, dict]:
    """Time one op; returns (seconds, outputs read off after the clock stops)."""
    import hyp2.dmodule as dm
    import hyp2.hahn_banach as hb
    import hyp2.two_functional as tf

    if workload == "extend-audit":
        sf, sz, sm = inp["scales"]
        n = inp["n"]
        t0 = time.perf_counter()
        problem = hb.ExtensionProblem(
            n,
            dm.DSubmodule(n, inp["basis1"] * sm, inp["basis2"] * sm),
            dm.DVector.from_components(inp["z1"] * sz, inp["z2"] * sz),
            tf.DBilinear2Functional(inp["C1"] * sf, inp["C2"] * sf),
        )
        trace = hb.full_extend(problem)
        audit = trace.audit(samples=AUDIT_SAMPLES)
        elapsed = time.perf_counter() - t0
        F = trace.final.as_functional()
        return elapsed, {
            "norm_f": (trace.norm_f.p, trace.norm_f.q),
            "norm_F": (trace.norm_F.p, trace.norm_F.q),
            "F1": F.C1,
            "F2": F.C2,
            "failed_checks": [k for k in ("restriction_ok", "brackets_ok", "pointwise_ok",
                                          "norm_ok") if not audit[k]],
        }
    t0 = time.perf_counter()
    f = tf.DBilinear2Functional(inp["C1"], inp["C2"])
    spectral = tf.norm_spectral(f)
    quotient = tf.norm_bruteforce(f, budget=NORM_BUDGET, seed=inp["bf_seed"], formula="quotient")
    unit = tf.norm_bruteforce(f, budget=NORM_BUDGET, seed=inp["bf_seed"], formula="unit")
    elapsed = time.perf_counter() - t0
    return elapsed, {
        "spectral": (spectral.value.p, spectral.value.q),
        "quotient": (quotient.value.p, quotient.value.q),
        "unit": (unit.value.p, unit.value.q),
    }


# -- CLI instances ----------------------------------------------------------------


def _scalars(x1, x2) -> list[dict]:
    return [{"p": float(p), "q": float(q)} for p, q in zip(x1, x2)]


def cli_pool(seed: int) -> list[dict]:
    """Instance files for the CLI ops: instance 1 has a zero-divisor z."""
    pool = []
    for j, n in enumerate(CLI_POOL_N):
        rng = np.random.default_rng([seed, j, 3])
        k1, k2 = (int(k) for k in rng.integers(0, n, size=2))
        z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
        if j == 1:
            z2 = np.zeros(n)
        pool.append({
            "n": n,
            "M": {"n": n, "basis1": rng.standard_normal((k1, n)).tolist(),
                  "basis2": rng.standard_normal((k2, n)).tolist()},
            "z": _scalars(z1, z2),
            "functional": {"C1": _antisymmetric(rng, n).tolist(),
                           "C2": _antisymmetric(rng, n).tolist()},
            "x0": _scalars(rng.standard_normal(n), rng.standard_normal(n)),
            "y0": _scalars(rng.standard_normal(n), rng.standard_normal(n)),
            "norm": {"kind": "gramdet"},
            "gen_seed": int(rng.integers(0, 2**31)),
        })
    return pool


def write_pool(pool: list[dict], directory) -> list[str]:
    paths = []
    for j, instance in enumerate(pool):
        path = directory / f"instance{j}.json"
        path.write_text(json.dumps(instance))
        paths.append(str(path))
    return paths


def cli_op(i: int, pool: list[dict], paths: list[str]) -> tuple[str, int, list[str]]:
    """Op i: (command, instance index, argv after the program name)."""
    cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    j = (i // len(CLI_COMMANDS)) % len(pool)
    if cmd == "gen":
        return cmd, j, ["gen", "--seed", str(pool[j]["gen_seed"]), "--n", str(pool[j]["n"])]
    return cmd, j, [cmd, paths[j]]


# -- the closed loop ---------------------------------------------------------------


def closed_loop(run_one, seconds: float, ops: int) -> tuple[list[tuple[int, float]], float]:
    """Call run_one(i) for i = 0 .. ops-1, pass after pass (one client, each
    call waiting for the last), until `seconds` have passed at the end of a
    pass.  Every op thus runs equally often, and at least once.

    run_one returns the op's latency in seconds.  Returns [(i, latency)] in
    call order and the wall time of the loop.
    """
    runs: list[tuple[int, float]] = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        runs.extend((i, run_one(i)) for i in range(ops))
        now = time.perf_counter()
        if now >= deadline:
            return runs, now - start


def verdict(raised: str | None = None, flagged: str | None = None,
            wrong: list[str] | None = None, missed: list[str] | None = None) -> dict:
    """How one op ended.  It failed if it raised, the program flagged it
    (passed: false or a non-zero exit, with the reason), an answer was wrong,
    or a quality gate was missed.  A wrong answer the program did not flag is
    silent."""
    wrong, missed = wrong or [], missed or []
    return {
        "raised": raised,
        "flagged": flagged,
        "wrong": wrong,
        "missed": missed,
        "failed": bool(raised or flagged or wrong or missed),
        "silent_wrong": bool(wrong) and not flagged and not raised,
    }
