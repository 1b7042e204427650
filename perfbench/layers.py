"""The per-layer metrics, computed from a trace; their names and units are
those BENCHMARK.json declares.

Per-op metrics divide by the workload's traced ops and read 0 where the
workload never enters the layer.  Per-call metrics (unit ms/call) come from
the workload's own calls; a workload that makes none of a call takes it from
the CLI probe's traced children, which run every subcommand once.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracing
import workloads

CRITERIA = ("ring-and-order-suite", "functional-norm-equivalence", "extension-engine")
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def declared(kind: str) -> dict:
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


SUBMODULE_SPANS = tuple(
    tracing.span_name("hyp2.dmodule", f"DSubmodule.{m}")
    for m in ("__init__", "extend", "contains", "component_contains")
)
_UNCALLED = (0, 0.0, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, ops: int, probe: dict, shortfalls: list[float],
                  cli_times: dict, acceptance: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric by name.

    trace and probe hold {"spans", "counts"} of the workload and of the CLI
    probe's traced children; cli_times maps "import", "bare" and each
    subcommand to cold wall times in seconds, plus "stdout_bytes".
    """
    own, probed = tracing.self_times(trace["spans"]), tracing.self_times(probe["spans"])
    counts = trace["counts"]

    def per_op(key: str) -> float:
        return _ratio(counts[key], ops)

    def self_ms(*names: str) -> float:
        return 1e3 * _ratio(sum(own[n][1] for n in names if n in own), ops)

    def per_call_ms(name: str) -> float:
        calls, self_s, _ = own.get(name) or probed.get(name) or _UNCALLED
        return 1e3 * _ratio(self_s, calls)

    brute = "two_functional.norm_bruteforce"
    brute_times, brute_counts = (own, counts) if brute in own else (probed, probe["counts"])
    fe = own.get("hahn_banach.full_extend", _UNCALLED)[2]
    audit = own.get("hahn_banach.ExtensionTrace.audit", _UNCALLED)[2]
    main_calls, main_self, _ = probed.get("cli.main", _UNCALLED)
    shares = {c["name"]: _ratio(c["runtime"], c["budget"]) for c in acceptance["criteria"]}
    median_ms = {k: 1e3 * statistics.median(v) for k, v in cli_times.items() if k != "stdout_bytes"}

    values = {
        "hyperbolic.scalars_per_op": per_op("hyperbolic.scalars"),
        "hyperbolic.mul_fallback_ratio": _ratio(
            counts["hyperbolic.mul_fallbacks"], counts["hyperbolic.mul_calls"]
        ),
        "dmodule.dvectors_per_op": per_op("dmodule.dvectors"),
        "dmodule.submodule_builds_per_op": _ratio(own.get(SUBMODULE_SPANS[0], _UNCALLED)[0], ops),
        "dmodule.submodule_ms": self_ms(*SUBMODULE_SPANS),
        "two_norm.d2norm_calls_per_op": per_op("two_norm.d2norm_calls"),
        "two_norm.wedge_rows_per_op": per_op("two_norm.wedge_rows"),
        "two_norm.wedge_area_batch_ms": self_ms("two_norm.wedge_area_batch"),
        "two_norm.axiom_check_ms": per_call_ms("two_norm.axiom_check"),
        "two_functional.norm_spectral_ms": per_call_ms("two_functional.norm_spectral"),
        "two_functional.norm_bruteforce_ms": per_call_ms(brute),
        "two_functional.bruteforce_pairs_per_s": _ratio(
            brute_counts["two_functional.bruteforce_pairs"], brute_times.get(brute, _UNCALLED)[1]
        ),
        "two_functional.bruteforce_rel_shortfall_max": max(shortfalls, default=0.0),
        "two_functional.is_bounded_check_ms": per_call_ms("two_functional.is_bounded_check"),
        "hahn_banach.full_extend_ms": self_ms("hahn_banach.full_extend"),
        "hahn_banach.audit_ms": self_ms("hahn_banach.ExtensionTrace.audit"),
        "hahn_banach.audit_share": _ratio(audit, fe + audit),
        "hahn_banach.steps_per_op": per_op("hahn_banach.steps"),
        "hahn_banach.repaired_share": per_op("hahn_banach.repaired"),
        **{f"hahn_banach.audit_fail.{c}": per_op(f"hahn_banach.audit_fail.{c}")
           for c in ("restriction", "pointwise", "norm")},
        "hahn_banach.corollary_ms": per_call_ms("hahn_banach.corollary_functional"),
        "cli.import_ms": median_ms["import"] - median_ms["bare"],
        **{f"cli.{cmd.replace('-', '_')}_ms": median_ms[cmd]
           for cmd in workloads.CLI_COMMANDS},
        "cli.main_ms": 1e3 * _ratio(main_self, main_calls),
        "cli.stdout_bytes": statistics.mean(cli_times["stdout_bytes"]),
        **{f"acceptance.{c.replace('-', '_')}_budget_share": shares[c] for c in CRITERIA},
        "acceptance.total_s": acceptance["total_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return values
