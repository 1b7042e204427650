"""JSON-driven command line front end.

Subcommands: gen (deterministic instance files), check-axioms, norm, extend,
corollary, and selftest (the acceptance suite).  Reports are JSON on stdout;
exit code 0 means every configured check passed, 1 means a check failed, and
2 means the input could not be parsed or validated.  The HYP2_TOL environment
variable overrides a command's default tolerance (relative in norm and
corollary); an explicit --tol wins over both.  A tolerance must be a finite
number >= 0, --samples at least 1, --seed at least 0, and each number in the
instance fields a command reads a JSON number, not a string or a boolean;
anything else exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._tol import SPAN, within
from .dmodule import DSubmodule, DVector, _dimension, _unit_scaled
from .hahn_banach import (
    NORM_REL_TOL, ExtensionProblem, _exact_norm, corollary_case_table, corollary_functional,
    full_extend,
)
from .hyperbolic import Hyperbolic
from .two_functional import DBilinear2Functional, is_bounded_check, norm_bruteforce, norm_spectral
from .two_norm import D2Norm, axiom_check


class InstanceError(ValueError):
    """An instance file failed validation (reported with exit code 2)."""


def _tol_arg(args, default: float) -> float:
    if getattr(args, "tol", None) is not None:
        source, text = "--tol", args.tol
    elif os.environ.get("HYP2_TOL"):
        source, text = "HYP2_TOL", os.environ["HYP2_TOL"]
    else:
        return default
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InstanceError(f"{source} must be a finite number >= 0, got {text!r}")
    return tol


def _pq(v: Hyperbolic) -> np.ndarray:
    return np.array([v.p, v.q])


def _emit(report: dict) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InstanceError(f"the report holds a non-finite value: {exc}") from exc
    print(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance {path!r}: {exc}") from exc


def _json_numbers(value, key: str) -> None:
    """Raise unless every leaf of a field's lists and objects is a JSON number."""
    if isinstance(value, (list, dict)):
        for leaf in value.values() if isinstance(value, dict) else value:
            _json_numbers(leaf, key)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} holds {json.dumps(value)}, which is not a JSON number")


#: How each instance field is read.
_READERS = dict(functional=DBilinear2Functional.from_json, M=DSubmodule.from_json,
                **dict.fromkeys(("z", "x0", "y0"), DVector.from_json))


def _parse_instance(blob: dict, need: tuple[str, ...]) -> dict:
    if not isinstance(blob, dict):
        raise InstanceError("instance file must hold a JSON object")
    try:
        n = _dimension(blob.get("n"))
        if not 2 <= n <= 8:
            raise ValueError(f"dimension n must satisfy 2 <= n <= 8, got {n}")
        norm = blob.get("norm", {})
        if not isinstance(norm, dict):
            raise ValueError(f"the norm field must be an object, got {norm!r}")
        if norm.get("kind", "gramdet") != "gramdet":
            raise ValueError(f"unsupported 2-norm kind {norm['kind']!r}")
        out = {"n": n}
        for key in need:
            _json_numbers(blob[key], key)
            out[key] = _READERS[key](blob[key])
            if out[key].n != n:
                raise ValueError(f"{key} dimension differs from n")
    except KeyError as exc:
        raise InstanceError(f"instance is missing the {exc.args[0]!r} field") from exc
    except (TypeError, ValueError) as exc:
        raise InstanceError(str(exc)) from exc
    return out


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    n = args.n
    if not 2 <= n <= 8:
        raise InstanceError(f"dimension n must satisfy 2 <= n <= 8, got {n}")
    rng = np.random.default_rng(args.seed)
    if args.dims:
        try:
            k1, k2 = (int(v) for v in args.dims.split(","))
        except ValueError as exc:
            raise InstanceError("--dims expects two comma-separated integers") from exc
    else:
        k1, k2 = int(rng.integers(0, n)), int(rng.integers(0, n))
    if not (0 <= k1 <= n and 0 <= k2 <= n):
        raise InstanceError(f"component dims must lie in [0, {n}], got ({k1}, {k2})")
    M = DSubmodule(n, rng.standard_normal((k1, n)), rng.standard_normal((k2, n)))
    z1 = rng.standard_normal(n)
    z = DVector.from_components(z1, np.zeros(n) if args.degenerate_z else rng.standard_normal(n))
    f = DBilinear2Functional.random(n, rng)
    instance = ExtensionProblem(n, M, z, f).to_json() | {"seed": args.seed}
    text = json.dumps(instance, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InstanceError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        print(text)
    return 0


# -- check-axioms -------------------------------------------------------------


def cmd_check_axioms(args) -> int:
    inst = _parse_instance(_load_json(args.instance), need=())
    tol = _tol_arg(args, SPAN)
    report = axiom_check(D2Norm(), inst["n"], samples=args.samples, rng=args.seed)
    _emit(report.to_json(tol))
    return 0 if report.passed(tol) else 1


# -- norm ----------------------------------------------------------------------


def cmd_norm(args) -> int:
    inst = _parse_instance(_load_json(args.instance), need=("functional",))
    f = inst["functional"]
    tol = _tol_arg(args, SPAN)
    spectral = norm_spectral(f)
    quot = norm_bruteforce(f, budget=args.samples, seed=args.seed, formula="quotient")
    unit = norm_bruteforce(f, budget=args.samples, seed=args.seed, formula="unit")
    bounded = is_bounded_check(f, spectral.value, samples=1000, seed=args.seed, tol=tol)
    # per component, relative to the spectral value sigma
    sigma, brute = _pq(spectral.value), _pq(quot.value)
    checks = {
        "brute_not_above_spectral": within(np.minimum(sigma - brute, 0.0), sigma, tol),
        "brute_within_2pct": within(np.maximum(0.98 * sigma - brute, 0.0), sigma, tol),
        "brute_force_runs_agree": within(brute - _pq(unit.value), sigma, 1e-4),
        "bounded_at_spectral": bool(bounded),
    }
    report = {
        "spectral": spectral.to_json(),
        "brute_force": quot.to_json(),
        "brute_force_unit": unit.to_json(),
        "gap": (spectral.value - quot.value).to_json(),
        "max_excess": bounded.max_excess,
        "checks": checks,
        "passed": all(checks.values()),
    }
    _emit(report)
    return 0 if report["passed"] else 1


# -- extend ----------------------------------------------------------------------


def cmd_extend(args) -> int:
    inst = _parse_instance(_load_json(args.instance), need=("functional", "M", "z"))
    functional = inst["functional"]
    if args.swap_domain:
        # f on [z] x M evaluates as (alpha z, x) -> f(alpha z, x); transposing
        # the matrices turns it into the engine's M x [z] orientation
        functional = DBilinear2Functional(functional.C1.T, functional.C2.T)
    tol = _tol_arg(args, NORM_REL_TOL)
    try:  # ValueError names an answer that is not a double at this scale
        trace = full_extend(ExtensionProblem(inst["n"], inst["M"], inst["z"], functional))
        audit = trace.audit(samples=args.samples, seed=args.seed, norm_rel_tol=tol)
    except (TypeError, ValueError) as exc:
        raise InstanceError(str(exc)) from exc
    report = trace.to_json()
    if args.swap_domain:
        # present F back in the caller's [z] x M orientation
        F = report["final"]["F"]
        report["final"]["F"] = {key: np.array(C).T.tolist() for key, C in F.items()}
    report["domain_order"] = "z_first" if args.swap_domain else "m_first"
    report["audit"] = audit
    report["passed"] = audit["passed"]
    _emit(report)
    return 0 if audit["passed"] else 1


# -- corollary ----------------------------------------------------------------------


def cmd_corollary(args) -> int:
    inst = _parse_instance(_load_json(args.instance), need=("x0", "y0"))
    x0, y0 = inst["x0"], inst["y0"]
    tol = _tol_arg(args, SPAN)
    try:
        f0, trace = corollary_functional(x0, y0)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc
    (xu, ex), (yu, ey) = _unit_scaled(x0.c), _unit_scaled(y0.c)  # gram has degree 1 in each
    target = Hyperbolic(*np.ldexp(D2Norm().batch(xu[:, None], yu[:, None])[:, 0], ex + ey))
    value = trace.final.evaluate(x0, y0)
    rng = np.random.default_rng(args.seed)
    cases = corollary_case_table(f0, x0, y0, rng)
    # the norm on X x [y0] of the matrices printed as "f", of degree 0 in y0
    F = trace.final.as_functional()
    _, norm_F = _exact_norm((F.C @ yu[:, :, None])[..., 0], yu)
    checks = {
        "f0_norm_one": within(_pq(f0.norm()) - 1.0, 1.0, tol),
        "f_norm_one": within(norm_F - 1.0, 1.0, tol),
        "value_attained": within(_pq(value) - _pq(target), _pq(target), 1e-10),
        "case_table_ok": all(row["bounded"] and row["matched"] for row in cases),
    }
    report = {
        "f0": f0.as_functional().to_json(),
        "f": F.to_json(),
        "norm_f0": f0.norm().to_json(),
        "norm_f": trace.final.norm().to_json(),
        "value": value.to_json(),
        "target": target.to_json(),
        "cases": cases,
        "checks": checks,
        "passed": all(checks.values()),
    }
    _emit(report)
    return 0 if report["passed"] else 1


# -- selftest ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
    from . import acceptance  # only selftest pays for importing the suite

    results = acceptance.run_all(only=args.only)
    if not results:
        print(f"no acceptance criterion matches {args.only!r}", file=sys.stderr)
        return 2
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyp2",
        description="Hyperbolic-valued 2-norms, bounded 2-functionals and "
        "norm-preserving extensions on D^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic instance file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=3, help="module dimension (2..8)")
    gen.add_argument("--dims", type=str, default="", help="component dims of M, e.g. 1,2")
    gen.add_argument("--degenerate-z", action="store_true", help="draw z as a zero divisor")
    gen.add_argument("--out", type=str, default="", help="write to a file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    axioms = sub.add_parser("check-axioms", help="probe the 2-norm axioms on an instance")
    axioms.add_argument("instance")
    axioms.add_argument("--samples", type=int, default=1000)
    axioms.add_argument("--seed", type=int, default=0)
    axioms.add_argument("--tol", type=float, default=None)
    axioms.set_defaults(func=cmd_check_axioms)

    norm = sub.add_parser("norm", help="spectral and brute-force functional norms")
    norm.add_argument("instance")
    norm.add_argument("--samples", type=int, default=20000, help="brute-force budget")
    norm.add_argument("--seed", type=int, default=0)
    norm.add_argument("--tol", type=float, default=None)
    norm.set_defaults(func=cmd_norm)

    extend = sub.add_parser("extend", help="run the full norm-preserving extension")
    extend.add_argument("instance")
    extend.add_argument("--samples", type=int, default=1000, help="audit sample count")
    extend.add_argument("--seed", type=int, default=0)
    extend.add_argument("--tol", type=float, default=None, help="norm audit relative tolerance")
    extend.add_argument(
        "--swap-domain", action="store_true", help="treat the domain as [z] x M"
    )
    extend.set_defaults(func=cmd_extend)

    cor = sub.add_parser("corollary", help="norm-attaining functional for a pair x0, y0")
    cor.add_argument("instance", help="JSON file with n, x0 and y0")
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--tol", type=float, default=None)
    cor.set_defaults(func=cmd_corollary)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--only", type=str, default=None, help="substring filter")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "samples", 1) < 1:
            raise InstanceError(f"--samples must be at least 1, got {args.samples}")
        if getattr(args, "seed", 0) < 0:
            raise InstanceError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
