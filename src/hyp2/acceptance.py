"""Desk-scale acceptance suite shared by the test module and `hyp2 selftest`.

A criterion is one declaration: `@_criterion(name, budget=...)` over a body
that takes no arguments and returns `(ok, detail)`.  The name is the one the
suite prints and `run_all(only)` filters on.  The runner times the body and
fails a budgeted criterion whose wall-clock runtime is not under its budget;
the declared callable returns a CriterionResult, and ALL maps each printed
name to its callable in declaration order.  Budgets, sample counts, seeds
and tolerances are the contract and are deliberately hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter

import numpy as np

from .dmodule import DSubmodule, DVector, linear_dependent
from .hahn_banach import (
    ExtensionProblem,
    _gap_point,
    corollary_case_table,
    corollary_functional,
    full_extend,
    gap_interval_grid,
)
from .hyperbolic import K, Hyperbolic, OrderResult, inf_d, sup_d
from .two_functional import DBilinear2Functional, norm_bruteforce, norm_spectral
from .two_norm import D2Norm, axiom_check, decompose, wedge_area_batch


def broken_triangle_norm(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Area 2-norm pushed through g -> g^2/(1+g), row by row.

    The outer map is convex through the origin, hence superadditive, so the
    composite violates subadditivity in the first slot while staying
    symmetric and vanishing exactly on dependent pairs.
    """
    g = wedge_area_batch(xs, ys)
    return g * g / (1.0 + g)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    budget: float | None = None
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f"/{self.budget:.0f}s" if self.budget else ""
        keys = ", ".join(f"{k}={v:.3g}" for k, v in self.detail.items() if isinstance(v, float))
        return f"[{status}] {self.name} ({self.runtime:.2f}s{budget}) {keys}"


#: Every declared criterion by printed name, in the order the suite runs them.
ALL = {}


def _criterion(name: str, budget: float | None = None):
    """Declare a criterion printed as `name`, gated on `budget` seconds if given."""

    def declare(body):
        @wraps(body)
        def run() -> CriterionResult:
            start = perf_counter()
            ok, detail = body()
            runtime = perf_counter() - start
            passed = ok and (budget is None or runtime < budget)
            return CriterionResult(name, passed, runtime, budget, detail)

        ALL[name] = run
        return run

    return declare


def _rand_scalar(rng) -> Hyperbolic:
    return Hyperbolic(*rng.standard_normal(2))


@_criterion("ring-and-order-suite", budget=5.0)
def criterion_ring_order():
    """Ring axioms, conjugation laws, modulus laws and lattice properties
    on random scalar pairs, each to 1e-12, in under 5 seconds."""
    pairs = 10_000
    rng = np.random.default_rng(0)
    tol = 1e-12
    worst = 0.0
    lattice_ok = True
    order_ok = True
    for _ in range(pairs):
        x, y, z = _rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng)
        # ring axioms
        worst = max(worst, ((x + y) + z - (x + (y + z))).max_abs())
        worst = max(worst, ((x * y) * z - (x * (y * z))).max_abs())
        worst = max(worst, (x * y - y * x).max_abs())
        worst = max(worst, (x * (y + z) - (x * y + x * z)).max_abs())
        # conjugation laws
        worst = max(worst, (x.dagger().dagger() - x).max_abs())
        worst = max(worst, ((x + y).dagger() - (x.dagger() + y.dagger())).max_abs())
        worst = max(worst, ((x * y).dagger() - x.dagger() * y.dagger()).max_abs())
        prod = x * x.dagger()
        worst = max(worst, abs(prod.p - prod.q))
        # modulus laws
        worst = max(worst, ((x * y).modulus() - x.modulus() * y.modulus()).max_abs())
        tri = x.modulus() + y.modulus() - (x + y).modulus()
        worst = max(worst, max(0.0, -tri.p, -tri.q))
        # order restricted to reals agrees with the real total order
        s, t = rng.standard_normal(2)
        rel = Hyperbolic.from_real(s).compare(Hyperbolic.from_real(t))
        want = (
            OrderResult.EQUAL
            if abs(s - t) <= tol
            else (OrderResult.LESS_EQ if s < t else OrderResult.GREATER_EQ)
        )
        order_ok = order_ok and rel is want
        # lattice: sup/inf bound the sample and any dominating candidate
        s_up = sup_d([x, y, z])
        s_lo = inf_d([x, y, z])
        lattice_ok = lattice_ok and all(v.leq(s_up) and s_lo.leq(v) for v in (x, y, z))
        bound = s_up + Hyperbolic(abs(rng.standard_normal()), abs(rng.standard_normal()))
        lattice_ok = lattice_ok and s_up.leq(bound)
        shaved = Hyperbolic(s_up.p - 1e-6, s_up.q)
        lattice_ok = lattice_ok and not all(v.leq(shaved) for v in (x, y, z))
    ok = worst <= tol and order_ok and lattice_ok
    return ok, {"worst_violation": worst, "pairs": float(pairs)}


@_criterion("two-norm-axiom-suite")
def criterion_two_norm_axioms():
    """Area lift passes all four 2-norm axioms at 1e-9 for n in {2,3,4};
    the corrupted fixture must fail the subadditivity axiom."""
    tol = 1e-9
    worst = 0.0
    for n in (2, 3, 4):
        report = axiom_check(D2Norm(), n, samples=1000, rng=n)
        worst = max(worst, *report.worst.values())
    broken = D2Norm(norm2=broken_triangle_norm)
    broken_iv = axiom_check(broken, 3, samples=250, rng=0).worst["iv"]
    return worst <= tol and broken_iv > tol, {
        "worst_violation": worst, "broken_fixture_iv": broken_iv
    }


@_criterion("decomposition-identity")
def criterion_decomposition():
    """Coordinate-split reconstruction of the lifted 2-norm at 1e-12, with
    the off-component coordinate vanishing exactly on pure pairs."""
    rng = np.random.default_rng(0)
    norm = D2Norm()
    n = 3
    phi, psi = decompose(norm, n)
    worst = 0.0
    exact_zero = True
    for _ in range(1000):
        x = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        y = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        rebuilt = Hyperbolic(phi(x.e1_part(), y.e1_part()), psi(x.e2_part(), y.e2_part()))
        worst = max(worst, (rebuilt - norm(x, y)).max_abs())
        exact_zero = exact_zero and psi(x.e1_part(), y.e1_part()) == 0.0
    return worst <= 1e-12 and exact_zero, {"worst_violation": worst}


@_criterion("functional-norm-equivalence", budget=30.0)
def criterion_functional_norms():
    """Brute-force norm within 2% below the spectral value and never above
    it by more than 1e-9; its runs on two substreams agree; under 30 s."""
    rng = np.random.default_rng(0)
    worst_below = 0.0  # largest relative shortfall of the brute-force value
    worst_above = 0.0  # largest absolute excess over the spectral value
    worst_run_gap = 0.0
    for i in range(200):
        n = int(rng.integers(2, 5))
        f = DBilinear2Functional.random(n, int(rng.integers(0, 2**31)))
        spectral = norm_spectral(f)
        quot = norm_bruteforce(f, budget=100_000, seed=i, formula="quotient")
        unit = norm_bruteforce(f, budget=100_000, seed=i, formula="unit")
        for s_val, b_val, u_val in (
            (spectral.value.p, quot.value.p, unit.value.p),
            (spectral.value.q, quot.value.q, unit.value.q),
        ):
            worst_above = max(worst_above, b_val - s_val, u_val - s_val)
            scale = max(s_val, 1e-12)
            worst_below = max(worst_below, (s_val - b_val) / scale)
            worst_run_gap = max(worst_run_gap, abs(b_val - u_val) / (1.0 + s_val))
    ok = worst_below <= 0.02 and worst_above <= 1e-9 and worst_run_gap <= 1e-4
    return ok, {
        "worst_rel_shortfall": worst_below,
        "worst_excess": worst_above,
        "worst_run_gap": worst_run_gap,
    }


@_criterion("k-decomposition-identities")
def criterion_k_decomposition():
    """Real/k-part identities f = phi + k*psi, f = phi(x,y) + k*phi(kx,y)
    and f = phi(x,y) + k*phi(x,ky) at 1e-12 on random (f, x, y)."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        f = DBilinear2Functional.random(n, int(rng.integers(0, 2**31)))
        phi, psi = f.k_parts()
        x = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        y = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        val = f(x, y)
        worst = max(worst, (Hyperbolic.from_cartesian(phi(x, y), psi(x, y)) - val).max_abs())
        worst = max(
            worst, (Hyperbolic.from_cartesian(phi(x, y), phi(K * x, y)) - val).max_abs()
        )
        worst = max(
            worst, (Hyperbolic.from_cartesian(phi(x, y), phi(x, K * y)) - val).max_abs()
        )
        worst = max(worst, abs(phi(K * x, y) - psi(x, y)))
        worst = max(worst, abs(psi(K * x, y) - phi(x, y)))
    return worst <= 1e-12, {"worst_violation": worst}


def _random_problem(rng, degenerate: bool) -> ExtensionProblem:
    n = int(rng.integers(2, 5))
    k1 = int(rng.integers(0, n))
    k2 = int(rng.integers(0, n))
    M = DSubmodule(n, rng.standard_normal((k1, n)), rng.standard_normal((k2, n)))
    z1 = rng.standard_normal(n)
    z = DVector.from_components(z1, np.zeros(n) if degenerate else rng.standard_normal(n))
    f = DBilinear2Functional.random(n, int(rng.integers(0, 2**31)))
    return ExtensionProblem(n, M, z, f)


@_criterion("extension-engine", budget=60.0)
def criterion_extension_engine():
    """Full extensions on random problems: restriction agreement at 1e-10,
    norm preservation at 1e-5 relative per component, every audit passes
    (among its checks, every step's r is the independently recomputed gap
    point), and the dense-grid oracle finds both gap endpoints at the first
    step's printed r within 1e-4 for component dimensions <= 2.  Under
    60 s."""
    rng = np.random.default_rng(0)
    worst_restr = 0.0
    worst_norm_rel = 0.0
    audits_passed = True
    worst_oracle = 0.0
    oracle_runs = 0
    for i in range(100):
        problem = _random_problem(rng, degenerate=(i % 4 == 3))
        trace = full_extend(problem)
        audit = trace.audit(samples=1000, seed=i)
        worst_restr = max(worst_restr, *audit["restriction_max_err"])
        worst_norm_rel = max(worst_norm_rel, *audit["norm_rel_err"])
        audits_passed = audits_passed and audit["passed"]
        small = max(problem.M.dims) <= 2 and oracle_runs < 25
        if small and trace.steps:
            step = trace.steps[0]
            g0, gm = gap_interval_grid(problem, step.x_prime)
            worst_oracle = max(worst_oracle, (g0 - step.r).max_abs(), (gm - step.r).max_abs())
            oracle_runs += 1
    ok = (
        worst_restr <= 1e-10
        and worst_norm_rel <= 1e-5
        and audits_passed
        and worst_oracle <= 1e-4
        and oracle_runs > 0
    )
    return ok, {
        "worst_restriction_err": worst_restr,
        "worst_norm_rel_err": worst_norm_rel,
        "worst_oracle_gap": worst_oracle,
        "oracle_runs": float(oracle_runs),
    }


@_criterion("norm-attaining-corollary")
def criterion_corollary():
    """Attaining functionals: norm exactly one (1e-9), value agreement at
    1e-10, and the four zero-pattern cases of the bound."""
    rng = np.random.default_rng(0)
    norm = D2Norm()
    worst_norm = 0.0
    worst_value = 0.0
    cases_ok = True
    done = 0
    while done < 50:
        n = int(rng.integers(2, 5))
        x0 = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        y0 = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        if linear_dependent(x0, y0):
            continue
        target = norm(x0, y0)
        if min(target.p, target.q) <= 1e-6:
            continue
        f0, trace = corollary_functional(x0, y0)
        done += 1
        worst_norm = max(
            worst_norm,
            (f0.norm() - Hyperbolic(1.0, 1.0)).max_abs(),
            (trace.final.norm() - Hyperbolic(1.0, 1.0)).max_abs(),
        )
        worst_value = max(worst_value, (trace.final.evaluate(x0, y0) - target).max_abs())
        for row in corollary_case_table(f0, x0, y0, rng):
            cases_ok = cases_ok and row["bounded"] and row["matched"]
    ok = worst_norm <= 1e-9 and worst_value <= 1e-10 and cases_ok
    return ok, {"worst_norm_err": worst_norm, "worst_value_err": worst_value}


@_criterion("componentwise-decoupling")
def criterion_componentwise_decoupling():
    """Metamorphic decoupling: duplicating one component's data into both
    slots and re-running reproduces that component of every D-level result
    (2-norms, functional norms, gap points, full extensions) to 1e-12."""
    rng = np.random.default_rng(0)
    norm = D2Norm()
    worst = 0.0
    for i in range(40):
        n = int(rng.integers(2, 5))
        x = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        y = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        # 2-norm evaluation
        dup = norm(
            DVector.from_components(x.c1, x.c1), DVector.from_components(y.c1, y.c1)
        )
        worst = max(worst, abs(norm(x, y).p - dup.p))
        # functional norms, both routes
        f = DBilinear2Functional.random(n, int(rng.integers(0, 2**31)))
        f_dup = DBilinear2Functional(f.C1, f.C1.copy())
        worst = max(worst, abs(norm_spectral(f).value.p - norm_spectral(f_dup).value.p))
        bf = norm_bruteforce(f, budget=2000, seed=i)
        bf_dup = norm_bruteforce(f_dup, budget=2000, seed=i)
        worst = max(worst, abs(bf.value.p - bf_dup.value.p))
        # the gap point and the full extension
        k1 = int(rng.integers(0, n))
        k2 = int(rng.integers(0, n))
        b1 = rng.standard_normal((k1, n))
        b2 = rng.standard_normal((k2, n))
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        problem = ExtensionProblem(
            n, DSubmodule(n, b1, b2), DVector.from_components(z1, z2), f
        )
        problem_dup = ExtensionProblem(
            n, DSubmodule(n, b1, b1.copy()), DVector.from_components(z1, z1.copy()), f_dup
        )
        tr = full_extend(problem)
        tr_dup = full_extend(problem_dup)
        if tr.steps:
            xp = tr.steps[0].x_prime
            xp_dup = DVector.from_components(xp.c1, xp.c1.copy())
            r = _gap_point(problem.restriction(), xp)
            r_dup = _gap_point(problem_dup.restriction(), xp_dup)
            worst = max(worst, abs(r.p - r_dup.p))
        worst = max(worst, float(np.max(np.abs(tr.final.w1 - tr_dup.final.w1), initial=0.0)))
        worst = max(worst, abs(tr.norm_F.p - tr_dup.norm_F.p))
    return worst <= 1e-12, {"worst_violation": worst}


def run_all(only: str | None = None) -> list[CriterionResult]:
    """Run every criterion whose printed name contains `only` (all if None)."""
    return [run() for name, run in ALL.items() if not only or only in name]
