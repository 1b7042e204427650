import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyp2 import (
    D2Norm,
    DBilinear2Functional,
    DSubmodule,
    DVector,
    DependentPair,
    ExtensionProblem,
    Hyperbolic,
    RestrictedFunctional,
    ZeroDivisorInput,
    corollary_functional,
    full_extend,
)
import hyp2.hahn_banach as hb
from hyp2.hahn_banach import gap_interval_grid
from hyp2._tol import ROUND
from subgradient_oracle import gap_interval_subgradient
from test_exact_reference import U, exact_norm_sq

NORM = D2Norm()


def dvec(c1, c2) -> DVector:
    return DVector.from_components(np.asarray(c1, float), np.asarray(c2, float))


def rand_dvec(rng, n) -> DVector:
    return dvec(rng.standard_normal(n), rng.standard_normal(n))


def random_problem(rng, n=None, dims=None, degenerate=False) -> ExtensionProblem:
    n = n if n is not None else int(rng.integers(2, 5))
    k1, k2 = dims if dims is not None else (int(rng.integers(0, n)), int(rng.integers(0, n)))
    M = DSubmodule(n, rng.standard_normal((k1, n)), rng.standard_normal((k2, n)))
    z2 = np.zeros(n) if degenerate else rng.standard_normal(n)
    z = dvec(rng.standard_normal(n), z2)
    f = DBilinear2Functional.random(n, int(rng.integers(0, 2**31)))
    return ExtensionProblem(n, M, z, f)


def outside_vector(rng, M: DSubmodule) -> DVector:
    while True:
        xp = rand_dvec(rng, M.n)
        if not M.contains(xp):
            return xp


def reference_full_extend(problem: ExtensionProblem) -> tuple[list, list]:
    """The per-generator chain that full_extend replaced, kept as its oracle.

    Adjoins e_1 .. e_n in index order.  Each e_i is tested against the
    current domain with component_contains, and each step rebuilds the
    domain with DSubmodule.extend, which reruns Gram-Schmidt on the whole
    basis; r is <w, x'> with f's moment w.  Returns the steps and the chain
    of domains: M, then the domain after each step.
    """
    n = problem.n
    w = problem.restriction().w
    steps, domains = [], [problem.M]
    for e in np.eye(n):
        domain = domains[-1]
        grew = (not domain.component_contains(0, e), not domain.component_contains(1, e))
        if not any(grew):
            continue
        xp = dvec(e if grew[0] else np.zeros(n), e if grew[1] else np.zeros(n))
        r = Hyperbolic(float(w[0] @ xp.c1), float(w[1] @ xp.c2))
        steps.append(hb.ExtensionStep(xp, r, grew))
        domains.append(domain.extend(xp))
    assert domains[-1].is_full()
    return steps, domains


class TestRestrictedFunctional:
    def test_norm_formula_matches_sampled_supremum(self):
        rng = np.random.default_rng(0)
        problem = random_problem(rng, n=3, dims=(2, 1))
        rf = problem.restriction()
        nf = rf.norm()
        # sampled supremum over the domain never exceeds the formula value
        worst = Hyperbolic(0.0, 0.0)
        for _ in range(3000):
            x = problem.M.random_element(rng)
            val = rf.evaluate(x, problem.z).modulus()
            scale = NORM(x, problem.z)
            ratios = [0.0, 0.0]
            for comp, (v, s) in enumerate(((val.p, scale.p), (val.q, scale.q))):
                if s > 1e-9:
                    ratios[comp] = v / s
            worst = Hyperbolic(max(worst.p, ratios[0]), max(worst.q, ratios[1]))
        assert worst.p <= nf.p + 1e-9 and worst.q <= nf.q + 1e-9
        assert worst.p >= 0.5 * nf.p  # sampling gets within sight of the sup

    def test_evaluate_matches_matrix_data_on_domain(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng, n=4, dims=(2, 3))
        rf = problem.restriction()
        for _ in range(200):
            x = problem.M.random_element(rng)
            alpha = Hyperbolic(*rng.standard_normal(2))
            got = rf.evaluate(x, alpha * problem.z)
            want = problem.functional(x, alpha * problem.z)
            assert (got - want).max_abs() <= 1e-10

    def test_evaluate_rejects_outside_domain(self):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, n=3, dims=(1, 1))
        rf = problem.restriction()
        with pytest.raises(ValueError, match="outside the domain"):
            rf.evaluate(outside_vector(rng, problem.M), problem.z)

    def test_evaluate_rejects_outside_cyclic_domain(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, n=3, dims=(2, 2))
        rf = problem.restriction()
        x = problem.M.random_element(rng)
        with pytest.raises(ValueError, match="cyclic"):
            rf.evaluate(x, rand_dvec(rng, 3))

    def test_as_functional_restricts_to_self(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, n=3, dims=(2, 1))
        rf = problem.restriction()
        g = rf.as_functional()
        for _ in range(100):
            x = problem.M.random_element(rng)
            alpha = Hyperbolic(*rng.standard_normal(2))
            assert (g(x, alpha * problem.z) - rf.evaluate(x, alpha * problem.z)).max_abs() <= 1e-10

    @pytest.mark.parametrize("z_kind", ["full", "vanish1", "zero"])
    @pytest.mark.parametrize("scale", [(1.0, 1.0, 1.0), (1e-150, 1e150, 1e-5)])
    def test_as_functional_is_exactly_antisymmetric(self, z_kind, scale):
        # as_functional skips the public constructor's antisymmetry check,
        # so its matrices must be what that constructor would keep, bit for bit
        F = full_extend(fixed_problem(3, 5, (2, 1), z_kind, scale)).final.as_functional()
        assert np.array_equal(F.C, -F.C.transpose(0, 2, 1))
        assert np.array_equal(F.C, DBilinear2Functional(F.C1, F.C2).C)
        assert not F.C.flags.writeable


class TestGapInterval:
    def test_zero_submodule_formula(self):
        rng = np.random.default_rng(5)
        n = 3
        problem = ExtensionProblem(
            n,
            DSubmodule.zero(n),
            rand_dvec(rng, n),
            DBilinear2Functional.random(n, 50),
        )
        xp = rand_dvec(rng, n)
        r = hb._gap_point(problem.restriction(), xp)
        nf = problem.restriction().norm()
        lo = -1.0 * nf * NORM(xp, problem.z)
        hi = nf * NORM(xp, problem.z)
        assert (r - lo).max_abs() <= 1e-12
        assert (r - hi).max_abs() <= 1e-12

    def test_pairwise_inequality(self):
        # -|f| |y+x',z| - f(y,z) <=' |f| |x+x',z| - f(x,z) over samples
        rng = np.random.default_rng(6)
        problem = random_problem(rng, n=3, dims=(2, 2))
        xp = outside_vector(rng, problem.M)
        nf = problem.restriction().norm()
        f = problem.functional
        for _ in range(300):
            x = problem.M.random_element(rng)
            y = problem.M.random_element(rng)
            lhs = -1.0 * nf * NORM(y + xp, problem.z) - f(y, problem.z)
            rhs = nf * NORM(x + xp, problem.z) - f(x, problem.z)
            assert lhs.leq(rhs + Hyperbolic(1e-9, 1e-9))

    def test_endpoints_inside_pairwise_bounds(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, n=3, dims=(1, 2))
        xp = outside_vector(rng, problem.M)
        r = hb._gap_point(problem.restriction(), xp)
        nf = problem.restriction().norm()
        f = problem.functional
        for _ in range(300):
            x = problem.M.random_element(rng)
            upper = nf * NORM(x + xp, problem.z) - f(x, problem.z)
            lower = -1.0 * nf * NORM(x + xp, problem.z) - f(x, problem.z)
            assert r.leq(upper + Hyperbolic(1e-9, 1e-9))
            assert (lower - Hyperbolic(1e-9, 1e-9)).leq(r)

    def test_forced_value_inside_the_domain(self):
        # x' already in M: the only admissible value is f(x', z)
        rng = np.random.default_rng(11)
        n = 3
        problem = ExtensionProblem(
            n, DSubmodule.full(n), rand_dvec(rng, n), DBilinear2Functional.random(n, 60)
        )
        xp = rand_dvec(rng, n)
        r = hb._gap_point(problem.restriction(), xp)
        want = problem.functional(xp, problem.z)
        assert (r - want).max_abs() <= 1e-10

    def test_grid_oracle_agreement_small_dims(self):
        rng = np.random.default_rng(8)
        for dims in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)):
            problem = random_problem(rng, n=3, dims=dims)
            xp = outside_vector(rng, problem.M)
            r = hb._gap_point(problem.restriction(), xp)
            g0, gm = gap_interval_grid(problem, xp)
            assert (g0 - r).max_abs() <= 1e-4
            assert (gm - r).max_abs() <= 1e-4

    def test_subgradient_outer_bracket(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            problem = random_problem(rng, n=3)
            xp = outside_vector(rng, problem.M)
            r = hb._gap_point(problem.restriction(), xp)
            s0, sm = gap_interval_subgradient(problem, xp, seed=trial)
            slack = Hyperbolic(1e-9, 1e-9)
            assert (s0 - slack).leq(r)
            assert r.leq(sm + slack)
            # and the estimate is not vacuous
            assert (sm - s0).max_abs() <= 2.0 * (1.0 + r.max_abs())


class TestZeroDivisorZ:
    def test_zero_divisor_extension_restricts_correctly(self):
        rng = np.random.default_rng(17)
        problem = random_problem(rng, n=3, dims=(2, 1), degenerate=True)
        trace = full_extend(problem)
        assert trace.repaired
        assert np.array_equal(trace.final.as_functional().C2, np.zeros((3, 3)))
        for _ in range(200):
            x = problem.M.random_element(rng)
            alpha = Hyperbolic(*rng.standard_normal(2))
            got = trace.final.evaluate(x, alpha * problem.z)
            want = problem.functional(x, alpha * problem.z)
            assert (got - want).max_abs() <= 1e-10

    def test_zero_z_gives_zero_extension(self):
        rng = np.random.default_rng(18)
        n = 3
        problem = ExtensionProblem(
            n,
            DSubmodule(n, rng.standard_normal((1, n)), rng.standard_normal((2, n))),
            DVector.zero(n),
            DBilinear2Functional.random(n, 80),
        )
        trace = full_extend(problem)
        # the steps adjoin the e_i that M misses, as for any z, each with r = 0
        assert [s.grew for s in trace.steps] == [s.grew for s in reference_full_extend(problem)[0]]
        assert trace.steps and all(s.r == Hyperbolic(0.0, 0.0) for s in trace.steps)
        assert trace.norm_f == trace.norm_F == Hyperbolic(0.0, 0.0)
        assert np.array_equal(trace.final.as_functional().C, np.zeros((2, n, n)))
        assert not trace.repaired and trace.audit(samples=100)["passed"]
        x = rand_dvec(rng, n)
        assert trace.final.evaluate(x, DVector.zero(n)).max_abs() == 0.0

    @settings(max_examples=320, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
        c=st.sampled_from([0, 1]),
        k=st.one_of(st.none(), st.integers(-140, 0)),
    )
    def test_short_component_keeps_its_own_extension(self, seed, n, c, k):
        # component c of z times 10^k (None: times 0).  [z] and so f, |f|
        # and F do not depend on the length of z in a component; at 0 all
        # three vanish there
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(0, n + 1, size=2))
        base = fixed_problem(seed, n, dims, "full")
        zc = base.z.c.copy()
        zc[c] *= 0.0 if k is None else 10.0**k
        problem = ExtensionProblem(n, base.M, dvec(*zc), base.functional)
        want, trace = full_extend(base), full_extend(problem)
        got_F, want_F = (t.final.as_functional().C[c] for t in (trace, want))
        pairs = [((t.norm_f.p, t.norm_f.q)[c], (t.norm_F.p, t.norm_F.q)[c]) for t in (trace, want)]
        if k is None:
            assert pairs[0] == (0.0, 0.0) and np.array_equal(got_F, np.zeros((n, n)))
        else:
            for got, ref in zip(*pairs):
                assert got == pytest.approx(ref, rel=1e-9, abs=0.0)
            assert np.max(np.abs(got_F - want_F)) <= 1e-9 * np.max(np.abs(want_F))
        audit = trace.audit(samples=200, seed=seed)
        assert audit["passed"], audit


class TestFullExtend:
    def test_full_domain_zero_steps(self):
        rng = np.random.default_rng(19)
        n = 3
        problem = ExtensionProblem(
            n, DSubmodule.full(n), rand_dvec(rng, n), DBilinear2Functional.random(n, 90)
        )
        trace = full_extend(problem)
        assert trace.steps == []
        assert (trace.norm_F - trace.norm_f).max_abs() <= 1e-12

    def test_zero_functional_extends_by_zero(self):
        rng = np.random.default_rng(10)
        n = 3
        problem = ExtensionProblem(
            n,
            DSubmodule(n, rng.standard_normal((1, n)), rng.standard_normal((1, n))),
            rand_dvec(rng, n),
            DBilinear2Functional.zero(n),
        )
        trace = full_extend(problem)
        assert len(trace.steps) == 2
        assert all(s.r == Hyperbolic(0.0, 0.0) for s in trace.steps)
        assert trace.norm_F == Hyperbolic(0.0, 0.0)

    def test_growth_counts_by_dimension(self):
        rng = np.random.default_rng(20)
        problem = random_problem(rng, n=3, dims=(1, 1))
        trace = full_extend(problem)
        assert [sum(s.grew[c] for s in trace.steps) for c in (0, 1)] == [2, 2]

    def test_random_instances_audit(self):
        rng = np.random.default_rng(21)
        for i in range(15):
            problem = random_problem(rng, degenerate=(i % 5 == 4))
            trace = full_extend(problem)
            audit = trace.audit(samples=200, seed=i)
            assert audit["passed"], audit

    def test_step_chain_invariants(self):
        # the printed F restricted to each domain of the per-generator chain
        # agrees with its predecessor on the predecessor's domain, and its
        # norm stays |f| along the chain
        rng = np.random.default_rng(30)
        problem = random_problem(rng, n=4, dims=(1, 2))
        trace = full_extend(problem)
        _, domains = reference_full_extend(problem)
        F = trace.final.as_functional()
        states = [RestrictedFunctional.from_matrices(d, problem.z, F) for d in domains]
        states[0] = problem.restriction()
        nf = trace.norm_f
        assert len(states) == len(trace.steps) + 1 == 4
        for prev, cur in zip(states[:-1], states[1:]):
            ncur = cur.norm()
            assert nf.leq(ncur + Hyperbolic(1e-9, 1e-9))
            assert ncur.leq(nf + Hyperbolic(1e-9, 1e-9))
            for _ in range(100):
                x = prev.domain.random_element(rng)
                alpha = Hyperbolic(*rng.standard_normal(2))
                got = cur.evaluate(x, problem.z) * alpha
                want = prev.evaluate(x, problem.z) * alpha
                assert (got - want).max_abs() <= 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
        z_kind=st.sampled_from(["full", "zero", "vanish1", "vanish2"]),
        k=st.integers(-12, 12),
        axes=st.integers(0, 8),
    )
    def test_matches_the_per_generator_chain(self, seed, n, z_kind, k, axes):
        # bit for bit: every step's x', r and growth, and the final bases;
        # up to `axes` basis rows per component are scaled standard basis
        # vectors, so some e_i are spanned from the start
        rng = np.random.default_rng(seed)
        bases = []
        for dim in rng.integers(0, n + 1, size=2):
            basis = rng.standard_normal((dim, n))
            m = min(axes, dim)
            basis[:m] = np.eye(n)[rng.choice(n, size=m, replace=False)]
            basis[:m] *= rng.uniform(-3.0, 3.0, size=(m, 1))
            bases.append(10.0**k * basis)
        z = rand_dvec(rng, n).c.copy()
        z[[c for c, kind in enumerate(("vanish1", "vanish2")) if z_kind in (kind, "zero")]] = 0.0
        f = DBilinear2Functional.random(n, seed)
        problem = ExtensionProblem(n, DSubmodule(n, *bases), dvec(*z), f)
        trace = full_extend(problem)
        steps, domains = reference_full_extend(problem)
        assert len(trace.steps) == len(steps)
        for got, want in zip(trace.steps, steps):
            assert np.array_equal(got.x_prime.c, want.x_prime.c)
            assert (got.r.p, got.r.q) == (want.r.p, want.r.q)
            assert got.grew == want.grew
        q1, q2 = trace.final.domain.q1, trace.final.domain.q2
        assert np.array_equal(q1, domains[-1].q1) and np.array_equal(q2, domains[-1].q2)
        # prefix stability, on which the audit's pointwise draws rely
        for domain in domains:
            k1, k2 = domain.dims
            assert np.array_equal(domain.q1, q1[:k1]) and np.array_equal(domain.q2, q2[:k2])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
        dims=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        kind=st.sampled_from(["random", "near_dependent", "near_axis"]),
        k=st.integers(-150, 150),
    )
    def test_ends_on_the_full_module(self, seed, n, dims, kind, k):
        # the final domain is always D^n, with one step for each e_i that
        # some component misses: component c grows n - dim_c times
        rng = np.random.default_rng(seed)
        bases = []
        for dim in (min(d, n) for d in dims):
            basis = rng.standard_normal((dim, n))
            if kind == "near_dependent" and dim >= 2:
                # the last row is a combination of the others, off by 1e-6 .. 1e-13
                basis[-1] = rng.standard_normal(dim - 1) @ basis[:-1]
                basis[-1] += 10.0 ** -rng.uniform(6.0, 13.0) * rng.standard_normal(n)
            elif kind == "near_axis":
                basis = np.eye(n)[rng.choice(n, size=dim, replace=False)]
                basis = basis + 1e-10 * rng.standard_normal((dim, n))
            basis *= 10.0**k
            try:
                DSubmodule(n, basis, basis)
            except ValueError:
                # dependent within the span tolerance: M is the other rows
                assert kind == "near_dependent"
                basis = basis[:-1]
            bases.append(basis)
        M = DSubmodule(n, *bases)
        problem = ExtensionProblem(n, M, rand_dvec(rng, n), DBilinear2Functional.random(n, seed))
        trace = full_extend(problem)
        assert trace.final.domain.is_full()
        assert [M.dims[c] + sum(s.grew[c] for s in trace.steps) for c in (0, 1)] == [n, n]
        axes = []
        for step in trace.steps:
            assert any(step.grew)
            (i,) = np.flatnonzero(step.x_prime.c.any(axis=0))
            axes.append(i)
            want = np.where(np.array(step.grew)[:, None], np.eye(n)[i], 0.0)
            assert np.array_equal(step.x_prime.c, want)
        assert axes == sorted(set(axes))

    def test_trace_json_shape(self):
        rng = np.random.default_rng(22)
        problem = random_problem(rng, n=2, dims=(1, 0))
        trace = full_extend(problem)
        blob = trace.to_json()
        assert "steps" in blob and "final" in blob
        assert blob["steps"]
        for step in blob["steps"]:
            assert set(step) == {"x_prime", "r", "grew"}
        assert {"F", "norm_f", "norm_F"} <= set(blob["final"])


class TestCorollary:
    def test_norm_one_and_value(self):
        rng = np.random.default_rng(23)
        n = 3
        x0, y0 = rand_dvec(rng, n), rand_dvec(rng, n)
        f0, trace = corollary_functional(x0, y0)
        one = Hyperbolic(1.0, 1.0)
        assert (f0.norm() - one).max_abs() <= 1e-9
        assert (trace.final.norm() - one).max_abs() <= 1e-9
        target = NORM(x0, y0)
        assert (f0.evaluate(x0, y0) - target).max_abs() <= 1e-10
        assert (trace.final.evaluate(x0, y0) - target).max_abs() <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), ks=st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
    def test_scale_equivariance(self, seed, ks):
        # scaling x0 and y0 scales the attained value and leaves the printed
        # norm-one matrices unchanged
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        x0, y0 = rand_dvec(rng, n), rand_dvec(rng, n)
        sx, sy = (10.0**k for k in ks)
        _, base = corollary_functional(x0, y0)
        f0, trace = corollary_functional(sx * x0, sy * y0)
        one = Hyperbolic(1.0, 1.0)
        assert (f0.norm() - one).max_abs() <= 1e-9
        assert (trace.final.norm() - one).max_abs() <= 1e-9
        got, want = trace.final.evaluate(sx * x0, sy * y0), NORM(sx * x0, sy * y0)
        assert (got.p, got.q) == pytest.approx((want.p, want.q), rel=1e-10, abs=0.0)
        F, F_base = trace.final.as_functional().C, base.final.as_functional().C
        assert np.max(np.abs(F - F_base)) <= 1e-9 * np.max(np.abs(F_base))

    def test_zero_divisor_scalar_case_table(self):
        rng = np.random.default_rng(24)
        x0, y0 = rand_dvec(rng, 3), rand_dvec(rng, 3)
        f0, _ = corollary_functional(x0, y0)
        a1, b2 = 1.5, -2.0
        val = f0.evaluate(Hyperbolic(a1, 0.0) * x0, Hyperbolic(0.0, b2) * y0)
        assert val.modulus().max_abs() <= 1e-12

    def test_rejects_zero_divisor_inputs(self):
        rng = np.random.default_rng(25)
        good = rand_dvec(rng, 2)
        bad = dvec([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ZeroDivisorInput):
            corollary_functional(bad, good)
        with pytest.raises(ZeroDivisorInput):
            corollary_functional(good, DVector.zero(2))

    def test_rejects_dependent_pair(self):
        rng = np.random.default_rng(26)
        x0 = rand_dvec(rng, 3)
        y0 = Hyperbolic(2.0, -1.0) * x0
        with pytest.raises(DependentPair):
            corollary_functional(x0, y0)

    def test_rejects_componentwise_dependent_pair(self):
        # dependent in the first component only: the attained value is a
        # zero divisor, so no norm-one attaining functional exists
        x0 = dvec([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        y0 = dvec([2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        with pytest.raises(DependentPair):
            corollary_functional(x0, y0)


def reference_audit(trace, samples: int, seed: int) -> dict:
    """The per-sample oracle of ExtensionTrace.audit.

    Draws one scalar block after another from the same seeded stream and
    evaluates F = final.as_functional() through DBilinear2Functional.__call__
    on Hyperbolic/DVector objects.  F's moment is compared with the engine's
    restriction of the problem rather than with the audit's SVD.
    """
    rng = np.random.default_rng(seed)
    prob = trace.problem
    n, z = prob.n, prob.z
    F = trace.final.as_functional()
    # per component: the largest |F - f| and the largest |alpha| ||x|| ||C z||
    errs, scales = [0.0, 0.0], [0.0, 0.0]
    k1, k2 = prob.M.dims
    cz = [prob.functional.C1 @ z.c1, prob.functional.C2 @ z.c2]
    for _ in range(samples):
        x1 = rng.standard_normal(k1) @ prob.M.q1 if k1 else np.zeros(n)
        x2 = rng.standard_normal(k2) @ prob.M.q2 if k2 else np.zeros(n)
        alpha = Hyperbolic(*rng.standard_normal(2))
        x = DVector.from_components(x1, x2)
        f_val = Hyperbolic(alpha.p * float(x1 @ cz[0]), alpha.q * float(x2 @ cz[1]))
        diff = F(x, alpha * z) - f_val
        for c, (d, a, xc) in enumerate(zip((diff.p, diff.q), (alpha.p, alpha.q), (x1, x2))):
            errs[c] = max(errs[c], abs(d))
            scales[c] = max(scales[c], abs(a) * np.linalg.norm(xc) * np.linalg.norm(cz[c]))
    restr_rel = [
        0.0 if e == 0.0 else e / sc if sc > 0.0 else np.inf for e, sc in zip(errs, scales)
    ]
    # the domains of the per-generator chain, each with f's moment
    _, domains = reference_full_extend(prob)
    rf_states = [RestrictedFunctional(d, z, *prob.restriction().w) for d in domains]
    gap_points = [
        Hyperbolic(float(st.w1 @ s.x_prime.c1), float(st.w2 @ s.x_prime.c2))
        for st, s in zip(rf_states, trace.steps)
    ]
    brackets_ok = all(g.leq(s.r) and s.r.leq(g) for g, s in zip(gap_points, trace.steps))
    pointwise_excess, pointwise_ok = [0.0, 0.0], True
    nf = trace.norm_f
    for state, step in zip(rf_states[:-1], trace.steps):
        kk1, kk2 = state.domain.dims
        for _ in range(max(8, samples // max(1, len(trace.steps) * 4))):
            x1 = rng.standard_normal(kk1) @ state.domain.q1 if kk1 else np.zeros(n)
            x2 = rng.standard_normal(kk2) @ state.domain.q2 if kk2 else np.zeros(n)
            x = DVector.from_components(x1, x2)
            lhs = (state.evaluate(x, z) + step.r).modulus()
            rhs = nf * NORM(x + step.x_prime, z)
            pointwise_excess = [max(pointwise_excess[0], lhs.p - rhs.p),
                                max(pointwise_excess[1], lhs.q - rhs.q)]
            # each excess against 1e-9 * |f| * gram
            pointwise_ok = pointwise_ok and lhs.p - rhs.p <= 1e-9 * rhs.p
            pointwise_ok = pointwise_ok and lhs.q - rhs.q <= 1e-9 * rhs.q
    # F's norm on X x [z]: C_F z read off column by column, and the witness
    # |<C_F z, m>| / gram(m, z) at m = P C_F z, with Lagrange's area
    # sqrt(|m|^2 |z|^2 - <m, z>^2) (0 where it is 0)
    cols = [F(DVector.from_components(e, e), z) for e in np.eye(n)]
    cfz = np.array([[v.p for v in cols], [v.q for v in cols]])
    exact, moment_rel, witness = [], [], []
    for zc, v, w, C in zip(z.c, cfz, prob.restriction().w, prob.functional.C):
        nz2 = zc @ zc
        m = v - zc * ((zc @ v) / nz2) if nz2 > 0.0 else v
        exact.append(float(np.sqrt(m @ m) / np.sqrt(nz2)) if nz2 > 0.0 else 0.0)
        diff, scale = np.linalg.norm(m - w), np.linalg.norm(C @ zc)
        moment_rel.append(0.0 if diff == 0.0 else diff / scale if scale > 0.0 else np.inf)
        area = np.sqrt(max((m @ m) * nz2 - (m @ zc) ** 2, 0.0))
        witness.append(float(abs(v @ m) / area) if area > 0.0 else 0.0)
    rel = []
    for got, want in zip(exact, (trace.norm_F.p, trace.norm_F.q)):
        diff = abs(got - want)
        rel.append(0.0 if diff == 0.0 else diff / abs(want) if want != 0.0 else np.inf)
    norm_ok = max(rel) <= 1e-5 and max(moment_rel) <= 1e-10
    norm_ok = norm_ok and all(abs(wv - ex) <= 1e-12 * ex for wv, ex in zip(witness, exact))
    out = {
        "restriction_max_err": errs,
        "restriction_rel_err": restr_rel,
        "restriction_ok": all(r <= 1e-10 for r in restr_rel),
        "pointwise_bound_excess": pointwise_excess,
        "pointwise_ok": pointwise_ok,
        "norm_F_audit": {"p": exact[0], "q": exact[1]},
        "moment_rel_err": moment_rel,
        "norm_F_witness": {"p": witness[0], "q": witness[1]},
        "norm_ok": norm_ok,
        "steps": len(trace.steps),
    }
    out["passed"] = all(out[k] for k in ("restriction_ok", "pointwise_ok", "norm_ok"))
    out["passed"] = out["passed"] and brackets_ok
    return out


def restriction_in_space(trace, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The audit's restriction check before it moved to M's coordinates:
    x = d q as a (2, samples, n) stack and x' C z by einsum.  Returns, per
    component at unit scale, the largest |alpha x' (C_F - C) z| and the
    largest |alpha| ||x|| ||C z||."""
    rng = np.random.default_rng(seed)
    prob = trace.problem
    F = trace.final.as_functional()
    z, _, ef, _ = prob.restriction()._unit
    cz, cFz = ((np.ldexp(C, -ef[:, None, None]) @ z[:, :, None])[..., 0]
               for C in (prob.functional.C, F.C))
    k1, k2 = prob.M.dims
    k = k1 + k2
    draws = rng.standard_normal((samples, k + 2))
    xs = np.stack((draws[:, :k1] @ prob.M.q1, draws[:, k1:k] @ prob.M.q2))
    alpha = draws[:, k:].T
    f_vals = alpha * np.einsum("cmn,cn->cm", xs, cz)
    F_vals = alpha * np.einsum("cmn,cn->cm", xs, cFz)
    errs = np.max(np.abs(F_vals - f_vals), axis=1, initial=0.0)
    scale = np.abs(alpha) * np.linalg.norm(xs, axis=-1) * np.linalg.norm(cz, axis=-1)[:, None]
    return errs, np.max(scale, axis=1, initial=0.0)


def fixed_problem(seed: int, n: int, dims, z_kind: str, scale=(1.0, 1.0, 1.0)) -> ExtensionProblem:
    """A seeded problem with z full, zero, or vanishing in component 1 or 2;
    scale multiplies (f, z, M's basis)."""
    rng = np.random.default_rng(seed)
    sf, sz, sm = scale
    k1, k2 = dims
    M = DSubmodule(n, sm * rng.standard_normal((k1, n)), sm * rng.standard_normal((k2, n)))
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    if z_kind in ("zero", "vanish1"):
        z1 = np.zeros(n)
    if z_kind in ("zero", "vanish2"):
        z2 = np.zeros(n)
    f = DBilinear2Functional.random(n, seed)
    return ExtensionProblem(n, M, sz * dvec(z1, z2), sf * f)


AUDIT_CASES = [
    (0, 2, (0, 1), "full"),
    (1, 2, (1, 0), "zero"),
    (2, 2, (1, 1), "vanish1"),
    (3, 3, (0, 2), "vanish2"),
    (4, 3, (2, 0), "vanish1"),
    (5, 8, (0, 7), "full"),
    (6, 8, (7, 0), "vanish2"),
    (7, 8, (3, 5), "vanish1"),
    (8, 8, (7, 7), "zero"),
    (9, 5, (4, 0), "full"),
    (10, 4, (0, 0), "full"),
]


class TestAuditBatched:
    @pytest.mark.parametrize("seed,n,dims,z_kind", AUDIT_CASES)
    def test_matches_per_sample_reference(self, seed, n, dims, z_kind):
        trace = full_extend(fixed_problem(seed, n, dims, z_kind))
        for samples in (1000, 37):
            got = trace.audit(samples=samples, seed=seed)
            want = reference_audit(trace, samples=samples, seed=seed)
            for key in ("passed", "restriction_ok", "pointwise_ok", "norm_ok", "steps"):
                assert got[key] == want[key], key
            # two summation routes of C_F z, one stacked product and column by
            # column: each norm within 8 n u of the exact ||P C_F z|| / ||z||
            F = trace.final.as_functional()
            for comp, c in enumerate("pq"):
                exact = exact_norm_sq(F.C[comp], trace.problem.z.c[comp])
                for value in (got["norm_F_audit"][c], want["norm_F_audit"][c]):
                    if exact == 0:
                        assert value == 0.0
                    else:
                        assert abs((Fraction(value) ** 2 / exact - 1) / 2) <= 8 * n * U
            for g, w in zip(got["moment_rel_err"], want["moment_rel_err"]):
                assert abs(g - w) <= 1e-12
            for c in "pq":
                want_c = want["norm_F_witness"][c]
                assert got["norm_F_witness"][c] == pytest.approx(want_c, rel=1e-12, abs=0.0)
            # every maximum per component
            for c in range(2):
                for key, tol in (("restriction_max_err", 1e-12), ("pointwise_bound_excess", 1e-12),
                                 ("restriction_rel_err", 1e-13)):
                    assert abs(got[key][c] - want[key][c]) <= tol, key
                assert got["restriction_rel_err"][c] <= 1e-13

    @pytest.mark.parametrize("seed,n,dims,z_kind", AUDIT_CASES)
    def test_matches_reference_on_a_corrupted_trace(self, seed, n, dims, z_kind):
        # F off on M and every r off its bracket: both errors then depend on
        # which samples were drawn, so this pins the draw layout as well
        trace = full_extend(fixed_problem(seed, n, dims, z_kind))
        final = trace.final
        steps = [dataclasses.replace(s, r=s.r + Hyperbolic(0.5, -0.25)) for s in trace.steps]
        broken = dataclasses.replace(
            trace,
            final=RestrictedFunctional(final.domain, final.z, 1.001 * final.w1, final.w2 - 0.01),
            steps=steps,
        )
        got = broken.audit(samples=300, seed=seed)
        want = reference_audit(broken, samples=300, seed=seed)
        for key in ("passed", "restriction_ok", "pointwise_ok", "norm_ok"):
            assert got[key] == want[key], key
        for key in ("restriction_max_err", "restriction_rel_err", "pointwise_bound_excess"):
            for c in range(2):
                assert got[key][c] == pytest.approx(want[key][c], rel=1e-12, abs=1e-12), key

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("seed,n,dims,z_kind", AUDIT_CASES)
    def test_restriction_in_coordinates_matches_the_stacked_form(self, seed, n, dims, z_kind,
                                                                 corrupt):
        # x' C z as d (q C z) against x = d q built as a (2, samples, n)
        # stack: the relative errors agree within 4 n u, also where F is off
        # on M and they are far from rounding
        trace = full_extend(fixed_problem(seed, n, dims, z_kind))
        if corrupt:
            final = trace.final
            trace = dataclasses.replace(trace, final=RestrictedFunctional(
                final.domain, final.z, 1.001 * final.w1, final.w2 - 0.01))
        got = trace.audit(samples=300, seed=seed)["restriction_rel_err"]
        want = hb._rel_err(*restriction_in_space(trace, samples=300, seed=seed))
        for g, w in zip(got, want):
            assert g == w if np.isinf(w) else abs(g - w) <= 4 * n * U

    @pytest.mark.parametrize("seed,n,dims", [(11, 3, (2, 2)), (20, 5, (3, 1)), (21, 8, (7, 4)),
                                             (22, 4, (1, 3)), (23, 6, (5, 5))])
    def test_moment_bumped_by_1e_9_fails_restriction(self, seed, n, dims):
        trace = full_extend(fixed_problem(seed, n, dims, "full"))
        assert trace.audit()["passed"]
        final = trace.final
        bumped = RestrictedFunctional(final.domain, final.z, final.w1 * (1 + 1e-9), final.w2)
        audit = dataclasses.replace(trace, final=bumped).audit()
        assert not audit["restriction_ok"] and not audit["passed"]
        assert audit["restriction_rel_err"][0] > 1e-10 >= audit["restriction_rel_err"][1]

    def test_repaired_z_rotated_fails_restriction(self):
        trace = full_extend(fixed_problem(2, 3, (1, 1), "vanish1"))
        assert trace.repaired
        # a final functional whose generator no longer spans the original
        # [z] in the surviving component prints matrices that disagree with
        # f on M x [z]
        z1, z2 = trace.final.z.c
        rotated = RestrictedFunctional(
            trace.final.domain, dvec(z1, np.roll(z2, 1)), trace.final.w1, trace.final.w2
        )
        broken = dataclasses.replace(trace, final=rotated)
        audit = broken.audit(samples=50)
        assert not audit["restriction_ok"] and not audit["passed"]
        assert audit["restriction_rel_err"][1] > 0.1
        want = reference_audit(broken, samples=50, seed=0)
        assert not want["restriction_ok"] and not want["passed"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        ks=st.tuples(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12)),
    )
    def test_scale_equivariance(self, seed, ks):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        dims = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        z_kind = ("full", "full", "vanish1", "vanish2")[seed % 4]
        scale = tuple(10.0**k for k in ks)
        base = full_extend(fixed_problem(seed, n, dims, z_kind))
        trace = full_extend(fixed_problem(seed, n, dims, z_kind, scale))
        audit = trace.audit(samples=200, seed=seed)
        assert max(audit["restriction_rel_err"]) <= 1e-12
        assert audit["restriction_ok"]
        for got, want in ((trace.norm_F.p, base.norm_F.p), (trace.norm_F.q, base.norm_F.q)):
            assert got == pytest.approx(scale[0] * want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_corrupted_extension_fails_restriction(self, s):
        trace = full_extend(fixed_problem(11, 3, (2, 2), "full", (s, s, s)))
        assert trace.audit(samples=200)["restriction_ok"]
        final = trace.final
        # F off by a relative 1e-8 on M x [z]
        corrupted = RestrictedFunctional(final.domain, final.z, final.w1 * (1 + 1e-8), final.w2)
        audit = dataclasses.replace(trace, final=corrupted).audit(samples=200)
        assert not audit["restriction_ok"] and not audit["passed"]
        # only the first component is corrupted
        assert 1e-10 < audit["restriction_rel_err"][0] < 1e-7
        assert audit["restriction_rel_err"][1] <= 1e-10
        if s < 1.0:
            # an absolute tolerance cannot see the corruption at small scale
            assert max(audit["restriction_max_err"]) <= 1e-10

    def test_short_z_keeps_the_norm(self):
        # z of length about 1e-13 is a direction like any other: the
        # extension keeps f's norm, and the audit passes
        base = full_extend(fixed_problem(12, 3, (1, 2), "full"))
        trace = full_extend(fixed_problem(12, 3, (1, 2), "full", (1.0, 1e-13, 1.0)))
        assert not trace.repaired and len(trace.steps) == len(base.steps)
        for got, want in ((trace.norm_F.p, base.norm_F.p), (trace.norm_F.q, base.norm_F.q)):
            assert want > 0.0 and got == pytest.approx(want, rel=1e-9, abs=0.0)
        audit = trace.audit(samples=200)
        assert max(audit["restriction_rel_err"]) <= 1e-12 and audit["passed"]

    def test_short_component_is_checked_on_its_own_scale(self):
        # z's second component 1e-13 of the first's length: a final functional
        # that is zero there is wrong on M x [z], although its error is
        # negligible beside the first component's scale
        base = fixed_problem(13, 3, (1, 1), "full")
        z = dvec(base.z.c1, 1e-13 * base.z.c2)
        trace = full_extend(ExtensionProblem(3, base.M, z, base.functional))
        assert trace.audit(samples=200)["passed"]
        final = trace.final
        zeroed = RestrictedFunctional(final.domain, final.z, final.w1, np.zeros(3))
        broken = dataclasses.replace(trace, final=zeroed)
        audit = broken.audit(samples=200)
        assert not audit["restriction_ok"] and not audit["passed"]
        assert audit["restriction_rel_err"][1] > 0.1
        assert max(audit["restriction_max_err"]) <= 1e-10 * np.max(np.abs(base.functional.C1))
        want = reference_audit(broken, samples=200, seed=0)
        assert not want["restriction_ok"] and not want["passed"]

    def test_zero_scale_disagreement_is_infinite(self):
        n = 3
        problem = ExtensionProblem(
            n, DSubmodule.full(n), dvec([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            DBilinear2Functional.zero(n),
        )
        trace = full_extend(problem)
        assert trace.audit(samples=50)["restriction_rel_err"] == [0.0, 0.0]
        bad = RestrictedFunctional(trace.final.domain, trace.final.z, [0.0, 1.0, 0.0], np.zeros(n))
        audit = dataclasses.replace(trace, final=bad).audit(samples=50)
        assert audit["restriction_rel_err"] == [float("inf"), 0.0]
        assert not audit["restriction_ok"]


class TestBracketCheck:
    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_shifted_r_fails(self, s):
        trace = full_extend(fixed_problem(7, 8, (3, 5), "full", (s, s, s)))
        audit = trace.audit(samples=200)
        assert audit["brackets_ok"] and audit["passed"]
        # one step's r off by a relative 1e-8, F left as it is
        steps = list(trace.steps)
        j = max(range(len(steps)), key=lambda i: steps[i].r.max_abs())
        steps[j] = dataclasses.replace(steps[j], r=steps[j].r * (1.0 + 1e-8))
        audit = dataclasses.replace(trace, steps=steps).audit(samples=200)
        assert not audit["brackets_ok"] and not audit["passed"]
        assert audit["restriction_ok"] and audit["norm_ok"]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["z_in_span", "line_of_z", "f_vanishes", "rows_far_apart"])
    def test_rank_edge_cases_pass(self, kind, seed):
        # problems where the z-perp projection of M's first component loses
        # rank, or the moment is a rounding residue, must still pass
        rng = np.random.default_rng(seed)
        n = 3 + 2 * (seed % 2)
        z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
        f = DBilinear2Functional.random(n, seed)
        basis1 = rng.standard_normal((2, n))
        if kind == "z_in_span":
            # z1 in span(basis1) and z2 = 0, so z is a zero divisor
            z1, z2 = basis1[0] + 2.0 * basis1[1], np.zeros(n)
        elif kind == "line_of_z":
            # span(c z1): the projection is one rounding-residue row
            basis1 = (rng.standard_normal() * 10.0 ** rng.uniform(-3, 3) * z1)[None, :]
        elif kind == "f_vanishes":
            # the kernel of C1 (n is odd): f(., z) vanishes on it
            basis1 = np.linalg.svd(f.C1)[2][-1:]
        else:
            # row lengths 1e15 apart: both stay independent directions
            basis1 = basis1 * np.array([[1e-8], [1e7]])
        M = DSubmodule(n, basis1, rng.standard_normal((1, n)))
        trace = full_extend(ExtensionProblem(n, M, dvec(z1, z2), f))
        assert trace.repaired == (kind == "z_in_span")
        audit = trace.audit(samples=100)
        assert audit["brackets_ok"] and audit["passed"]


def large_z_problem(z_scale: float = 1.0) -> ExtensionProblem:
    """An n = 2 problem with z of length about 2e3 (times z_scale), f scaled
    by about 10 and M by about 14."""
    sf, sz, sm = 10.559605405227764, 666.1772931165311 * z_scale, 14.035985844543434
    basis2 = np.array([[-0.5771138791021315, 0.19824567126971632]]) * sm
    M = DSubmodule(2, np.zeros((0, 2)), basis2)
    z = dvec(
        np.array([-1.5909961213969264, -1.4409872546112363]) * sz,
        np.array([2.074042540381973, 2.324604012448067]) * sz,
    )
    C1 = np.array([[0.0, 0.4689455856758883], [-0.4689455856758883, 0.0]])
    C2 = np.array([[0.0, 0.69165914081277], [-0.69165914081277, 0.0]])
    return ExtensionProblem(2, M, z, DBilinear2Functional(C1 * sf, C2 * sf))


def seed618_problem() -> ExtensionProblem:
    """An n = 5 problem with dims (2, 0) and z scaled by 0.0056, on which a
    sampled-then-climbed norm estimate stopped 0.34% under norm_F."""
    sf, sz, sm = 9.007372781256551, 0.005614489595612807, 0.04237312523204363
    basis1 = np.array([
        [1.6503478465531018, -1.109603468845787, 0.36505402308002965,
         -2.0569908351038118, -1.0158909366016995],
        [-0.49199032651517366, -1.3172105261481066, -0.864353431633029,
         0.03917935714697452, 0.06887435446267018],
    ])
    z1 = np.array([0.8394490497549227, -0.4360836767325561, -0.6131133668394944,
                   0.8503609650873009, 0.34420988192078084])
    z2 = np.array([1.101833924715449, 0.9074553616282164, 0.2545394725037797,
                   -0.21055107463542239, -0.0154742238126427])
    C = np.zeros((2, 5, 5))
    C[:, 0, 1:] = [[0.09062099623163666, 1.6932625843881373, -0.4339279370944235,
                    0.6062788961162132],
                   [-0.21425669629227587, 0.35132155502339296, 0.14923898800555102,
                    1.0336390255115493]]
    C[:, 1, 2:] = [[0.1175308003658197, 0.39927751473672923, -0.28207417048589367],
                   [0.6455946829641406, 0.5487932255244743, 0.01712319887070612]]
    C[:, 2, 3:] = [[0.40629712391355766, -0.3855752333166631],
                   [0.661079156532158, -0.46201774216806013]]
    C[:, 3, 4] = [-0.5344521501180765, -0.4359317015259476]
    C = C - C.transpose(0, 2, 1)
    M = DSubmodule(5, basis1 * sm, np.zeros((0, 5)))
    return ExtensionProblem(5, M, dvec(z1 * sz, z2 * sz), DBilinear2Functional(*(C * sf)))


class TestNormCheckRegressions:
    def test_large_z_regression(self):
        # with an absolute 1e-9 rejection a climbed estimate reached x almost
        # parallel to z, where the rounding residue of the moment along z
        # dominated: it overshot norm_F by a relative 2.5e-4.  The exact
        # route has no such direction
        audit = full_extend(large_z_problem()).audit(samples=1000)
        assert audit["norm_ok"] and audit["passed"]
        assert max(audit["norm_rel_err"]) <= 1e-9

    @pytest.mark.parametrize("z_scale", [1e-6, 1e-2, 1.0, 1e2, 1e6])
    def test_norm_recomputation_does_not_depend_on_the_scale_of_z(self, z_scale):
        trace = full_extend(large_z_problem(z_scale))
        audit = trace.audit(samples=1000)
        assert audit["norm_ok"]
        assert max(audit["norm_rel_err"]) <= 1e-9

    def test_seed618_problem_passes(self):
        # the climb stopped short of the supremum here and norm_ok failed on
        # a correct extension; the exact value cannot stop short
        audit = full_extend(seed618_problem()).audit(samples=1000)
        assert audit["passed"]
        assert max(audit["norm_rel_err"]) <= 1e-12

    @pytest.mark.parametrize("z_scale", [1e-3, 1.0, 1e3, 1e6])
    def test_witness_ignores_a_residue_along_z_at_every_scale(self, z_scale, monkeypatch):
        # F plus a symmetric term that gives C_F z a relative 1e-8 part along
        # z: the moment P C_F z drops it, and the witness at that moment
        # stays within rounding of the exact norm, whatever the scale of z
        trace = full_extend(large_z_problem(z_scale))
        exact = RestrictedFunctional.as_functional

        def mutant(rf):
            F = exact(rf)
            zh = rf.z.c / np.linalg.norm(rf.z.c, axis=1, keepdims=True)
            along = np.linalg.norm(F.C, axis=(1, 2))[:, None, None] * zh[:, :, None] * zh[:, None, :]
            return DBilinear2Functional._of(F.C + 1e-8 * along)

        monkeypatch.setattr(RestrictedFunctional, "as_functional", mutant)
        audit = trace.audit(samples=1000)
        assert audit["norm_ok"]
        # M's first component is 0, and so is F's there
        assert audit["norm_F_audit"]["p"] == 0.0 < audit["norm_F_audit"]["q"]
        for c in "pq":
            got, want = audit["norm_F_witness"][c], audit["norm_F_audit"][c]
            assert abs(got - want) <= ROUND * want


class TestNormCheckMutations:
    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_off_m_term_fails_the_moment_check(self, s, monkeypatch):
        trace = full_extend(fixed_problem(13, 5, (2, 2), "full", (s, s, s)))
        assert trace.audit(samples=200)["passed"]
        exact = RestrictedFunctional.as_functional

        def mutant(rf):
            # F plus an antisymmetric term of relative size 1e-8 that
            # vanishes on M x [z]: u is orthogonal to M and to z
            F = exact(rf)
            terms = []
            for basis, zc, C in zip((trace.problem.M.basis1, trace.problem.M.basis2), rf.z.c, F.C):
                u = np.linalg.svd(np.vstack([basis, zc]))[2][-1]
                zh = zc / np.linalg.norm(zc)
                terms.append(1e-8 * np.linalg.norm(C) * (np.outer(u, zh) - np.outer(zh, u)))
            return DBilinear2Functional(*(F.C + np.array(terms)))

        monkeypatch.setattr(RestrictedFunctional, "as_functional", mutant)
        audit = trace.audit(samples=200)
        assert audit["restriction_ok"]
        assert not audit["norm_ok"] and not audit["passed"]
        # the norm moves only to second order; the moment check is what fails
        assert max(audit["norm_rel_err"]) <= 1e-5
        assert max(audit["moment_rel_err"]) > 1e-10

    @pytest.mark.parametrize("s", [1e-12, 1.0])
    def test_pointwise_violation_fails_at_every_scale(self, s):
        # at n = 2 the z-perp part of x + x' is parallel to the moment, so
        # the pointwise bound is tight on every sample; lowering |f| by a
        # relative 1e-3 violates it everywhere by a relative 1e-3
        trace = full_extend(fixed_problem(14, 2, (1, 1), "full", (s, 1.0, 1.0)))
        assert trace.audit(samples=200)["pointwise_ok"]
        low = dataclasses.replace(trace, norm_f=Hyperbolic(0.999, 0.999) * trace.norm_f)
        audit = low.audit(samples=200)
        assert not audit["pointwise_ok"] and not audit["passed"]
        if s < 1.0:
            # an absolute tolerance cannot see the violation at small scale
            assert max(audit["pointwise_bound_excess"]) <= 1e-9

    @pytest.mark.parametrize("seed", range(15, 19))
    @pytest.mark.parametrize("z_kind", ["full", "vanish1", "vanish2"])
    def test_low_norm_f_fails_pointwise(self, seed, z_kind):
        # at n = 2 the bound is tight on every sample, so |f| times 0.999
        # fails it in every component where z does not vanish
        trace = full_extend(fixed_problem(seed, 2, (1, 1), z_kind, (1e-5, 1e3, 1.0)))
        assert trace.audit()["pointwise_ok"]
        low = dataclasses.replace(trace, norm_f=Hyperbolic(0.999, 0.999) * trace.norm_f)
        audit = low.audit()
        assert not audit["pointwise_ok"] and not audit["passed"]
        for c, live in enumerate((z_kind != "vanish1", z_kind != "vanish2")):
            assert (audit["pointwise_bound_excess"][c] > 0.0) == live

    def test_low_exact_norm_fails_through_the_witness(self, monkeypatch):
        trace = full_extend(fixed_problem(11, 3, (1, 1), "full"))
        assert trace.audit(samples=200)["passed"]
        exact = hb._exact_norm

        def mutant(cz, z):
            moment, norm = exact(cz, z)
            return moment, 0.999 * norm

        monkeypatch.setattr(hb, "_exact_norm", mutant)
        low = dataclasses.replace(trace, norm_F=Hyperbolic(0.999, 0.999) * trace.norm_F)
        audit = low.audit(samples=200)
        assert max(audit["norm_rel_err"]) <= 1e-5 and max(audit["moment_rel_err"]) <= 1e-10
        assert audit["restriction_ok"] and audit["brackets_ok"] and audit["pointwise_ok"]
        assert not audit["norm_ok"] and not audit["passed"]
        for c in "pq":
            assert audit["norm_F_witness"][c] > audit["norm_F_audit"][c] * (1.0 + 1e-5)

    def test_moment_off_by_1e_9_fails_the_norm_check(self):
        # M is all of X: the moment is C z's part orthogonal to z, so F's
        # moment off by a relative 1e-9 is off by 1e-9 of ||C z||
        trace = full_extend(fixed_problem(11, 3, (3, 3), "full"))
        assert trace.audit(samples=200)["passed"]
        final = trace.final
        off = RestrictedFunctional(final.domain, final.z, final.w1 * (1.0 + 1e-9), final.w2)
        audit = dataclasses.replace(trace, final=off).audit(samples=200)
        assert not audit["norm_ok"] and not audit["passed"]
        assert 1e-10 < audit["moment_rel_err"][0] < 1e-8 and audit["moment_rel_err"][1] <= 1e-10
