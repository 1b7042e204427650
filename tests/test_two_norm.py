import warnings

import numpy as np
import pytest

from hyp2 import (
    E1,
    E2,
    K,
    AxiomViolation,
    D2Norm,
    DimensionMismatch,
    DVector,
    Hyperbolic,
    axiom_check,
    decompose,
    linear_dependent,
)
from hyp2.acceptance import broken_triangle_norm
from hyp2.two_norm import wedge_area_batch


def dvec(c1, c2) -> DVector:
    return DVector.from_components(np.asarray(c1, float), np.asarray(c2, float))


def rand_dvec(rng, n) -> DVector:
    return dvec(rng.standard_normal(n), rng.standard_normal(n))


def gram_direct(x, y):
    # independent oracle: the textbook formula sqrt(|x|^2 |y|^2 - <x,y>^2)
    x, y = np.asarray(x, float), np.asarray(y, float)
    val = (x @ x) * (y @ y) - (x @ y) ** 2
    return float(np.sqrt(max(val, 0.0)))


def area(x, y) -> float:
    """The area 2-norm of one pair, as one row of wedge_area_batch."""
    return float(wedge_area_batch(np.asarray(x, float)[None], np.asarray(y, float)[None])[0])


class TestGramDet:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert abs(area(x, y) - gram_direct(x, y)) <= 1e-10

    def test_unit_square(self):
        assert area([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert area([1.0, 0.0], [0.0, 2.0]) == 2.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        xs, ys = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        batch = wedge_area_batch(xs, ys)
        for i in range(50):
            assert abs(batch[i] - area(xs[i], ys[i])) <= 1e-12


class TestEval:
    def test_dependent_pair_is_zero(self):
        rng = np.random.default_rng(2)
        norm = D2Norm()
        x = rand_dvec(rng, 3)
        alpha = Hyperbolic(1.5, -0.25)
        assert norm(x, alpha * x).max_abs() <= 1e-12

    def test_hand_gram_values(self):
        norm = D2Norm()
        x = dvec([1.0, 0.0], [1.0, 0.0])
        y = dvec([0.0, 1.0], [0.0, 2.0])
        assert norm(x, y) == Hyperbolic(1.0, 2.0)

    def test_shift_invariance_in_second_slot(self):
        rng = np.random.default_rng(3)
        norm = D2Norm()
        for _ in range(100):
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            alpha = Hyperbolic(*rng.standard_normal(2))
            diff = norm(x, y + alpha * x) - norm(x, y)
            assert diff.max_abs() <= 1e-9

    def test_values_in_nonneg_cone(self):
        rng = np.random.default_rng(4)
        norm = D2Norm()
        for _ in range(200):
            assert norm(rand_dvec(rng, 4), rand_dvec(rng, 4)).is_nonneg()

    def test_zero_divisor_scalar_homogeneity(self):
        rng = np.random.default_rng(5)
        norm = D2Norm()
        for _ in range(50):
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            assert (norm(E1 * x, y) - E1 * norm(x, y)).max_abs() <= 1e-12
            assert (norm(E2 * x, y) - E2 * norm(x, y)).max_abs() <= 1e-12

    def test_dimension_mismatch(self):
        norm = D2Norm()
        with pytest.raises(DimensionMismatch):
            norm(DVector.zero(2), DVector.zero(3))


class TestDecompose:
    def test_reproduces_the_lifted_components(self):
        norm = D2Norm()
        phi, psi = decompose(norm, 3)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            assert phi(x.e1_part(), y.e1_part()) == area(x.c1, y.c1)
            assert psi(x.e2_part(), y.e2_part()) == area(x.c2, y.c2)

    def test_psi_vanishes_on_e1_pairs_exactly(self):
        norm = D2Norm()
        phi, psi = decompose(norm, 3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            assert psi(x.e1_part(), y.e1_part()) == 0.0
            assert phi(x.e2_part(), y.e2_part()) == 0.0

    def test_reconstruction_identity(self):
        norm = D2Norm()
        phi, psi = decompose(norm, 4)
        rng = np.random.default_rng(8)
        for _ in range(200):
            x, y = rand_dvec(rng, 4), rand_dvec(rng, 4)
            rebuilt = Hyperbolic(
                phi(x.e1_part(), y.e1_part()), psi(x.e2_part(), y.e2_part())
            )
            assert (rebuilt - norm(x, y)).max_abs() <= 1e-12

    def test_rejects_non_norm(self):
        def bogus(x, y):
            return Hyperbolic(-1.0, -1.0)

        with pytest.raises(AxiomViolation):
            decompose(bogus, 2)

    def test_names_the_failed_axioms(self):
        # the squared area is symmetric and vanishes on dependent pairs, but
        # it is neither homogeneous nor subadditive
        norm = D2Norm()

        def squared(x, y):
            v = norm(x, y)
            return Hyperbolic(v.p**2, v.q**2)

        with pytest.raises(AxiomViolation, match=r"\['iii', 'iv'\]"):
            decompose(squared, 3)

    @pytest.mark.parametrize("s", [1e-6, 1e6, 1e8])
    def test_accepts_a_rescaled_norm(self, s):
        # a positive multiple of a 2-norm is a 2-norm: the probe's bound
        # follows the norm's scale
        def scaled_area(xs, ys):
            return s * wedge_area_batch(xs, ys)

        phi, psi = decompose(D2Norm(scaled_area, scaled_area), 3)
        x, y = rand_dvec(np.random.default_rng(9), 3), rand_dvec(np.random.default_rng(10), 3)
        assert phi(x, y) == s * area(x.c1, y.c1) and psi(x, y) == s * area(x.c2, y.c2)


def _not_a_norm(s):
    # s * (|<x, (0, 1, 2)>| + area): neither symmetric nor zero on dependent pairs
    return lambda xs, ys: s * (np.abs(xs @ np.array([0.0, 1.0, 2.0])) + wedge_area_batch(xs, ys))


def _scaled_area(s):
    return lambda xs, ys: s * wedge_area_batch(xs, ys)


class TestDecomposePerComponent:
    # each component is judged on its own scale, so a broken component is
    # rejected however small it is beside a fixed unit or the other component
    @pytest.mark.parametrize(
        "norm1,norm2",
        [
            pytest.param(None, _not_a_norm(1e-10), id="slot2-1e-10"),
            pytest.param(_not_a_norm(1e-10), None, id="slot1-1e-10"),
            pytest.param(_not_a_norm(1e-10), _scaled_area(1e10), id="slot1-1e-10-beside-1e10"),
            pytest.param(None, _not_a_norm(1e10), id="slot2-1e10"),
        ],
    )
    def test_rejects_a_broken_component_at_any_scale(self, norm1, norm2):
        with pytest.raises(AxiomViolation, match=r"\['i', 'ii'\]"):
            decompose(D2Norm(norm1, norm2), 3)

    def test_rejects_it_as_a_black_box(self):
        broken = D2Norm(None, _not_a_norm(1e-10))
        with pytest.raises(AxiomViolation, match=r"\['i', 'ii'\]"):
            decompose(lambda x, y: broken(x, y), 3)

    def test_accepts_two_area_norms_twenty_decades_apart(self):
        norm = D2Norm(_scaled_area(1e-10), _scaled_area(1e10))
        phi, psi = decompose(norm, 3)
        x, y = rand_dvec(np.random.default_rng(11), 3), rand_dvec(np.random.default_rng(12), 3)
        assert phi(x, y) == norm(x, y).p and psi(x, y) == norm(x, y).q

    @pytest.mark.parametrize(
        "p,q",
        [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf")),
         # subnormal: no finite reciprocal, or too few bits to judge by
         (1e-310, 1.0), (1.0, 1e-308)],
    )
    def test_rejects_a_value_at_e1_e2_that_is_not_positive(self, p, q):
        with pytest.raises(AxiomViolation, match=r"axiom i: its value at \(e_1, e_2\)"):
            decompose(lambda x, y: Hyperbolic(p, q), 2)

    @pytest.mark.parametrize("s", [1e-310, 1e-308])
    def test_rejects_an_area_norm_at_a_subnormal_scale(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AxiomViolation, match=r"axiom i: its value at \(e_1, e_2\)"):
                decompose(D2Norm(None, _scaled_area(s)), 3)


class TestAxiomCheck:
    def test_gramdet_lift_passes(self):
        report = axiom_check(D2Norm(), 3, samples=300, rng=0)
        assert report.passed(1e-9), report.worst

    def test_broken_triangle_fails_axiom_iv(self):
        broken = D2Norm(norm2=broken_triangle_norm)
        report = axiom_check(broken, 3, samples=300, rng=0)
        assert report.worst["iv"] > 1e-6
        # the corruption sits in the second slot only
        clean = axiom_check(D2Norm(), 3, samples=300, rng=0)
        assert clean.worst["iv"] <= 1e-9

    def test_symmetry_axiom_exact_for_gramdet(self):
        report = axiom_check(D2Norm(), 2, samples=200, rng=1)
        assert report.worst["ii"] == 0.0

    def test_report_json(self):
        report = axiom_check(D2Norm(), 2, samples=50, rng=2)
        data = report.to_json(1e-9)
        assert set("i ii iii iv".split()) <= set(data)
        assert data["passed"] is True


def reference_axiom_check(norm_fn, n: int, samples: int, rng) -> dict:
    """The per-sample axiom_check loop that the batched one replaced.

    Draws one scalar block after another and evaluates every probe through
    Hyperbolic/DVector objects; kept here as the oracle of the batched check.
    Returns the worst violation per axiom.
    """
    rng = np.random.default_rng(rng)
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}

    def rand_vec() -> DVector:
        return DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))

    corner_scalars = [
        K,
        E1,
        E2,
        Hyperbolic(-1.0, -1.0),
        Hyperbolic(0.0, 0.0),
        Hyperbolic(3.0, 0.0),
        Hyperbolic(0.0, -0.25),
    ]
    for _ in range(samples):
        x, y, z = rand_vec(), rand_vec(), rand_vec()
        alpha = Hyperbolic(rng.standard_normal(), rng.standard_normal())
        for factor in (alpha, E1 * alpha, E2 * alpha):
            v = norm_fn(x, factor * x)
            worst["i"] = max(worst["i"], v.max_abs())
        if not linear_dependent(x, y):
            v = norm_fn(x, y)
            worst["i"] = max(worst["i"], max(0.0, -min(v.p, v.q)))
        worst["ii"] = max(worst["ii"], (norm_fn(x, y) - norm_fn(y, x)).max_abs())
        base = norm_fn(x, y)
        scalars = [Hyperbolic(rng.standard_normal(), rng.standard_normal())]
        scalars += corner_scalars
        for s in scalars:
            diff = norm_fn(s * x, y) - s.modulus() * base
            worst["iii"] = max(worst["iii"], diff.max_abs())
        triples = [(x, y, z), (x, x, z), (x, 2.0 * x, z), (x, 0.5 * x, y)]
        for xx, yy, zz in triples:
            gap = norm_fn(xx + yy, zz) - norm_fn(xx, zz) - norm_fn(yy, zz)
            worst["iv"] = max(worst["iv"], max(0.0, gap.p, gap.q))
    return worst


def dependent_leak_norm(xs, ys):
    """Area plus 1e-3 * |x| |y|: symmetric, homogeneous and subadditive, but
    nonzero on dependent pairs, so it breaks axiom (i) only."""
    return wedge_area_batch(xs, ys) + 1e-3 * np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)


def sqrt_area_norm(xs, ys):
    """Square root of the area: symmetric and subadditive (concave of a
    subadditive map) but homogeneous of degree 1/2, so it breaks axiom (iii)."""
    return np.sqrt(wedge_area_batch(xs, ys))


def _tilt(v: np.ndarray) -> float:
    return 1.0 + 0.5 * float(v[0] * v[0] / max(float(v @ v), 1e-300))


def asymmetric_norm(x: DVector, y: DVector) -> Hyperbolic:
    """A hyperbolic-valued black box (no `batch`): the area lift weighted by
    a degree-0 factor of the second slot, which breaks symmetry (ii) only."""
    v = D2Norm()(x, y)
    return Hyperbolic(v.p * _tilt(y.c1), v.q * _tilt(y.c2))


#: Broken fixtures and the axiom each one must fail.  The hyperbolic-valued
#: black box (ii) has no `batch`, so it runs through the DVector row loop.
BROKEN = {
    "i": D2Norm(norm2=dependent_leak_norm),
    "ii": asymmetric_norm,
    "iii": D2Norm(norm1=sqrt_area_norm),
    "iv": D2Norm(norm2=broken_triangle_norm),
}


class TestD2NormBatch:
    def test_matches_call_per_row(self):
        rng = np.random.default_rng(12)
        xs, ys = rng.standard_normal((2, 2, 40, 4))
        for norm in (D2Norm(), BROKEN["i"], BROKEN["iv"]):
            got = norm.batch(xs, ys)
            assert got.shape == (2, 40)
            for i in range(40):
                want = norm(dvec(xs[0, i], xs[1, i]), dvec(ys[0, i], ys[1, i]))
                assert got[0, i] == pytest.approx(want.p, rel=1e-14, abs=1e-14)
                assert got[1, i] == pytest.approx(want.q, rel=1e-14, abs=1e-14)

    def test_empty_stack(self):
        empty = np.zeros((2, 0, 3))
        assert D2Norm().batch(empty, empty).shape == (2, 0)
        assert BROKEN["iii"].batch(empty, empty).shape == (2, 0)


class TestAxiomCheckBatched:
    def test_block_draws_match_the_per_sample_stream(self):
        n, samples = 3, 5
        block = np.random.default_rng(4).standard_normal((samples, 6 * n + 4))
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(samples):
            row = [rng.standard_normal(n) for _ in range(6)]
            row += [[rng.standard_normal()] for _ in range(4)]
            rows.append(np.concatenate(row))
        assert np.array_equal(block, np.array(rows))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_for_the_area_norm(self, n):
        rng_new, rng_old = np.random.default_rng(n), np.random.default_rng(n)
        report = axiom_check(D2Norm(), n, samples=200, rng=rng_new)
        want = reference_axiom_check(D2Norm(), n, samples=200, rng=rng_old)
        # identical draws: both consumed the same stream
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert report.passed(1e-9) == all(v <= 1e-9 for v in want.values())
        for key, value in want.items():
            assert abs(report.worst[key] - value) <= 1e-13, key
        assert report.worst["ii"] == 0.0

    @pytest.mark.parametrize("axiom", sorted(BROKEN))
    def test_matches_reference_on_broken_fixtures(self, axiom):
        report = axiom_check(BROKEN[axiom], 3, samples=120, rng=7)
        want = reference_axiom_check(BROKEN[axiom], 3, samples=120, rng=7)
        assert report.passed(1e-9) == all(v <= 1e-9 for v in want.values())
        for key, value in want.items():
            # relative on the broken values; round-off sized values may differ
            # in their last bits where the batch sums in another order
            assert report.worst[key] == pytest.approx(value, rel=1e-12, abs=1e-13), key

    @pytest.mark.parametrize("axiom", sorted(BROKEN))
    def test_every_axiom_can_fail(self, axiom):
        report = axiom_check(BROKEN[axiom], 4, samples=100, rng=0)
        assert not report.passed(1e-9)
        assert report.worst[axiom] > 1e-3
        if axiom in ("i", "ii"):
            # these fixtures break their axiom alone
            others = {k: v for k, v in report.worst.items() if k != axiom}
            assert max(others.values()) <= 1e-9, others

    @pytest.mark.parametrize(
        "norm_fn",
        [lambda x, y: Hyperbolic(0.0, 0.0), D2Norm(norm2=lambda xs, ys: np.zeros(len(xs)))],
        ids=["zero", "zero_on_e2"],
    )
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vanishing_on_independent_pairs_fails_axiom_i_only(self, norm_fn, n):
        report = axiom_check(norm_fn, n, samples=50, rng=0)
        assert np.isfinite(report.worst["i"]) and report.worst["i"] > 1e-9
        assert [k for k, v in report.worst.items() if v > 1e-9] == ["i"]

    def test_nan_values_fail_the_check(self):
        def nan_norm(x, y):
            return Hyperbolic(float("nan"), 0.0)

        report = axiom_check(nan_norm, 2, samples=3, rng=0)
        assert np.isnan(report.worst["ii"])
        assert not report.passed(1e-9)

    def test_zero_samples(self):
        report = axiom_check(D2Norm(), 3, samples=0, rng=0)
        assert report.worst == {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}
