import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyp2.two_functional as tf
from hyp2 import (
    E1,
    E2,
    D2Norm,
    DBilinear2Functional,
    DimensionMismatch,
    DVector,
    Hyperbolic,
    NormCertificate,
    is_bounded_check,
    norm_bruteforce,
    norm_spectral,
)
from hyp2._tol import SCORE_SLACK, THIN, THIN_SQ
from hyp2.dmodule import _unit_scaled
from hyp2.two_norm import wedge_area_batch


def dvec(c1, c2) -> DVector:
    return DVector.from_components(np.asarray(c1, float), np.asarray(c2, float))


def rand_dvec(rng, n) -> DVector:
    return dvec(rng.standard_normal(n), rng.standard_normal(n))


# norm_bruteforce's two runs: one estimator, on substream tag 0 or 1
FORMULAS = ["quotient", "unit"]


def substream(seed: int, comp: int, formula: str) -> np.random.Generator:
    """The generator norm_bruteforce gives component `comp` of its `formula` run."""
    return np.random.default_rng([seed, comp, FORMULAS.index(formula)])


def cross_form(axis) -> np.ndarray:
    # x' C y = <axis, x cross y> in R^3
    a1, a2, a3 = axis
    return np.array([[0.0, a3, -a2], [-a3, 0.0, a1], [a2, -a1, 0.0]])


class TestConstruction:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            DBilinear2Functional([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises((ValueError, DimensionMismatch)):
            DBilinear2Functional(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_json_roundtrip(self):
        f = DBilinear2Functional.random(3, 0)
        g = DBilinear2Functional.from_json(f.to_json())
        assert np.array_equal(f.C1, g.C1) and np.array_equal(f.C2, g.C2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        # nan > tol is false, so NaN must be caught before the antisymmetry test
        with pytest.raises(ValueError, match="non-finite"):
            DBilinear2Functional([[0.0, bad], [-bad, 0.0]], np.zeros((2, 2)))
        blob = DBilinear2Functional.random(2, 0).to_json()
        blob["C2"][1][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DBilinear2Functional.from_json(blob)

    def test_json_rejects_corrupted(self):
        f = DBilinear2Functional.random(2, 0)
        blob = f.to_json()
        blob["C1"][0][1] += 1e-6  # break antisymmetry
        with pytest.raises(ValueError, match="antisymmetric"):
            DBilinear2Functional.from_json(blob)


class TestEval:
    def test_vanishes_on_diagonal(self):
        rng = np.random.default_rng(0)
        f = DBilinear2Functional.random(4, 1)
        for _ in range(50):
            x = rand_dvec(rng, 4)
            assert f(x, x).max_abs() <= 1e-12

    def test_bihomogeneity_including_zero_divisors(self):
        rng = np.random.default_rng(2)
        f = DBilinear2Functional.random(3, 3)
        for _ in range(100):
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            alpha, beta = Hyperbolic(*rng.standard_normal(2)), Hyperbolic(*rng.standard_normal(2))
            assert (f(alpha * x, beta * y) - alpha * beta * f(x, y)).max_abs() <= 1e-9
            assert (f(E1 * x, y) - E1 * f(x, y)).max_abs() <= 1e-12
            assert (f(x, E2 * y) - E2 * f(x, y)).max_abs() <= 1e-12

    def test_biadditivity(self):
        rng = np.random.default_rng(3)
        f = DBilinear2Functional.random(3, 4)
        for _ in range(50):
            x, y, z, w = (rand_dvec(rng, 3) for _ in range(4))
            lhs = f(x + y, z + w)
            rhs = f(x, z) + f(y, z) + f(x, w) + f(y, w)
            assert (lhs - rhs).max_abs() <= 1e-9

    def test_hand_evaluation(self):
        f = DBilinear2Functional([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)))
        x = dvec([1.0, 0.0], [0.0, 0.0])
        y = dvec([0.0, 1.0], [0.0, 0.0])
        assert f(x, y) == E1

    def test_vanishes_on_dependent_pairs(self):
        from hyp2 import linear_dependent

        rng = np.random.default_rng(4)
        f = DBilinear2Functional.random(3, 5)
        for _ in range(50):
            x = rand_dvec(rng, 3)
            y = Hyperbolic(*rng.standard_normal(2)) * x
            assert linear_dependent(x, y)
            assert f(x, y).max_abs() <= 1e-9

    def test_dimension_mismatch(self):
        f = DBilinear2Functional.random(3, 0)
        with pytest.raises(DimensionMismatch):
            f(DVector.zero(2), DVector.zero(2))


class TestComponentSplit:
    def test_zero_second_slot(self):
        f = DBilinear2Functional(cross_form([1.0, 0.0, 0.0]), np.zeros((3, 3)))
        assert not f.C2.any()
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            assert u @ f.C2 @ v == 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        f = DBilinear2Functional.random(4, 7)
        for _ in range(200):
            x, y = rand_dvec(rng, 4), rand_dvec(rng, 4)
            rebuilt = Hyperbolic(x.c1 @ f.C1 @ y.c1, x.c2 @ f.C2 @ y.c2)
            assert (rebuilt - f(x, y)).max_abs() <= 1e-12

    def test_components_bilinear(self):
        rng = np.random.default_rng(7)
        f = DBilinear2Functional.random(3, 8)
        for _ in range(50):
            u, v, w = (rng.standard_normal(3) for _ in range(3))
            s, t = rng.standard_normal(2)
            lhs = (s * u + t * v) @ f.C1 @ w
            assert abs(lhs - (s * (u @ f.C1 @ w) + t * (v @ f.C1 @ w))) <= 1e-10


class TestKDecompose:
    def test_real_functional_has_zero_k_part_on_real_vectors(self):
        C = DBilinear2Functional.random(3, 9).C1
        f = DBilinear2Functional(C, C.copy())
        _, psi = f.k_parts()
        rng = np.random.default_rng(10)
        for _ in range(30):
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            x, y = dvec(u, u), dvec(v, v)  # real vectors
            assert abs(psi(x, y)) <= 1e-12

    def test_k_shift_identities(self):
        from hyp2 import K

        rng = np.random.default_rng(11)
        for trial in range(50):
            f = DBilinear2Functional.random(3, 100 + trial)
            phi, psi = f.k_parts()
            x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
            val = f(x, y)
            assert (Hyperbolic.from_cartesian(phi(x, y), phi(K * x, y)) - val).max_abs() <= 1e-12
            assert (Hyperbolic.from_cartesian(phi(x, y), phi(x, K * y)) - val).max_abs() <= 1e-12
            assert abs(phi(K * x, y) - psi(x, y)) <= 1e-12


class TestNormSpectral:
    def test_zero_functional(self):
        cert = norm_spectral(DBilinear2Functional.zero(3))
        assert cert.value == Hyperbolic(0.0, 0.0)
        assert cert.method == "spectral"

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_cross_product_axis_norm(self, formula):
        f = DBilinear2Functional(cross_form([3.0, 4.0, 0.0]), np.zeros((3, 3)))
        cert = norm_spectral(f)
        assert abs(cert.value.p - 5.0) <= 1e-12
        assert cert.value.q == 0.0
        # confirmed by either brute-force run
        brute = norm_bruteforce(f, budget=20000, seed=0, formula=formula)
        assert abs(brute.value.p - 5.0) <= 1e-6

    def test_homogeneous_under_nonneg_scaling(self):
        f = DBilinear2Functional.random(4, 12)
        alpha = Hyperbolic(2.0, 0.5)
        scaled = norm_spectral(alpha * f)
        base = norm_spectral(f)
        assert (scaled.value - alpha * base.value).max_abs() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), k=st.integers(-12, 12))
    def test_scale_equivariance(self, seed, k):
        # sigma scales with f, and so does the verdict of the bound it certifies
        f = DBilinear2Functional.random(2 + seed % 7, seed)
        s = 10.0**k
        base, cert = norm_spectral(f).value, norm_spectral(s * f).value
        assert (cert.p, cert.q) == pytest.approx((s * base.p, s * base.q), rel=1e-12, abs=0.0)
        assert is_bounded_check(s * f, cert, samples=100, seed=seed)
        assert not is_bounded_check(s * f, Hyperbolic(0.5, 0.5) * cert, samples=10)

    def test_witness_attains_value(self):
        norm = D2Norm()
        f = DBilinear2Functional.random(4, 13)
        cert = norm_spectral(f)
        x, y = cert.witness
        attained = f(x, y).modulus()
        scale = cert.value * norm(x, y)
        assert (attained - scale).max_abs() <= 1e-9


class TestNormBruteforce:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_zero_functional(self, formula):
        cert = norm_bruteforce(DBilinear2Functional.zero(3), budget=500, seed=0, formula=formula)
        assert cert.value == Hyperbolic(0.0, 0.0)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_lower_estimate_and_close(self, formula):
        rng = np.random.default_rng(14)
        for i in range(10):
            n = int(rng.integers(2, 5))
            f = DBilinear2Functional.random(n, 200 + i)
            spectral = norm_spectral(f).value
            brute = norm_bruteforce(f, budget=20000, seed=i, formula=formula).value
            assert brute.p <= spectral.p + 1e-9 and brute.q <= spectral.q + 1e-9
            assert brute.p >= 0.98 * spectral.p and brute.q >= 0.98 * spectral.q

    def test_two_runs_agree(self):
        # "quotient" and "unit" are one estimator on two substreams
        f = DBilinear2Functional.random(3, 15)
        spectral = norm_spectral(f).value
        quot = norm_bruteforce(f, budget=20000, seed=1, formula="quotient").value
        unit = norm_bruteforce(f, budget=20000, seed=1, formula="unit").value
        assert (quot - unit).max_abs() <= 1e-6 * (1.0 + spectral.max_abs())

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_certificate_gap_nonnegative(self, formula):
        f = DBilinear2Functional.random(3, 16)
        spectral = norm_spectral(f)
        brute = norm_bruteforce(f, budget=5000, seed=2, formula=formula)
        gap = spectral.value - brute.value
        assert min(gap.p, gap.q) >= -1e-9

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            norm_bruteforce(DBilinear2Functional.zero(2), budget=0)
        with pytest.raises(ValueError, match="unknown formula"):
            norm_bruteforce(DBilinear2Functional.zero(2), formula="bogus")


def unpolished(f, budget: int, seed: int, formula: str = "quotient") -> NormCertificate:
    """norm_bruteforce's sampled pairs before the polish, from each
    component's own substream, as a certificate."""
    (b1, u1, v1), (b2, u2, v2) = (
        tf._sample_component(C, budget, substream(seed, comp, formula))
        for comp, C in enumerate(f.C)
    )
    witness = (DVector.from_components(u1, u2), DVector.from_components(v1, v2))
    return NormCertificate(Hyperbolic(b1, b2), witness, "brute_force")


def reference_grid_pairs(C, budget, rng):
    """Naive per-pair scoring of the grid that `norm_bruteforce` samples.

    The same (a + b, n) fill, a = ceil(sqrt(budget)) and b = ceil(budget / a);
    cell k < budget is the pair (row k // b, row a + k % b), built and scored
    on its own.  Returns (value, cell, u, v), with cell None when no pair scores above 0.
    """
    n = C.shape[0]
    a = math.ceil(math.sqrt(budget))
    b = math.ceil(budget / a)
    rows = rng.standard_normal((a + b, n))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    k = np.arange(budget)
    us, vs = rows[k // b], rows[a + k % b]
    dots = np.einsum("bi,bi->b", us, vs)
    area = np.sqrt(np.maximum(1.0 - dots * dots, 0.0))
    ok = area > THIN
    area = np.where(ok, area, 1.0)
    scores = np.abs(np.einsum("bj,bj->b", us @ C, vs)) / area
    scores = np.where(ok, scores, -1.0)
    cell = int(np.argmax(scores))
    if scores[cell] <= 0.0:
        return 0.0, None, np.eye(n)[0], np.eye(n)[min(1, n - 1)]
    return float(scores[cell]), cell, us[cell], vs[cell]


def grid_by_pairs(C, budget, rng):
    """The sampler's grid scored from products of two consecutive rows at a
    time (the last pair overlapping), against the C-contiguous y block, and
    its winner by the stated rule, as (value, u, v, qualified): the first
    cell in row-major order, within the budget and wider than THIN, whose
    score is above 0 and reaches top = B / (1 + 2 SCORE_SLACK), B the largest
    row bound (|x'C| + |x'Cx| / THIN)(1 + SCORE_SLACK) of the rows; with no
    such cell, the first of largest score; and (0, e1, e2) when no cell
    scores above 0."""
    n = C.shape[0]
    a = math.isqrt(budget - 1) + 1
    b = -(-budget // a)
    xs, ys = np.split(unit_rows(rng.standard_normal((a + b, n))), [a])
    xcs, yt = xs @ C, np.ascontiguousarray(ys.T)
    dots, fs = np.empty((a, b)), np.empty((a, b))
    for s in range(0, a, 2):
        first = min(s, a - 2)
        dots[first : s + 2], fs[first : s + 2] = xs[first : s + 2] @ yt, xcs[first : s + 2] @ yt
    den = np.sqrt(np.maximum(1.0 - dots * dots, THIN_SQ)).reshape(-1)
    scores = np.where(den > THIN, np.abs(fs.reshape(-1)) / den, -1.0)
    scores[budget:] = -1.0
    bound = np.sqrt(np.einsum("bi,bi->b", xcs, xcs))
    bound += np.abs(np.einsum("bi,bi->b", xcs, xs)) / THIN
    top = np.max(bound * (1.0 + SCORE_SLACK)) / (1.0 + 2.0 * SCORE_SLACK)
    hit = (scores >= top) & (scores > 0.0)
    qualified = bool(hit.any())
    cell = int(np.argmax(hit if qualified else scores))
    if scores[cell] <= 0.0:
        return 0.0, np.eye(n)[0], np.eye(n)[min(1, n - 1)], False
    return float(scores[cell]), xs[cell // b], ys[cell % b], qualified


class TestBruteforceKernel:
    # 1 x 1, 2 x 1 and 2 x 2 grids, a square, partial last rows (17 of
    # 5 x 4, 250 of 16 x 16, 20000 of 142 x 141) and two row blocks
    @pytest.mark.parametrize("budget", [1, 2, 3, 16, 17, 250, 20000])
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_matches_per_pair_reference(self, formula, n, budget):
        f = DBilinear2Functional.random(n, 300 + n)
        cert = unpolished(f, budget, 7, formula)
        polished = norm_bruteforce(f, budget=budget, seed=7, formula=formula)
        values = (cert.value.p, cert.value.q)
        for comp, C in enumerate(f.C):
            # the polish starts from the sampled pair
            want = tf._climb_component(C, cert.witness[0].c[comp], cert.witness[1].c[comp])
            assert (polished.value.p, polished.value.q)[comp] == want[0]
            assert np.array_equal(polished.witness[0].c[comp], want[1])
            assert np.array_equal(polished.witness[1].c[comp], want[2])
            value, cell, u, v = reference_grid_pairs(C, budget, substream(7, comp, formula))
            if n == 2:
                # every pair spans R^2 and scores |c| but for the rounding of
                # its area, which a thin pair amplifies up to eps / THIN^2; so
                # rounding picks the cell, and the value agrees to that noise
                assert values[comp] == pytest.approx(value, rel=1e-9, abs=0.0)
                continue
            assert values[comp] == pytest.approx(value, rel=1e-13, abs=0.0)
            # rows of different cells differ by O(1): the same cell won
            for got, want in ((cert.witness[0].c[comp], u), (cert.witness[1].c[comp], v)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.linalg.norm(want))

    def test_best_cell_past_the_budget_never_wins(self):
        # 17 and 20 pairs give the same 5 x 4 grid; at seed 2 the best of its
        # 20 cells is cell 18, which 17 pairs leave unscored
        f = DBilinear2Functional.random(3, 0)
        everything = reference_grid_pairs(f.C1, 20, np.random.default_rng([2, 0, 0]))
        scored = reference_grid_pairs(f.C1, 17, np.random.default_rng([2, 0, 0]))
        assert everything[1] >= 17 and scored[0] < everything[0]
        cert = unpolished(f, 17, 2)
        assert cert.value.p == pytest.approx(scored[0], rel=1e-13, abs=0.0)
        assert cert.value.p < everything[0]

    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize(
        "budget,cells",
        # 317 rows in chunks of 51; 448 in chunks of 36; 142 in chunks of 7
        [(100_000, tf._WEDGE_CELLS), (200_000, tf._WEDGE_CELLS), (20_000, 1000)],
    )
    def test_row_blocks_score_as_one_pass(self, monkeypatch, formula, budget, cells):
        # the same winning cell, bit for bit, as products of two rows each
        # (_WEDGE_CELLS = 1) and, at budget 10^5, as one product over all the
        # rows after the first chunk; at n = 2 every cell scores |c| but for
        # rounding, so the last bit of every cell picks the winner
        for n in (2, 3, 8):
            C = DBilinear2Functional.random(n, 600 + n).C2
            monkeypatch.setattr(tf, "_WEDGE_CELLS", cells)
            blocked = tf._sample_component(C, budget, substream(n, 1, formula))
            for other in (1, 2 * budget) if budget <= 100_000 else (1,):
                monkeypatch.setattr(tf, "_WEDGE_CELLS", other)
                got = tf._sample_component(C, budget, substream(n, 1, formula))
                assert got[0] == blocked[0]
                assert np.array_equal(got[1], blocked[1]) and np.array_equal(got[2], blocked[2])

    @pytest.mark.parametrize("b", [2, 17, 316, 447])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_gathered_rows_keep_their_bits(self, n, b):
        # each row of a product over two or more gathered rows, against the
        # C-contiguous (n, b) block, has the bits it has in the products of
        # consecutive rows the sampler's chunks are cut from, at any chunk
        # size up to _WEDGE_CELLS cells (a product of far more cells, such
        # as the whole 448 x 447 grid at n = 8, may round apart)
        rng = np.random.default_rng([n, b])
        a = 448
        xs = unit_rows(rng.standard_normal((a, n)))
        yt = np.ascontiguousarray(unit_rows(rng.standard_normal((b, n))).T)
        step = min(a, max(2, tf._WEDGE_CELLS // b))  # the sampler's chunk rows

        def consecutive(rows):
            out = np.empty((a, b))
            for s in range(0, a, rows):
                first = min(s, a - 2)  # a lone last row is taken with its neighbour
                out[first : s + rows] = xs[first : s + rows] @ yt
            return out

        pairs = consecutive(2)
        for rows in (3, 8, step):
            assert np.array_equal(consecutive(rows), pairs)
        out = np.empty((step, b))
        for size in [k for k in (2, 3, 7, 8, 17, 36, 48, 49, 50, 51, step) if k <= step]:
            for _ in range(5):
                idx = np.sort(rng.choice(a, size=size, replace=False))
                np.matmul(xs[idx], yt, out=out[:size])
                assert np.array_equal(out[:size], pairs[idx])

    # n = 2 draws where a Fortran-ordered ys.T, and n >= 3 draws where a lone
    # first row scored through gemv, would pick another cell
    @pytest.mark.parametrize("n,seed", [(2, 33), (2, 91), (2, 111), (2, 158), (3, 0), (4, 0), (8, 6)])
    def test_every_cell_has_the_bits_of_a_two_row_product(self, monkeypatch, n, seed):
        C = DBilinear2Functional.random(n, seed).C1
        C = np.ldexp(C, -int(np.frexp(np.max(np.abs(C)))[1]))
        value, u, v, _ = grid_by_pairs(C, 100_000, np.random.default_rng(seed))
        for first in (1, 8):
            monkeypatch.setattr(tf, "_FIRST_ROWS", first)
            got = tf._sample_component(C, 100_000, np.random.default_rng(seed))
            assert got[0] == value and np.array_equal(got[1], u) and np.array_equal(got[2], v)

    @pytest.mark.parametrize("formula", ["quotient", "unit"])
    def test_second_component_does_not_touch_the_first(self, formula):
        f = DBilinear2Functional.random(4, 21)
        g = DBilinear2Functional(f.C1, 3.0 * DBilinear2Functional.random(4, 22).C2)
        a = norm_bruteforce(f, budget=20000, seed=3, formula=formula)
        b = norm_bruteforce(g, budget=20000, seed=3, formula=formula)
        assert a.value.p == b.value.p and a.value.q != b.value.q
        for wa, wb in zip(a.witness, b.witness):
            assert np.array_equal(wa.c1, wb.c1)

    @pytest.mark.parametrize("formula", ["quotient", "unit"])
    @pytest.mark.parametrize("polished,rel", [(True, 1e-12), (False, 1e-8)])
    def test_witness_attains_value(self, formula, polished, rel):
        # the pair printed as the witness must give the printed value, and so
        # must the sampled pair the polish starts from
        for n in (2, 3, 5, 8):
            f = DBilinear2Functional.random(n, 400 + n)
            if polished:
                cert = norm_bruteforce(f, budget=20000, seed=n, formula=formula)
            else:
                cert = unpolished(f, 20000, n, formula)
            x, y = cert.witness
            attained, area = f(x, y).modulus(), D2Norm()(x, y)
            for got, value, a in (
                (attained.p, cert.value.p, area.p),
                (attained.q, cert.value.q, area.q),
            ):
                assert got / a == pytest.approx(value, rel=rel)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("budget", [1, 17, 250, 20000])
    def test_unit_is_the_quotient_estimator_on_substream_1(self, monkeypatch, n, budget):
        # one estimator for both formulas: "quotient" fed the draws of
        # substream [seed, c, 1] gives the "unit" certificate bit for bit
        f = DBilinear2Functional.random(n, 700 + n)
        unit = norm_bruteforce(f, budget=budget, seed=n, formula="unit")
        keys, default_rng = [], np.random.default_rng

        def substream_1(key):
            keys.append(key)
            return default_rng([*key[:2], 1])

        monkeypatch.setattr(np.random, "default_rng", substream_1)
        quot = norm_bruteforce(f, budget=budget, seed=n, formula="quotient")
        assert keys == [[n, 0, 0], [n, 1, 0]]
        assert (quot.value.p, quot.value.q) == (unit.value.p, unit.value.q)
        for got, want in zip(quot.witness, unit.witness):
            assert np.array_equal(got.c, want.c)


class FixedRows:
    """An rng whose one fill is the given rows, e.g. a 2 x 2 grid at budget 4."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)

    def standard_normal(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


class TestThinPairs:
    # x' C y = x1 y2 - x2 y1: the plane of e1, e2 scores its sine, and any
    # pair with a factor on the line of e3 scores 0
    C = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    e1, e2, e3 = np.eye(3)

    # a first chunk of one x row, or of both
    @pytest.mark.parametrize("first", [1, 8])
    def test_a_thin_pair_alone_scores_nothing(self, monkeypatch, first):
        # (e1, e1 + 9e-4 e2) has sine 9e-4 < THIN, and every other cell is 0
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        rows = FixedRows([self.e1, self.e3, self.e1 + 9e-4 * self.e2, self.e1 + self.e3])
        value, u, v = tf._sample_component(self.C, 4, rows)
        assert value == 0.0
        assert np.array_equal(u, self.e1) and np.array_equal(v, self.e2)

    @pytest.mark.parametrize("first", [1, 8])
    def test_a_thin_pair_never_beats_a_scored_one(self, monkeypatch, first):
        # the thin cell (e1, e1 + 9.9e-4 e2) comes first and would score
        # about 0.99 as |f| / THIN; the first pair that is not thin scores
        # 1 / sqrt(10) at area 1
        y = (self.e2 + 3.0 * self.e3) / np.sqrt(10.0)
        rows = FixedRows([self.e1, self.e3, self.e1 + 9.9e-4 * self.e2, self.e2 + 3.0 * self.e3])
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        value, u, v = tf._sample_component(self.C, 4, rows)
        assert value == pytest.approx(1.0 / np.sqrt(10.0), rel=1e-15)
        assert np.array_equal(u, self.e1)
        np.testing.assert_allclose(v, y, rtol=0.0, atol=1e-16)

    def test_thin_sq_is_the_last_square_whose_root_is_thin(self):
        assert np.sqrt(THIN_SQ) <= THIN < np.sqrt(np.nextafter(THIN_SQ, np.inf))


def rotation_blocks(n: int, weights, seed: int) -> np.ndarray:
    """Q diag(w_j [[0, 1], [-1, 0]]) Q': each w_j a singular value twice, the
    rest of the spectrum 0."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    blocks = np.zeros((n, n))
    for j, w in enumerate(weights):
        blocks[2 * j, 2 * j + 1], blocks[2 * j + 1, 2 * j] = w, -w
    m = q @ blocks @ q.T
    return (m - m.T) / 2.0


def unit_rows(rows):
    """Rows normalised as the sampler normalises them."""
    rows = np.array(rows, dtype=float)
    return rows * (1.0 / np.sqrt(np.einsum("bi,bi->b", rows, rows)))[:, None]


PRUNE_CASES = {
    # every row's bound is |c|: no row is ever pruned
    "n2": lambda: DBilinear2Functional.random(2, 1).C1,
    # a repeated top singular pair: at n = 4 every row's bound is the same
    "repeated_n4": lambda: rotation_blocks(4, [0.75, 0.75], 2),
    "repeated_n8": lambda: rotation_blocks(8, [0.75, 0.75, 0.5, 0.25], 3),
    "rank2_n7": lambda: rotation_blocks(7, [0.75], 4),
    "random_n8": lambda: DBilinear2Functional.random(8, 5).C1,
    "zero_n5": lambda: np.zeros((5, 5)),
}


class TestRowBound:
    """The sampler scores only rows whose bound |x'C| + |x'Cx| / THIN, times
    1 + SCORE_SLACK, can still reach the best score, largest bound first, and
    stops at the first cell that reaches top; neither pruning nor the order
    of the visit moves a bit.  `grid_by_pairs`, which scores the whole grid,
    is the reference."""

    @staticmethod
    def same(got, want):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_score_stays_within_its_row_bound(self, n):
        # y's part perpendicular to x lies along x'C, where |x'Cy| / area is
        # |x'C| exactly, and the sine is just above THIN, where the rounding
        # of 1 - <x,y>^2 weighs most against the area
        rng = np.random.default_rng(n)
        scored = 0
        for _ in range(300):
            C = DBilinear2Functional.random(n, rng).C1 * 2.0 ** int(rng.integers(-40, 41))
            x = unit_rows([rng.standard_normal(n)])[0]
            xc = x @ C
            perp = xc - (xc @ x) * x
            perp /= np.linalg.norm(perp)
            sine = THIN * (1.2 - 0.2 * rng.random())  # in (THIN, 1.2 THIN]
            rows = [x, math.sqrt(1.0 - sine * sine) * x + sine * perp]
            value = tf._sample_component(C, 1, FixedRows(rows))[0]
            xc = unit_rows(rows)[0] @ C
            assert value <= math.sqrt(xc @ xc) * (1.0 + SCORE_SLACK / 100)
            scored += value > 0.0
        assert scored >= 290  # a pair the rounding makes thin scores nothing

    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("budget", [1, 17, 250, 20000, 100000])
    @pytest.mark.parametrize("case", sorted(PRUNE_CASES))
    def test_pruning_changes_no_bit(self, monkeypatch, case, budget, formula):
        # and neither does a first chunk of one row (scored with a neighbour)
        # or two in place of eight
        C = PRUNE_CASES[case]()
        pruned = tf._sample_component(C, budget, substream(budget, 0, formula))
        for first in (1, 2):
            monkeypatch.setattr(tf, "_FIRST_ROWS", first)
            self.same(tf._sample_component(C, budget, substream(budget, 0, formula)), pruned)
        want = grid_by_pairs(C, budget, substream(budget, 0, formula))
        self.same(pruned, want)
        # at n >= 4 no cell reaches top, so the first of largest score wins,
        # as it did before top was stated
        assert want[3] == (case == "n2")

    @pytest.mark.parametrize("first", [1, 2, 8])
    def test_an_exact_tie_goes_to_the_first_cell(self, monkeypatch, first):
        # rows e3 and -e3 score 0.5 exactly at y = e4, and row e1, of the
        # largest bound, scores 0; a first chunk of one row is padded with its
        # neighbour -e3, which is scored before e3, yet row e3 wins
        C = np.zeros((5, 5))
        C[0, 1], C[2, 3] = 1.0, 0.5
        C -= C.T
        e1, _, e3, e4, e5 = np.eye(5)
        rows = [e3, e5, e1, -e3, e4, e5, e1 + e5, e3 + e5]
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        value, u, v = tf._sample_component(C, 16, FixedRows(rows))
        assert value == 0.5
        assert np.array_equal(u, e3) and np.array_equal(v, e4)

    @pytest.mark.parametrize("budget", [17, 250, 20000, 100000])
    @pytest.mark.parametrize("last", ["kept", "pruned"])
    @pytest.mark.parametrize("first", [1, 8])
    def test_partial_last_row(self, monkeypatch, first, last, budget):
        # the last x row has fewer scored cells than the others; at n = 5, C
        # is sigma_1 on the plane (u1, v1) and 0 on the line of `kernel`
        n = 5
        C = DBilinear2Functional.random(n, 11).C1
        u_mat, sigma, vh = np.linalg.svd(C)
        u1, v1, kernel = u_mat[:, 0], vh[0], vh[-1]
        a = math.isqrt(budget - 1) + 1
        b = -(-budget // a)
        rows = np.random.default_rng(budget).standard_normal((a + b, n))
        if last == "kept":
            # the last row has the largest bound; its first cell scores just
            # under sigma_1, and its last, past the budget, sigma_1 itself
            rows[a - 1], rows[a], rows[-1] = u1, v1 + 0.01 * kernel, v1
        else:
            # cell (0, 0) scores sigma_1, the best score; the last row's
            # bound is far below it
            rows[0], rows[a] = u1, v1
            rows[a - 1] = kernel + 0.05 * rows[a - 1]
            x = unit_rows(rows[a - 1 : a])[0]
            xc = x @ C
            assert math.sqrt(xc @ xc) + abs(xc @ x) / THIN < 0.5 * sigma[0]
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        pruned = tf._sample_component(C, budget, FixedRows(rows))
        self.same(pruned, grid_by_pairs(C, budget, FixedRows(rows)))
        x, y = unit_rows(rows[[a - 1, a]] if last == "kept" else rows[[0, a]])
        for got, want in zip(pruned[1:], (x, y)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("first", [1, 2, 8])
    def test_the_first_cell_to_reach_top_wins(self, monkeypatch, first):
        # x'Cy = x1 y2 - x2 y1; row e1 has bound 1 and row x0, a hair off e1,
        # a bound 5e-9 short of it, so both are near; x0's cell scores 1 -
        # 5e-9 >= top, and row e1, visited first, has the higher score 1
        x0 = unit_rows([[1.0, 0.0, 1e-4]])[0]
        e1, e2, e3 = np.eye(3)
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        value, u, v = tf._sample_component(TestThinPairs.C, 4, FixedRows([x0, e1, e3, e2]))
        assert value == x0[0] < 1.0
        assert np.array_equal(u, x0) and np.array_equal(v, e2)

    @pytest.mark.parametrize("where", ["thin", "past_budget"])
    @pytest.mark.parametrize("first", [1, 8])
    def test_a_cell_that_cannot_win_does_not_reach_top(self, monkeypatch, first, where):
        e1, e2, e3 = np.eye(3)
        if where == "thin":
            # cell (0, 0) is thin and scores 1 - 5e-7 >= top as |f| / THIN,
            # under the best score, 1 / sqrt(1 + 1e-8) at cell (0, 1)
            sine = THIN * (1.0 - 5e-7)
            rows = [e1, e3, [math.sqrt(1.0 - sine * sine), sine, 0.0], [0.0, 1.0, 1e-4]]
            budget, want = 4, (1.0 / math.sqrt(1.0 + 1e-8), e1, unit_rows(rows[3:])[0])
        else:
            # cell (1, 1) scores 1, the largest bound, but 3 pairs leave it
            # unscored: no cell reaches top and the best, (1, 0), wins
            rows = [e3, e1, 0.6 * e2 + 0.8 * e3, e2]
            budget, want = 3, (0.6, e1, rows[2])
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        value, u, v = tf._sample_component(TestThinPairs.C, budget, FixedRows(rows))
        assert value == pytest.approx(want[0], rel=1e-15, abs=0.0)
        for got, w in zip((u, v), want[1:]):
            np.testing.assert_allclose(got, w, rtol=0.0, atol=1e-15)

    def test_near_rows_over_several_chunks(self, monkeypatch):
        # n = 2: every row is near, and every cell that is not thin reaches
        # top; rows 0..5 are e1 and every y is within THIN of e1, so the first
        # cell to reach top is (6, 0), past chunks of one or two rows; row 6
        # has the smallest bound, which rounding sets, so a visit by bound
        # would reach it last
        rng = np.random.default_rng(8)
        ys = np.stack((np.ones(10), 8e-4 * rng.uniform(-1.0, 1.0, 10)), axis=1)
        rows = np.concatenate(([[1.0, 0.0]] * 6, rng.standard_normal((4, 2)), ys))
        C = DBilinear2Functional.random(2, 1).C1
        xs = unit_rows(rows[:10])
        xcs = xs @ C
        bound = np.sqrt(np.einsum("bi,bi->b", xcs, xcs)) + np.abs(np.einsum("bi,bi->b", xcs, xs)) / THIN
        assert np.argsort(-bound, kind="stable")[-1] == 6
        want = grid_by_pairs(C, 100, FixedRows(rows))
        assert want[3]
        for got, w in zip(want[1:3], (xs[6], unit_rows(ys)[0])):
            np.testing.assert_allclose(got, w, rtol=0.0, atol=1e-15)
        for cells in (20, 30, tf._WEDGE_CELLS):  # chunks of 2, 3 and all 10 rows
            monkeypatch.setattr(tf, "_WEDGE_CELLS", cells)
            for first in (1, 2):
                monkeypatch.setattr(tf, "_FIRST_ROWS", first)
                self.same(tf._sample_component(C, 100, FixedRows(rows)), want)

    @pytest.mark.parametrize("first", [1, 2, 8])
    @pytest.mark.parametrize("n", [2, 5])
    def test_a_zero_component_keeps_its_witness(self, monkeypatch, n, first):
        # every bound and score is 0, so top = 0, and a score of 0 never wins
        monkeypatch.setattr(tf, "_FIRST_ROWS", first)
        value, u, v = tf._sample_component(np.zeros((n, n)), 100_000, np.random.default_rng(n))
        assert value == 0.0
        assert np.array_equal(u, np.eye(n)[0]) and np.array_equal(v, np.eye(n)[1])

    def test_n2_multiplies_the_first_chunk_only(self, monkeypatch):
        # at n = 2 the first row holds a cell that reaches top, so one chunk
        # of _FIRST_ROWS rows ends the search; counted through np.matmul
        rows = []
        matmul = np.matmul

        def counted(x, *args, **kwargs):
            rows.append(x.shape[-2])
            return matmul(x, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        rng = np.random.default_rng(26)
        for _ in range(20):
            C = DBilinear2Functional.random(2, rng).C1
            rows.clear()
            tf._sample_component(C, 100_000, rng)
            assert 0 < sum(rows) <= tf._FIRST_ROWS

    def test_a_row_of_rounding_keeps_its_score(self, monkeypatch):
        # x on the axis of a cross-product form: x'C is rounding, which is
        # not orthogonal to x, so a thin pair scores far above |x'C|; the
        # term |x'Cx| / THIN of the bound keeps the row
        axis = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)]) / math.sqrt(6.0)
        C = cross_form(axis)
        perp = np.cross(axis, [1.0, 0.0, 0.0])
        rows = [axis, math.sqrt(1.0 - 1.1e-6) * axis + 1.1e-3 * perp / np.linalg.norm(perp)]
        value = tf._sample_component(C, 1, FixedRows(rows))[0]
        xc = unit_rows(rows)[0] @ C
        assert value > 100.0 * math.sqrt(xc @ xc) > 0.0
        monkeypatch.setattr(tf, "SCORE_SLACK", 1e150)
        assert tf._sample_component(C, 1, FixedRows(rows))[0] == value


class TestPowerOfTwoScaling:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(-900, 900),
        formula=st.sampled_from(["quotient", "unit"]),
    )
    @example(seed=1, k=900, formula="quotient")
    @example(seed=2, k=-900, formula="unit")
    def test_only_the_value_scales(self, seed, k, formula):
        # each component is searched on C * 2^-e, e the exponent of its
        # largest entry, so f * 2^k runs the very same search
        f = DBilinear2Functional.random(2 + seed % 7, seed)
        base = norm_bruteforce(f, budget=500, seed=seed, formula=formula)
        cert = norm_bruteforce(f * 2.0**k, budget=500, seed=seed, formula=formula)
        assert cert.value.p == math.ldexp(base.value.p, k)
        assert cert.value.q == math.ldexp(base.value.q, k)
        for got, want in zip(cert.witness, base.witness):
            assert np.array_equal(got.c, want.c)


class TestPolish:
    @pytest.mark.parametrize("budget", [2000, 20000])
    @pytest.mark.parametrize("formula", ["quotient", "unit"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_reaches_sigma_max(self, n, formula, budget):
        # whatever pair the sampler found, the ascent ends at sigma_max
        for k in range(3):
            f = DBilinear2Functional.random(n, 500 + 10 * n + k)
            cert = norm_bruteforce(f, budget=budget, seed=k, formula=formula)
            for value, C in zip((cert.value.p, cert.value.q), f.C):
                sigma = np.linalg.norm(C, 2)
                assert value == pytest.approx(sigma, rel=1e-10, abs=0.0)
                assert value <= sigma * (1.0 + 1e-12)

    @pytest.mark.parametrize("formula", FORMULAS)
    def test_uses_no_svd_or_eig(self, monkeypatch, formula):
        # C enters the sampler and the polish through products only, so the
        # brute-force route stays independent of norm_spectral's SVD
        def banned(*args, **kwargs):
            raise AssertionError("the polish factored C")

        for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, banned)
        f = DBilinear2Functional.random(6, 31)
        for C in f.C:
            u, v = np.eye(6)[0], np.eye(6)[1]
            assert tf._climb_component(C, u, v)[0] > 0.0
        cert = norm_bruteforce(f, budget=2000, seed=0, formula=formula)
        assert min(cert.value.p, cert.value.q) > 0.0


class TestSamplerHandsOverAWidePair:
    """The polish takes the sampler's pair as it is, so the sampler must hand
    over nonzero u and v wider than THIN apart: a winner, or (e1, e2)."""

    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_pair_is_nonzero_and_not_thin(self, n, formula):
        f = DBilinear2Functional.random(n, 70 + n)
        # a random C, C = 0, and one zero component, as norm_bruteforce runs them
        for f in (f, DBilinear2Functional.zero(n), DBilinear2Functional(f.C1, 0.0 * f.C1)):
            for comp, scaled in enumerate(_unit_scaled(f.C)[0]):
                for budget in (1, 2, 17, 250, 10**5):
                    _, u, v = tf._sample_component(scaled, budget, substream(n, comp, formula))
                    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                    assert nu > 0.0 and nv > 0.0
                    assert wedge_area_batch(u[None], v[None])[0] > THIN * nu * nv


class TestBoundedness:
    def test_spectral_bound_holds(self):
        f = DBilinear2Functional.random(3, 17)
        delta = norm_spectral(f).value
        report = is_bounded_check(f, delta, samples=2000, seed=0)
        assert report
        assert max(report.max_excess) <= 1e-9

    def test_half_bound_fails_with_witness(self):
        f = DBilinear2Functional.random(3, 18)
        delta = Hyperbolic(0.5, 0.5) * norm_spectral(f).value
        report = is_bounded_check(f, delta, samples=200, seed=0)
        assert not report
        assert report.witness is not None
        x, y = report.witness
        lhs = f(x, y).modulus()
        rhs = delta * D2Norm()(x, y)
        assert max(lhs.p - rhs.p, lhs.q - rhs.q) > 0

    def test_zero_functional_zero_bound(self):
        f = DBilinear2Functional.zero(2)
        report = is_bounded_check(f, Hyperbolic(0.0, 0.0), samples=100, seed=0)
        assert report

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            is_bounded_check(DBilinear2Functional.zero(2), Hyperbolic(-1.0, 0.0), samples=10)


def test_scaling_by_hyperbolic_scalar():
    f = DBilinear2Functional.random(3, 19)
    alpha = Hyperbolic(2.0, -3.0)
    g = alpha * f
    rng = np.random.default_rng(20)
    x, y = rand_dvec(rng, 3), rand_dvec(rng, 3)
    assert (g(x, y) - alpha * f(x, y)).max_abs() <= 1e-12


def reference_is_bounded_check(f, norm, delta, samples: int, seed):
    """The per-sample is_bounded_check loop that the batched one replaced.

    Returns (ok, max_excess, witness); kept here as the oracle of the
    batched check.  max_excess is per component, and the witness takes each
    component from that component's first probe of largest excess.
    """
    rng = np.random.default_rng(seed)
    n = f.n
    probes = []
    probes.append(norm_spectral(f).witness)
    for _ in range(samples):
        x = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        y = DVector.from_components(rng.standard_normal(n), rng.standard_normal(n))
        probes.append((x, y))
        probes.append((x, Hyperbolic(*rng.standard_normal(2)) * x))
    worst = [-np.inf, -np.inf]
    best = [None, None]
    ok = True
    for x, y in probes:
        lhs = f(x, y).modulus()
        rhs = delta * norm(x, y)
        for c, excess in enumerate((lhs.p - rhs.p, lhs.q - rhs.q)):
            if excess > worst[c]:
                worst[c], best[c] = excess, (x, y)
        # each component's excess against 1e-9 * delta * ||x|| * ||y||
        for e, d, xc, yc in zip((lhs.p - rhs.p, lhs.q - rhs.q), (delta.p, delta.q), x.c, y.c):
            ok = ok and e <= 1e-9 * d * np.linalg.norm(xc) * np.linalg.norm(yc)
    (x1, y1), (x2, y2) = best
    witness = (DVector.from_components(x1.c1, x2.c2), DVector.from_components(y1.c1, y2.c2))
    return ok, worst, None if ok else witness


class TestBoundednessBatched:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("factor", [(1.0, 1.0), (0.5, 0.5), (1.0, 0.5)])
    def test_matches_reference(self, n, factor):
        f = DBilinear2Functional.random(n, 40 + n)
        delta = Hyperbolic(*factor) * norm_spectral(f).value
        rng_new, rng_old = np.random.default_rng(n), np.random.default_rng(n)
        report = is_bounded_check(f, delta, samples=300, seed=rng_new)
        ok, excess, witness = reference_is_bounded_check(f, D2Norm(), delta, 300, rng_old)
        # identical draws: both consumed the same stream
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert report.ok == ok
        if ok:
            assert report.witness is None
            for got, want in zip(report.max_excess, excess):
                assert abs(got - want) <= 1e-13
        else:
            # in a component whose bound is halved the same probe wins, the
            # first of largest excess; in the other the maximum is a rounding
            # residue, as when the check passes
            for c, halved in enumerate(np.array(factor) < 1.0):
                got, want = report.max_excess[c], excess[c]
                if halved:
                    for g, w in zip(report.witness, witness):
                        assert np.array_equal(g.c[c], w.c[c])
                    assert got == pytest.approx(want, rel=1e-12)
                else:
                    assert abs(got - want) <= 1e-13

    def test_witness_can_be_a_sampled_probe(self):
        # at n = 8 random pairs have areas well above 1, so a sample beats
        # the spectral probe, of area 1, under a halved bound
        f = DBilinear2Functional.random(8, 48)
        spectral = norm_spectral(f)
        report = is_bounded_check(f, Hyperbolic(0.5, 0.5) * spectral.value, seed=0)
        assert not np.array_equal(report.witness[0].c1, spectral.witness[0].c1)

