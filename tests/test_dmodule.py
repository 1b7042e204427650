import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from hyp2 import (
    E1,
    AlreadyContained,
    DimensionMismatch,
    DSubmodule,
    DVector,
    Hyperbolic,
    linear_dependent,
)
from hyp2._tol import SPAN
from test_hyperbolic import coordinate_pairs

vec_arrays = hnp.arrays(
    float, st.integers(1, 6), elements=st.floats(-10, 10, allow_nan=False)
)


#: scales at which a square over- or underflows, and 1
SCALES = [1.0, 1e-170, 1e170, 1e-200, 1e200]


def dvec(c1, c2) -> DVector:
    return DVector.from_components(np.asarray(c1, float), np.asarray(c2, float))


class TestSplitJoin:
    def test_real_vector_has_equal_parts(self):
        x = DVector([Hyperbolic.from_real(1.0), Hyperbolic.from_real(-2.0)])
        x1, x2 = x.c1, x.c2
        assert np.array_equal(x1, x2)

    def test_pure_e1_vector(self):
        x = E1 * dvec([1.0, 0.0], [1.0, 0.0])
        x1, x2 = x.c1, x.c2
        assert np.array_equal(x1, [1.0, 0.0])
        assert np.array_equal(x2, [0.0, 0.0])

    @given(vec_arrays)
    def test_roundtrip(self, arr):
        x = dvec(arr, arr[::-1])
        assert DVector.from_components(x.c1, x.c2) == x

    def test_coords_view(self):
        x = dvec([1.0, 2.0], [3.0, 4.0])
        assert x[0] == Hyperbolic(1.0, 3.0)
        assert len(x.coords()) == 2


class TestEquality:
    @pytest.mark.parametrize("swap", [False, True])
    def test_each_component_on_its_own_scale(self, swap):
        # a q component of 1e-13 against 0 is a difference, however long p is
        x, y = ([1.0, 0.0], [1e-13, 0.0]), ([1.0, 0.0], [0.0, 0.0])
        if swap:
            x, y = x[::-1], y[::-1]
        assert not dvec(*x) == dvec(*y) and not dvec(*y) == dvec(*x)

    def test_within_a_component_the_larger_entry_sets_the_scale(self):
        assert dvec([1.0, 1e-13], [2.0, 0.0]) == dvec([1.0, 0.0], [2.0, 0.0])
        assert not dvec([1.0, 1e-11], [2.0, 0.0]) == dvec([1.0, 0.0], [2.0, 0.0])

    @given(st.integers(1, 4), st.data())
    def test_equality_splits_over_the_idempotents(self, n, data):
        # entries from 0 and +-1e-300..1e300: one component may dwarf the other
        p, q = (data.draw(st.lists(coordinate_pairs, min_size=n, max_size=n)) for _ in "pq")
        x, y = (dvec([e[i] for e in p], [e[i] for e in q]) for i in (0, 1))
        assert (x == y) == (x.e1_part() == y.e1_part() and x.e2_part() == y.e2_part())


class TestScalarAction:
    def test_action_splits_componentwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = Hyperbolic(*rng.standard_normal(2))
            x = dvec(rng.standard_normal(4), rng.standard_normal(4))
            ax = alpha * x
            assert np.allclose(ax.c1, alpha.p * x.c1, atol=1e-12)
            assert np.allclose(ax.c2, alpha.q * x.c2, atol=1e-12)

    def test_k_action_flips_second_component(self):
        from hyp2 import K

        x = dvec([1.0, 2.0], [3.0, 4.0])
        kx = K * x
        assert np.array_equal(kx.c1, x.c1)
        assert np.array_equal(kx.c2, -x.c2)

    def test_both_operand_orders_skip_repr(self, monkeypatch):
        # Hyperbolic.__mul__ hands a DVector back to DVector.__rmul__ without
        # formatting the vector into a discarded TypeError message
        def no_repr(self):
            raise AssertionError("DVector.__repr__ called during scalar action")

        h = Hyperbolic(1.5, -0.25)
        v = dvec([1.0, 2.0, 3.0], [-1.0, 0.5, 4.0])
        monkeypatch.setattr(DVector, "__repr__", no_repr)
        hv, vh = h * v, v * h
        assert np.array_equal(hv.c1, vh.c1) and np.array_equal(hv.c2, vh.c2)
        assert hv == vh

    def test_add_sub_neg(self):
        x = dvec([1.0, 0.0], [0.0, 1.0])
        y = dvec([0.0, 1.0], [1.0, 0.0])
        assert (x + y) - y == x
        assert -(-x) == x

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dvec([1.0], [1.0]) + dvec([1.0, 2.0], [1.0, 2.0])

    @given(vec_arrays)
    def test_len_is_the_dimension(self, arr):
        assert len(dvec(arr, -arr)) == arr.shape[0] == dvec(arr, arr).n

    def test_sum_with_a_non_vector_is_a_type_error(self):
        x = dvec([1.0, 2.0], [3.0, 4.0])
        for other in (Hyperbolic(1.0, 1.0), 1.0, np.ones((2, 2))):
            with pytest.raises(TypeError, match="expected a DVector"):
                x + other
            with pytest.raises(TypeError, match="expected a DVector"):
                x - other


class TestZeroDivisorElements:
    def test_zero_vector_is_not(self):
        assert not DVector.zero(3).is_zero_divisor()

    def test_pure_e2_vector_is(self):
        x = dvec([0.0, 0.0], [0.0, 1.0])
        assert x.is_zero_divisor()

    def test_full_support_is_not(self):
        assert not dvec([1.0, 0.0], [0.0, 1.0]).is_zero_divisor()


class TestLinearDependent:
    def test_scalar_multiple_dependent(self):
        rng = np.random.default_rng(5)
        x = dvec(rng.standard_normal(3), rng.standard_normal(3))
        alpha = Hyperbolic(2.0, -0.5)
        assert linear_dependent(x, alpha * x)

    def test_componentwise_mixed_pair_is_independent(self):
        x = dvec([1.0, 0.0], [0.0, 1.0])
        y = dvec([2.0, 0.0], [1.0, 0.0])
        # first components dependent, second components not
        assert not linear_dependent(x, y)

    def test_zero_always_dependent(self):
        x = dvec([1.0, 2.0], [3.0, 4.0])
        assert linear_dependent(x, DVector.zero(2))
        assert linear_dependent(DVector.zero(2), x)

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = dvec(rng.standard_normal(3), rng.standard_normal(3))
            y = dvec(rng.standard_normal(3), rng.standard_normal(3))
            assert linear_dependent(x, y) == linear_dependent(y, x)

    @pytest.mark.parametrize("s", SCALES)
    def test_verdict_at_any_scale(self, s):
        # each vector is tested times its own power of two per component, so
        # no square over- or underflows and numpy warns of nothing
        x = dvec([1.0, 2.0, -0.5], [0.5, -1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not linear_dependent(dvec([s, 0, 0], [s, 0, 0]), dvec([0, s, 0], [0, s, 0]))
            assert linear_dependent(s * x, s * (3.0 * x))
            assert linear_dependent(x, s * x) and linear_dependent(s * x, x)


class TestSubmodule:
    def test_basis_elements_contained(self):
        m = DSubmodule(3, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        assert m.contains(dvec([2.0, 0.0, 0.0], [0.0, -1.0, 0.0]))
        assert m.contains(DVector.zero(3))

    def test_orthogonal_vector_not_contained(self):
        m = DSubmodule(3, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        assert not m.contains(dvec([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("s", SCALES)
    def test_membership_at_any_scale(self, s):
        # v is tested times its own power of two, as each basis row is
        m = DSubmodule(3, [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        e1, e2 = dvec([s, 0, 0], [s, 0, 0]), dvec([0, s, 0], [0, s, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert m.contains(e1) and not m.contains(e2)
            assert not m.contains(dvec([s, 0, 0], [0, s, 0]))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            DSubmodule(2, [[1.0, 0.0], [2.0, 0.0]], [])

    def test_row_with_non_finite_squared_length_spans(self):
        # finite entries whose squared length overflows: Gram-Schmidt runs on
        # the row times its own power of two, so it spans like any other row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = DSubmodule(3, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [1e308, 1e308, 0.0]])
            assert m.dims == (1, 2) and m.basis2[1].tolist() == [1e308, 1e308, 0.0]
            assert m.contains(dvec([2.0, 0.0, 0.0], [1.0, -3.0, 0.0]))
            assert not m.contains(dvec([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
            with pytest.raises(ValueError, match="basis row 1 is dependent"):
                DSubmodule(3, [[1.0, 1.0, 0.0], [1e308, 1e308, 0.0]], [])
            assert DSubmodule(3, [[1e153, 1e153, 0.0]], []).dims == (1, 0)

    def test_dimension_mismatch(self):
        m = DSubmodule.zero(3)
        with pytest.raises(DimensionMismatch):
            m.contains(DVector.zero(2))

    def test_extend_from_zero(self):
        m = DSubmodule.zero(2)
        x = dvec([1.0, 1.0], [1.0, -1.0])
        m2 = m.extend(x)
        assert m2.dims == (1, 1)
        assert m2.contains(x)

    def test_extend_partial_growth(self):
        m = DSubmodule(2, [[1.0, 0.0]], [[1.0, 0.0]])
        x = dvec([2.0, 0.0], [0.0, 1.0])  # first component already in span
        m2 = m.extend(x)
        assert m2.dims == (1, 2)

    def test_extend_already_contained(self):
        m = DSubmodule(2, [[1.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(AlreadyContained):
            m.extend(dvec([3.0, 0.0], [0.0, -2.0]))

    def test_extend_never_decreases_dims(self):
        rng = np.random.default_rng(8)
        m = DSubmodule.zero(4)
        for _ in range(6):
            x = dvec(rng.standard_normal(4), rng.standard_normal(4))
            try:
                m2 = m.extend(x)
            except AlreadyContained:
                continue
            assert m2.dims[0] - m.dims[0] in (0, 1)
            assert m2.dims[1] - m.dims[1] in (0, 1)
            m = m2

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3), (8, 7)])
    @pytest.mark.parametrize("off,contained", [(1e-8, False), (1e-11, True), (None, False)])
    def test_component_contains_matches_a_least_squares_residual(self, n, k, off, contained):
        # v off the span by `off` times ||v|| (None: a random v, independent of
        # the k < n rows); the reference residual comes from lstsq
        rng = np.random.default_rng(10 * n + k)
        basis = rng.standard_normal((k, n))
        m = DSubmodule(n, basis, basis[::-1])
        q, _ = np.linalg.qr(basis.T)
        for _ in range(20):
            if off is None:
                v = rng.standard_normal(n)
            else:
                v = rng.standard_normal(k) @ basis
                w = rng.standard_normal(n)
                for _ in range(2):
                    w -= q @ (q.T @ w)
                v = v + off * np.linalg.norm(v) * w / np.linalg.norm(w)
            coef = np.linalg.lstsq(basis.T, v, rcond=None)[0]
            want = np.linalg.norm(v - basis.T @ coef) <= SPAN * np.linalg.norm(v)
            assert want == contained
            assert m.component_contains(0, v) == m.component_contains(1, v) == want

    def test_json_roundtrip(self):
        m = DSubmodule(2, [[1.0, 2.0]], [[0.0, 1.0]])
        m2 = DSubmodule.from_json(m.to_json())
        assert m2.dims == m.dims
        assert m2.contains(dvec([2.0, 4.0], [0.0, 3.0]))


    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_json_rejects_non_finite(self, bad):
        blob = DSubmodule(2, [[1.0, 2.0]], [[0.0, 1.0]]).to_json()
        blob["basis2"][0][0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DSubmodule.from_json(blob)


    @pytest.mark.parametrize(
        "key,value",
        [("n", 2.0), ("n", "2"), ("n", True), ("basis1", [[[1.0, 2.0]]]), ("basis1", [1.0, 2.0]),
         ("basis1", [[1.0, 2.0, 3.0]]), ("basis2", [[]])],
    )
    def test_json_rejects_malformed_dimension_or_basis(self, key, value):
        blob = DSubmodule(2, [[1.0, 2.0]], []).to_json()
        assert DSubmodule.from_json(blob).dims == (1, 0)  # [] is no rows
        blob[key] = value
        with pytest.raises(ValueError):
            DSubmodule.from_json(blob)


def test_dependent_pair_row_wise_matches_single_rows():
    from hyp2.dmodule import _dependent_pair

    rng = np.random.default_rng(3)
    us = rng.standard_normal((6, 4))
    vs = rng.standard_normal((6, 4))
    vs[1] = -2.5 * us[1]  # dependent
    vs[2] = 0.0  # zero partner
    us[3] = 0.0  # zero partner on the other side
    vs[4] = us[4] + 1e-6 * vs[4]  # nearly, but not, dependent
    us[5] = 1e-12 * us[5]  # short, but still a direction: dependence is scale-free
    rows = _dependent_pair(us, vs)
    assert rows.tolist() == [bool(_dependent_pair(u, v)) for u, v in zip(us, vs)]
    assert rows.tolist() == [False, True, True, True, False, False]


def test_dvector_json_roundtrip():
    x = dvec([1.5, -2.0], [0.0, 3.0])
    assert DVector.from_json(x.to_json()) == x
    # cartesian scalar encodings accepted inside vectors
    y = DVector.from_json([{"a": 1.0, "b": 0.5}, {"a": 0.0, "b": 0.0}])
    assert y == dvec([1.5, 0.0], [0.5, 0.0])
