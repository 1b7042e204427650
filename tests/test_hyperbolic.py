import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyp2 import (
    E1,
    E2,
    K,
    ONE,
    ZERO,
    EmptyCollection,
    Hyperbolic,
    NotInvertible,
    OrderResult,
    inf_d,
    sup_d,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
scalars = st.builds(Hyperbolic, finite, finite)
nonzero = finite.filter(lambda v: abs(v) >= 1e-3)

#: 0 and +-1e-300..1e300: one idempotent coordinate may dwarf the other
wide = st.just(0.0) | st.builds(
    lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e300)
)


def beside(v: float):
    """v itself, v apart by 1e-13 or 1e-11 relative, or an unrelated coordinate."""
    nudged = st.sampled_from([1e-13, -1e-13, 1e-11, -1e-11]).map(lambda d: v * (1.0 + d))
    return st.just(v) | nudged | wide


coordinate_pairs = wide.flatmap(lambda v: st.tuples(st.just(v), beside(v)))


def cartesian_mul(x: Hyperbolic, y: Hyperbolic) -> Hyperbolic:
    # independent oracle: (a1 + k b1)(a2 + k b2) with k^2 = 1
    a = x.a * y.a + x.b * y.b
    b = x.a * y.b + x.b * y.a
    return Hyperbolic.from_cartesian(a, b)


class TestConstruction:
    def test_from_cartesian_identity(self):
        z = Hyperbolic.from_cartesian(1.0, 0.0)
        assert z.p == 1.0 and z.q == 1.0

    def test_from_cartesian_e1_is_zero_divisor(self):
        z = Hyperbolic.from_cartesian(0.5, 0.5)
        assert z.p == 1.0 and z.q == 0.0
        assert z == E1
        assert z.is_zero_divisor()

    def test_from_cartesian_hand_value(self):
        z = Hyperbolic.from_cartesian(3.0, 1.0)
        assert z.p == 4.0 and z.q == 2.0

    def test_cartesian_view_roundtrip(self):
        z = Hyperbolic(4.0, 2.0)
        assert z.a == 3.0 and z.b == 1.0
        assert Hyperbolic.from_cartesian(z.a, z.b) == z


class TestRingOps:
    def test_e1_times_e2_is_zero(self):
        assert (E1 * E2).is_zero()

    def test_mul_identity(self):
        z = Hyperbolic(4.0, 2.0)
        assert z * ONE == z
        assert z * 1 == z

    def test_mul_hand_value_against_cartesian(self):
        x, y = Hyperbolic(4.0, 2.0), Hyperbolic(2.0, 6.0)
        assert x * y == Hyperbolic(8.0, 12.0)
        assert x * y == cartesian_mul(x, y)

    @given(scalars, scalars)
    def test_mul_matches_cartesian_oracle(self, x, y):
        # the cartesian route cancels, so its error is absolute, not relative
        assert (x * y - cartesian_mul(x, y)).max_abs() <= 1e-11

    @given(scalars, scalars, scalars)
    def test_ring_axioms(self, x, y, z):
        # both sides round differently, so their gap is bounded absolutely
        assert ((x + y) + z - (x + (y + z))).max_abs() <= 1e-12
        assert (x + y) == (y + x)
        assert (x * y) == (y * x)
        assert ((x * y) * z - x * (y * z)).max_abs() <= 1e-12
        assert (x * (y + z) - (x * y + x * z)).max_abs() <= 1e-12

    def test_k_squares_to_one(self):
        assert K * K == ONE

    @given(scalars)
    def test_negation_is_coordinatewise(self, x):
        neg = -x
        assert (neg.p, neg.q) == (-x.p, -x.q)
        assert (x + neg).is_zero()

    @given(finite, scalars)
    def test_real_minus_scalar_is_coordinatewise(self, t, x):
        # t - x runs x.__rsub__: t is t*e1 + t*e2
        diff = t - x
        assert (diff.p, diff.q) == (t - x.p, t - x.q)

    @given(finite, st.builds(Hyperbolic, nonzero, nonzero))
    def test_real_over_scalar_is_coordinatewise(self, t, x):
        # t / x runs x.__rtruediv__: t times x's coordinatewise inverse
        quot = t / x
        assert (quot.p, quot.q) == (t * (1.0 / x.p), t * (1.0 / x.q))
        assert quot == Hyperbolic(t / x.p, t / x.q)

    def test_real_over_a_zero_divisor_raises(self):
        with pytest.raises(NotInvertible):
            1.0 / E1
        with pytest.raises(NotInvertible):
            2.0 / ZERO
        assert E1.__rsub__("x") is NotImplemented and E1.__rtruediv__("x") is NotImplemented


class TestConjugation:
    def test_e1_dagger_is_e2(self):
        assert E1.dagger() == E2

    def test_real_fixed_point(self):
        z = Hyperbolic.from_real(2.5)
        assert z.dagger() == z

    def test_swaps_coordinates_and_realifies_product(self):
        z = Hyperbolic(4.0, 2.0)
        assert z.dagger() == Hyperbolic(2.0, 4.0)
        assert (z * z.dagger()).is_real()

    @given(scalars, scalars)
    def test_involutive_additive_multiplicative(self, z, w):
        assert z.dagger().dagger() == z
        assert (z + w).dagger() == z.dagger() + w.dagger()
        assert (z * w).dagger() == z.dagger() * w.dagger()


class TestInverse:
    def test_one_inverse(self):
        assert ONE.inverse() == ONE

    def test_hand_value_and_mul_back(self):
        z = Hyperbolic.from_cartesian(3.0, 1.0)
        inv = z.inverse()
        assert inv == Hyperbolic(0.25, 0.5)
        assert z * inv == ONE

    def test_small_scalar_is_invertible(self):
        # a coordinate vanishes only at 0: neither is compared with 1 or with
        # the other
        assert Hyperbolic(1e-13, 2e-13).inverse() == Hyperbolic(1e13, 5e12)
        assert not Hyperbolic(1.0, 1e-13).is_zero_divisor()
        assert Hyperbolic(1.0, 1e-13).inverse() == Hyperbolic(1.0, 1e13)
        assert Hyperbolic(1.0, 0.0).is_zero_divisor()

    def test_subnormal_coordinate_is_not_inverted(self):
        # 1 / 5e-324 overflows, so no inf reaches arithmetic
        z = Hyperbolic(1.0, 5e-324)
        assert z.is_invertible()
        with pytest.raises(NotInvertible):
            z.inverse()
        with pytest.raises(NotInvertible):
            ONE / z

    def test_zero_divisor_not_invertible(self):
        with pytest.raises(NotInvertible):
            E1.inverse()
        with pytest.raises(NotInvertible):
            ZERO.inverse()

    def test_division(self):
        z = Hyperbolic(4.0, 2.0)
        assert z / z == ONE


class TestModulus:
    def test_componentwise_abs(self):
        assert Hyperbolic(-2.0, 5.0).modulus() == Hyperbolic(2.0, 5.0)

    def test_nonneg_fixed_point(self):
        z = Hyperbolic(2.0, 5.0)
        assert z.modulus() == z

    @given(scalars, scalars)
    def test_multiplicative(self, x, y):
        assert (x * y).modulus() == x.modulus() * y.modulus()

    @given(scalars, scalars)
    def test_triangle(self, x, y):
        assert (x + y).modulus().leq(x.modulus() + y.modulus())

    @given(scalars)
    def test_in_nonneg_cone(self, z):
        assert z.modulus().is_nonneg()


class TestOrder:
    def test_zero_below_e1(self):
        assert ZERO.compare(E1) == OrderResult.LESS_EQ

    def test_incomparable(self):
        assert Hyperbolic(1.0, 4.0).compare(Hyperbolic(3.0, 2.0)) == OrderResult.INCOMPARABLE

    def test_reals_match_total_order(self):
        assert Hyperbolic.from_real(2.0).compare(Hyperbolic.from_real(5.0)) == OrderResult.LESS_EQ
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, t = rng.standard_normal(2) * 5
            rel = Hyperbolic.from_real(s).compare(Hyperbolic.from_real(t))
            if abs(s - t) <= 1e-12:
                assert rel == OrderResult.EQUAL
            elif s < t:
                assert rel == OrderResult.LESS_EQ
            else:
                assert rel == OrderResult.GREATER_EQ

    def test_equal_implies_both_directions(self):
        z = Hyperbolic(1.0, 2.0)
        assert z.compare(Hyperbolic(1.0, 2.0)) == OrderResult.EQUAL
        assert z.leq(z) and z.geq(z)

    @pytest.mark.parametrize("swap", [False, True])
    def test_each_coordinate_on_its_own_scale(self, swap):
        # 1e-20 against 0 is a difference in its own coordinate, however
        # large the other coordinate is
        def scalar(p, q):
            return Hyperbolic(q, p) if swap else Hyperbolic(p, q)

        x, y = scalar(1.0, 1e-20), scalar(1.0, 0.0)
        assert not x == y and not y == x
        assert x.compare(y) is OrderResult.GREATER_EQ
        assert y.compare(x) is OrderResult.LESS_EQ
        assert x.geq(y) and not x.leq(y)
        assert y.leq(x) and not y.geq(x)

    @given(coordinate_pairs, coordinate_pairs)
    def test_equality_and_order_split_over_the_idempotents(self, p, q):
        # the e1 and e2 parts decide equality and order, each on its own
        x, y = Hyperbolic(p[0], q[0]), Hyperbolic(p[1], q[1])
        (x1, y1), (x2, y2) = (Hyperbolic(a, 0.0) for a in p), (Hyperbolic(0.0, b) for b in q)
        assert (x == y) == (x1 == y1 and x2 == y2)
        le, ge = x1.leq(y1) and x2.leq(y2), x1.geq(y1) and x2.geq(y2)
        assert (x.leq(y), x.geq(y)) == (le, ge)
        want = {
            (True, True): OrderResult.EQUAL,
            (True, False): OrderResult.LESS_EQ,
            (False, True): OrderResult.GREATER_EQ,
            (False, False): OrderResult.INCOMPARABLE,
        }
        assert x.compare(y) is want[le, ge]


class TestLattice:
    def test_singleton(self):
        z = Hyperbolic(1.0, -3.0)
        assert sup_d([z]) == z
        assert inf_d([z]) == z

    def test_componentwise(self):
        a, b = Hyperbolic(1.0, 4.0), Hyperbolic(3.0, 2.0)
        assert sup_d([a, b]) == Hyperbolic(3.0, 4.0)
        assert inf_d([a, b]) == Hyperbolic(1.0, 2.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyCollection):
            sup_d([])
        with pytest.raises(EmptyCollection):
            inf_d([])

    def test_least_upper_bound_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            vals = [Hyperbolic(*rng.standard_normal(2)) for _ in range(5)]
            s = sup_d(vals)
            assert all(v.leq(s) for v in vals)
            # any sampled upper bound dominates the supremum
            for _ in range(20):
                cand = s + Hyperbolic(*np.abs(rng.standard_normal(2)))
                assert all(v.leq(cand) for v in vals)
                assert s.leq(cand)
            # and nothing strictly below s in a coordinate is an upper bound
            below = Hyperbolic(s.p - 1e-6, s.q)
            assert not all(v.leq(below) for v in vals)


class TestNonScalarOperands:
    def test_arithmetic_defers_to_the_other_operand(self):
        z = Hyperbolic(1.0, 2.0)
        assert z.__mul__("x") is NotImplemented
        assert z.__add__([1.0]) is NotImplemented
        with pytest.raises(TypeError):
            z * "x"

    def test_direct_callers_keep_the_coercion_error(self):
        z = Hyperbolic(1.0, 2.0)
        with pytest.raises(TypeError, match="cannot interpret"):
            z.compare([1.0])


class TestJson:
    def test_roundtrip(self):
        z = Hyperbolic(1.25, -2.5)
        assert Hyperbolic.from_json(z.to_json()) == z

    def test_cartesian_input_accepted(self):
        z = Hyperbolic.from_json({"a": 3.0, "b": 1.0})
        assert z == Hyperbolic(4.0, 2.0)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            Hyperbolic.from_json({"x": 1.0})
        with pytest.raises(ValueError):
            Hyperbolic.from_json([1.0, 2.0])

    @pytest.mark.parametrize(
        "obj",
        [{"p": float("nan"), "q": 0.0}, {"p": 0.0, "q": float("inf")}, {"a": 1.0, "b": "nan"},
         {"a": 1e308, "b": 1e308}],
    )
    def test_rejects_non_finite(self, obj):
        with pytest.raises(ValueError, match="non-finite"):
            Hyperbolic.from_json(obj)


def test_str_and_repr_do_not_crash():
    z = Hyperbolic(4.0, 2.0)
    assert "4.0" in repr(z)
    assert math.isclose(eval(repr(z), {"Hyperbolic": Hyperbolic}).p, 4.0)
