"""The component-stacked operations equal the per-component formulas bit for bit.

DVector, DBilinear2Functional and RestrictedFunctional hold their two
idempotent components as one (2, ...) stack and act on both with one array
call.  Each test here writes out the formula one component at a time, the
way the unstacked code computed it, and compares with `==`: a stacked
operation that sums in another order would show up in the last bit, and so
in the CLI's JSON.  Matrices come C-ordered and Fortran-ordered (transposed,
as `hyp2 extend --swap-domain` passes them), since BLAS sums the two
layouts differently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hyp2 import (
    DBilinear2Functional,
    DSubmodule,
    DVector,
    ExtensionProblem,
    Hyperbolic,
    RestrictedFunctional,
    full_extend,
    linear_dependent,
    norm_spectral,
)
from hyp2._tol import ROUND
from hyp2.dmodule import _orthonormal_rows

# The tolerance rule of hyp2._tol, written out: a quantity with no operand
# scale is zero only at 0.0; otherwise x is negligible when |x| <= REL * scale.
REL = 1e-12

CASES = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    fortran=st.booleans(),
)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(a == b))


def antisymmetric_pair(rng, n, scale, fortran):
    mats = []
    for _ in range(2):
        a = rng.standard_normal((n, n)) * scale
        a = (a - a.T) / 2.0
        mats.append(np.array(a.T) if fortran else a)
    if fortran:
        assert mats[0].flags.f_contiguous and not mats[0].flags.c_contiguous
    return mats


def functional(rng, n, scale, fortran):
    f = DBilinear2Functional(*antisymmetric_pair(rng, n, scale, fortran))
    assert f.C1.flags.f_contiguous == fortran or n == 1
    return f


def vec(rng, n, scale):
    return DVector.from_components(rng.standard_normal(n) * scale, rng.standard_normal(n) * scale)


# -- the per-component formulas ------------------------------------------------


def ref_perp(z, v):
    nz2 = float(z @ z)
    if nz2 == 0.0:
        return np.array(v, dtype=float)
    return v - z * (float(z @ v) / nz2)


def ref_moment(C, q, z):
    # one component's rows projected off z, then the package's Gram-Schmidt
    # on that component alone, as from_matrices calls it
    projected = np.array([ref_perp(z, row) for row in q]).reshape(q.shape)
    wb = _orthonormal_rows(projected, ROUND, length=1.0)[0]
    return wb.T @ (wb @ (C @ z))


def ref_alpha(z, y):
    nz2 = float(z @ z)
    return 0.0 if nz2 == 0.0 else float(y @ z) / nz2


def ref_top_singular(C):
    u_mat, s, vh = np.linalg.svd(C)
    if float(s[0]) == 0.0:
        n = C.shape[0]
        return 0.0, np.eye(n)[0], np.eye(n)[min(1, n - 1)]
    return float(s[0]), u_mat[:, 0], vh[0, :]


def ref_as_matrix(w, z, n):
    nz2 = float(z @ z)
    if nz2 == 0.0:
        return np.zeros((n, n))
    return (np.outer(w, z) - np.outer(z, w)) / nz2


def ref_dependent(u, v, rel=1e-9):
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return True
    resid = v - u * (float(u @ v) / (nu * nu))
    return float(np.linalg.norm(resid)) <= rel * nv


# -- properties ---------------------------------------------------------------


class TestStackedEqualsPerComponent:
    @SETTINGS
    @given(**CASES)
    def test_dvector_arithmetic_and_predicates(self, seed, n, scale, fortran):
        rng = np.random.default_rng(seed)
        x, y = vec(rng, n, scale), vec(rng, n, scale)
        alpha = Hyperbolic(*rng.standard_normal(2))
        for got, (want1, want2) in (
            (x + y, (x.c1 + y.c1, x.c2 + y.c2)),
            (x - y, (x.c1 - y.c1, x.c2 - y.c2)),
            (-x, (-x.c1, -x.c2)),
            (alpha * x, (alpha.p * x.c1, alpha.q * x.c2)),
            (x * alpha, (alpha.p * x.c1, alpha.q * x.c2)),
        ):
            assert same(got.c1, want1) and same(got.c2, want2)
            assert same(got.c, np.stack((want1, want2)))
            assert not got.c.flags.writeable and not got.c1.flags.writeable
        zd = DVector.from_components(x.c1, np.zeros(n))
        # a component vanishes only when every entry is 0, whatever the other
        # component's length: one whose squared length underflows does not
        short, tiny = (DVector.from_components(x.c1, t * x.c2) for t in (REL, 1e-170))
        for v in (x, zd, DVector.zero(n), short, tiny):
            z1, z2 = not np.any(v.c1), not np.any(v.c2)
            assert v.is_zero() == (z1 and z2)
            assert v.is_zero_divisor() == (z1 != z2)
            assert v.is_degenerate() == (z1 or z2)
        assert float(tiny.c2 @ tiny.c2) == 0.0
        assert not short.is_degenerate() and not tiny.is_degenerate()
        size = max(float(np.max(np.abs(x.c))), float(np.max(np.abs(y.c))))
        assert (x == y) == (float(np.max(np.abs(x.c - y.c))) <= REL * size)
        assert x == DVector.from_components(x.c1, x.c2)
        for u in (y, 2.5 * x, DVector.from_components(x.c1, y.c2)):
            want = ref_dependent(x.c1, u.c1) and ref_dependent(x.c2, u.c2)
            assert linear_dependent(x, u) == want

    @SETTINGS
    @given(**CASES)
    def test_functional_evaluation_scaling_and_spectral_norm(self, seed, n, scale, fortran):
        rng = np.random.default_rng(seed)
        f = functional(rng, n, scale, fortran)
        x, y = vec(rng, n, 1.0 / scale), vec(rng, n, scale)
        got = f(x, y)
        assert got.p == float(x.c1 @ f.C1 @ y.c1)
        assert got.q == float(x.c2 @ f.C2 @ y.c2)
        alpha = Hyperbolic(*rng.standard_normal(2))
        g = alpha * f
        assert same(g.C1, alpha.p * f.C1) and same(g.C2, alpha.q * f.C2)
        assert g.C1.flags.f_contiguous == f.C1.flags.f_contiguous
        for h in (f, g, DBilinear2Functional.zero(n)):
            cert = norm_spectral(h)
            s1, u1, v1 = ref_top_singular(h.C1)
            s2, u2, v2 = ref_top_singular(h.C2)
            assert cert.value.p == s1 and cert.value.q == s2
            wx, wy = cert.witness
            assert same(wx.c1, u1) and same(wx.c2, u2)
            assert same(wy.c1, v1) and same(wy.c2, v2)

    @SETTINGS
    @given(**CASES, dims=st.tuples(st.integers(0, 8), st.integers(0, 8)))
    def test_restricted_functional(self, seed, n, scale, fortran, dims):
        rng = np.random.default_rng(seed)
        k1, k2 = (min(k, n) for k in dims)
        M = DSubmodule(n, rng.standard_normal((k1, n)), rng.standard_normal((k2, n)))
        f = functional(rng, n, scale, fortran)
        z = vec(rng, n, scale)
        for zz in (z, DVector.from_components(z.c1, np.zeros(n))):
            rf = RestrictedFunctional.from_matrices(M, zz, f)
            w1, w2 = ref_moment(f.C1, M.q1, zz.c1), ref_moment(f.C2, M.q2, zz.c2)
            assert same(rf.w1, w1) and same(rf.w2, w2)
            assert same(rf.w, np.stack((w1, w2)))
            want = []
            for w, zc in ((w1, zz.c1), (w2, zz.c2)):
                nz = float(np.linalg.norm(zc))
                want.append(0.0 if nz == 0.0 else float(np.linalg.norm(w)) / nz)
            got = rf.norm()
            assert (got.p, got.q) == tuple(want)
            x = M.random_element(rng, scale)
            beta = Hyperbolic(*rng.standard_normal(2))
            y = beta * zz
            val = rf.evaluate(x, y)
            # w is orthogonal to z, so the value reads x's part off z
            assert val.p == ref_alpha(zz.c1, y.c1) * float(w1 @ ref_perp(zz.c1, x.c1))
            assert val.q == ref_alpha(zz.c2, y.c2) * float(w2 @ ref_perp(zz.c2, x.c2))
            F = rf.as_functional()
            assert same(F.C1, ref_as_matrix(w1, zz.c1, n))
            assert same(F.C2, ref_as_matrix(w2, zz.c2, n))

    @SETTINGS
    @given(**CASES, k=st.integers(0, 8), vanish=st.sampled_from([0, 1]))
    def test_zero_divisor_generator(self, seed, n, scale, fortran, k, vanish):
        # the problem as given: zero moment and zero matrix where z vanishes,
        # the other component's moment and matrix as for any z
        rng = np.random.default_rng(seed)
        k = min(k, n)
        M = DSubmodule(n, rng.standard_normal((k, n)), rng.standard_normal((n - k, n)))
        f = functional(rng, n, scale, fortran)
        parts = [rng.standard_normal(n) * scale, rng.standard_normal(n) * scale]
        parts[vanish] = np.zeros(n)
        problem = ExtensionProblem(n, M, DVector.from_components(*parts), f)
        rf = problem.restriction()
        F = full_extend(problem).final.as_functional()
        assert same(rf.w[vanish], np.zeros(n)) and same(F.C[vanish], np.zeros((n, n)))
        live = 1 - vanish
        w = ref_moment((f.C1, f.C2)[live], (M.q1, M.q2)[live], parts[live])
        assert same(rf.w[live], w)
        assert same(F.C[live], ref_as_matrix(w, parts[live], n))
