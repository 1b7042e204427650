"""An exact reference for the operator norm of the pinned component matrices.

For antisymmetric C the operator norm w.r.t. the area 2-norm is sigma_max(C)
(`norm_spectral`).  Here sigma_max^2, the largest eigenvalue of C'C, is found
in exact rational arithmetic: C'C is formed from the float entries with
`fractions.Fraction`, and t >= sigma_max^2 exactly when tI - C'C has no
negative pivot in its LDL' factorisation (Sylvester's law of inertia), so
bisection on dyadic t brackets sigma_max^2 to 2^-60 relative.  Both routes of
the package are then measured against it in units of u = 2^-53:
`norm_spectral` must lie within 8u, and `norm_bruteforce` (a lower estimate,
polished to convergence) at most 4u above and at most 1e-11 below.  The
matrices are those of tests/test_bruteforce_pins.py: the two components of
`DBilinear2Functional.random(n, 800 + n)` for n = 2..8.

The audit of an extension is bracketed the same way.  On X x [z] the norm of
the printed functional F is ||P C_F z|| / ||z||, P the projection onto
z-perp; its square is formed exactly from the float entries of C_F and z,
and both `norm_F_audit` (that formula in floating point) and
`norm_F_witness` (the quotient at x = P C_F z) must lie within 8 n u of it.
"""

from fractions import Fraction

import pytest

import numpy as np

from hyp2 import (
    DBilinear2Functional, DSubmodule, DVector, ExtensionProblem, full_extend, norm_bruteforce,
    norm_spectral,
)

U = Fraction(1, 2**53)
REL = Fraction(1, 2**60)


def gram(C) -> list[list[Fraction]]:
    """C'C in exact arithmetic."""
    c = [[Fraction(v) for v in row] for row in C.tolist()]
    n = len(c)
    return [[sum(c[k][i] * c[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def negative_pivots(a: list[list[Fraction]]) -> int | None:
    """Negative pivots of the LDL' factorisation of the symmetric matrix a,
    its count of negative eigenvalues; None at a zero pivot, where LDL'
    without pivoting breaks down."""
    a = [row[:] for row in a]
    n, count = len(a), 0
    for k in range(n):
        d = a[k][k]
        if d == 0:
            return None
        count += d < 0
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k + 1, i + 1):
                    a[i][j] -= f * a[j][k]
    return count


def sigma_max_sq(C) -> tuple[Fraction, Fraction]:
    """A dyadic bracket [lo, hi] of sigma_max(C)^2 with hi - lo <= 2^-60 lo."""
    g = gram(C)
    n = len(g)
    hi = Fraction(1)
    while hi < sum(g[i][i] for i in range(n)):  # the trace bounds the top eigenvalue
        hi *= 2
    lo = Fraction(0)
    while hi - lo > REL * lo or lo == 0:
        mid = (lo + hi) / 2
        count = None
        while count is None:  # a zero pivot: move off that point, dyadically
            shifted = [[(mid if i == j else 0) - g[i][j] for j in range(n)] for i in range(n)]
            count = negative_pivots(shifted)
            if count is None:
                mid += (hi - lo) / 1024
        if count == 0:  # mid I - C'C is positive semidefinite
            hi = mid
        else:
            lo = mid
    return lo, hi


def rel_error(value: float, bracket: tuple[Fraction, Fraction]) -> Fraction:
    """(value - sigma_max) / sigma_max, to within 2^-60 or so: (r^2 - 1) / 2
    with r^2 = value^2 / sigma_max^2, exact up to the second-order term."""
    lo, hi = bracket
    return (Fraction(value) ** 2 / ((lo + hi) / 2) - 1) / 2


@pytest.fixture(scope="module")
def pinned():
    """(n, component, C, bracket of sigma_max^2) of the 14 pinned matrices."""
    out = []
    for n in range(2, 9):
        f = DBilinear2Functional.random(n, 800 + n)
        for comp, C in enumerate(f.C):
            out.append((n, comp, f, sigma_max_sq(C)))
    return out


def test_bracket_is_tight_and_exact_at_n2(pinned):
    for n, comp, f, (lo, hi) in pinned:
        assert 0 < lo < hi and hi - lo <= REL * lo
        # at n = 2, C = [[0, c], [-c, 0]] has the singular value |c|, twice
        if n == 2:
            c = Fraction(f.C[comp][0, 1])
            assert lo <= c * c <= hi


def test_spectral_is_within_8u(pinned):
    for n, comp, f, bracket in pinned:
        value = norm_spectral(f).value
        assert abs(rel_error((value.p, value.q)[comp], bracket)) <= 8 * U, (n, comp)


@pytest.mark.parametrize("formula", ["quotient", "unit"])
def test_bruteforce_is_a_lower_estimate_to_1e_11(pinned, formula):
    for n, comp, f, bracket in pinned:
        cert = norm_bruteforce(f, budget=100_000, seed=n, formula=formula)
        err = rel_error((cert.value.p, cert.value.q)[comp], bracket)
        assert -Fraction(1, 10**11) <= err <= 4 * U, (n, comp, float(err / U))


#: (n, dims of M, the component of z set to 0 or None, scales of (f, z, M)):
#: n = 2..8, one zero-divisor z, and one draw at f x 1e-92, z x 1e-62 and
#: M x 1e-62, where ||P C_F z||^2 of the raw data is within a factor 100 of
#: the smallest normal double
EXTENSIONS = [
    (2, (1, 1), None, (1.0, 1.0, 1.0)),
    (3, (1, 2), None, (1.0, 1.0, 1.0)),
    (4, (2, 1), 1, (1.0, 1.0, 1.0)),
    (5, (2, 3), None, (1e-92, 1e-62, 1e-62)),
    (6, (3, 5), None, (1e3, 1e-3, 1.0)),
    (7, (1, 6), None, (1.0, 1.0, 1.0)),
    (8, (4, 7), None, (1.0, 1.0, 1.0)),
]


def exact_norm_sq(C, z) -> Fraction:
    """||P C z||^2 / ||z||^2 in exact arithmetic (0 for z = 0)."""
    c = [[Fraction(v) for v in row] for row in C.tolist()]
    zf = [Fraction(v) for v in z.tolist()]
    v = [sum(a * b for a, b in zip(row, zf)) for row in c]
    nz2 = sum(a * a for a in zf)
    if nz2 == 0:
        return Fraction(0)
    along = sum(a * b for a, b in zip(zf, v)) / nz2
    m = [a - along * b for a, b in zip(v, zf)]
    return sum(a * a for a in m) / nz2


@pytest.mark.parametrize("n,dims,vanish,scales", EXTENSIONS, ids=[f"n{e[0]}" for e in EXTENSIONS])
def test_audit_norm_and_witness_are_within_8nu(n, dims, vanish, scales):
    rng = np.random.default_rng(900 + n)
    sf, sz, sm = scales
    M = DSubmodule(n, *(sm * rng.standard_normal((k, n)) for k in dims))
    z = sz * rng.standard_normal((2, n))
    if vanish is not None:
        z[vanish] = 0.0
    f = sf * DBilinear2Functional.random(n, 900 + n)
    trace = full_extend(ExtensionProblem(n, M, DVector.from_components(*z), f))
    audit = trace.audit(samples=50)
    F = trace.final.as_functional()
    for comp, c in enumerate("pq"):
        want = exact_norm_sq(F.C[comp], z[comp])
        for key in ("norm_F_audit", "norm_F_witness"):
            got = audit[key][c]
            if want == 0:
                assert got == 0.0, (key, c)
            else:
                err = (Fraction(got) ** 2 / want - 1) / 2
                assert abs(err) <= 8 * n * U, (key, c, float(err / U))
