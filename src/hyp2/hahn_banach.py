"""Constructive norm-preserving extension of bounded 2-functionals on M x [z].

Representation.  Write [z] for the cyclic submodule generated by z.  Per
idempotent component, a bounded 2-functional f on M x [z] is determined by
the real linear functional x -> f(x, z) on the component of M, and that
functional vanishes on multiples of z.  It is therefore realized by a unique
"moment" vector w in W = proj_{z-perp}(M):

    f(x, alpha z) = alpha * <w, x>,       |f| = ||w|| / ||z||

with the area 2-norm (gram(x, z) = ||proj_{z-perp} x|| * ||z||).

One-generator extension.  Adjoining x' enlarges W by at most the component
p_perp of proj(x') orthogonal to W.  An extension with value r = g(x', z)
has moment w + xi with xi in the new directions and <xi, proj(x')> equal to
r - <w, x'>, so its norm is sqrt(||w||^2 + ||xi||^2) / ||z||.  The norm is
preserved exactly when xi = 0, i.e. for the single value r = <w, x'>.  The
gap interval [m0, m] of admissible values collapses to that point here (the
quotient unit ball of the area 2-norm is strictly convex), and the moment w
never changes: every step, and so the whole extension, only enlarges the
domain.  Every extension step takes that point as its r, so full_extend
only finds the standard basis vectors each component misses.
gap_interval_grid, the suite's oracle and not exported from hyp2, bounds
the endpoints by direct optimization of the defining sup/inf objectives, an
independent cross-check of the printed r.
The audit reads the printed matrices C_F of F: it checks each step's r and
F's moment against the gap point and moment recomputed by SVD from the
problem's raw data, and F's norm ||P C_F z|| / ||z|| (P projects onto
z-perp) against the reported |F|.

Storage.  Vectors, matrices and moments are (2, ...) component stacks, so
each D-level step below is one array call over the leading axis.  What
stays per component: the domain's two bases (they may differ in dimension)
and the gap oracles' optimisation.

Degenerate right slots.  A zero divisor or zero z takes the same path as
any other generator.  Where a component of z vanishes, [z] is 0 there, so
the moment is 0, as_functional gives the zero matrix and |f| is 0: f and
every extension of it vanish in that component, as the closed form says.  A
component that is merely short beside the other keeps its own moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._tol import ROUND, SPAN, negligible, null, within
from .dmodule import (
    DSubmodule, DVector, _dependent_pair, _dot, _orthonormal_rows, _perp, _scaled_back,
    _unit_scaled,
)
from .hyperbolic import Hyperbolic
from .two_functional import DBilinear2Functional
from .two_norm import D2Norm, wedge_area_batch


#: The audit's relative tolerance for F against f on M x [z], r and F's moment.
RESTRICTION_TOL = 1e-10

#: The audit's default relative tolerance for F's norm (`extend --tol`).
NORM_REL_TOL = 1e-5


class DependentPair(ValueError):
    """The two construction vectors are linearly dependent (componentwise)."""


class ZeroDivisorInput(ValueError):
    """A construction vector is zero or a zero divisor."""


class RestrictedFunctional:
    """A bounded 2-functional on M x [z], stored by its moment vectors.

    `w` is the read-only (2, n) stack of the two moments; `w1` and `w2` are
    its rows.  Each moment is expected to lie in proj_{z-perp} of the
    matching domain component; from_matrices produces them in that
    canonical position.  Methods run on `_unit` = (zu, wu, ef, ez), with
    z = zu 2^ez and w = wu 2^(ef + ez) per component, then scale back.
    `_F` keeps the matrices as_functional builds.
    """

    __slots__ = ("domain", "z", "w", "w1", "w2", "_unit", "_F")

    def __init__(self, domain: DSubmodule, z: DVector, w1, w2):
        if z.n != domain.n:
            raise ValueError("generator dimension does not match the domain")
        w = np.array((w1, w2), dtype=float).reshape(2, domain.n)
        (zu, ez), (wu, ew) = _unit_scaled(z.c), _unit_scaled(w)
        self._lock(domain, z, w, (zu, wu, ew - ez, ez))

    def _lock(self, domain: DSubmodule, z: DVector, w: np.ndarray, unit: tuple):
        w.setflags(write=False)
        self.domain, self.z, self.w, self._unit, self._F = domain, z, w, unit, None
        self.w1, self.w2 = w
        return self

    @classmethod
    def from_matrices(
        cls, domain: DSubmodule, z: DVector, functional: DBilinear2Functional
    ) -> "RestrictedFunctional":
        """Restrict a global antisymmetric-matrix 2-functional to M x [z].

        Per component the restriction's moment is the projection of C z onto
        W = proj_{z-perp}(M): for x in M, x' C z = <proj_W(C z), x> because
        C z is already orthogonal to z.  The rank of W drops by one when z
        lies in the component; the dependent row, a residual negligible
        beside q's unit rows, is dropped.  The domain's two bases may differ
        in dimension, so the projection runs per component, on C and z at unit
        scale.  ValueError says when the moment, of degree 1 in both, is not.
        """
        (zu, ez), (cu, ef) = _unit_scaled(z.c), _unit_scaled(functional.C)
        cz = (cu @ zu[:, :, None])[..., 0]
        wbs = [_orthonormal_rows(_perp(zc, q), ROUND, length=1.0)[0]
               for q, zc in zip((domain.q1, domain.q2), zu)]
        wu = np.array([wb.T @ (wb @ czc) for wb, czc in zip(wbs, cz)])
        w = _scaled_back(wu, ef + ez, "the moment (riesz1, riesz2 and each step's r)")
        return object.__new__(cls)._lock(domain, z, w, (zu, wu, ef, ez))

    def norm(self) -> Hyperbolic:
        """Operator norm on M x [z]: ||w|| / ||z|| per component (0 for z = 0)."""
        zu, wu, ef, _ = self._unit
        nz, nw = np.sqrt(_dot(zu, zu)), np.sqrt(_dot(wu, wu))
        norm = np.divide(nw, nz, out=np.zeros(2), where=~null(nz))
        return Hyperbolic(*_scaled_back(norm, ef, "the norm of f (norm_f, norm_F)"))

    def evaluate(self, x: DVector, y: DVector) -> Hyperbolic:
        """Value alpha <w, perp(z, x)> at (x, y) with x in M and y = alpha z
        in [z]; rejects x outside M, and y whose residual off the line of z
        is not negligible beside ||y||.  A component where z vanishes admits
        only y = 0 there, with alpha = 0."""
        if not self.domain.contains(x):
            raise ValueError("first argument lies outside the domain submodule")
        zu, wu, ef, _ = self._unit
        (xu, ex), (yu, ey) = _unit_scaled(x.c), _unit_scaled(y.c)
        resid = _perp(zu, yu)
        if not within(np.sqrt(_dot(resid, resid)), np.sqrt(_dot(yu, yu)), SPAN):
            raise ValueError("second argument lies outside the cyclic domain [z]")
        nz2 = _dot(zu, zu)
        alpha = np.divide(_dot(yu, zu), nz2, out=np.zeros(2), where=~null(nz2))
        # w is orthogonal to z, so x's part along z adds only rounding
        return Hyperbolic(*np.ldexp(alpha * _dot(wu, _perp(zu, xu)), ef + ex + ey))

    def as_functional(self) -> DBilinear2Functional:
        """A global antisymmetric-matrix functional restricting to this one.

        C = (w z' - z w') / ||z||^2 satisfies C z = w because w is orthogonal
        to z; the vanishing-z component gets the zero matrix.  C is exactly
        antisymmetric, entry (j, i) being fl(fl(w_j z_i) - fl(z_j w_i)), the
        negated entry (i, j), so it is not checked again.  It is built on the
        first call and kept, so the audit and the printed report read one F.
        """
        if self._F is None:
            z, w, ef, _ = self._unit
            nz2 = _dot(z, z)[:, None, None]
            outer = w[:, :, None] * z[:, None, :] - z[:, :, None] * w[:, None, :]
            C = np.divide(outer, nz2, out=np.zeros_like(outer), where=~null(nz2))
            self._F = DBilinear2Functional._of(_scaled_back(C, ef, "the matrices of F"))
        return self._F

    def __repr__(self) -> str:
        return f"RestrictedFunctional(domain={self.domain!r}, norm={self.norm()!r})"


class ExtensionProblem:
    """A bounded 2-functional on M x [z] inside D^n, ready for extension.

    The functional is given globally by antisymmetric component matrices and
    restricted to the stated domain here; the 2-norm is the area lift.  Any
    finite f, z and M are taken, but a moment that is not a double raises.
    """

    __slots__ = ("n", "M", "z", "functional", "_rf")

    def __init__(self, n: int, M: DSubmodule, z: DVector, functional: DBilinear2Functional):
        if M.n != n or z.n != n or functional.n != n:
            raise ValueError("dimension mismatch between the problem parts")
        self.n, self.M, self.z, self.functional = n, M, z, functional
        self._rf = RestrictedFunctional.from_matrices(M, z, functional)

    def restriction(self) -> RestrictedFunctional:
        return self._rf

    def to_json(self) -> dict:
        return {"n": self.n, "M": self.M.to_json(), "z": self.z.to_json(),
                "functional": self.functional.to_json(), "norm": {"kind": "gramdet"}}


@dataclass
class ExtensionStep:
    """One generator adjunction: the chosen value r = g(x', z) and the
    components whose domain grew.  r is the gap point <w, x'>, the whole gap
    interval [m0, m] for the area 2-norm, so it is printed once."""

    x_prime: DVector
    r: Hyperbolic
    grew: tuple[bool, bool]

    def to_json(self) -> dict:
        return {"x_prime": self.x_prime.to_json(), "r": self.r.to_json(), "grew": list(self.grew)}


def _gap_point(rf: RestrictedFunctional, x_prime: DVector) -> Hyperbolic:
    """<w, x'> per component: the single norm-preserving value of g(x', z)."""
    return Hyperbolic(*_dot(rf.w, x_prime.c))


@dataclass
class ExtensionTrace:
    """The audited record of a full extension to X x [z]."""

    problem: ExtensionProblem
    steps: list[ExtensionStep]
    final: RestrictedFunctional
    norm_f: Hyperbolic
    norm_F: Hyperbolic

    @property
    def repaired(self) -> bool:
        """Whether z is a zero divisor; it takes the same path as any z."""
        return self.problem.z.is_zero_divisor()

    def audit(self, samples: int = 1000, seed: int = 0, norm_rel_tol: float = NORM_REL_TOL) -> dict:
        """Independent checks of F = final.as_functional(), the matrices
        that extend prints.

        Restriction: alpha * x' C_F z against alpha * x' C z on `samples`
        random pairs of M x [z], in M's coordinates (x = d q with q M's
        orthonormal rows, so x' v = d (q v) and ||x|| = ||d||).
        restriction_max_err is, per component, the largest absolute
        difference, and restriction_rel_err that difference
        over the largest |alpha| * ||x|| * ||C z|| of the samples (0 for no
        difference, inf for a difference at zero scale); restriction_ok
        compares each with RESTRICTION_TOL.  So the verdict depends neither on
        the scale of f, z or M nor on one component's scale beside the
        other's.  Every reported maximum is a [p, q] pair.

        w' is C z projected onto the span of the z-perp parts of M's basis
        rows, by SVD on the problem's raw data (rows scaled to unit length,
        singular values negligible beside 1 dropped); it shares no code with
        the engine.  brackets_ok: every step's r is <w', x'> within
        RESTRICTION_TOL * ||C z|| * ||x'||.  pointwise_ok: every sampled
        |f(x, z) + r| exceeds |f| * gram(x + x', z) by at most 1e-9 times it,
        with x in the step's domain, spanned by leading rows of the final
        domain's orthonormal bases, and gram(y, z) = ||P y|| * ||z||, O(n)
        per row (P the projection onto z-perp, below); pointwise_bound_excess
        is each component's largest excess, and at least 0.

        Norm on X x [z] (P the projection onto z-perp): norm_F_audit =
        ||P C_F z|| / ||z|| exactly, and norm_rel_err is its relative gap to
        norm_F.  That value moves only to second order under a change of F
        off M, so norm_ok also requires moment_rel_err = ||P C_F z - w'|| /
        ||C z|| <= RESTRICTION_TOL, and norm_F_witness within ROUND *
        norm_F_audit of norm_F_audit.  norm_F_witness is the quotient
        |<C_F z, m>| / gram(m, z) at m = P C_F z, where the supremum over x
        is attained, with the wedge formula's gram (0 where it is 0).
        Where z vanishes every one of these is 0.  It all runs at the problem's
        unit scale (F with f's powers of two); each printed maximum is scaled back.

        Seed contract: one generator seeded by `seed` supplies, in order, a
        (samples, k1 + k2 + 2) standard-normal block for the restriction
        check (per row the coordinates of x in M's orthonormal component
        bases, then alpha's two idempotent coordinates), and one
        (m, kk1 + kk2) block per extension step for the pointwise bound, with
        m = max(8, samples // max(1, 4 * steps)) and kk the step's domain
        dimensions.  The stream matches one scalar draw after another in
        that order, so every step's pointwise block comes from one draw, and
        all steps are checked together.
        """
        rng = np.random.default_rng(seed)
        prob, n = self.problem, self.problem.n
        F = self.final.as_functional()
        z, w, ef, ez = prob.restriction()._unit
        efz = ef + ez  # the scale of the moment, r and each absolute error
        cz, cFz = ((np.ldexp(C, -ef[:, None, None]) @ z[:, :, None])[..., 0]
                   for C in (prob.functional.C, F.C))
        ncz = np.sqrt(_dot(cz, cz))

        # restriction agreement against the original matrix data on M x [z],
        # in M's coordinates: x = d q with q orthonormal, so x' v = d (q v)
        # and ||x|| = ||d||
        k1, k2 = prob.M.dims
        k = k1 + k2
        draws = rng.standard_normal((samples, k + 2))
        ds, qs = (draws[:, :k1], draws[:, k1:k]), (prob.M.q1, prob.M.q2)
        alpha = draws[:, k:].T
        f_vals = alpha * np.array([d @ (q @ v) for d, q, v in zip(ds, qs, cz)])
        F_vals = alpha * np.array([d @ (q @ v) for d, q, v in zip(ds, qs, cFz)])
        errs = np.abs(F_vals - f_vals).max(axis=1, initial=0.0)
        scale = np.abs(alpha) * np.sqrt(np.array([_dot(d, d) for d in ds])) * ncz[:, None]
        restr_rel = _rel_err(errs, scale.max(axis=1, initial=0.0)).tolist()

        # the reference moment w' from the problem's raw data: M's rows at unit
        # length (each times its power of two first), so the rank cut is at 1,
        # in one (2, max(k1, k2), n) stack; its zero rows add zero singular
        # values, which the cut drops with the dependent ones.  Where z
        # vanishes, C z and so w' are 0.
        unit = _unit_scaled(np.concatenate((prob.M.basis1, prob.M.basis2)))[0]
        unit /= np.sqrt(_dot(unit, unit))[:, None]
        rows = np.zeros((2, max(k1, k2), n))
        rows[0, :k1], rows[1, :k2] = unit[:k1], unit[k1:]
        _, sv, vt = np.linalg.svd(_perp(z[:, None], rows), full_matrices=False)
        span = vt * ~negligible(sv, 1.0)[..., None]
        w_ref = (span.transpose(0, 2, 1) @ (span @ cz[..., None]))[..., 0]

        # brackets: each printed r, at unit scale, against the gap point <w', x'>
        rs = np.ldexp(np.array([(s.r.p, s.r.q) for s in self.steps]).reshape(-1, 2).T,
                      -efz[:, None])
        xps = np.array([s.x_prime.c for s in self.steps]).reshape(-1, 2, n).transpose(1, 0, 2)
        err = np.abs(rs - (xps @ w_ref[:, :, None])[..., 0])
        bound = RESTRICTION_TOL * ncz[:, None] * np.sqrt(_dot(xps, xps))
        brackets_ok = bool((err <= bound).all())

        # pointwise bound |f(x,z) + r|_k <=' |f| * gram(x + x', z) per step,
        # all steps in one batch.  x's coefficients on the leading rows of the
        # final orthonormal bases (the step's domain) are laid out (row,
        # component, coordinate) in the order they are drawn, and are 0 past
        # the step's dimensions, so one product per component gives every x
        q1, q2 = self.final.domain.q1, self.final.domain.q2
        nf = np.ldexp([[self.norm_f.p], [self.norm_f.q]], -ef[:, None])
        per_step = max(8, samples // max(1, len(self.steps) * 4))
        dims = np.cumsum([(k1, k2)] + [s.grew for s in self.steps], axis=0)[:-1]
        drawn = np.arange(n) < dims.repeat(per_step, axis=0)[:, :, None]
        coef = np.zeros(drawn.shape)
        coef[drawn] = rng.standard_normal(per_step * int(dims.sum()))
        xs = np.array((coef[:, 0] @ q1, coef[:, 1] @ q2))
        lhs = np.abs(_dot(xs, w[:, None]) + rs.repeat(per_step, axis=1))
        xs += xps.repeat(per_step, axis=1)  # x + x'
        rhs = nf * _gram_with_line(xs, z)
        pointwise_excess = (lhs - rhs).max(axis=1, initial=0.0)
        pointwise_ok = within(np.maximum(lhs - rhs, 0.0), rhs, SPAN)

        # F's norm on X x [z]: exact value, first-order moment, witness
        moment, got = _exact_norm(cFz, z)
        want = np.ldexp(np.abs([self.norm_F.p, self.norm_F.q]), -ef)
        rel = _rel_err(np.abs(got - want), want).tolist()
        off = moment - w_ref
        moment_rel = _rel_err(np.sqrt(_dot(off, off)), ncz).tolist()
        area = wedge_area_batch(moment, z)
        witness = np.divide(np.abs(_dot(cFz, moment)), area, out=np.zeros(2), where=~null(area))
        norm_ok = bool(
            max(rel) <= norm_rel_tol
            and max(moment_rel) <= RESTRICTION_TOL
            and within(witness - got, got)
        )

        out = {
            "restriction_max_err": np.ldexp(errs, efz).tolist(),
            "restriction_rel_err": restr_rel,
            "restriction_ok": max(restr_rel) <= RESTRICTION_TOL,
            "brackets_ok": brackets_ok,
            "pointwise_bound_excess": np.ldexp(pointwise_excess, efz).tolist(),
            "pointwise_ok": pointwise_ok,
            "norm_f": self.norm_f.to_json(),
            "norm_F": self.norm_F.to_json(),
            "norm_F_audit": Hyperbolic(*np.ldexp(got, ef)).to_json(),
            "norm_rel_err": rel,
            "moment_rel_err": moment_rel,
            "norm_F_witness": Hyperbolic(*np.ldexp(witness, ef)).to_json(),
            "norm_ok": norm_ok,
            "steps": len(self.steps),
            "repaired": self.repaired,
        }
        out["passed"] = bool(
            out["restriction_ok"] and brackets_ok and out["pointwise_ok"] and norm_ok
        )
        return out

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "final": {
                "F": self.final.as_functional().to_json(),
                "riesz1": self.final.w1.tolist(),
                "riesz2": self.final.w2.tolist(),
                "norm_f": self.norm_f.to_json(),
                "norm_F": self.norm_F.to_json(),
            },
        }


def _gram_with_line(ys: np.ndarray, z: np.ndarray) -> np.ndarray:
    """gram(y, z) = ||P y|| ||z|| for each row y of the (2, m, n) stack ys,
    P the projection onto z-perp per component (0 where z vanishes): O(n)
    per row, where the wedge sums n(n - 1)/2 cells."""
    off = _perp(z[:, None], ys)
    return np.sqrt(_dot(off, off)) * np.sqrt(_dot(z, z))[:, None]


def _rel_err(err: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """err / scale, with 0 for no error and inf for an error at zero scale."""
    out = np.where(err == 0.0, 0.0, np.inf)
    return np.divide(err, scale, out=out, where=(err != 0.0) & (scale > 0.0))


def _exact_norm(cz: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The moment P C z and the norm ||P C z|| / ||z|| on X x [z] of an
    antisymmetric-matrix functional, given the (2, n) stacks C z and z; P
    projects onto z-perp.  The norm is 0 where z vanishes, as in |f|."""
    moment = _perp(z, cz)
    nz = np.sqrt(_dot(z, z))
    return moment, np.divide(np.sqrt(_dot(moment, moment)), nz, out=np.zeros(2), where=~null(nz))


def full_extend(problem: ExtensionProblem) -> ExtensionTrace:
    """Extend f norm-preservingly to X x [z] over the standard basis.

    Every step's r is the gap point <w, x'> and w never changes, so what is
    left is which e_i each component misses: Gram-Schmidt continued from
    M's orthonormal rows over e_1 .. e_n drops exactly the e_i already
    spanned.  Step i adjoins e_i to each component that kept it (a zero part
    in the others), and the final domain is M's basis with the kept e_i
    appended.  The continued rows are bit for bit those of Gram-Schmidt over
    that basis, so the domain takes them as they are, and each step's domain
    is spanned by their leading rows.  Every z takes this path: where z
    vanishes the moment is 0, and so is every r there.  The final domain is
    always full: with fewer than n rows kept, sum_i ||P_perp e_i||^2 = n -
    rank >= 1 would leave some e_i a residual of at least 1/sqrt(n), at
    least as large when e_i was processed and so far above the SPAN cut at
    which it is dropped.
    """
    n = problem.n
    rf, M, eye = problem.restriction(), problem.M, np.eye(n)
    # per component: the final orthonormal rows, and the e_i already spanned
    (q1, drop1), (q2, drop2) = (_orthonormal_rows(eye, start=q) for q in (M.q1, M.q2))
    need = np.ones((2, n), dtype=bool)  # need[c, i]: component c misses e_i
    need[0, drop1] = need[1, drop2] = False
    steps = []
    for i in np.flatnonzero(need.any(axis=0)):
        xp = DVector._of(np.where(need[:, i, None], eye[i], 0.0))
        steps.append(ExtensionStep(xp, _gap_point(rf, xp), (bool(need[0, i]), bool(need[1, i]))))
    bases = [np.vstack([b, eye[nd]]) for b, nd in zip((M.basis1, M.basis2), need)]
    domain = DSubmodule._of(n, bases, (q1, q2))
    final = object.__new__(RestrictedFunctional)._lock(domain, rf.z, rf.w, rf._unit)
    norm = rf.norm()  # final shares rf's unit data, so final.norm() is this, bit for bit
    return ExtensionTrace(problem, steps, final=final, norm_f=norm, norm_F=norm)


def corollary_functional(x0: DVector, y0: DVector) -> tuple[RestrictedFunctional, ExtensionTrace]:
    """The norm-one functional attaining the 2-norm at an independent pair.

    f0 on [x0] x [y0] maps (alpha x0, beta y0) to alpha*beta*gram(x0, y0);
    it has norm one and is extended norm-preservingly to all of X x [y0].
    Requires x0, y0 componentwise independent (so the attained norm value is
    invertible) and neither a zero divisor.  It runs on x0 and y0 at unit
    scale, y0 so scaled generating [y0]; ValueError says when gram(x0, y0),
    of degree 1 in both, is not a double.
    """
    n = x0.n
    for v, name in ((x0, "x0"), (y0, "y0")):
        if v.is_degenerate():
            raise ZeroDivisorInput(f"{name} is zero or a zero divisor")
    (xu, ex), (yu, ey) = _unit_scaled(x0.c), _unit_scaled(y0.c)
    if np.any(_dependent_pair(xu, yu)):
        raise DependentPair("x0 and y0 are dependent in some component")
    target = D2Norm().batch(xu[:, None], yu[:, None])[:, 0]
    _scaled_back(target, ex + ey, "the 2-norm of x0 and y0")
    p0 = _perp(yu, xu)
    M, z = DSubmodule(n, x0.c1[None, :], x0.c2[None, :]), DVector._of(yu)
    f0 = RestrictedFunctional(M, z, *(p0 * (target / _dot(p0, p0))[:, None]))
    problem = ExtensionProblem(n, M, z, f0.as_functional())
    trace = full_extend(problem)
    return f0, trace


def corollary_case_table(f0, x0: DVector, y0: DVector, rng) -> list[dict]:
    """The zero-pattern cases of the attaining functional's bound.

    Enumerates scalar pairs (alpha, beta) with the four support patterns
    (e1 x e2, e1 x e1, full x full, e2 x e1) and reports the modulus of the
    value against the area of the scaled pair, the bound of a norm-one
    functional.  Per component, an excess or mismatch of at most 1e-9 times
    that bound is negligible.  Both run on x0 and y0 at unit scale.
    """
    a1, a2, b1, b2 = (float(abs(v) + 0.25) for v in rng.standard_normal(4))
    (xu, ex), (yu, ey) = _unit_scaled(x0.c), _unit_scaled(y0.c)
    x, y = DVector._of(xu), DVector._of(yu)
    patterns = [
        ("e1-alpha x e2-beta", Hyperbolic(a1, 0.0), Hyperbolic(0.0, b2), "zero"),
        ("e1-alpha x e1-beta", Hyperbolic(a1, 0.0), Hyperbolic(b1, 0.0), "equal"),
        ("full x full", Hyperbolic(a1, a2), Hyperbolic(b1, b2), "equal"),
        ("e2-alpha x e1-beta", Hyperbolic(0.0, a2), Hyperbolic(b1, 0.0), "zero"),
    ]
    rows = []
    for name, alpha, beta, expect in patterns:
        lhs = f0.evaluate(alpha * x, beta * y).modulus()
        rhs = D2Norm()(alpha * x, beta * y)
        bound = np.array([rhs.p, rhs.q])
        gap = np.array([lhs.p, lhs.q]) - bound
        rows.append({
            "case": name,
            "lhs": Hyperbolic(*np.ldexp([lhs.p, lhs.q], ex + ey)).to_json(),
            "rhs": Hyperbolic(*np.ldexp(bound, ex + ey)).to_json(),
            "expect": expect,
            "bounded": within(np.maximum(gap, 0.0), bound, SPAN),
            "matched": within([lhs.p, lhs.q] if expect == "zero" else gap, bound, SPAN),
        })
    return rows


# -- independent gap estimators ---------------------------------------------


def _gap_objectives(problem: ExtensionProblem, x_prime: DVector) -> list[tuple]:
    """Per component, the two batched gap objectives and the domain dimension k.

    An objective maps coefficient rows c of x = c q, q the domain
    component's orthonormal basis, to |f| * gram(x + x', z) -+ f(x, z).  The
    minimum of the first (- f) is m; the negated minimum of the second (+ f)
    is m0.
    """
    cz = (problem.functional.C @ problem.z.c[:, :, None])[..., 0]
    norm_f = problem.restriction().norm()

    def objective(q, z, xp, cz_q, nf, sign):
        def value(coeffs: np.ndarray) -> np.ndarray:
            xs = coeffs @ q + xp
            grams = wedge_area_batch(xs, np.broadcast_to(z, xs.shape))
            return nf * grams - sign * (coeffs @ cz_q)

        return value

    out = []
    for q, z, xp, czc, nf in zip(
        (problem.M.q1, problem.M.q2), problem.z.c, x_prime.c, cz, (norm_f.p, norm_f.q)
    ):
        data = (q, z, xp, q @ czc, nf)
        out.append((objective(*data, +1.0), objective(*data, -1.0), q.shape[0]))
    return out


def _radial_min(objective, dirs: np.ndarray) -> np.ndarray:
    """Golden-section radial minimum per direction (convex along each ray),
    90 steps over radii up to 1e7, since the infimum may be approached only
    along an escaping ray."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    m = dirs.shape[0]
    a = np.zeros(m)
    b = np.full(m, 1e7)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = objective(dirs * c[:, None])
    fd = objective(dirs * d[:, None])
    for _ in range(90):
        right = fc > fd
        a = np.where(right, c, a)
        b = np.where(right, b, d)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = objective(dirs * c[:, None])
        fd = objective(dirs * d[:, None])
    tau = (a + b) / 2.0
    vals = objective(dirs * tau[:, None])
    at_zero = objective(np.zeros_like(dirs[:1]))[0]
    return np.minimum(vals, at_zero)


def _grid_min(objective, k: int) -> float:
    """Radial line searches along directions on S^(k-1), with zooming.

    Each round draws normalised standard-normal rows about a centre: first
    0 (uniform on the sphere), then the best direction so far at a smaller
    spread.
    """
    best = float(objective(np.zeros((1, k)))[0])
    if k == 0:
        return best
    center = np.zeros(k)
    rng = np.random.default_rng(7)
    for j in range(4):
        dirs = center + 0.05**j * rng.standard_normal((600 if j else 800, k))
        # normalised, and each direction once: for k = 1 the sphere is {-1, 1}
        dirs = np.unique(dirs / np.linalg.norm(dirs, axis=1, keepdims=True), axis=0)
        vals = _radial_min(objective, dirs)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, center = float(vals[i]), dirs[i]
        if k == 1:
            break  # S^0 = {-1, 1}: the first round has seen both directions
    return best


def gap_interval_grid(problem: ExtensionProblem, x_prime: DVector) -> tuple[Hyperbolic, Hyperbolic]:
    """Direction-search oracle for the gap endpoints (checked for dimensions <= 3)."""
    los, his = [], []
    for obj_m, obj_m0, k in _gap_objectives(problem, x_prime):
        his.append(_grid_min(obj_m, k))
        los.append(-_grid_min(obj_m0, k))
    return Hyperbolic(los[0], los[1]), Hyperbolic(his[0], his[1])
