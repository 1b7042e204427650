"""Bounded 2-functionals on D^n as antisymmetric component matrices.

A map f(x, y) = e1*(x1' C1 y1) + e2*(x2' C2 y2) with antisymmetric C1, C2 is
biadditive, scalar-bihomogeneous, and vanishes on dependent pairs; with the
Euclidean area 2-norm these are exactly the bounded 2-functionals on D^n, and
the operator norm of each component equals the largest singular value of its
matrix.  The two matrices are held as one read-only (2, n, n) stack `C`, so
evaluation, scaling and the spectral norm are single array calls.  Two
independent norm computations are provided: the spectral value (exact, by
SVD) and a randomized supremum search polished by alternating ascent, which
uses C only through products (a lower estimate that converges).

The search samples each component from its own RNG substream.  One fill of
a + b rows, a and b near sqrt(budget), gives an a x b grid of pairs, and the
first `budget` cells are scored as |f| / area by two small matrix products
per chunk of gathered rows, in two reused buffers, on C * 2^-e with e the
exponent of C's largest entry (exact).  A pair is thin when its area is at
most THIN; the squared area is clamped at THIN_SQ, the largest double whose
rounded root is THIN, so a thin pair's area reads exactly THIN, and a thin
winner is struck out and the chunk's maximum taken again.  No cell of row x
scores above |x'C|, as x'C is orthogonal to x, so rows are visited largest
bound first and the scan stops at the first whose bound falls short of the
best score.  The first cell in row-major order within 2 SCORE_SLACK of the
largest bound wins, else the first of largest score, whatever the order of
the visit.  The polish climbs from that pair and reports |x'Cy| at an
orthonormal pair spanning its last plane: a pair of unit area, so the value
is the paper's supremum over unit-area pairs, with no area to measure.  Both
components are sampled and polished on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tol import ROUND, SCORE_SLACK, SPAN, THIN, THIN_SQ, negligible, null, within
from .dmodule import DimensionMismatch, DVector, _unit_scaled
from .hyperbolic import Hyperbolic, _as_scalar
from .two_norm import _WEDGE_CELLS, D2Norm, _split_draws


def _as_antisymmetric(mat, n: int | None = None) -> np.ndarray:
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"expected {n}x{n}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has a non-finite entry")
    sym = float(np.max(np.abs(arr + arr.T), initial=0.0))
    size = float(np.max(np.abs(arr), initial=0.0))
    if not negligible(sym, size):
        raise ValueError(
            f"matrix is not antisymmetric: max |C + C^T| entry = {sym:.3e}"
            f" > {ROUND:g} * max |C| entry = {ROUND * size:.3e}"
        )
    arr.setflags(write=False)
    return arr


class DBilinear2Functional:
    """A bounded 2-functional on D^n x D^n, one antisymmetric matrix per component.

    `C` is the read-only (2, n, n) stack; `C1` and `C2` are its two planes.
    The stack keeps each matrix's memory order (a transposed matrix stays
    Fortran-ordered), because that order decides how BLAS sums C @ z.
    """

    __slots__ = ("C", "C1", "C2")

    def __init__(self, C1, C2):
        C1 = _as_antisymmetric(C1)
        self._lock(np.stack((C1, _as_antisymmetric(C2, n=C1.shape[0]))))

    def _lock(self, C: np.ndarray) -> None:
        C.setflags(write=False)
        self.C = C
        self.C1, self.C2 = C

    @classmethod
    def _of(cls, C: np.ndarray) -> "DBilinear2Functional":
        """Wrap a fresh (2, n, n) stack of finite, exactly antisymmetric
        matrices that nothing else holds."""
        self = object.__new__(cls)
        self._lock(C)
        return self

    @classmethod
    def zero(cls, n: int) -> "DBilinear2Functional":
        return cls(np.zeros((n, n)), np.zeros((n, n)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator | int | None = None) -> "DBilinear2Functional":
        rng = np.random.default_rng(rng)
        a1 = rng.standard_normal((n, n))
        a2 = rng.standard_normal((n, n))
        return cls((a1 - a1.T) / 2.0, (a2 - a2.T) / 2.0)

    @property
    def n(self) -> int:
        return self.C1.shape[0]

    def __call__(self, x: DVector, y: DVector) -> Hyperbolic:
        if x.n != self.n or y.n != self.n:
            raise DimensionMismatch(f"functional on D^{self.n} applied to D^{x.n} x D^{y.n}")
        return Hyperbolic(*(x.c[:, None, :] @ self.C @ y.c[:, :, None])[:, 0, 0])

    def __mul__(self, alpha) -> "DBilinear2Functional":
        alpha = _as_scalar(alpha)
        if alpha is None:
            return NotImplemented
        return DBilinear2Functional(*(np.array([alpha.p, alpha.q])[:, None, None] * self.C))

    __rmul__ = __mul__

    def k_parts(self):
        """Real and k-part (phi, psi) of the evaluation: f = phi + k*psi.

        phi = (f1 + f2)/2 and psi = (f1 - f2)/2 on the split coordinates;
        they satisfy phi(kx, y) = psi(x, y) and psi(kx, y) = phi(x, y).
        """

        def phi(x: DVector, y: DVector) -> float:
            v = self(x, y)
            return (v.p + v.q) / 2.0

        def psi(x: DVector, y: DVector) -> float:
            v = self(x, y)
            return (v.p - v.q) / 2.0

        return phi, psi

    def __repr__(self) -> str:
        return f"DBilinear2Functional(n={self.n})"

    # -- JSON ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"C1": self.C1.tolist(), "C2": self.C2.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "DBilinear2Functional":
        if not isinstance(obj, dict) or not {"C1", "C2"} <= set(obj):
            raise ValueError("functional object needs C1 and C2 keys")
        return cls(obj["C1"], obj["C2"])


@dataclass
class NormCertificate:
    """An operator-norm bound with the pair of vectors that (nearly) attains it,
    and the method that found it: "spectral" or "brute_force"."""

    value: Hyperbolic
    witness: tuple[DVector, DVector]
    method: str

    def to_json(self) -> dict:
        x, y = self.witness
        return {
            "value": self.value.to_json(),
            "witness_x": x.to_json(),
            "witness_y": y.to_json(),
            "method": self.method,
        }


def norm_spectral(f: DBilinear2Functional) -> NormCertificate:
    """Exact operator norm w.r.t. the area 2-norm: top singular value per component.

    For antisymmetric C, |x' C y| <= sigma_max(C) * area(x, y) with equality
    at the top singular pair (project y orthogonal to x; x' C x = 0), so the
    supremum of the modulus over unit-area pairs is exactly sigma_max.  One
    SVD of the (2, n, n) stack times 2^-e, e the exponent of each
    component's largest entry, and sigma_max scaled back by 2^e, so the value
    is exactly equivariant at every scale of f; a component with sigma_max =
    0 gets the first two standard basis vectors as its witness.
    """
    C, e = _unit_scaled(f.C)
    u_mat, s, vh = np.linalg.svd(C)
    sigma = s[:, 0]
    zero = null(sigma)
    eye = np.eye(f.n)
    u = np.where(zero[:, None], eye[0], u_mat[:, :, 0])
    v = np.where(zero[:, None], eye[min(1, f.n - 1)], vh[:, 0, :])
    value = Hyperbolic(*np.where(zero, 0.0, np.ldexp(sigma, e)))
    return NormCertificate(value, (DVector._of(u), DVector._of(v)), "spectral")


def _plane_representative(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair spanning the plane of u and v (the ratio is plane-invariant).
    The pair is never thin: the sampler's winner or (e1, e2), or a climb step's."""
    uu = u / math.sqrt(u @ u)
    w = v - uu * float(uu @ v)
    return uu, w / math.sqrt(w @ w)


_CLIMB_STEPS = 1000  #: the polish's step cap
_FIRST_ROWS = 8  #: rows of the sampler's first chunk, those of largest bound


def _climb_component(
    C: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Alternating ascent on orthonormal pairs: u <- Cv/|Cv|, then v <- C'u/|C'u|.

    With one slot fixed, each half-step is the exact maximiser of the ratio
    over the other, and it is orthogonal to the fixed slot (v'Cv = 0), so the
    value |C'u| never falls.  A step that gains at most ROUND relative, or
    step _CLIMB_STEPS, ends the ascent.  C enters through products only, never
    an SVD or eig, so the polish stays independent of `norm_spectral`.  A
    length is sqrt(v @ v): the ddot of `np.linalg.norm` without its call
    overhead, and the same bits, as both square roots are correctly rounded.
    The value is |u'Cv| at the orthonormal representative of the last plane,
    whose area is 1 by construction (the supremum over unit-area pairs), so
    the printed value is measured at the printed witness.
    """
    u, v = _plane_representative(u, v)
    value = float(abs(np.einsum("j,j->", u @ C, v)))
    for _ in range(_CLIMB_STEPS):
        cv = C @ v
        size = math.sqrt(cv @ cv)
        if null(size):  # C vanishes on v: no direction to climb
            break
        u = cv / size
        ctu = u @ C
        reached = math.sqrt(ctu @ ctu)
        v = ctu / reached
        if negligible(reached - value, value):
            break
        value = reached
    u, v = _plane_representative(u, v)
    return float(abs(np.einsum("j,j->", u @ C, v))), u, v


def _sample_component(
    C: np.ndarray, budget: int, rng: np.random.Generator
) -> tuple[float, np.ndarray, np.ndarray]:
    """Best of `budget` sampled pairs of one component, before the climb.

    One `(a + b, n)` fill, a = ceil(sqrt(budget)) and b = ceil(budget / a),
    normalised by rows: the first a rows are `xs`, the other b are `ys`, and
    cell (i, j) of the a x b grid is the pair (xs[i], ys[j]).  The first
    `budget` cells in row-major order are scored, from `xs @ ys.T` and
    `(xs @ C) @ ys.T` on chunks of gathered rows of at most _WEDGE_CELLS
    cells, into two buffers allocated once per call (at most 128 KiB each
    below budget 2^26): `den` = sqrt(max(1 - <x,y>^2, THIN_SQ)) and `scores`
    = |f| / den.  The winner, a pair of unit rows as drawn, is the first
    cell in row-major order wider than THIN whose score is above 0 and
    reaches top = B / (1 + 2 SCORE_SLACK), B the largest row bound, else the
    first of largest score wider than THIN (a thin cell's den reads THIN).

    Row i scores at most bound[i] = (|x'C| + |x'Cx| / THIN)(1 + SCORE_SLACK),
    as x'Cy = <x'C, y - <x,y>x> + <x,y>x'Cx, so only the near rows, whose
    bound reaches top, can hold a cell that does.  They lead the visit by
    index, the other rows follow largest bound first, and a chunk that
    starts among the near rows returns its first cell that reaches top.
    Chunks are _FIRST_ROWS rows, then as many as fill the buffers, of rows
    whose bound reaches the best score so far; the scan stops at the first
    row whose bound does not.  A winner is compared with the best by (score,
    then row and column, lowest first), so the order of the visit moves no
    result.  The products run against a C-contiguous copy
    of ys.T: with it OpenBLAS gives a row the same bits in every chunk of two
    or more rows, whichever rows share it, where with a Fortran-ordered ys.T
    it rounds the last rows of a product apart; numpy sends a one-row product
    through gemv, so a lone row is scored with a neighbour.
    """
    n = C.shape[0]
    a = math.isqrt(budget - 1) + 1
    b = -(-budget // a)
    rows = rng.standard_normal((a + b, n))
    rows *= (1.0 / np.sqrt(np.einsum("bi,bi->b", rows, rows)))[:, None]
    xs, ys = rows[:a], rows[a:]
    both = np.stack((xs, xs @ C))  # gathered together: one product per chunk
    xcs, yt = both[1], np.ascontiguousarray(ys.T)
    bound = np.sqrt(np.einsum("bi,bi->b", xcs, xcs))
    bound += np.abs(np.einsum("bi,bi->b", xcs, xs)) / THIN
    bound *= 1.0 + SCORE_SLACK
    order = np.argsort(-bound, kind="stable")
    falling = -bound[order]  # ascending, for searchsorted
    top = bound[order[0]] / (1.0 + 2.0 * SCORE_SLACK)
    near = int(np.searchsorted(falling, -top, "right"))
    order[:near].sort()  # the rows that can reach top, by index
    # (score, -row, -column) of the best cell; a score of 0 never wins
    win, bu, bv = (0.0, 1, 0), np.eye(n)[0], np.eye(n)[min(1, n - 1)]
    step = max(2, _WEDGE_CELLS // b)
    buf = np.empty((2, min(step, a), b))
    s, size = 0, min(_FIRST_ROWS, step)
    # the next chunk: up to `size` more rows, in visit order, whose bound
    # reaches the best score so far
    while (e := min(s + size, int(np.searchsorted(falling, -win[0], "right")))) > s:
        idx = np.sort(order[s:e])
        if idx.size == 1 < a:
            idx = np.arange(2) + min(idx[0], a - 2)
        inside, s, size = s < near, e, step
        den, scores = np.matmul(both[:, idx], yt, out=buf[:, : idx.size])
        # unit rows: area^2 = 1 - <x,y>^2, clamped at THIN_SQ, so a thin
        # pair's area reads THIN; fine here because thin pairs never win and
        # the winner is re-measured by the climb
        np.square(den, out=den)
        np.subtract(1.0, den, out=den)
        np.maximum(den, THIN_SQ, out=den)
        np.sqrt(den, out=den)
        np.abs(scores, out=scores)
        np.divide(scores, den, out=scores)
        if idx[-1] == a - 1:  # cells past the budget: (a - 1) * b < budget
            scores[-1, budget - (a - 1) * b :] = -1.0
        while True:
            i, j = divmod(int(np.argmax(scores)), b)
            key = (float(scores[i, j]), -int(idx[i]), -j)
            if key <= win or den[i, j] > THIN:
                break
            scores[i, j] = -1.0
        # a chunk of near rows whose best cell reaches top: its first such cell wins
        if inside and key[0] > 0.0 and key[0] >= top:
            hit = (scores >= top) & (den > THIN)  # top > 0: no score exceeds its bound
            i, j = divmod(int(np.argmax(hit)), b)
            return float(scores[i, j]), xs[idx[i]], ys[j]
        if key > win:
            win, bu, bv = key, xs[idx[i]], ys[j]
    return win[0], bu, bv


def norm_bruteforce(
    f: DBilinear2Functional,
    budget: int = 20000,
    seed: int = 0,
    formula: str = "quotient",
) -> NormCertificate:
    """Sampled supremum of |f(x,y)|_k over pairs with invertible 2-norm.

    Scores `budget` pairs per idempotent component as |f| / area, rejects
    pairs whose 2-norm component is zero or a zero divisor, then polishes
    the best pair by alternating ascent: u <- Cv/|Cv|, v <- C'u/|C'u| until
    a step gains at most ROUND relative, or for at most _CLIMB_STEPS steps,
    with no SVD or eig of C.  The value is |u'Cv| at an orthonormal witness,
    whose area is 1, and a lower estimate of the true norm.  `formula`,
    "quotient" or "unit", only picks the substream: the paper's two
    formulas, the supremum of |f| / area and of |f| over unit-area pairs,
    are equal by homogeneity, and this is one estimator of both.  A
    component runs on C * 2^-e, e the exponent of its largest entry, and its
    value is scaled back by 2^e.

    Draws: component c fills one `(a + b, n)` standard-normal block from its
    own substream `default_rng([seed, c, tag])`, tag 0 for "quotient" and 1
    for "unit", with a = ceil(sqrt(budget)) and b = ceil(budget / a); the
    scored pairs are the first `budget` cells of the grid of its first a
    rows against its other b (`_sample_component`, which ends at the first
    cell within 2 SCORE_SLACK of the largest row bound and skips the rows
    that cannot hold the best pair).  So a component's result never depends on
    the other component's data.  Both components are sampled and polished
    one after the other on the calling thread.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if formula not in ("quotient", "unit"):
        raise ValueError(f"unknown formula {formula!r}")
    tag = 0 if formula == "quotient" else 1
    results = []
    for comp, (C, e) in enumerate(zip(*_unit_scaled(f.C))):
        rng = np.random.default_rng([seed, comp, tag])
        _, bu, bv = _sample_component(C, budget, rng)
        best, bu, bv = _climb_component(C, bu, bv)
        results.append((float(np.ldexp(best, e)), bu, bv))
    (b1, u1, v1), (b2, u2, v2) = results
    witness = (DVector.from_components(u1, u2), DVector.from_components(v1, v2))
    return NormCertificate(Hyperbolic(b1, b2), witness, "brute_force")


@dataclass
class BoundednessReport:
    """Result of a sampled boundedness check |f(x,y)|_k <=' delta * norm(x,y)."""

    ok: bool
    max_excess: list[float]
    witness: tuple[DVector, DVector] | None

    def __bool__(self) -> bool:
        return self.ok


def is_bounded_check(
    f: DBilinear2Functional,
    delta: Hyperbolic,
    samples: int = 1000,
    seed: int = 0,
    tol: float = SPAN,
) -> BoundednessReport:
    """Check the area 2-norm's bound on random pairs plus the spectral witness.

    delta must lie in the nonnegative cone.  The spectral witness is always
    the first probe, so an insufficient bound is caught deterministically (a
    copy of it at a power-of-two scale would give the same verdict: the left
    side, the area and the slack all scale by that power).  A probe passes
    when each component's excess |f(x,y)| - delta * norm(x,y) is at most
    tol * delta * ||x|| * ||y||.

    All probes are evaluated at once on (2, m, n) component stacks.  Draws:
    one (samples, 4n + 2) standard-normal block, per row x1 x2 y1 y2 and the
    scalar s of the dependent corner (x, s x); this is the stream of drawing
    sample after sample.  Each component runs on C and delta times 2^-e, e
    the exponent of its C's largest entry (exact), and max_excess[c] is its
    largest excess scaled back; the witness takes component c from the first
    probe of largest excess there, in the order: the spectral witness, then
    per sample (x, y) and (x, s x).
    """
    if not delta.is_nonneg():
        raise ValueError("delta must lie in the nonnegative cone")
    rng = np.random.default_rng(seed)
    n = f.n
    x, y, s = _split_draws(rng.standard_normal((samples, 4 * n + 2)), n, 2)
    wx, wy = norm_spectral(f).witness
    # per sample (x, y), then the dependent corner (x, s x), where the bound
    # degenerates to |f| <= 0
    xs = np.concatenate((wx.c[:, None, :], np.repeat(x, 2, axis=1)), axis=1)
    ys = np.concatenate(
        (wy.c[:, None, :], np.stack((y, s[..., None] * x), axis=2).reshape(2, 2 * samples, n)),
        axis=1,
    )

    C, e = _unit_scaled(f.C)
    lhs = np.abs(np.einsum("cmi,cmi->cm", xs @ C, ys))
    d = np.ldexp([[delta.p], [delta.q]], -e[:, None])
    excess = lhs - d * D2Norm().batch(xs, ys)
    size = d * np.linalg.norm(xs, axis=-1) * np.linalg.norm(ys, axis=-1)
    ok = within(np.maximum(excess, 0.0), size, tol)
    i = np.argmax(excess, axis=1)
    witness = None if ok else (DVector._of(xs[[0, 1], i]), DVector._of(ys[[0, 1], i]))
    return BoundednessReport(ok, np.ldexp(excess[[0, 1], i], e).tolist(), witness)
