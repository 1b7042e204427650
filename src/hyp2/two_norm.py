"""Real 2-norms and their hyperbolic-valued lift on D^n.

A real 2-norm measures the parallelogram spanned by two vectors.  In code it
is a function of two (m, n) stacks of vectors that returns the (m,) values,
row by row.  The shipped instance, wedge_area_batch, is the Euclidean area
sqrt(|x|^2 |y|^2 - <x,y>^2), evaluated through the wedge coordinates
sum_{i<j} (x_i y_j - x_j y_i)^2: the same value by the Lagrange identity, but
free of the cancellation the direct formula suffers near dependent pairs.
Two real 2-norms lift to a hyperbolic-valued 2-norm on D^n by evaluating one
per idempotent component; conversely, decompose splits any hyperbolic-valued
2-norm into its two coordinate 2-norms.  axiom_check probes the four
defining axioms on random samples plus adversarial corners and reports the
worst violation per axiom.  Only these two take any hyperbolic-valued
2-norm, a black box of DVector pairs included; the rest use the area lift.

Batches of D-vector pairs are held as (2, m, n) component stacks, one plane
per idempotent component; D2Norm.batch maps a pair of stacks to the (2, m)
array of values; the area kernel streams rows in heap-reused 128 KiB blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ._tol import SPAN
from .dmodule import DimensionMismatch, DVector, _dependent_pair
from .hyperbolic import Hyperbolic


class AxiomViolation(ValueError):
    """A probed map failed a defining 2-norm axiom."""


@lru_cache(maxsize=None)
def _wedge_cols(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


_WEDGE_CELLS = 16384  #: wedge cells per block: 128 KiB of float64 per temporary


def wedge_area_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise wedge lengths for (m, n) stacks of vectors.

    Rows run in blocks of _WEDGE_CELLS cells, so no temporary exceeds 128
    KiB, glibc's default mmap threshold, and the heap reuses them; one pass
    at (2000, 8) maps 448 KiB ones and faults them in on every call.  No
    block is a lone row of many, which einsum would sum in another order, so
    every value is bit for bit that of one pass.  Silently, an area above
    about 1.34e154 reads inf and one below about 1.6e-162 reads 0, as the sum
    of squared cells over- or underflows; between, a cell below 1.5e-154
    loses bits to its subnormal square.  extend's pointwise bound and norm
    witness, corollary and norm's boundedness probes pass it only data at
    unit scale.
    """
    iu, ju = _wedge_cols(xs.shape[1])
    m, s = xs.shape[0], 0
    out = np.empty(m)
    step = max(3, _WEDGE_CELLS // max(1, len(iu)))
    while s < m:
        e = min(m, s + step - (m - s == step + 1))  # leaves two rows, not one
        w = xs[s:e, iu] * ys[s:e, ju]
        w -= xs[s:e, ju] * ys[s:e, iu]
        np.sqrt(np.einsum("bk,bk->b", w, w), out=out[s:e])
        s = e
    return out


class D2Norm:
    """Hyperbolic-valued 2-norm on D^n lifted from two real 2-norms, one per
    idempotent component; a slot left as None is the area, wedge_area_batch."""

    __slots__ = ("norm1", "norm2")

    def __init__(self, norm1: Callable | None = None, norm2: Callable | None = None):
        # the module global is read here, not bound on the class, so a
        # wrapper installed on wedge_area_batch sees every call
        self.norm1 = norm1 if norm1 is not None else wedge_area_batch
        self.norm2 = norm2 if norm2 is not None else wedge_area_batch

    def __call__(self, x: DVector, y: DVector) -> Hyperbolic:
        if x.n != y.n:
            raise DimensionMismatch(f"{x.n} != {y.n}")
        return Hyperbolic(*self.batch(x.c[:, None], y.c[:, None])[:, 0])

    evaluate = __call__

    def batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Values on (2, m, n) component stacks of pairs, as a (2, m) array."""
        return np.stack((self.norm1(xs[0], ys[0]), self.norm2(xs[1], ys[1])))


def decompose(norm_fn, n: int):
    """Split a black-box hyperbolic-valued 2-norm into its coordinate 2-norms.

    Returns (phi, psi) with norm(x, y) = e1*phi(e1x, e1y) + e2*psi(e2x, e2y);
    phi and psi are simply the p/q coordinates of the evaluation, which is
    exactly the reconstruction the coordinate split guarantees.  Each
    component is judged on its own scale, its value at (e_1, e_2), which must
    be a positive normal double; so a positive multiple of a component keeps
    the verdict, a rescaling of its axes need not.  axiom_check probes the
    map divided by that value on 8 samples (rng 0) and its corners, and
    AxiomViolation names every axiom whose worst violation exceeds SPAN.
    """
    e = [DVector.from_components(v, v) for v in np.eye(n)[:2]]
    unit = norm_fn(e[0], e[-1])
    if not all(np.finfo(float).tiny <= v < np.inf for v in (unit.p, unit.q)):
        raise AxiomViolation(f"the map fails 2-norm axiom i: its value at (e_1, e_2) is {unit}")
    inv = Hyperbolic(1.0 / unit.p, 1.0 / unit.q)
    report = axiom_check(lambda x, y: norm_fn(x, y) * inv, n, samples=8, rng=0)
    failed = [k for k, v in report.worst.items() if not v <= SPAN]
    if failed:
        raise AxiomViolation(f"the map fails 2-norm axioms {failed}: worst {report.worst}")

    def phi(x: DVector, y: DVector) -> float:
        return norm_fn(x, y).p

    def psi(x: DVector, y: DVector) -> float:
        return norm_fn(x, y).q

    return phi, psi


@dataclass
class AxiomReport:
    """Worst observed violation per 2-norm axiom over a sample run."""

    n: int
    samples: int
    worst: dict[str, float] = field(default_factory=dict)

    def passed(self, tol: float = SPAN) -> bool:
        return all(v <= tol for v in self.worst.values())

    def to_json(self, tol: float = SPAN) -> dict:
        out: dict = dict(sorted(self.worst.items()))
        out["n"] = self.n
        out["samples"] = self.samples
        out["tol"] = tol
        out["passed"] = self.passed(tol)
        return out


def _split_draws(draws: np.ndarray, n: int, vectors: int) -> list[np.ndarray]:
    """Split a draw block whose rows hold `vectors` D-vectors (x1 x2, n
    columns each) and then scalars (p q) into (2, m, n) vector stacks and
    (2, m) scalar stacks."""
    m, k = draws.shape[0], 2 * n * vectors
    vecs = draws[:, :k].reshape(m, vectors, 2, n).transpose(1, 2, 0, 3)
    scalars = draws[:, k:].reshape(m, (draws.shape[1] - k) // 2, 2).transpose(1, 2, 0)
    return [*vecs, *scalars]


def _worst(*parts: np.ndarray) -> float:
    """Largest entry of the parts, and at least 0.0; a NaN entry gives NaN."""
    flat = np.concatenate([np.ravel(p) for p in parts])
    return float(np.max(flat, initial=0.0)) + 0.0  # + 0.0 turns -0.0 into 0.0


#: (p, q) columns of the corner scalars of the homogeneity probe: k, e1,
#: e2, -1, 0 and two more zero divisors.
_CORNER_SCALARS = [
    np.array([[p], [q]], dtype=float)
    for p, q in ((1, -1), (1, 0), (0, 1), (-1, -1), (0, 0), (3, 0), (0, -0.25))
]


def axiom_check(
    norm_fn,
    n: int,
    samples: int = 1000,
    rng: np.random.Generator | int | None = None,
) -> AxiomReport:
    """Probe the four 2-norm axioms on random samples plus targeted corners.

    Axioms: (i) vanishes exactly on dependent pairs, (ii) symmetry,
    (iii) modulus-homogeneity in the first slot, (iv) subadditivity in the
    first slot.  Corners include zero-divisor scalars, k itself and aligned
    (dependent) first-slot pairs, which are where broken norms hide.

    Each probe is evaluated for all samples at once on (2, m, n) component
    stacks, through the norm's `batch` when it has one.  Draws: one
    (samples, 6n + 4) standard-normal block, per row x1 x2 y1 y2 z1 z2, the
    scalar alpha of the dependent pairs, then the random homogeneity scalar;
    this is the stream of drawing sample after sample.  A NaN value counts
    as a violation.  Under (i), a value <= 0 in a component where the pair
    is independent counts as a violation of 1 + |value|, so a map that
    vanishes on independent pairs fails at every tolerance below 1.
    """
    evaluate = getattr(norm_fn, "batch", None)
    if evaluate is None:  # a black box: one DVector pair per row

        def evaluate(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
            out = np.empty(xs.shape[:2])
            for i in range(xs.shape[1]):
                v = norm_fn(DVector._of(xs[:, i].copy()), DVector._of(ys[:, i].copy()))
                out[:, i] = v.p, v.q
            return out

    rng = np.random.default_rng(rng if rng is not None else 0)
    x, y, z, alpha, scalar = _split_draws(rng.standard_normal((samples, 6 * n + 4)), n, 3)

    # (i) dependent pairs (x, s x) must evaluate to zero, for s = alpha,
    # e1 alpha and e2 alpha; independent pairs must not go negative, and
    # must be positive in each component where they are independent
    factors = (alpha, alpha * [[1.0], [0.0]], alpha * [[0.0], [1.0]])
    dependent = [np.abs(evaluate(x, s[..., None] * x)) for s in factors]
    base = evaluate(x, y)
    split_dependent = _dependent_pair(x, y)
    independent = ~np.all(split_dependent, axis=0)
    vanishing = np.where(~split_dependent & (base <= 0.0), 1.0 + np.abs(base), 0.0)
    worst_i = _worst(*dependent, -np.min(base[:, independent], axis=0), vanishing)

    # (ii) symmetry
    worst_ii = _worst(np.abs(base - evaluate(y, x)))

    # (iii) modulus homogeneity, random and corner scalars
    worst_iii = _worst(*(
        np.abs(evaluate(s[..., None] * x, y) - np.abs(s) * base)
        for s in [scalar, *_CORNER_SCALARS]
    ))

    # (iv) subadditivity, random triple plus aligned first-slot corners
    triples = ((x, y, z), (x, x, z), (x, 2.0 * x, z), (x, 0.5 * x, y))
    gaps = [evaluate(a + b, c) - evaluate(a, c) - evaluate(b, c) for a, b, c in triples]
    worst_iv = _worst(*gaps)

    worst = {"i": worst_i, "ii": worst_ii, "iii": worst_iii, "iv": worst_iv}
    return AxiomReport(n=n, samples=samples, worst=worst)
