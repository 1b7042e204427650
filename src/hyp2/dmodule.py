"""The free module D^n over the split-complex scalars, with submodules.

Every element splits uniquely as x = e1*x1 + e2*x2 with real coordinate
vectors x1, x2, and the scalar action, submodule structure and all norms
decouple along that split.  DVector therefore stores the two real vectors
as one read-only (2, n) component stack `c`, with the rows `c1` and `c2` as
views, and each module operation is one array call over the leading axis;
DSubmodule stores one real spanning set per component (the two spans may
differ in dimension).

Dot products and lengths over the last axis go through `_dot`, a stacked
`@` that gives the same bits as one `@` per row.  A residual off a line is
`_perp`.  Rank and span membership are the drop test of one Gram-Schmidt
(`_orthonormal_rows`, classical Gram-Schmidt with a second pass, two
products per pass): a residual against the length of the row tested.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ._tol import SPAN, negligible, null, order
from .hyperbolic import Hyperbolic, _as_scalar, _coerce


class DimensionMismatch(ValueError):
    """Operands live in free modules of different dimension."""


class AlreadyContained(ValueError):
    """Attempt to extend a submodule by a vector it already contains."""


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones.

    A stacked `@` of (1, n) rows by (n, 1) columns: bit for bit the value
    of one `a_i @ b_i` per row, which einsum and sum-of-products are not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _perp(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Part of v orthogonal to z, row-wise over the last axis (v itself
    where z = 0)."""
    nz2 = _dot(z, z)[..., None]
    vanish = null(nz2)
    return np.where(vanish, v, v - z * (_dot(z, v)[..., None] / np.where(vanish, 1.0, nz2)))


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 2^-e and e: per index of the leading axis, e is the exponent of the
    largest |entry| over the trailing axes (0 if they are all 0), so that entry
    lies in [1/2, 1).  Exact while no entry falls below 2^-1022."""
    e = np.frexp(np.max(np.abs(a), axis=tuple(range(1, a.ndim)), initial=0.0))[1]
    return np.ldexp(a, -e.reshape(e.shape + (1,) * (a.ndim - 1))), e


def _scaled_back(a: np.ndarray, e: np.ndarray, name: str) -> np.ndarray:
    """a * 2^e per index of the leading axis, undoing `_unit_scaled`; ValueError
    names the answer unless each index's largest |entry| survives a round trip."""
    top = np.max(np.abs(a.reshape(len(a), -1)), axis=1)
    with np.errstate(over="ignore"):  # an overflow reads as inf, which fails the trip
        if not np.array_equal(np.ldexp(np.ldexp(top, e), -e), top):
            raise ValueError(f"{name} is not representable as a double at this scale")
    return np.ldexp(a, e.reshape(e.shape + (1,) * (a.ndim - 1)))


def _flat(data, n: int | None = None) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a flat real vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"expected length {n}, got {arr.shape[0]}")
    return arr


def _dimension(value) -> int:
    """A dimension read from JSON: an integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"dimension n must be a JSON integer, got {value!r}")
    return value


def _rows(data, n: int) -> np.ndarray:
    """A basis as a (k, n) array: finite rows of length n, or no rows."""
    arr = np.array(data, dtype=float)
    if arr.shape[1:] != (n,) and arr.shape != (0,):
        raise DimensionMismatch(f"a basis must be a list of rows of length {n}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("submodule basis has a non-finite entry")
    return arr.reshape(-1, n)


class DVector:
    """Element of D^n held as the (2, n) stack of its idempotent split.

    `c` is read-only; `c1` and `c2` are its two rows.
    """

    __slots__ = ("c", "c1", "c2")

    def __init__(self, coords: Iterable[Hyperbolic]):
        coords = [_coerce(c) for c in coords]
        self._lock(np.array([[c.p for c in coords], [c.q for c in coords]], dtype=float))

    def _lock(self, c: np.ndarray) -> None:
        c.setflags(write=False)
        self.c = c
        self.c1, self.c2 = c

    @classmethod
    def _of(cls, c: np.ndarray) -> "DVector":
        """Wrap a fresh (2, n) float stack that nothing else holds."""
        self = object.__new__(cls)
        self._lock(c)
        return self

    @classmethod
    def from_components(cls, x1, x2) -> "DVector":
        """Join two real coordinate vectors back into one element of D^n."""
        x1 = _flat(x1)
        return cls._of(np.array((x1, _flat(x2, n=x1.shape[0]))))

    @classmethod
    def zero(cls, n: int) -> "DVector":
        return cls.from_components(np.zeros(n), np.zeros(n))

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.c1.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Hyperbolic:
        return Hyperbolic(self.c1[i], self.c2[i])

    def coords(self) -> list[Hyperbolic]:
        return [self[i] for i in range(self.n)]

    def e1_part(self) -> "DVector":
        return DVector.from_components(self.c1, np.zeros(self.n))

    def e2_part(self) -> "DVector":
        return DVector.from_components(np.zeros(self.n), self.c2)

    # -- module operations -------------------------------------------------

    def _check_same(self, other: "DVector") -> None:
        if not isinstance(other, DVector):
            raise TypeError(f"expected a DVector, got {type(other).__name__}")
        if other.n != self.n:
            raise DimensionMismatch(f"{self.n} != {other.n}")

    def __add__(self, other: "DVector") -> "DVector":
        self._check_same(other)
        return DVector._of(self.c + other.c)

    def __sub__(self, other: "DVector") -> "DVector":
        self._check_same(other)
        return DVector._of(self.c - other.c)

    def __neg__(self) -> "DVector":
        return DVector._of(-self.c)

    def __mul__(self, alpha) -> "DVector":
        alpha = _as_scalar(alpha)
        if alpha is None:
            return NotImplemented
        # scalar action splits: (alpha*x)_l = alpha_l * x_l
        return DVector._of(np.array([[alpha.p], [alpha.q]]) * self.c)

    __rmul__ = __mul__

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        """Every entry is 0."""
        return not np.any(self.c)

    def is_zero_divisor(self) -> bool:
        """Exactly one component is 0 in every entry: the test the engine applies to z."""
        return bool(np.any(self.c1) != np.any(self.c2))

    def is_degenerate(self) -> bool:
        """Zero or a zero divisor: some component is 0 in every entry."""
        return not np.all(np.any(self.c, axis=1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DVector):
            return NotImplemented
        return other.n == self.n and all(order(self.c.tolist(), other.c.tolist()))

    def __repr__(self) -> str:
        return f"DVector(c1={self.c1.tolist()}, c2={self.c2.tolist()})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.coords()]

    @classmethod
    def from_json(cls, obj) -> "DVector":
        if not isinstance(obj, list):
            raise ValueError(f"expected a list of scalar objects, got {obj!r}")
        return cls([Hyperbolic.from_json(c) for c in obj])


def _dependent_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real dependence: u or v zero, or v's residual off u's line negligible beside ||v||.

    Row-wise over the last axis: a (m, n) pair of stacks gives m verdicts.
    """
    resid = _perp(u, v)
    nv = np.sqrt(_dot(v, v))
    return null(_dot(u, u)) | null(nv) | negligible(np.sqrt(_dot(resid, resid)), nv, SPAN)


def linear_dependent(x: DVector, y: DVector) -> bool:
    """Dependence over D: real dependence in both idempotent components.

    This is the reading forced by the 2-norm axiom that the norm vanishes
    exactly on dependent pairs: the lifted norm vanishes iff both component
    pairs are dependent over the reals, tested at unit scale.
    """
    x._check_same(y)
    return bool(np.all(_dependent_pair(_unit_scaled(x.c)[0], _unit_scaled(y.c)[0])))


def _orthonormal_rows(
    basis: np.ndarray, rel: float = SPAN, length: float | None = None, start: np.ndarray = ()
) -> tuple[np.ndarray, list[int]]:
    """Gram-Schmidt with a relative residual tolerance.

    Returns the orthonormal rows kept and the indices of the input rows
    dropped because their residual is at most rel * ||row||, or rel *
    length when the rows are projections of rows of that length.  Each row
    is projected off all the rows kept so far in two products, (q @ w) @ q,
    and then once more: classical Gram-Schmidt run twice, which keeps the
    rows orthogonal to rounding ("twice is enough").  It is prefix-stable,
    so continuing from `start`, the rows kept from earlier input, gives bit
    for bit the result of the whole input.
    """
    k = len(start)
    q = np.empty((k + len(basis), basis.shape[1]))
    if k:
        q[:k] = start
    dropped: list[int] = []
    for i, v in enumerate(basis):
        kept = q[:k]
        w = v - (kept @ v) @ kept
        w -= (kept @ w) @ kept  # the second pass keeps the rows numerically orthogonal
        norm = np.sqrt(w.dot(w))
        if negligible(norm, np.sqrt(v.dot(v)) if length is None else length, rel):
            dropped.append(i)
        else:
            q[k] = w / norm
            k += 1
    return q[:k], dropped


class DSubmodule:
    """Submodule of D^n given by one real spanning set per component.

    Represents e1*span(basis1) + e2*span(basis2).  Each basis is required
    to be linearly independent over the reals; orthonormalized copies, by
    Gram-Schmidt on each row times its own power of two (`_unit_scaled`, which
    commutes with every step: M's scale moves no bit), test membership of v scaled alike.
    """

    __slots__ = ("n", "basis1", "basis2", "q1", "q2")

    def __init__(self, n: int, basis1: Sequence, basis2: Sequence):
        bases = [_rows(b, int(n)) for b in (basis1, basis2)]
        (q1, drop1), (q2, drop2) = (_orthonormal_rows(_unit_scaled(b)[0]) for b in bases)
        if drop1 or drop2:
            raise ValueError(
                "submodule basis is not linearly independent: "
                f"basis row {(drop1 or drop2)[0]} is dependent on the earlier rows"
            )
        self._lock(int(n), bases, (q1, q2))

    def _lock(self, n: int, bases: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> None:
        for arr in (*bases, *qs):
            arr.setflags(write=False)
        self.n, (self.basis1, self.basis2), (self.q1, self.q2) = n, bases, qs

    @classmethod
    def _of(cls, n: int, bases: Sequence[np.ndarray], qs: Sequence[np.ndarray]) -> "DSubmodule":
        """Wrap fresh bases with their Gram-Schmidt rows, already computed."""
        self = object.__new__(cls)
        self._lock(n, bases, qs)
        return self

    @classmethod
    def zero(cls, n: int) -> "DSubmodule":
        return cls(n, np.zeros((0, n)), np.zeros((0, n)))

    @classmethod
    def full(cls, n: int) -> "DSubmodule":
        return cls(n, np.eye(n), np.eye(n))

    @property
    def dims(self) -> tuple[int, int]:
        return self.q1.shape[0], self.q2.shape[0]

    def is_full(self) -> bool:
        return self.dims == (self.n, self.n)

    def component_contains(self, comp: int, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"expected a vector of length {self.n}")
        return bool(_orthonormal_rows(_unit_scaled(v[None])[0], start=(self.q1, self.q2)[comp])[1])

    def contains(self, x: DVector) -> bool:
        if x.n != self.n:
            raise DimensionMismatch(f"{x.n} != {self.n}")
        return self.component_contains(0, x.c1) and self.component_contains(1, x.c2)

    def extend(self, x: DVector) -> "DSubmodule":
        """Adjoin a generator: augment each component basis whose span misses it.

        Raises AlreadyContained when the vector lies in the submodule.
        """
        if x.n != self.n:
            raise DimensionMismatch(f"{x.n} != {self.n}")
        grow1 = not self.component_contains(0, x.c1)
        grow2 = not self.component_contains(1, x.c2)
        if not (grow1 or grow2):
            raise AlreadyContained("vector already lies in the submodule")
        b1 = np.vstack([self.basis1, x.c1[None, :]]) if grow1 else self.basis1
        b2 = np.vstack([self.basis2, x.c2[None, :]]) if grow2 else self.basis2
        return DSubmodule(self.n, b1, b2)

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> DVector:
        """Random element with standard-normal coefficients per component."""
        k1, k2 = self.dims
        x1 = (rng.standard_normal(k1) * scale) @ self.q1
        x2 = (rng.standard_normal(k2) * scale) @ self.q2
        return DVector.from_components(x1, x2)

    def __repr__(self) -> str:
        return f"DSubmodule(n={self.n}, dims={self.dims})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis1": [row.tolist() for row in self.basis1],
            "basis2": [row.tolist() for row in self.basis2],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DSubmodule":
        if not isinstance(obj, dict) or not {"n", "basis1", "basis2"} <= set(obj):
            raise ValueError("submodule object needs n, basis1 and basis2 keys")
        return cls(_dimension(obj["n"]), obj["basis1"], obj["basis2"])
