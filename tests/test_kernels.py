"""The kernels of an extension op against their earlier references.

`wedge_area_batch` streams its rows in blocks, and the audit's pointwise
bound checks all its steps in one batch, with its coefficients zero-padded
into one product per component.  Neither may move a bit: each is compared
with the code it replaces, kept here, using exact equality (NaN equal to
NaN), so a block that pairs the wrong rows or a batch that draws out of order
fails.  `_orthonormal_rows` is classical Gram-Schmidt run twice (CGS2), two
products per pass, where it was modified Gram-Schmidt run twice (MGS2), one
axpy per kept row.  The two sum in another order, so it is held to what the
change may do: the MGS2 loop's drop list, its rows within a few n u times
each row's conditioning, rows orthonormal within a few n u (which a
Gram-Schmidt that skips its second pass fails), and prefix stability bit for
bit.  The audit's O(n) area is held within a few n u of `wedge_area_batch`.
Data are drawn from numpy generators keyed by hypothesis, at scales out to
10^+-150, where squares overflow and underflow.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyp2 import DBilinear2Functional, DSubmodule, RestrictedFunctional, full_extend
from hyp2._tol import ROUND, SPAN, negligible, within
from hyp2.dmodule import _dot, _orthonormal_rows, _unit_scaled
from hyp2.hahn_banach import _gram_with_line
from hyp2.two_norm import _WEDGE_CELLS, _wedge_cols, wedge_area_batch
from test_hahn_banach import fixed_problem

U = 2.0**-53

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def reference_wedge_area_batch(xs, ys):
    """The one-shot kernel: every row at once."""
    iu, ju = _wedge_cols(xs.shape[1])
    w = xs[:, iu]
    w = w * ys[:, ju]
    w -= xs[:, ju] * ys[:, iu]
    return np.sqrt(np.einsum("bk,bk->b", w, w))


def reference_orthonormal_rows(basis, rel=SPAN, length=None):
    """The per-row MGS2 loop that CGS2 replaced (one axpy per kept row, two
    passes), before continuation.  Also returns each input row's residual
    norm and the cut it was tested against."""
    rows, dropped, resids, cuts = [], [], [], []
    for i, v in enumerate(basis):
        w = v.astype(float).copy()
        for r in rows:
            w -= r * float(r @ w)
        for r in rows:
            w -= r * float(r @ w)
        norm = float(np.linalg.norm(w))
        scale = float(np.linalg.norm(v)) if length is None else length
        resids.append(norm)
        cuts.append(rel * scale)
        if negligible(norm, scale, rel):
            dropped.append(i)
        else:
            rows.append(w / norm)
    return (np.array(rows) if rows else np.zeros((0, basis.shape[1]))), dropped, resids, cuts


def one_pass_cgs(basis, rel=SPAN):
    """Classical Gram-Schmidt without the second pass."""
    q = np.zeros((0, basis.shape[1]))
    for v in basis:
        w = v - (q @ v) @ q
        norm = np.sqrt(w @ w)
        if not negligible(norm, np.sqrt(v @ v), rel):
            q = np.vstack([q, w / norm])
    return q


def orthonormality_error(q) -> float:
    """max |Q Q' - I| over the entries."""
    return float(np.max(np.abs(q @ q.T - np.eye(len(q))), initial=0.0))


def same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def block_rows(n: int) -> int:
    return max(3, _WEDGE_CELLS // (n * (n - 1) // 2))


@st.composite
def wedge_cases(draw):
    n = draw(st.integers(2, 8))
    block = block_rows(n)
    m = draw(st.sampled_from([1, block - 1, block, block + 1, 2000]))
    return n, m, draw(st.integers(0, 2**16)), draw(st.integers(-150, 150))


class TestWedgeAreaBatch:
    @SETTINGS
    @given(case=wedge_cases(), broadcast=st.booleans(), ey=st.integers(-150, 150))
    def test_blocks_equal_one_pass(self, case, broadcast, ey):
        n, m, seed, ex = case
        rng = np.random.default_rng(seed)
        # rows spread over six decades about 10^ex and 10^ey
        xs = rng.standard_normal((m, n)) * 10.0 ** (ex + rng.uniform(-3, 3, (m, 1)))
        ys = rng.standard_normal((m, n)) * 10.0 ** (ey + rng.uniform(-3, 3, (m, 1)))
        if broadcast:  # one right slot for every row, as the audit passes z
            ys = np.broadcast_to(ys[0], xs.shape)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, want = wedge_area_batch(xs, ys), reference_wedge_area_batch(xs, ys)
        assert same(got, want)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_no_row_is_summed_alone(self, n):
        # einsum sums a (1, k) block in another order than a row of a taller
        # one, in about a fifth to two fifths of rows, so many stacks whose
        # rows would leave a lone last row are compared
        rng = np.random.default_rng(n)
        for m in (block_rows(n) + 1, 2 * block_rows(n) + 1):
            for _ in range(20):
                xs, ys = rng.standard_normal((2, m, n))
                assert same(wedge_area_batch(xs, ys), reference_wedge_area_batch(xs, ys))

    def test_empty_stack(self):
        assert wedge_area_batch(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)

    def test_peak_allocation_stays_small(self):
        # one pass at (2000, 8) peaks at about 1.7 MiB of (2000, 28) temporaries
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((2000, 8))
        ys = np.broadcast_to(rng.standard_normal(8), xs.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            wedge_area_batch(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 640 * 1024


def basis_rows(rng, n, k, eyes, near, scale):
    """k rows: standard normal, with e_i in the rows `eyes` names and, when
    `near` > 0, a last row within `near` of the span of the others."""
    basis = rng.standard_normal((k, n)) * scale
    for row, i in eyes:
        if row < k:
            basis[row] = np.eye(n)[i % n] * scale
    if near and k > 1:
        mix = rng.standard_normal(k - 1) @ basis[:-1]
        basis[-1] = mix + near * np.linalg.norm(mix) * rng.standard_normal(n) / np.sqrt(n)
    return basis


BASES = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    k=st.integers(0, 7),
    eyes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3),
    near=st.sampled_from([0.0, 1e-6, 1e-9, 1e-11, 1e-13]),
    scale=st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150]),
)


class TestOrthonormalRows:
    @SETTINGS
    @given(**BASES)
    def test_agrees_with_the_mgs2_loop(self, seed, n, k, eyes, near, scale):
        # the same drop list, but for a row whose residual lies within 1e-6
        # relative of its cut; each kept row within 4 n u times the largest
        # ||v|| / ||residual|| of the kept rows up to it, what the two
        # summation orders may differ by
        basis = basis_rows(np.random.default_rng(seed), n, min(k, n - 1), eyes, near, scale)
        for kwargs in ({}, {"rel": ROUND, "length": 1.0}):  # DSubmodule, from_matrices
            with np.errstate(all="ignore"):
                q, dropped = _orthonormal_rows(basis, **kwargs)
                q_ref, dropped_ref, resids, cuts = reference_orthonormal_rows(basis, **kwargs)
                lengths = np.linalg.norm(basis, axis=1)
            if dropped != dropped_ref:
                at_cut = {i for i, (r, c) in enumerate(zip(resids, cuts)) if abs(r - c) <= 1e-6 * c}
                assert set(dropped) ^ set(dropped_ref) <= at_cut
                continue
            kept = [i for i in range(len(basis)) if i not in dropped]
            cond = np.maximum.accumulate([lengths[i] / resids[i] for i in kept] or [1.0])
            assert q.shape == q_ref.shape
            assert np.all(np.abs(q - q_ref) <= 4 * n * U * cond[: len(kept), None])

    @SETTINGS
    @given(**BASES)
    def test_rows_are_orthonormal(self, seed, n, k, eyes, near, scale):
        # on each row times its own power of two, as DSubmodule runs it
        basis = _unit_scaled(basis_rows(np.random.default_rng(seed), n, min(k, n - 1), eyes,
                                        near, scale))[0]
        for kwargs in ({}, {"rel": ROUND, "length": 1.0}):
            q, _ = _orthonormal_rows(basis, **kwargs)
            assert orthonormality_error(q) <= 4 * n * U

    @pytest.mark.parametrize("seed", range(10))
    def test_one_pass_fails_where_the_second_pass_holds(self, seed):
        # the last row within 1e-6 of the others' span: one pass leaves it
        # about u / 1e-6 off orthogonal, the second pass brings it back
        basis = _unit_scaled(basis_rows(np.random.default_rng(seed), 8, 7, [], 1e-6, 1.0))[0]
        q, dropped = _orthonormal_rows(basis)
        assert dropped == [] and orthonormality_error(q) <= 4 * 8 * U
        assert orthonormality_error(one_pass_cgs(basis)) > 4 * 8 * U

    @SETTINGS
    @given(**BASES)
    def test_continuing_from_m_equals_one_pass(self, seed, n, k, eyes, near, scale):
        basis = basis_rows(np.random.default_rng(seed), n, min(k, n - 1), eyes, near, scale)
        eye = np.eye(n)
        with np.errstate(all="ignore"):
            q_m, dropped_m = _orthonormal_rows(basis)
            q, dropped = _orthonormal_rows(eye, start=q_m)
            q_one, dropped_one = _orthonormal_rows(np.vstack([basis, eye]))
        assert same(q, q_one)
        assert dropped_m + [i + len(basis) for i in dropped] == dropped_one

    def test_final_domain_is_not_orthonormalised_again(self, monkeypatch):
        import hyp2.dmodule
        import hyp2.hahn_banach
        from hyp2 import DBilinear2Functional, DVector, ExtensionProblem, full_extend

        rng = np.random.default_rng(5)
        n = 5
        problem = ExtensionProblem(
            n,
            DSubmodule(n, rng.standard_normal((2, n)), rng.standard_normal((1, n))),
            DVector.from_components(rng.standard_normal(n), rng.standard_normal(n)),
            DBilinear2Functional.random(n, 1),
        )
        problem.restriction()
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("start") is not None)
            return _orthonormal_rows(*args, **kwargs)

        monkeypatch.setattr(hyp2.dmodule, "_orthonormal_rows", counted)
        monkeypatch.setattr(hyp2.hahn_banach, "_orthonormal_rows", counted)
        trace = full_extend(problem)
        # one continued pass per component, over e_1 .. e_n only
        assert calls == [True, True]
        domain = trace.final.domain
        for basis, q in ((domain.basis1, domain.q1), (domain.basis2, domain.q2)):
            assert same(q, _orthonormal_rows(basis)[0])
            assert not q.flags.writeable and not basis.flags.writeable


class TestFunctionalOfTrace:
    def test_built_once_and_read_only(self, monkeypatch):
        of = DBilinear2Functional._of.__func__
        built = []

        def counted(cls, C):
            built.append(C)
            return of(cls, C)

        monkeypatch.setattr(DBilinear2Functional, "_of", classmethod(counted))
        for seed, z_kind in ((3, "full"), (4, "vanish2")):
            built.clear()
            trace = full_extend(fixed_problem(seed, 5, (2, 1), z_kind))
            F = trace.final.as_functional()
            trace.audit(samples=100)
            report = trace.to_json()
            # one object for the caller, the audit and the printed matrices
            assert trace.final.as_functional() is F and len(built) == 1
            assert report["final"]["F"] == F.to_json()
            assert not F.C.flags.writeable and not F.C1.flags.writeable
            assert np.array_equal(F.C, -F.C.transpose(0, 2, 1))
            # another functional on the same domain builds its own
            final = trace.final
            other = RestrictedFunctional(final.domain, final.z, 2.0 * final.w1, final.w2)
            assert same(other.as_functional().C[0], 2.0 * F.C[0]) and len(built) == 2


class TestGramWithLine:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_the_wedge(self, n):
        # unit-scaled rows at angles 1e-1 ... 1e-12 from z, where the
        # projection cancels most, and standard-normal rows; z full, a zero
        # divisor and zero.  ||P y|| ||z|| and the wedge sum agree within
        # 4 n u ||y|| ||z||, and both are exactly 0 where z vanishes.
        rng = np.random.default_rng(n)
        z = _unit_scaled(rng.standard_normal((2, n)))[0]
        along = (z / np.sqrt(_dot(z, z))[:, None])[:, None]
        off = rng.standard_normal((2, 12, n))
        off -= _dot(off, along)[..., None] * along
        off /= np.sqrt(_dot(off, off))[..., None]
        angles = 10.0 ** -np.arange(1.0, 13.0)
        ys = np.cos(angles)[:, None] * along + np.sin(angles)[:, None] * off
        ys = np.concatenate((ys, rng.standard_normal((2, 20, n))), axis=1)
        ys = _unit_scaled(ys.reshape(-1, n))[0].reshape(ys.shape)
        for zz in (z, z * [[1.0], [0.0]], np.zeros((2, n))):
            got = _gram_with_line(ys, zz)
            for c in range(2):
                want = wedge_area_batch(ys[c], np.broadcast_to(zz[c], ys[c].shape))
                bound = 4 * n * U * np.sqrt(_dot(ys[c], ys[c]) * _dot(zz[c], zz[c]))
                assert np.all(np.abs(got[c] - want) <= bound)
            assert same(got[1], np.zeros(len(got[1]))) == (not zz[1].any())


def reference_pointwise(trace, samples: int, seed: int) -> tuple[list, bool]:
    """The audit's pointwise bound as one loop over the steps, before the
    steps were batched: the seeded stream's restriction block is drawn
    first, as the audit draws it, then one block per step, and each step's
    x is its own product with the leading rows of the final bases.  The
    area is the audit's, `_gram_with_line`."""
    rng = np.random.default_rng(seed)
    prob = trace.problem
    z, w, ef, ez = prob.restriction()._unit
    efz = ef + ez
    k1, k2 = prob.M.dims
    rng.standard_normal((samples, k1 + k2 + 2))
    rs = np.ldexp(np.reshape([(s.r.p, s.r.q) for s in trace.steps], (-1, 2)).T, -efz[:, None])
    q1, q2 = trace.final.domain.q1, trace.final.domain.q2
    nf = np.ldexp([[trace.norm_f.p], [trace.norm_f.q]], -ef[:, None])
    per_step = max(8, samples // max(1, len(trace.steps) * 4))
    pointwise_excess, pointwise_ok = np.zeros(2), True
    for i, step in enumerate(trace.steps):
        draws = rng.standard_normal((per_step, k1 + k2))
        xs = np.stack((draws[:, :k1] @ q1[:k1], draws[:, k1:] @ q2[:k2]))
        k1, k2 = k1 + step.grew[0], k2 + step.grew[1]
        lhs = np.abs(_dot(xs, w[:, None]) + rs[:, i, None])
        rhs = nf * _gram_with_line(xs + step.x_prime.c[:, None, :], z)
        pointwise_excess = np.maximum(pointwise_excess, np.max(lhs - rhs, axis=1))
        pointwise_ok &= within(np.maximum(lhs - rhs, 0.0), rhs, SPAN)
    return np.ldexp(pointwise_excess, efz).tolist(), pointwise_ok


class TestAuditPointwise:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
        data=st.data(),
        z_kind=st.sampled_from(["full", "vanish1", "vanish2", "zero"]),
        samples=st.sampled_from([37, 1000, 9600]),
        scale=st.tuples(*[st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150])] * 3),
        low_norm=st.booleans(),
    )
    def test_batched_steps_equal_the_step_loop(self, seed, n, data, z_kind, samples, scale,
                                               low_norm):
        # 0 to 8 steps (none where M is all of D^n); a norm_f lowered by 1e-3
        # makes the bound fail
        dims = tuple(data.draw(st.integers(0, n)) for _ in range(2))
        trace = full_extend(fixed_problem(seed, n, dims, z_kind, scale))
        assert len(trace.steps) == n - min(dims)
        if low_norm:
            trace.norm_f = trace.norm_f * 0.999
        audit = trace.audit(samples=samples, seed=seed)
        excess, ok = reference_pointwise(trace, samples, seed)
        assert audit["pointwise_bound_excess"] == excess and audit["pointwise_ok"] == ok

