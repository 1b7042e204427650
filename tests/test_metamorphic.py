"""Two exact metamorphic relations of the whole CLI, asserted with no tolerance.

The idempotent split makes every D-level problem two independent real
problems, and every kernel is exactly equivariant under power-of-two scaling
while nothing over- or underflows.  So, driving `hyp2.cli.main` in process:

- Relation 1, power-of-two scaling.  Multiply each component of each input
  by its own 2^k: f's matrices C1 and C2, z's p and q parts and M's basis1
  and basis2 for `extend` and `norm`, and x0's and y0's p and q parts for
  `corollary`.  Every numeric leaf of component c must equal
  ldexp(base, sum_i degree_i * k_i[c]) exactly, with the degrees below, and
  every exit code, verdict and string must be equal.  The exponents of f and
  z, and of x0 and y0, run over the whole range where every input entry and
  every leaf stays a normal double (the engine computes at unit scale and
  scales each answer back), for `norm` as for `extend`.  M only spans, so its exponents also run over
  its whole normal range, down to where its smallest nonzero entry is
  2^-1022 and up to where its largest is just under 2^1024, and every leaf
  stays as it is.
- Relation 2, component swap.  Swap C1 <-> C2, p <-> q and basis1 <->
  basis2.  Every deterministic leaf must swap exactly: F, the Riesz vectors,
  norm_f, norm_F, norm_F_audit, spectral and each step (x', r, grew).
  Sampled leaves differ, because each component draws from its own stream.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from hyp2.cli import main

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

#: The degree of each leaf in the scales of (f, z, M), by the nearest key
#: that names it.  M only spans, and the audit's samples are drawn in M's
#: orthonormal bases, so no leaf has a degree in M.
EXTEND_DEGREES = {
    "x_prime": (0, 0, 0),
    "r": (1, 1, 0),
    "F": (1, 0, 0),
    "riesz1": (1, 1, 0),
    "riesz2": (1, 1, 0),
    "norm_f": (1, 0, 0),
    "norm_F": (1, 0, 0),
    "norm_F_audit": (1, 0, 0),
    "norm_F_witness": (1, 0, 0),
    "restriction_max_err": (1, 1, 0),
    "pointwise_bound_excess": (1, 1, 0),
    "restriction_rel_err": (0, 0, 0),
    "norm_rel_err": (0, 0, 0),
    "moment_rel_err": (0, 0, 0),
}
NORM_DEGREES = {
    "value": (1, 0, 0),
    "witness_x": (0, 0, 0),
    "witness_y": (0, 0, 0),
    "gap": (1, 0, 0),
    "max_excess": (1, 0, 0),
}
#: corollary: degrees in the scales of (x0, y0)
COROLLARY_DEGREES = {
    "f0": (0, 0),
    "f": (0, 0),
    "norm_f0": (0, 0),
    "norm_f": (0, 0),
    "value": (1, 1),
    "target": (1, 1),
    "lhs": (1, 1),
    "rhs": (1, 1),
}

#: keys that name a component, and keys whose value is a [p, q] list
COMPONENT = {"p": 0, "q": 1, "C1": 0, "C2": 1, "riesz1": 0, "riesz2": 1}
SWAP = {
    "p": "q", "q": "p", "C1": "C2", "C2": "C1", "riesz1": "riesz2", "riesz2": "riesz1",
    "basis1": "basis2", "basis2": "basis1",
}
PAIRS = {
    "restriction_max_err", "restriction_rel_err", "pointwise_bound_excess", "norm_rel_err",
    "moment_rel_err", "max_excess", "grew",
}


def run(command: str, blob: dict) -> tuple[int, dict | None]:
    """Exit code and parsed report of one in-process CLI run on an instance."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(blob))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, str(path)])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def gen(seed: int, n: int, degenerate: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["gen", "--seed", str(seed), "--n", str(n)]
        assert main(argv + ["--degenerate-z"] * degenerate) == 0
    return json.loads(out.getvalue())


def pair(seed: int, n: int) -> dict:
    """An x0, y0 instance drawn from the seed."""
    x0, y0 = np.random.default_rng(seed).standard_normal((2, 2, n)).tolist()
    return {
        "n": n,
        "x0": [{"p": p, "q": q} for p, q in zip(*x0)],
        "y0": [{"p": p, "q": q} for p, q in zip(*y0)],
    }


def scale_instance(blob: dict, ks: dict) -> dict:
    """A copy of blob with each input's component c multiplied by 2^ks[input][c]."""
    blob = json.loads(json.dumps(blob))
    for key, (kp, kq) in ks.items():
        if key == "f":
            blob["functional"] = {
                name: np.ldexp(np.array(m), k).tolist()
                for (name, m), k in zip(sorted(blob["functional"].items()), (kp, kq))
            }
        elif key == "M":
            for name, k in (("basis1", kp), ("basis2", kq)):
                rows = np.array(blob["M"][name], dtype=float).reshape(-1, blob["n"])
                blob["M"][name] = np.ldexp(rows, k).tolist()
        else:
            blob[key] = [
                {"p": math.ldexp(c["p"], kp), "q": math.ldexp(c["q"], kq)} for c in blob[key]
            ]
    return blob


def swapped(obj, key=None):
    """A copy of an instance or report with the two idempotent components
    exchanged: the names in SWAP, and each [p, q] list reversed."""
    if isinstance(obj, dict):
        return {SWAP.get(k, k): swapped(v, k) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [swapped(v) for v in obj]
        return items[::-1] if key in PAIRS else items
    return obj


def leaves(obj, degrees, path="", degree=None, comp=None):
    """(path, value, degree, component) of every leaf of a report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(
                value, degrees, f"{path}.{key}", degrees.get(key, degree), COMPONENT.get(key, comp)
            )
    elif isinstance(obj, list):
        pairwise = path.rsplit(".", 1)[-1] in PAIRS
        for i, value in enumerate(obj):
            yield from leaves(value, degrees, f"{path}[{i}]", degree, i if pairwise else comp)
    else:
        yield path, obj, degree, comp


def assert_scaled(base, scaled, degrees, ks):
    """Every leaf of `scaled` is its `base` leaf times 2^(degree . k[component])."""
    got, want = list(leaves(scaled, degrees)), list(leaves(base, degrees))
    assert [g[0] for g in got] == [w[0] for w in want]
    for (path, value, degree, comp), (_, ref, _, _) in zip(got, want):
        if isinstance(ref, float):
            assert degree is not None and comp is not None, f"{path} has no degree or component"
            k = sum(d * kc[comp] for d, kc in zip(degree, ks))
            assert value == math.ldexp(ref, k), (path, value, ref, k)
        else:
            assert type(value) is type(ref) and value == ref, (path, value, ref)


EXPONENTS = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


def normal_bounds(items) -> tuple[dict, dict]:
    """Per component and per degree d in the scales of two inputs, the bounds
    of d . k within which every nonzero value times 2^(d . k) stays a normal
    double; items are (degree, component, value)."""
    bounds = ({}, {})
    for degree, comp, value in items:
        if isinstance(value, float) and value != 0.0 and any(degree[:2]):
            e = math.frexp(value)[1]  # |value| in [2^(e-1), 2^e)
            lo, hi = bounds[comp].get(degree[:2], (-2000, 2000))
            bounds[comp][degree[:2]] = (max(lo, -1021 - e), min(hi, 1024 - e))
    return bounds


def edges(lo: int, hi: int):
    return st.sampled_from([lo, hi]) | st.integers(lo, hi)


def draw_exponents(data, bounds) -> tuple[tuple, tuple]:
    """Exponents (a, b) of two inputs per component, over the whole range
    where every item of normal_bounds stays normal: degree (1, 0) bounds a,
    (0, 1) bounds b and (1, 1) bounds a + b."""
    ks = []
    for comp in bounds:
        (la, ha), (lb, hb), (ls, hs) = (comp.get(d, (-2000, 2000)) for d in ((1, 0), (0, 1), (1, 1)))
        a = data.draw(edges(max(la, ls - hb), min(ha, hs - lb)))
        ks.append((a, data.draw(edges(max(lb, ls - a), min(hb, hs - a)))))
    return tuple(zip(*ks))


def input_items(blob: dict, keys: dict) -> list:
    """(degree, component, entry) of each entry of the inputs named in keys."""
    items = []
    for key, degree in keys.items():
        if key == "f":
            for comp, name in enumerate(("C1", "C2")):
                items += [(degree, comp, v) for row in blob["functional"][name] for v in row]
        else:
            items += [(degree, comp, c[pq]) for c in blob[key] for comp, pq in enumerate("pq")]
    return items


class TestPowerOfTwoScaling:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
        degenerate=st.booleans(),
        km=EXPONENTS,
        data=st.data(),
    )
    def test_extend_and_norm(self, seed, n, degenerate, km, data):
        blob = gen(seed, n, degenerate)
        code, base = run("extend", blob)
        items = input_items(blob, {"f": (1, 0), "z": (0, 1)})
        items += [(d, c, v) for _, v, d, c in leaves(base, EXTEND_DEGREES)]
        kf, kz = draw_exponents(data, normal_bounds(items))
        scaled_code, report = run("extend", scale_instance(blob, {"f": kf, "z": kz, "M": km}))
        assert scaled_code == code
        assert_scaled(base, report, EXTEND_DEGREES, (kf, kz, km))
        # norm's SVD, like every norm route, runs on C times its own power of
        # two, so f's exponents run over their whole normal range there too
        code, base = run("norm", blob)
        items = input_items(blob, {"f": (1, 0)})
        items += [(d, c, v) for _, v, d, c in leaves(base, NORM_DEGREES)]
        kn, _ = draw_exponents(data, normal_bounds(items))
        scaled_code, report = run("norm", scale_instance(blob, {"f": kn, "z": kz, "M": km}))
        assert scaled_code == code
        assert_scaled(base, report, NORM_DEGREES, (kn, kz, km))

    @SETTINGS
    @given(
        seed=st.integers(0, 2**16), n=st.integers(2, 8), degenerate=st.booleans(), data=st.data()
    )
    def test_m_over_its_whole_downward_normal_range(self, seed, n, degenerate, data):
        blob = gen(seed, n, degenerate)
        km = []
        for name in ("basis1", "basis2"):
            rows = np.abs(np.array(blob["M"][name], dtype=float))
            # x * 2^k stays normal while k >= -1021 - e, x in [2^(e-1), 2^e)
            lowest = -1021 - int(np.frexp(np.min(rows[rows > 0], initial=1.0))[1])
            km.append(data.draw(st.just(lowest) | st.integers(lowest, 40)))
        scaled = scale_instance(blob, {"M": km})
        for command in ("extend", "norm"):
            assert run(command, scaled) == run(command, blob)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**16), n=st.integers(2, 8), degenerate=st.booleans(), data=st.data()
    )
    def test_m_over_its_whole_upward_normal_range(self, seed, n, degenerate, data):
        blob = gen(seed, n, degenerate)
        km = []
        for name in ("basis1", "basis2"):
            rows = np.abs(np.array(blob["M"][name], dtype=float))
            # x * 2^k stays finite while k <= 1024 - e, x in [2^(e-1), 2^e)
            highest = 1024 - int(np.frexp(np.max(rows, initial=1.0))[1])
            km.append(data.draw(st.just(highest) | st.integers(-40, highest)))
        scaled = scale_instance(blob, {"M": km})
        for command in ("extend", "norm"):
            assert run(command, scaled) == run(command, blob)

    @SETTINGS
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 8), data=st.data())
    def test_corollary(self, seed, n, data):
        blob = pair(seed, n)
        code, base = run("corollary", blob)
        items = input_items(blob, {"x0": (1, 0), "y0": (0, 1)})
        items += [(d, c, v) for _, v, d, c in leaves(base, COROLLARY_DEGREES)]
        kx, ky = draw_exponents(data, normal_bounds(items))
        scaled_code, report = run("corollary", scale_instance(blob, {"x0": kx, "y0": ky}))
        assert scaled_code == code
        assert_scaled(base, report, COROLLARY_DEGREES, (kx, ky))


#: (command, path) of every deterministic leaf; each must swap exactly
DETERMINISTIC = {
    "extend": (("steps",), ("final",), ("audit", "norm_f"), ("audit", "norm_F"),
               ("audit", "norm_F_audit")),
    "norm": (("spectral",),),
}


class TestComponentSwap:
    @SETTINGS
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 8), degenerate=st.booleans())
    def test_deterministic_leaves_swap(self, seed, n, degenerate):
        blob = gen(seed, n, degenerate)
        for command, paths in DETERMINISTIC.items():
            _, base = run(command, blob)
            _, report = run(command, swapped(blob))
            for path in paths:
                got, ref = report, swapped(base)
                for key in path:
                    got, ref = got[key], ref[key]
                assert got == ref, (command, path)
