"""Independent checks of hyp2's answers, written with numpy only.

Each check lists the answers that contradict the mathematics ("wrong");
check_norms also lists the quality gates a sampled estimate did not reach
("missed").  A wrong answer the program did not flag itself is a silent wrong
answer.
"""

from __future__ import annotations

import numpy as np

#: Relative agreement demanded of exact closed forms (norms, restrictions).
EXACT_REL = 1e-8
#: The gates of the functional-norm-equivalence acceptance criterion.
SHORTFALL_GATE = 0.02
EXCESS_GATE = 1e-9
FORMULA_GATE = 1e-4


def sigma_max(C: np.ndarray) -> float:
    return float(np.linalg.norm(C, 2)) if C.size else 0.0


def restricted_norm(C: np.ndarray, z: np.ndarray, basis: np.ndarray) -> float:
    """Norm of x -> x'Cz on span(basis) against the area 2-norm area(x, z).

    C z is orthogonal to z (C is antisymmetric), so x'Cz only sees the part of
    x orthogonal to z, and the norm is |proj_W(Cz)| / |z| with W the span of
    the basis projected orthogonally to z.
    """
    nz = float(np.linalg.norm(z))
    if nz == 0.0 or basis.shape[0] == 0:
        return 0.0
    u = z / nz
    projected = basis - np.outer(basis @ u, u)
    cz = C @ z
    coef, *_ = np.linalg.lstsq(projected.T, cz, rcond=None)
    return float(np.linalg.norm(projected.T @ coef)) / nz


def area(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(max((x @ x) * (y @ y) - (x @ y) ** 2, 0.0)))


def check_extension(inp: dict, out: dict) -> list[str]:
    """An extension of f from M x [z] to X x [z] against the raw matrices:
    f's norm on M x [z], F's norm on the whole of X x [z] (from F itself, not
    from the norm hyp2 reports), and F restricted to M x [z].

    inp holds the unscaled parts C1, C2, z1, z2, basis1, basis2 and the
    scales (f, z, M); out holds norm_f, norm_F (pairs) and the matrices
    F1, F2 of the extended functional.
    """
    wrong = []
    sf, sz, sm = inp["scales"]
    for c in (0, 1):
        C0, z0, B0 = inp[f"C{c + 1}"], inp[f"z{c + 1}"], inp[f"basis{c + 1}"]
        C, z, B = C0 * sf, z0 * sz, B0 * sm
        tol = EXACT_REL * max(sigma_max(C), 1e-300)
        want = restricted_norm(C, z, B)
        got_f, got_F = out["norm_f"][c], out["norm_F"][c]
        if not abs(got_f - want) <= tol:
            wrong.append(f"norm_f[{c}]={got_f!r} expected {want!r}")
        if not abs(got_F - got_f) <= tol:
            wrong.append(f"norm_F[{c}]={got_F!r} differs from norm_f {got_f!r}")
        twin = sf * restricted_norm(C0, z0, B0)
        if not abs(got_F - twin) <= 100 * tol:
            wrong.append(f"norm_F[{c}]={got_F!r} differs from the unscaled twin x scale {twin!r}")
        F = np.asarray(out[f"F{c + 1}"])
        if not np.max(np.abs(F + F.T), initial=0.0) <= tol:
            wrong.append(f"F is not antisymmetric in component {c}")
        whole = restricted_norm(F, z, np.eye(len(z)))
        if not (abs(whole - want) <= tol and abs(whole - got_F) <= tol):
            wrong.append(f"F has norm {whole!r} on X x [z] in component {c}, "
                         f"expected {want!r} (norm_F {got_F!r})")
        if B.shape[0]:
            diff = B @ (F @ z) - B @ (C @ z)
            scale = np.linalg.norm(B, axis=1) * max(sigma_max(C), 1e-300) * np.linalg.norm(z)
            if not np.all(np.abs(diff) <= EXACT_REL * scale + 1e-300):
                wrong.append(f"F does not restrict to f on M x [z] in component {c}")
    return wrong


def check_norms(C1, C2, spectral, quotient, unit) -> tuple[list[str], list[str]]:
    """Spectral and sampled functional norms against sigma_max per component."""
    wrong, missed = [], []
    for c, C in enumerate((C1, C2)):
        sigma = sigma_max(np.asarray(C))
        if not abs(spectral[c] - sigma) <= EXACT_REL * max(sigma, 1e-300):
            wrong.append(f"spectral[{c}]={spectral[c]!r} expected {sigma!r}")
        for label, value in (("quotient", quotient[c]), ("unit", unit[c])):
            if not value <= sigma + EXCESS_GATE:
                wrong.append(f"{label}[{c}]={value!r} exceeds sigma_max {sigma!r}")
        if not (sigma - quotient[c]) <= SHORTFALL_GATE * sigma:
            missed.append(f"quotient[{c}] falls {(sigma - quotient[c]) / sigma:.3%} short")
        if not abs(quotient[c] - unit[c]) <= FORMULA_GATE * (1.0 + sigma):
            missed.append(f"formulas differ by {abs(quotient[c] - unit[c]):.3g} in component {c}")
    return wrong, missed


def shortfall(C, value: float) -> float:
    sigma = sigma_max(np.asarray(C))
    return (sigma - value) / sigma if sigma > 0 else 0.0


# -- CLI reports --------------------------------------------------------------


def _pq(obj) -> tuple[float, float]:
    return float(obj["p"]), float(obj["q"])


def _vec(objs) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([o["p"] for o in objs], dtype=float),
            np.array([o["q"] for o in objs], dtype=float))


def check_cli(cmd: str, argv: list[str], instance: dict, report: dict) -> list[str]:
    """A parsed CLI report against the instance it was computed from."""
    n = instance["n"]
    if cmd == "gen":
        wrong = []
        if report.get("n") != int(argv[argv.index("--n") + 1]):
            wrong.append("gen wrote the wrong dimension")
        for key in ("C1", "C2"):
            C = np.array(report["functional"][key], dtype=float)
            if not np.max(np.abs(C + C.T), initial=0.0) <= 1e-12:
                wrong.append(f"gen wrote a non-antisymmetric {key}")
        return wrong
    if cmd == "check-axioms":
        return [] if report.get("n") == n else ["check-axioms reports the wrong n"]
    C1 = np.array(instance["functional"]["C1"], dtype=float)
    C2 = np.array(instance["functional"]["C2"], dtype=float)
    if cmd == "norm":
        wrong = []
        for c, C in enumerate((C1, C2)):
            sigma = sigma_max(C)
            spec = _pq(report["spectral"]["value"])[c]
            brute = _pq(report["brute_force"]["value"])[c]
            if not abs(spec - sigma) <= EXACT_REL * max(sigma, 1e-300):
                wrong.append(f"spectral[{c}]={spec!r} expected {sigma!r}")
            if not brute <= sigma + EXCESS_GATE:
                wrong.append(f"brute_force[{c}]={brute!r} exceeds sigma_max {sigma!r}")
        return wrong
    if cmd == "extend":
        z1, z2 = _vec(instance["z"])
        inp = {
            "C1": C1, "C2": C2, "z1": z1, "z2": z2,
            "basis1": np.array(instance["M"]["basis1"], dtype=float).reshape(-1, n),
            "basis2": np.array(instance["M"]["basis2"], dtype=float).reshape(-1, n),
            "scales": (1.0, 1.0, 1.0),
        }
        final = report["final"]
        out = {
            "norm_f": _pq(final["norm_f"]), "norm_F": _pq(final["norm_F"]),
            "F1": final["F"]["C1"], "F2": final["F"]["C2"],
        }
        return check_extension(inp, out)
    if cmd == "corollary":
        wrong = []
        x1, x2 = _vec(instance["x0"])
        y1, y2 = _vec(instance["y0"])
        target = (area(x1, y1), area(x2, y2))
        value = _pq(report["value"])
        for c in (0, 1):
            if not abs(value[c] - target[c]) <= EXACT_REL * target[c]:
                wrong.append(f"value[{c}]={value[c]!r} expected the area {target[c]!r}")
            if not abs(_pq(report["norm_f"])[c] - 1.0) <= EXACT_REL:
                wrong.append(f"norm_f[{c}] is not one")
        return wrong
    raise ValueError(f"unknown command {cmd!r}")
