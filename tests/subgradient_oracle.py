"""The subgradient gap oracle: a second, independent bound of the gap endpoints.

It cross-checks the closed-form gap point <w, x'>, the r that every
extension step prints, in the tests only; the grid oracle
`hyp2.hahn_banach.gap_interval_grid` is the one the acceptance suite runs.
It reads the gap data off the problem itself and evaluates the objective by
its own formula, so it shares only `_perp` with the engine.
"""

import numpy as np

from hyp2 import DVector, ExtensionProblem, Hyperbolic
from hyp2._tol import null
from hyp2.hahn_banach import _perp


def gap_interval_subgradient(
    problem: ExtensionProblem,
    x_prime: DVector,
    starts: int = 16,
    iters: int = 500,
    seed: int = 0,
) -> tuple[Hyperbolic, Hyperbolic]:
    """Multi-start subgradient estimate of the gap endpoints.

    Runs projected subgradient descent with diminishing steps on the convex
    inf-objective (and on its mirror for the sup side) from `starts` random
    points.  Returns an outer bracket: the estimated m is an upper bound of
    the true infimum and the estimated m0 a lower bound of the supremum, so
    [m0_hat, m_hat] contains the exact gap interval.
    """
    rng = np.random.default_rng(seed)
    cz = (problem.functional.C @ problem.z.c[:, :, None])[..., 0]
    norm_f = problem.restriction().norm()
    los, his = [], []
    for q, z, xp, czc, nf in zip(
        (problem.M.q1, problem.M.q2), problem.z.c, x_prime.c, cz, (norm_f.p, norm_f.q)
    ):
        cz_q = q @ czc
        nz = float(np.linalg.norm(z))
        k = q.shape[0]

        def minimize(sign: float) -> float:
            if k == 0:
                return nf * float(np.linalg.norm(_perp(z, xp))) * nz
            best = np.inf
            spread = 1.0 + float(np.linalg.norm(xp))
            step0 = max(1.0, spread)
            for s in range(starts):
                c = np.zeros(k) if s == 0 else rng.standard_normal(k) * spread
                for t in range(iters):
                    u = c @ q + xp
                    pu = _perp(z, u)
                    npu = float(np.linalg.norm(pu))
                    grad_norm = np.zeros(k) if null(npu) else (q @ (pu / npu)) * (nf * nz)
                    g = grad_norm - sign * cz_q
                    val = nf * npu * nz - sign * float(c @ cz_q)
                    if val < best:
                        best = val
                    c = c - (step0 / np.sqrt(t + 1.0)) * g
                u = c @ q + xp
                val = nf * float(np.linalg.norm(_perp(z, u))) * nz - sign * float(c @ cz_q)
                if val < best:
                    best = val
            return float(best)

        his.append(minimize(+1.0))
        los.append(-minimize(-1.0))
    return Hyperbolic(los[0], los[1]), Hyperbolic(his[0], his[1])
