"""The subgradient gap oracle: a second, independent bound of the gap endpoints.

It cross-checks the closed-form gap point <w, x'>, the r that every
extension step prints, in the tests only; the grid oracle
`gap_interval_grid` is the one the acceptance suite runs.  It shares the
per-component gap data and objective with the grid oracle.
"""

import numpy as np

from hyp2 import DVector, ExtensionProblem, Hyperbolic
from hyp2._tol import null
from hyp2.hahn_banach import _gap_objective, _gap_setup, _perp


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
    los, his = [], []
    for setup in _gap_setup(problem, x_prime):
        q, z, xp, cz_q, nf = setup
        nz = float(np.linalg.norm(z))
        k = q.shape[0]

        def minimize(sign: float) -> float:
            if k == 0:
                obj, _ = _gap_objective(setup, sign)
                return float(obj(np.zeros((1, 0)))[0])
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
