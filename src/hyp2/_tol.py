"""The package's one tolerance policy; nothing here is exported.

A quantity is negligible when |x| <= rel * scale, with scale taken from the
operands of the comparison (README, "Tolerances", lists each one), per
idempotent component.  With no operand scale only 0.0 is zero; extend and
corollary square only unit-scale data.  So no verdict changes on rescaling.
"""

import numpy as np

#: What rounding leaves: zero divisors, equality, antisymmetry, rank cuts.
ROUND = 1e-12

#: Dependence, span membership and the slack of a check.
SPAN = 1e-9

#: The sine of the angle at or below which a pair is too thin to score.
THIN = 1e-3

#: The largest double t with fl(sqrt(t)) <= THIN, so a clamp of a squared
#: sine at THIN_SQ leaves its rounded root > THIN exactly on the pairs that
#: are not thin; fl(sqrt(THIN_SQ)) = THIN.
THIN_SQ = 1.0000000000000002e-06

#: The brute-force search's margin on a row's bound |x'C| + |x'Cx| / THIN:
#: a row whose bound times (1 + SCORE_SLACK) is below a score already found
#: holds no winning cell.  Rounding lifts a computed score over the bound by
#: a relative kappa <~ 2(n + 2)u / THIN_SQ, about 2.2e-9 at n = 8 (u = 2^-53):
#: an error of (n + 2)u in <x,y> near 1 is doubled in 1 - <x,y>^2 > THIN_SQ.
#: The worst excess over 20000 pairs with sine in (THIN, 1.2 THIN] and y's
#: perpendicular part along x'C was 5.6e-10.  The search's winner is the
#: first cell that reaches top = B / (1 + 2 SCORE_SLACK), B the largest bound.
SCORE_SLACK = 1e-6


def negligible(x, scale, rel: float = ROUND):
    """|x| <= rel * scale, elementwise on arrays; at scale 0 only x = 0."""
    return abs(x) <= rel * scale


def within(x, scale, rel: float = ROUND) -> bool:
    """Every entry of x negligible beside its scale."""
    return bool(np.all(negligible(np.asarray(x), scale, rel)))


def null(x):
    """x == 0: the verdict for a quantity with no operand scale."""
    return x == 0.0


def order(x, y) -> tuple[bool, bool]:
    """Whether x <= y and whether x >= y entrywise, but for a difference negligible
    beside its component's larger |entry| in x or y; x, y: [[p], [q]] or rows [c1, c2]."""
    le = ge = True
    for a, b in zip(x, y):
        slack = ROUND * max(map(abs, (*a, *b)), default=0.0)
        for u, v in zip(a, b):
            le = le and v - u >= -slack
            ge = ge and v - u <= slack
    return le, ge
