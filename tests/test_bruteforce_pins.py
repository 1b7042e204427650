"""Bit-exact pins of `norm_bruteforce`.

tests/golden/bruteforce_pins.json holds `float.hex` of every value and
witness coordinate of `norm_bruteforce(f, budget, seed=n, formula)` with
f = `DBilinear2Functional.random(n, 800 + n)`, for n = 2..8, both formulas
and the budgets below.  The goldens compare floats to 1e-12 only; these pins
catch a change of the sampler or the polish in the last bit.  Write the file
again, from the code being pinned, with

    PYTHONPATH=src python tests/test_bruteforce_pins.py
"""

import json
from pathlib import Path

import pytest

from hyp2 import DBilinear2Functional, norm_bruteforce

PINS = Path(__file__).parent / "golden" / "bruteforce_pins.json"

# one pair, a 2 x 1 grid, a partial last row (17 of 5 x 4, 250 of 16 x 16),
# one and seven row blocks, and the 448 x 447 grid of 200000 pairs
BUDGETS = (1, 2, 17, 250, 20000, 100000, 200000)


def pin(n: int, formula: str, budget: int) -> dict:
    f = DBilinear2Functional.random(n, 800 + n)
    cert = norm_bruteforce(f, budget=budget, seed=n, formula=formula)
    x, y = cert.witness
    return {
        "n": n,
        "formula": formula,
        "budget": budget,
        "value": [cert.value.p.hex(), cert.value.q.hex()],
        "x": [[c.hex() for c in row] for row in x.c.tolist()],
        "y": [[c.hex() for c in row] for row in y.c.tolist()],
    }


def all_pins() -> list[dict]:
    return [
        pin(n, formula, budget)
        for n in range(2, 9)
        for formula in ("quotient", "unit")
        for budget in BUDGETS
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_bit_identical(n):
    want = [w for w in json.loads(PINS.read_text()) if w["n"] == n]
    assert len(want) == 2 * len(BUDGETS)
    for w in want:
        assert pin(n, w["formula"], w["budget"]) == w


if __name__ == "__main__":
    PINS.write_text("[\n" + ",\n".join(json.dumps(p) for p in all_pins()) + "\n]\n")
