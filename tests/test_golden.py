"""Pinned CLI reports on fixed instances.

The instance files and the expected stdout in tests/golden were written by
`hyp2 gen` and the matching `hyp2 norm` / `hyp2 extend` / `hyp2 corollary`
runs; a change to any report shows up here.  axes_n4.json takes z and f from
`hyp2 gen --seed 4 --n 4` and replaces M with standard basis vectors.  The `norm` reports pin the
brute-force values and witnesses, so they also pin the sampling kernel's
draws and its choice of the first best pair.  Keys, booleans and integers must match exactly.
Floats must agree to 1e-12 relative, with values below 1e-12 in magnitude
(rounding residues such as restriction_max_err) compared absolutely, so that
a different BLAS does not break the test.
"""

import json
import math
from pathlib import Path

import pytest

from hyp2.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("extend_seed1_n3", ["extend", "seed1_n3.json"]),
    ("extend_seed1_n3_swap_domain", ["extend", "seed1_n3.json", "--swap-domain"]),
    ("extend_seed2_n4_degenerate_z", ["extend", "seed2_n4_degenerate_z.json"]),
    # transposed (Fortran-ordered) matrices with a zero-divisor z
    ("extend_seed2_n4_degenerate_z_swap_domain",
     ["extend", "seed2_n4_degenerate_z.json", "--swap-domain"]),
    ("extend_seed3_n3_full", ["extend", "seed3_n3_full.json"]),
    ("extend_seed1_n8", ["extend", "seed1_n8.json"]),
    # M = 0: eight steps, each growing both components
    ("extend_seed1_n8_dims00", ["extend", "seed1_n8_dims00.json"]),
    # basis1 = [e2], basis2 = [e2, e3]: e2 gets no step, e3 grows component 1 only
    ("extend_axes_n4", ["extend", "axes_n4.json"]),
    ("corollary_pair_n3", ["corollary", "pair_n3.json"]),
    ("norm_seed1_n3", ["norm", "seed1_n3.json"]),
    ("norm_seed1_n8", ["norm", "seed1_n8.json"]),
]


def assert_close(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (path, got, want)
    else:
        # bool, int, str and None: exact, and bool is not accepted for int
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(capsys, name, argv):
    argv = [argv[0], str(GOLDEN / argv[1]), *argv[2:]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.stdout").read_text())
    assert_close(json.loads(out), want)


def test_golden_cases_cover_the_planned_shapes():
    # zero steps on a full domain, a zero-divisor z (in both orders), and a
    # swapped domain order
    full = json.loads((GOLDEN / "extend_seed3_n3_full.stdout").read_text())
    swapped = json.loads((GOLDEN / "extend_seed1_n3_swap_domain.stdout").read_text())
    assert full["steps"] == []
    assert swapped["domain_order"] == "z_first"
    for name in ("extend_seed2_n4_degenerate_z", "extend_seed2_n4_degenerate_z_swap_domain"):
        # z's second component vanishes, and F is the zero matrix there
        report = json.loads((GOLDEN / f"{name}.stdout").read_text())
        assert report["audit"]["repaired"] and "repaired_z" not in report
        assert report["final"]["F"]["C2"] == [[0.0] * 4] * 4
    # every step growing both components, and steps that skip or grow one
    chain = json.loads((GOLDEN / "extend_seed1_n8_dims00.stdout").read_text())
    axes = json.loads((GOLDEN / "extend_axes_n4.stdout").read_text())
    assert [s["grew"] for s in chain["steps"]] == [[True, True]] * 8
    assert [s["grew"] for s in axes["steps"]] == [[True, True], [True, False], [True, True]]
