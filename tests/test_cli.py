import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyp2.cli import main
from test_metamorphic import COROLLARY_DEGREES, EXTEND_DEGREES, assert_scaled, scale_instance


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    code = main(["gen", "--seed", "11", "--n", "3", "--dims", "1,1", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "7", "--n", "4", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "7", "--n", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert main(["gen", "--seed", "8", "--n", "4", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_degenerate_z_flag(self, tmp_path):
        path = tmp_path / "d.json"
        assert main(["gen", "--seed", "3", "--n", "3", "--degenerate-z", "--out", str(path)]) == 0
        blob = json.loads(path.read_text())
        qs = [c["q"] for c in blob["z"]]
        ps = [c["p"] for c in blob["z"]]
        assert all(q == 0.0 for q in qs) and any(p != 0.0 for p in ps)

    def test_generated_functional_is_bounded_by_spectral(self, instance_path):
        from hyp2 import DBilinear2Functional, is_bounded_check, norm_spectral

        blob = json.loads(instance_path.read_text())
        f = DBilinear2Functional.from_json(blob["functional"])
        assert is_bounded_check(f, norm_spectral(f).value, samples=500, seed=0)

    def test_bad_dims_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", "--n", "9", "--out", str(tmp_path / "x.json"))
        assert code == 2 and "n must satisfy" in err
        code, _, err = run_cli(capsys, "gen", "--n", "3", "--dims", "1,5")
        assert code == 2 and "dims" in err

    @pytest.mark.parametrize(
        "argv,needle",
        [(["--seed", "-1"], "--seed"), (["--out", "/nonexistent/x.json"], "cannot write")],
    )
    def test_bad_seed_or_out_exit_2_with_one_line(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


class TestCheckAxioms:
    def test_passes_on_generated_instance(self, capsys, instance_path):
        code, out, _ = run_cli(capsys, "check-axioms", str(instance_path), "--samples", "200")
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert set("i ii iii iv".split()) <= set(report)

    def test_impossible_tolerance_exits_1(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys, "check-axioms", str(instance_path), "--samples", "50", "--tol", "0"
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_env_tol_override(self, capsys, instance_path, monkeypatch):
        monkeypatch.setenv("HYP2_TOL", "0")
        code, out, _ = run_cli(capsys, "check-axioms", str(instance_path), "--samples", "50")
        assert code == 1


class TestNorm:
    def test_reports_both_certificates_and_gap(self, capsys, instance_path):
        code, out, _ = run_cli(capsys, "norm", str(instance_path), "--samples", "5000")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert {"spectral", "brute_force", "brute_force_unit", "gap", "checks"} <= set(report)
        assert report["checks"]["bounded_at_spectral"] is True

    @pytest.mark.parametrize("seed", [4, 67])
    def test_runs_agree_at_n8(self, capsys, tmp_path, seed):
        # a polish that stops 1e-4 short of sigma fails brute_force_runs_agree here
        path = tmp_path / "f8.json"
        assert main(["gen", "--seed", str(seed), "--n", "8", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "norm", str(path))
        assert code == 0 and json.loads(out)["checks"]["brute_force_runs_agree"] is True

    @pytest.mark.parametrize("name", ["seed1_n3.json", "seed1_n8.json"])
    def test_spectral_value_0_1pct_low_is_caught(self, capsys, monkeypatch, name):
        # the brute-force route never reads norm_spectral, so it climbs past a
        # spectral value that is 0.1% low
        import hyp2.cli
        from hyp2 import NormCertificate

        spectral = hyp2.cli.norm_spectral

        def low_spectral(f):
            cert = spectral(f)
            return NormCertificate(0.999 * cert.value, cert.witness, cert.method)

        monkeypatch.setattr(hyp2.cli, "norm_spectral", low_spectral)
        code, out, _ = run_cli(capsys, "norm", str(Path(__file__).parent / "golden" / name))
        assert code == 1 and json.loads(out)["checks"]["brute_not_above_spectral"] is False

    def test_corrupted_instance_exit_2(self, capsys, instance_path, tmp_path):
        blob = json.loads(instance_path.read_text())
        blob["functional"]["C1"][0][1] += 1e-6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "norm", str(bad))
        assert code == 2
        assert "antisymmetric" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "norm", "/nonexistent/instance.json")
        assert code == 2

    def test_dimension_mismatch_exit_2(self, capsys, instance_path, tmp_path):
        blob = json.loads(instance_path.read_text())
        blob["z"] = blob["z"][:-1]  # wrong length
        bad = tmp_path / "short_z.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run_cli(capsys, "extend", str(bad))
        assert code == 2 and "dimension" in err


class TestExtend:
    def test_full_run_passes(self, capsys, instance_path):
        code, out, _ = run_cli(capsys, "extend", str(instance_path), "--samples", "200")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert report["audit"]["brackets_ok"] and report["steps"]
        for step in report["steps"]:
            assert set(step) == {"x_prime", "r", "grew"}

    def test_full_domain_zero_steps(self, capsys, tmp_path):
        path = tmp_path / "full.json"
        assert main(["gen", "--seed", "2", "--n", "2", "--dims", "2,2", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "extend", str(path), "--samples", "100")
        report = json.loads(out)
        assert code == 0
        assert report["steps"] == []

    def test_degenerate_z_instance(self, capsys, tmp_path):
        path = tmp_path / "dz.json"
        assert main(
            ["gen", "--seed", "5", "--n", "3", "--degenerate-z", "--out", str(path)]
        ) == 0
        code, out, _ = run_cli(capsys, "extend", str(path), "--samples", "200")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        # z's second component vanishes: the audit says so, and F is the
        # zero matrix there
        assert report["audit"]["repaired"] and "repaired_z" not in report
        assert report["final"]["F"]["C2"] == [[0.0] * 3] * 3

    def test_swap_domain(self, capsys, instance_path):
        code, out, _ = run_cli(
            capsys, "extend", str(instance_path), "--samples", "100", "--swap-domain"
        )
        report = json.loads(out)
        assert code == 0 and report["domain_order"] == "z_first"

    def test_swap_domain_restriction_in_caller_orientation(self, capsys, instance_path):
        from hyp2 import DBilinear2Functional, DSubmodule, DVector, Hyperbolic

        code, out, _ = run_cli(
            capsys, "extend", str(instance_path), "--samples", "100", "--swap-domain"
        )
        report = json.loads(out)
        blob = json.loads(instance_path.read_text())
        f = DBilinear2Functional.from_json(blob["functional"])
        F = DBilinear2Functional.from_json(report["final"]["F"])
        M = DSubmodule.from_json(blob["M"])
        z = DVector.from_json(blob["z"])
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = M.random_element(rng)
            alpha = Hyperbolic(*rng.standard_normal(2))
            assert (F(alpha * z, x) - f(alpha * z, x)).max_abs() <= 1e-10


def _set_nan_functional(blob):
    blob["functional"]["C1"][0][1] = float("nan")


def _set_nan_z(blob):
    blob["z"][0]["p"] = float("nan")


def _set_inf_basis(blob):
    blob["M"]["basis1"][0][0] = float("inf")


def _set_huge_z(blob):
    # every entry finite, but z @ z overflows: valid input
    for i, c in enumerate(blob["z"]):
        c["p"], c["q"] = (1e200, -1e200) if i % 2 else (-1e200, 1e200)


def _set_huge_functional(blob):
    # every entry finite, but C z's squared length overflows: valid input
    blob["functional"]["C1"] = (np.array(blob["functional"]["C1"]) * 1e307).tolist()


def _set_n_float(blob):
    blob["n"] = 3.5


def _set_n_string(blob):
    blob["n"] = "3"


def _set_n_bool(blob):
    blob["n"] = True


def _set_m_n_float(blob):
    blob["M"]["n"] = 3.0


def _set_basis_3d(blob):
    # [[[x, y, z]]]: the right number of entries in the wrong shape
    blob["M"]["basis1"] = [blob["M"]["basis1"]]


def _set_string_entry(blob):
    blob["functional"]["C1"][0][1] = str(blob["functional"]["C1"][0][1])


def _set_string_bool_scalar(blob):
    blob["z"][0] = {"p": "0.5", "q": True}


def _set_bool_basis(blob):
    blob["M"]["basis1"] = [[True, False, "2"]]


def _set_norm_string(blob):
    blob["norm"] = "gramdet"


def _set_norm_list(blob):
    blob["norm"] = []


def _set_norm_null(blob):
    blob["norm"] = None


def _set_norm_exotic(blob):
    blob["norm"] = {"kind": "exotic"}


def _unchanged(blob):
    pass


_CORRUPTIONS = (
    [("norm", _set_nan_functional, "non-finite"), ("extend", _set_nan_z, "non-finite"),
     ("extend", _set_inf_basis, "non-finite"), ("extend", _set_nan_functional, "non-finite")]
    # a "norm" field that is not an object is malformed input, not a crash
    + [(command, corrupt, "norm field")
       for command in ("extend", "norm", "check-axioms")
       for corrupt in (_set_norm_string, _set_norm_list, _set_norm_null)]
    + [(command, _set_norm_exotic, "2-norm kind")
       for command in ("extend", "norm", "check-axioms")]
    # a dimension must be a JSON integer and a basis a list of length-n rows
    + [(command, corrupt, "JSON integer")
       for command in ("extend", "norm", "check-axioms")
       for corrupt in (_set_n_float, _set_n_string, _set_n_bool)]
    + [("extend", _set_m_n_float, "JSON integer"), ("extend", _set_basis_3d, "rows of length")]
    # a string or a bool where a number belongs is not read as one
    + [("extend", corrupt, "JSON number")
       for corrupt in (_set_string_entry, _set_string_bool_scalar, _set_bool_basis)]
)

#: (command, argv after the instance, environment, needle): a bad flag or
#: tolerance on a valid instance
_BAD_FLAGS = [
    ("norm", ["--samples", "0"], {}, "--samples"),
    ("norm", ["--samples", "-5"], {}, "--samples"),
    ("extend", ["--samples", "-1"], {}, "--samples"),
    ("check-axioms", ["--samples", "-3"], {}, "--samples"),
    ("check-axioms", ["--samples", "0"], {}, "--samples"),
    ("norm", [], {"HYP2_TOL": "abc"}, "HYP2_TOL"),
    ("extend", [], {"HYP2_TOL": "nan"}, "HYP2_TOL"),
    ("extend", ["--tol", "nan"], {}, "--tol"),
    ("check-axioms", ["--tol", "nan"], {}, "--tol"),
    ("norm", ["--tol", "-1"], {}, "--tol"),
    ("extend", ["--tol", "-1"], {}, "--tol"),
    ("check-axioms", ["--tol", "inf"], {}, "--tol"),
    ("check-axioms", ["--seed", "-1"], {}, "--seed"),
    ("norm", ["--seed", "-1"], {}, "--seed"),
    ("extend", ["--seed", "-1"], {}, "--seed"),
    ("corollary", ["--seed", "-1"], {}, "--seed"),
]


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "command,corrupt,needle,argv,env",
        [pytest.param(command, corrupt, needle, [], {}, id=f"{command}-{corrupt.__name__}-{needle}")
         for command, corrupt, needle in _CORRUPTIONS]
        + [pytest.param(command, _unchanged, needle, argv, env,
                        id="-".join([command, *argv, *(f"{k}={v}" for k, v in env.items())]))
           for command, argv, env, needle in _BAD_FLAGS],
    )
    def test_exit_2_with_one_line(
        self, capsys, monkeypatch, instance_path, tmp_path, command, corrupt, needle, argv, env
    ):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        blob = json.loads(instance_path.read_text())
        corrupt(blob)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))  # json writes NaN / Infinity literals
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be another stderr line
            code, out, err = run_cli(capsys, command, str(bad), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err and "Traceback" not in err

    def test_non_finite_report_is_not_printed(self, capsys, instance_path, monkeypatch):
        import hyp2.cli
        from hyp2 import AxiomReport

        def nan_check(norm, n, samples, rng):
            return AxiomReport(n=n, samples=samples, worst={"i": float("nan")})

        monkeypatch.setattr(hyp2.cli, "axiom_check", nan_check)
        code, out, err = run_cli(capsys, "check-axioms", str(instance_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "non-finite" in err


class TestCorollary:
    @pytest.fixture()
    def pair_path(self, tmp_path):
        rng = np.random.default_rng(21)
        enc = lambda arr1, arr2: [
            {"p": float(p), "q": float(q)} for p, q in zip(arr1, arr2)
        ]
        blob = {
            "n": 3,
            "x0": enc(rng.standard_normal(3), rng.standard_normal(3)),
            "y0": enc(rng.standard_normal(3), rng.standard_normal(3)),
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        return path

    def test_corollary_passes(self, capsys, pair_path):
        code, out, _ = run_cli(capsys, "corollary", str(pair_path))
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert abs(report["norm_f"]["p"] - 1.0) <= 1e-9
        assert abs(report["norm_f"]["q"] - 1.0) <= 1e-9
        assert len(report["cases"]) == 4

    @pytest.mark.parametrize("t", [1e-3, 1e-5])
    def test_pair_at_a_small_angle_passes(self, capsys, tmp_path, t):
        # x0 and y0 at angle t in each component: the value must read x0's
        # part off y0, as <w, x0> on x0 itself errs by about u / t^2
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            x0, y0 = [], []
            for _ in range(2):
                x, v = rng.standard_normal((2, n))
                v -= x * (x @ v) / (x @ x)
                x0.append(x)
                y0.append(np.cos(t) * x / np.linalg.norm(x) + np.sin(t) * v / np.linalg.norm(v))
            enc = lambda c: [{"p": float(p), "q": float(q)} for p, q in zip(*c)]
            path = tmp_path / "angle.json"
            path.write_text(json.dumps({"n": n, "x0": enc(x0), "y0": enc(y0)}))
            code, out, _ = run_cli(capsys, "corollary", str(path))
            assert code == 0, json.loads(out)["checks"]

    def test_dependent_pair_exit_2(self, capsys, tmp_path):
        enc = [{"p": 1.0, "q": 2.0}, {"p": 0.0, "q": 1.0}]
        enc2 = [{"p": 2.0, "q": 4.0}, {"p": 0.0, "q": 2.0}]
        path = tmp_path / "dep.json"
        path.write_text(json.dumps({"n": 2, "x0": enc, "y0": enc2}))
        code, _, err = run_cli(capsys, "corollary", str(path))
        assert code == 2 and "dependent" in err


class TestSelftest:
    def test_single_criterion_runs(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--only", "ring")
        assert code == 0
        assert "[PASS] ring-and-order-suite" in out

    @pytest.mark.parametrize(
        "name",
        ["decomposition-identity", "two-norm-axiom-suite", "k-decomposition-identities",
         "norm-attaining-corollary", "componentwise-decoupling"],
    )
    def test_printed_name_selects_that_criterion(self, capsys, name):
        code, out, _ = run_cli(capsys, "selftest", "--only", name)
        verdict, summary = out.splitlines()
        assert code == 0 and summary == "1/1 criteria passed"
        assert verdict.startswith(f"[PASS] {name} (")

    def test_unknown_filter_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "selftest", "--only", "no-such-criterion")
        assert code == 2


GOLDEN = Path(__file__).parent / "golden"

#: norm_f of `gen --seed 1 --n 3`, which no rescaling of z or M may change
SEED1_NORM_F = (0.150006936266445, 2.0487950322718085)


@pytest.fixture()
def seed1_blob(tmp_path):
    path = tmp_path / "seed1.json"
    assert main(["gen", "--seed", "1", "--n", "3", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _scaled(blob, key, s):
    """A copy of blob with z, z's second component, M's basis or F multiplied
    by s, or ("F_max") each of F's matrices scaled to a largest entry of s."""
    blob = json.loads(json.dumps(blob))
    if key == "z":
        blob["z"] = [{"p": c["p"] * s, "q": c["q"] * s} for c in blob["z"]]
    elif key == "zq":
        blob["z"] = [{"p": c["p"], "q": c["q"] * s} for c in blob["z"]]
    elif key == "F_max":
        blob["functional"] = {
            k: (np.array(m) / np.max(np.abs(m)) * s).tolist() for k, m in blob["functional"].items()
        }
    elif key == "M":
        for b in ("basis1", "basis2"):
            blob["M"][b] = (np.array(blob["M"][b]) * s).tolist()
    else:
        blob["functional"] = {k: (np.array(m) * s).tolist() for k, m in blob["functional"].items()}
    return blob


def _write(tmp_path, blob, name="scaled.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


class TestScaledInstances:
    # each verdict depends only on relative sizes, so rescaling one part of an
    # instance changes no exit code, and extend keeps its norm
    # ("zq", 1e-13): only z's second component is short, and it is no zero
    # divisor: the engine keeps that component's norm
    @pytest.mark.parametrize("key,s", [("z", 1e-13), ("M", 1e-10), ("M", 1e-14), ("zq", 1e-13)])
    def test_extend_keeps_the_norm(self, capsys, tmp_path, seed1_blob, key, s):
        code, out, _ = run_cli(capsys, "extend", _write(tmp_path, _scaled(seed1_blob, key, s)))
        report = json.loads(out)
        assert code == 0 and report["passed"] and report["audit"]["repaired"] is False
        got = report["final"]["norm_f"]
        assert (got["p"], got["q"]) == pytest.approx(SEED1_NORM_F, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "basis1,s",
        [pytest.param([[1e308] * 3], 1.0, id="row-of-1e308"), pytest.param(None, 1e200, id="1e+200")],
    )
    def test_extend_passes_on_a_huge_basis(self, capsys, tmp_path, seed1_blob, basis1, s):
        # M only spans, and Gram-Schmidt runs on each row times its own power
        # of two: a row whose squared length overflows passes like any other,
        # and numpy warns of nothing
        blob = _scaled(seed1_blob, "M", s)
        blob["M"]["basis1"] = basis1 or blob["M"]["basis1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "extend", _write(tmp_path, blob))
        assert code == 0 and err == "" and json.loads(out)["passed"] is True

    @pytest.mark.parametrize("s", [1e6, 1e12])
    def test_norm_passes_on_a_scaled_functional(self, capsys, tmp_path, seed1_blob, s):
        code, out, _ = run_cli(capsys, "norm", _write(tmp_path, _scaled(seed1_blob, "F", s)))
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize(
        "key,s",
        [
            pytest.param("F", 1e170, id="1e+170"),
            pytest.param("F", 1e-300, id="1e-300"),
            pytest.param("F_max", 1e308, id="max-entry-1e308"),
        ],
    )
    def test_norm_is_exact_at_extreme_scales(self, capsys, tmp_path, seed1_blob, key, s):
        # the search and the boundedness probes run on C * 2^-e, so no
        # square or product over- or underflows and the polish still reaches
        # sigma
        path = _write(tmp_path, _scaled(seed1_blob, key, s))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "norm", path)
        report = json.loads(out)
        assert code == 0 and err == ""
        for c in "pq":
            sigma = report["spectral"]["value"][c]
            assert report["brute_force"]["value"][c] == pytest.approx(sigma, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "keys,sp,sq",
        [
            pytest.param(("x0", "y0"), 1e-5, 1e-5, id="1e-05"),
            pytest.param(("x0", "y0"), 1e5, 1e5, id="100000.0"),
            # only y0's second component short: still no zero divisor
            pytest.param(("y0",), 1.0, 1e-13, id="y0q-1e-13"),
        ],
    )
    def test_corollary_passes_on_a_scaled_pair(self, capsys, tmp_path, keys, sp, sq):
        blob = json.loads((GOLDEN / "pair_n3.json").read_text())
        for key in keys:
            blob[key] = [{"p": c["p"] * sp, "q": c["q"] * sq} for c in blob[key]]
        code, out, _ = run_cli(capsys, "corollary", _write(tmp_path, blob))
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize(
        "sx,sy",
        [
            pytest.param(1e200, 1.0, id="x0-1e200"),
            pytest.param(1.0, 1e200, id="y0-1e200"),
            # each squared length is finite, the squared 2-norm is not
            pytest.param(1e100, 1e100, id="both-1e100"),
            # a 2-norm near 1, but x0's squared length overflows
            pytest.param(1e200, 1e-200, id="x0-1e200-y0-1e-200"),
        ],
    )
    def test_corollary_passes_on_a_pair_too_large_to_square(self, capsys, tmp_path, sx, sy):
        # corollary computes on x0 and y0 at unit scale: the report is that of
        # the pair times 2^-k, k = round(log2 s), with every leaf scaled back
        blob = json.loads((GOLDEN / "pair_n3.json").read_text())
        for key, s in (("x0", sx), ("y0", sy)):
            blob[key] = [{"p": c["p"] * s, "q": c["q"] * s} for c in blob[key]]
        ks = {key: (round(np.log2(s)),) * 2 for key, s in (("x0", sx), ("y0", sy))}
        twin = scale_instance(blob, {key: (-k, -k) for key, (k, _) in ks.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "corollary", _write(tmp_path, blob))
            twin_code, twin_out, _ = run_cli(capsys, "corollary", _write(tmp_path, twin, "t.json"))
        assert code == twin_code == 0 and err == "" and json.loads(out)["passed"] is True
        degrees = (ks["x0"], ks["y0"])
        assert_scaled(json.loads(twin_out), json.loads(out), COROLLARY_DEGREES, degrees)

    @pytest.mark.parametrize(
        "corrupt,ks",
        [
            pytest.param(_set_huge_z, {"z": (664, 664)}, id="huge-z"),
            pytest.param(_set_huge_functional, {"f": (1020, 0)}, id="huge-functional"),
        ],
    )
    def test_extend_passes_on_a_huge_z_or_functional(self, capsys, tmp_path, instance_path,
                                                      corrupt, ks):
        # z @ z or C z's squared length overflows, but extend computes on z and
        # C at unit scale: the report is that of the input times 2^-k, with
        # every leaf scaled back by its degree
        blob = json.loads(instance_path.read_text())
        corrupt(blob)
        twin = scale_instance(blob, {key: (-kp, -kq) for key, (kp, kq) in ks.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "extend", _write(tmp_path, blob))
            twin_code, twin_out, _ = run_cli(capsys, "extend", _write(tmp_path, twin, "twin.json"))
        assert code == twin_code == 0 and err == "" and json.loads(out)["passed"] is True
        degrees = [ks.get(key, (0, 0)) for key in ("f", "z", "M")]
        assert_scaled(json.loads(twin_out), json.loads(out), EXTEND_DEGREES, degrees)

    @pytest.mark.parametrize(
        "key,s",
        [(key, s) for key in ("z", "F") for s in (1e-300, 1e-170, 1e-160, 1e160, 1e170, 1e300)],
    )
    def test_extend_passes_at_extreme_scales(self, capsys, tmp_path, seed1_blob, key, s):
        # the engine and the audit run on f and z at unit scale, so nothing
        # over- or underflows, and norm_f has degree 1 in f and 0 in z
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = _write(tmp_path, _scaled(seed1_blob, key, s))
            code, out, err = run_cli(capsys, "extend", path)
        report = json.loads(out)
        assert code == 0 and err == "" and report["passed"] is True
        got = report["final"]["norm_f"]
        want = np.array(SEED1_NORM_F) * (s if key == "F" else 1.0)
        assert (got["p"], got["q"]) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_extend_rejects_a_moment_past_the_double_range(self, capsys, tmp_path, seed1_blob, k):
        # the moment has degree 1 in both f and z: times 2^(2k) it flushes to
        # 0 or overflows, so no F or norm is computed from it
        blob = scale_instance(seed1_blob, {"f": (k, k), "z": (k, k)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "extend", _write(tmp_path, blob))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: the moment (riesz1, riesz2 and each step's r) is not representable as a double"
            " at this scale"
        ]

    def test_extend_rejects_a_norm_past_the_double_range(self, capsys, tmp_path):
        # |f| has degree 1 in f alone: with F's largest entry 1.7e308 at n = 8
        # and z times 1e-10 the moment is a double but the norm is not
        path = tmp_path / "i.json"
        assert main(["gen", "--seed", "4", "--n", "8", "--out", str(path)]) == 0
        blob = _scaled(_scaled(json.loads(path.read_text()), "F_max", 1.7e308), "z", 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "extend", _write(tmp_path, blob))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: the norm of f (norm_f, norm_F) is not representable as a double at this scale"
        ]

    @pytest.mark.parametrize(
        "sx,sy",
        [(1e80, 1e80), (1e-80, 1e-80), (1e-175, 1.0), (1e-200, 1e200)],
    )
    def test_corollary_passes_at_extreme_scales(self, capsys, tmp_path, sx, sy):
        blob = json.loads((GOLDEN / "pair_n3.json").read_text())
        for key, s in (("x0", sx), ("y0", sy)):
            blob[key] = [{"p": c["p"] * s, "q": c["q"] * s} for c in blob[key]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "corollary", _write(tmp_path, blob))
        assert code == 0 and err == "" and json.loads(out)["passed"] is True

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_corollary_rejects_a_2_norm_past_the_double_range(self, capsys, tmp_path, s):
        # gram(x0, y0) has degree 1 in both: at x0 and y0 times 1e+-200 it is
        # not a double, and corollary says so by name
        blob = json.loads((GOLDEN / "pair_n3.json").read_text())
        for key in ("x0", "y0"):
            blob[key] = [{"p": c["p"] * s, "q": c["q"] * s} for c in blob[key]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "corollary", _write(tmp_path, blob))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: the 2-norm of x0 and y0 is not representable as a double at this scale"
        ]

    def test_small_symmetric_matrix_is_rejected(self, capsys, tmp_path, seed1_blob):
        seed1_blob["functional"]["C1"] = (1e-13 * np.eye(3)).tolist()
        code, _, err = run_cli(capsys, "norm", _write(tmp_path, seed1_blob))
        assert code == 2 and "antisymmetric" in err

    def test_zero_brute_force_value_fails_at_small_scale(
        self, capsys, tmp_path, seed1_blob, monkeypatch
    ):
        import hyp2.cli
        from hyp2 import Hyperbolic, NormCertificate

        def zero_brute(f, **kwargs):
            u = hyp2.cli.DVector.zero(f.n)
            return NormCertificate(Hyperbolic(0.0, 0.0), (u, u), "brute_force")

        monkeypatch.setattr(hyp2.cli, "norm_bruteforce", zero_brute)
        path = _write(tmp_path, _scaled(seed1_blob, "F", 1e-12))
        code, out, _ = run_cli(capsys, "norm", path)
        checks = json.loads(out)["checks"]
        assert code == 1 and not checks["brute_within_2pct"]
        assert checks["brute_not_above_spectral"] and checks["bounded_at_spectral"]
