"""Command-line interface: subcommands, exit codes, output stability."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

import mzv
from mzv import cli, numerics, search
from mzv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_dzeta(capsys):
    code, out, _ = run(capsys, "--prec", "30", "eval", "dz(2,1)")
    assert code == 0
    assert out.startswith("1.2020569031595942853997381")
    assert "error bound" in out


def test_eval_char_and_witten(capsys):
    code, out, _ = run(capsys, "--prec", "25", "eval", "cs(2b,1;2,1)")
    assert code == 0 and out.startswith("-0.1502571128949492")
    code, out, _ = run(capsys, "--prec", "25", "eval", "W(1,1,1)")
    assert code == 0 and out.startswith("2.4041138063191885")


def test_eval_prints_prec_digits_after_the_point(capsys):
    # 7 zeta(5) = 7.25849428600358948431955840519923917639956..., so prec
    # significant digits would print ...1764 (4.3e-40 off, over the 4.0e-40
    # contract); a value below 1 keeps prec significant digits
    code, out, _ = run(capsys, "--prec", "40", "eval", "7*zeta(5)")
    assert code == 0 and out.splitlines()[0] == "7.2584942860035894843195584051992391763996"
    code, out, _ = run(capsys, "--prec", "20", "eval", "1000*zeta(3)")
    assert code == 0 and out.splitlines()[0] == "1202.05690315959428539974"
    code, out, _ = run(capsys, "--prec", "20", "eval", "zeta(3)-zeta(3)")
    assert code == 0 and out.splitlines()[0] == "0.0"


def test_eval_exact_expression(capsys):
    code, out, _ = run(capsys, "eval", "B(12)")
    assert code == 0 and "-691/2730" in out and "exact" in out


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "dz(2,")
    assert code == 2 and "error" in err


def test_eval_over_its_bound_budget_is_an_error(capsys, monkeypatch):
    real = numerics._zeta_internal
    monkeypatch.setattr(numerics, "_zeta_internal", lambda s, D: (real(s, D)[0], mpf(1)))
    code, out, err = run(capsys, "eval", "zeta(3)")
    assert (code, out) == (2, "")
    assert err.startswith("error: expression: accumulated error bound 1.0 exceeds the node-count budget")


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "dz(3,2)")
    assert code == 0 and out.strip() == "1/2*pi^2*z3 - 11/2*z5"
    code, out, _ = run(capsys, "reduce", "zeta(6)")
    assert code == 0 and out.strip() == "1/945*pi^6"


def test_reduce_not_reducible_exit_3(capsys):
    for a, b in ((5, 3), (6, 2)):
        code, out, err = run(capsys, "reduce", f"dz({a},{b})")
        assert (code, out, err) == (3, "", f"not reducible: zeta({a},{b}) has weight 8 > 7\n")


def test_reduce_witten_names_its_first_leftover(capsys):
    code, _, err = run(capsys, "reduce", "W(2,2,4)")
    assert code == 3 and "Witten value leaves irreducible double zetas: zeta(6,2) has weight 8 > 7" in err


def test_reduce_witten_at_large_r_names_its_first_leftover(capsys):
    # r above the interpreter's recursion limit: the closed form needs no recursion
    code, out, err = run(capsys, "reduce", "W(600,3,3)")
    assert (code, out) == (3, "") and "zeta(603,3) has weight 606 > 7" in err


def test_reduce_witten_stops_at_its_first_leftover(capsys, monkeypatch):
    # zeta(4003,3) comes first in witten_terms' order, so the entry raises
    # before it folds zeta(4005,1), whose closed form holds about 2,000 zeta
    # products
    from mzv import reductions

    monkeypatch.setattr(reductions, "zeta_s1_reduce", None)
    code, out, err = run(capsys, "reduce", "W(4000,3,3)")
    assert (code, out) == (3, "")
    assert err == "not reducible: Witten value leaves irreducible double zetas: zeta(4003,3) has weight 4006 > 7\n"


def test_eval_tiny_positive_double_zeta_prints_no_negative_value(capsys):
    # zeta(400,2) is about 3.9e-121, far below a unit of 2^-W at P = 20: no
    # coefficient of the inner expansion may floor below zero
    code, out, _ = run(capsys, "--prec", "20", "eval", "dz(400,2)")
    assert code == 0 and float(out.splitlines()[0]) >= 0


@pytest.mark.parametrize("expr, call", [
    ("zeta(1)", "zeta(1)"), ("hsum_odd(1)", "hsum_odd(1)"), ("hsum_half(0)", "hsum_half(0)"),
    ("dz(1,2)", "zeta(1,2)"), ("W(0,0,1)", "W(0,0,1)"),
])
def test_reduce_out_of_domain_is_usage_error(capsys, expr, call):
    # a divergent call is bad input (exit 2, as for eval), not "not reducible" (3)
    code, out, err = run(capsys, "reduce", expr)
    assert code == 2 and out == "" and err.startswith(f"error: {call}")
    assert run(capsys, "eval", expr)[0] == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(mzv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "mzv", "reduce", "dz(3,2)"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1/2*pi^2*z3 - 11/2*z5"


def test_bernoulli_euler(capsys):
    code, out, _ = run(capsys, "bernoulli", "12")
    assert code == 0 and out.strip() == "-691/2730"
    code, out, _ = run(capsys, "euler", "4")
    assert code == 0 and out.strip() == "5"


def test_bernoulli_euler_negative_index_is_usage_error(capsys):
    # a negative index is bad input (exit 2), not a verification failure (exit 1)
    code, out, err = run(capsys, "bernoulli", "--", "-2")
    assert code == 2 and out == "" and err.startswith("error:") and "B_-2" in err
    code, out, err = run(capsys, "euler", "--", "-2")
    assert code == 2 and out == "" and err.startswith("error:") and "E_-2" in err


def test_eval_harmonic_sum_domain_names_the_call(capsys):
    code, _, err = run(capsys, "eval", "hsum_odd(1)")
    assert code == 2 and err.startswith("error: hsum_odd(1)")
    code, _, err = run(capsys, "eval", "hsum_half(0)")
    assert code == 2 and err.startswith("error: hsum_half(0)")


_FIVE = [arg for fam in search.FAMILIES for arg in ("--family", fam)]


@pytest.mark.parametrize("argv, golden", [
    pytest.param(["--height", "16"], "search_h16.txt", id="h16"),
    pytest.param(["--family", "poly", "--deg", "2"], "search_poly_deg2.txt", id="poly-deg2"),
    pytest.param([*_FIVE, "--height", "8"], "search_five_families_h8.txt", id="five-families-h8"),
])
def test_search_output_is_pinned(capsys, argv, golden):
    """`mzv search` writes the committed bytes: the survivors with their DSL
    entries, in order."""
    code, out, _ = run(capsys, "search", *argv)
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / golden).read_bytes()


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert "46 identities" in out
    assert "C29" in out


def test_verify_ids_and_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "--prec", "30", "verify", "--ids", "C18,C25", "--max-param", "4",
        "--format", "json", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["summary"]["failures"] == 0
    assert "timestamp" not in payload
    assert (tmp_path / "verify_report.json").exists()
    assert (tmp_path / "verify_report.tsv").exists()


def test_verify_no_timestamp_is_byte_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ("--prec", "30", "verify", "--ids", "C18,C25", "--max-param", "4",
            "--format", "json", "--no-timestamp")
    code, first, _ = run(capsys, *argv)
    written = (tmp_path / "verify_report.json").read_bytes()
    code2, second, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert first == second
    assert (tmp_path / "verify_report.json").read_bytes() == written
    payload = json.loads(first)
    assert "elapsed_seconds" not in payload["summary"]
    assert payload["summary"]["instances"] > 0


def test_verify_failure_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corrupted = tmp_path / "bad.txt"
    corrupted.write_text(
        "identity C99 : forall s>=3 : sum(j=2..s-1, dz(j,s-j)) == 1000001/1000000*zeta(s)\n"
    )
    code, out, _ = run(
        capsys, "--prec", "30", "--corpus", str(corrupted), "verify", "--max-param", "4"
    )
    assert code == 1
    assert "FAIL" in out


@pytest.fixture
def str_limit():
    """Python's default limit on integer-to-text conversion, 4300 digits."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("Python converts integers of any length to text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("cmd, expr", [
    ("reduce", "10^4300"), ("eval", "10^5000"), ("eval", "fact(2000)"),
    ("reduce", "10^4300*zeta(3)"), ("eval", "1/10^4300"),
])
def test_an_exact_result_too_long_to_print_is_usage_error(capsys, str_limit, cmd, expr):
    code, out, err = run(capsys, cmd, expr)
    assert (code, out) == (2, "")
    assert err == "error: the exact result is too long to print (over 4300 digits)\n"
    code, out, _ = run(capsys, cmd, "10^4299")
    assert code == 0 and out.startswith(f"{10**4299}")


@pytest.mark.parametrize("cmd", ["bernoulli", "euler"])
def test_a_number_too_long_to_print_is_usage_error(capsys, str_limit, cmd):
    sys.set_int_max_str_digits(640)  # the smallest limit Python allows
    code, out, err = run(capsys, cmd, "600")
    assert (code, out) == (2, "")
    assert err == "error: the exact result is too long to print (over 640 digits)\n"
    code, out, _ = run(capsys, cmd, "100")
    assert code == 0 and len(out) > 50


def test_verify_reports_an_exact_residual_too_long_to_print(capsys, str_limit, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    big = tmp_path / "big.txt"
    big.write_text("identity X1 : 10^5000 == 0\n")
    code, out, _ = run(capsys, "--corpus", str(big), "verify", "--mode", "both")
    assert code == 1
    assert out.count("FAIL         X1 [] residual=1.00000e+5000 expect=must-pass") == 2


def test_verify_unknown_id(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "--ids", "NOPE")
    assert code == 2


def test_search_power_cli(capsys):
    code, out, _ = run(capsys, "search", "--family", "power", "--height", "2")
    assert code == 0
    assert "'a': '1'" in out and "'a': '2'" in out
    assert "surviving candidate" in out


def test_search_poly_cli(capsys):
    code, out, _ = run(capsys, "search", "--family", "poly", "--deg", "2")
    assert code == 0
    assert "j*(s-j)" in out


@pytest.mark.parametrize("cmd, expr", [("reduce", "0^(0-1)"), ("eval", "(pi-pi)^(0-1)")])
def test_zero_to_a_negative_power_is_usage_error(capsys, cmd, expr):
    code, out, err = run(capsys, cmd, expr)
    assert (code, out, err) == (2, "", "error: 0 raised to a negative power\n")


@pytest.mark.parametrize("cmd, expr, message", [
    ("eval", "s+1", "unbound parameter s"),
    ("eval", "sum(j=1..n, j)", "unbound parameter n"),
    ("eval", "zeta(s)*dz(a,2)", "unbound parameters a, s"),
    ("reduce", "s+1", "unbound parameter s"),
    ("reduce", "sum(j=1..3, j*k)", "unbound parameter k"),
    ("eval", "sum(j=1..j, j)", "unbound parameter j"),
    # an inexact call argument exits the same way and names the argument
    ("eval", "binom(3,zeta(2))", "binom k must be exact"),
    # so does a call with the wrong number of arguments
    ("eval", "zeta(1,2)", "zeta takes 1 argument, got 2 (line 1, col 1)"),
    ("reduce", "1+binom(3)", "binom takes 2 arguments, got 1 (line 1, col 3)"),
])
def test_unbound_parameter_is_usage_error(capsys, cmd, expr, message):
    code, out, err = run(capsys, cmd, expr)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("expr, message", [
    ("2^(1/2)", "exponent must be an integer, got 1/2"),
    ("2^pi", "exponent must be exact"),
    ("zeta(pi)", "zeta argument must be exact"),
    ("binom(3,zeta(2))", "binom k must be exact"),
    ("dz(3,pi)", "dz argument must be exact"),
    ("1/0", "division by zero"),
    ("sum(j=1..4^(1/2), j)", "exponent must be an integer, got 1/2"),
    ("sum(j=1..pi, j)", "pi is not allowed in a sum bound"),
    ("sum(j=1..B(2), j)", "B(2) is not allowed in a sum bound"),
])
def test_eval_and_reduce_reject_an_inexact_integer_alike(capsys, expr, message):
    # a call argument, an exponent and a sum bound must be an exact integer in
    # every mode, with the same usage-error text
    for cmd in ("eval", "reduce"):
        assert run(capsys, cmd, expr) == (2, "", f"error: {message}\n"), cmd


def test_verify_all_and_ids_are_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda config: calls.append(config))
    code, out, err = run(capsys, "verify", "--all", "--ids", "C01")
    assert code == 2 and out == ""
    assert "argument --ids: not allowed with argument --all" in err
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (("--prec", "5", "search", "--height", "2"), "precision must be at least 10 digits"),
    (("search", "--height", "0"), "search height must be at least 1, got 0"),
    (("search", "--height", "-3"), "search height must be at least 1, got -3"),
    (("search", "--family", "poly", "--deg", "-1"), "polynomial degree must be 0, 1 or 2, got -1"),
    (("search", "--family", "poly", "--deg", "5"), "polynomial degree must be 0, 1 or 2, got 5"),
])
def test_search_bad_settings_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_search_screen_precision_error_is_usage_error(capsys, monkeypatch):
    # evaluation bounds that cannot resolve the screen tolerance (values unchanged)
    dz = numerics._dzeta_internal
    monkeypatch.setattr(numerics, "_dzeta_internal", lambda a, b, D: (dz(a, b, D)[0], mpf(10) ** -20))
    code, out, err = run(capsys, "search", "--family", "power", "--height", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: numeric screen at s=9: error bound")


def test_search_screen_digits_follow_its_tolerance(capsys, monkeypatch):
    # the screen works at max(prec, tol_exp) + 10 digits: a low --prec prints
    # the same search as the default, and a finer tolerance still resolves
    code, out40, _ = run(capsys, "search", "--family", "power", "--height", "2")
    assert code == 0
    code, out10, err = run(capsys, "--prec", "10", "search", "--family", "power", "--height", "2")
    assert (code, out10, err) == (0, out40, "")
    monkeypatch.setattr(search, "SCREEN_TOL_EXP", 60)
    code, out60, _ = run(capsys, "search", "--family", "power", "--height", "2")
    assert (code, out60) == (0, out40)


def test_search_low_precision_keeps_true_identities(capsys):
    code, out, _ = run(capsys, "--prec", "15", "search", "--family", "power", "--height", "2")
    assert code == 0
    assert "'a': '1'" in out and "'a': '2'" in out and "'a': '-1'" in out
    assert "# 3 surviving candidate(s)" in out


@pytest.mark.parametrize("argv", [("verify", "--max-param", "4"), ("corpus", "list")])
def test_missing_corpus_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "nope.txt")
    code, _, err = run(capsys, "--corpus", missing, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot read corpus {missing}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "verify_report.json").exists()


def test_missing_corpus_from_environment_is_usage_error(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "nope.txt")
    monkeypatch.setenv("MZV_CORPUS", missing)
    code, _, err = run(capsys, "corpus", "list")
    assert code == 2
    assert err == f"error: cannot read corpus {missing}: No such file or directory\n"


@pytest.mark.parametrize("argv", [("verify", "--max-param", "4"), ("corpus", "list")])
def test_unparsable_corpus_names_the_position(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("identity C99 : forall s>=3 : dz(2,\n")
    code, _, err = run(capsys, "--corpus", str(bad), *argv)
    assert code == 2
    assert err.startswith(f"error: {bad}: ") and "(line 1" in err


def test_report_paths_are_checked_before_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda config: calls.append(config))
    for flag in ("--json-out", "--tsv-out"):
        target = str(tmp_path / "missing" / "x")
        code, _, err = run(capsys, "verify", flag, target)
        assert code == 2
        assert err == f"error: cannot write {target}: no directory {tmp_path / 'missing'}\n"
    assert calls == []


def test_report_write_failure_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a directory where the report file should go: open() fails after the run
    code, _, err = run(
        capsys, "--prec", "30", "verify", "--ids", "C18", "--max-param", "4",
        "--json-out", str(tmp_path),
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_max_param_range(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "--max-param", "-2")
    assert code == 2
    assert err == "error: --max-param must be >= 0, got -2\n"
    # 0 is in range: each identity still runs its lowest instance
    code, out, _ = run(
        capsys, "--prec", "30", "verify", "--ids", "C18,C25", "--max-param", "0",
        "--format", "json", "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["summary"]["instances"] == 2
