import fcntl
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadralab
from quadralab.cli import EXIT_BROKEN_PIPE, main
from quadralab.poly import PolyRing


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHilbert:
    def test_modular_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "6", "--mod-p", "65537", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dims"] == [1, 4, 10, 16, 19, 20, 20]
        assert payload["backend"] == "modular p=65537"
        assert payload["modular_sqrt_minus_one"] == 256

    def test_large_prime_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "6", "--mod-p", "2147483713", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"] == [1, 4, 10, 16, 19, 20, 20]

    @pytest.mark.parametrize("prime, reason", [
        ("65539", "1 mod 4"),
        ("65541", "not prime"),
        ("0", "not prime"),
        ("3317044064679887385961981", "3317044064679887385961981"),
    ], ids=["three_mod_four", "composite", "zero", "above_primality_bound"])
    def test_bad_prime_is_exit_two(self, capsys, prime, reason):
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "3", "--mod-p", prime)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --mod-p") and reason in err

    def test_prime_dividing_a_denominator_is_exit_two(self, capsys):
        # 5 is a usable prime, but gamma = -1/5 has no residue mod 5
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta=-3", "--gamma=-1/5",
            "--degree", "3", "--mod-p", "5")
        assert code == 2
        assert out == "" and err.startswith("error:") and "5" in err

    def test_exact_run(self, capsys):
        # negative literals need the --flag=value spelling under argparse
        code, out, _ = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta=-3",
            "--gamma=-1/5", "--degree", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"] == [1, 4, 10, 20, 35]

    def test_deterministic_output(self, capsys):
        args = ("hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
                "--degree", "3", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_reused_parser_keeps_no_state(self, capsys):
        # the parser is built once per process: neither an earlier option
        # nor an argparse error may reach a later call
        args = ("hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
                "--degree", "3")
        code, out, _ = run_cli(capsys, *args, "--mod-p", "65537", "--format", "json")
        assert code == 0 and json.loads(out)["prime"] == 65537
        with pytest.raises(SystemExit) as exc:
            main(["hilbert", "--degree", "three"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert "prime" not in payload and payload["backend"] == "exact"
        assert payload["dims"] == [1, 4, 10, 16]

    def test_cap_respected(self, capsys):
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "9")
        assert code == 2
        assert out == "" and err.startswith("error:") and "cap" in err

    def test_degree_past_default_cap_is_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "8")
        assert code == 2
        assert out == "" and err.startswith("error: degree 8 exceeds the cap 7")

    def test_malformed_cap_variable_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("QUADRALAB_DEGREE_CAP", "x")
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5")
        assert code == 2
        assert out == "" and err.startswith("error: QUADRALAB_DEGREE_CAP")

    def test_negative_cap_variable_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("QUADRALAB_DEGREE_CAP", "-1")
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree", "0")
        assert code == 2
        assert out == "" and err.startswith("error: QUADRALAB_DEGREE_CAP") and "-1" in err

    def test_negative_degree_is_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "hilbert", "--alpha", "2", "--beta", "3", "--gamma", "5",
            "--degree=-3")
        assert code == 2
        assert out == "" and err.startswith("error: --degree")


class TestChl:
    def test_params_payload(self, capsys):
        code, out, _ = run_cli(capsys, "chl", "params", "--abcd", "1,2,-4,2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "1/7"
        assert payload["beta"] == "-9"
        assert payload["gamma"] == "-4"
        assert payload["parameter_sum"] == "-54/7"

    def test_classify_line_point(self, capsys):
        code, out, _ = run_cli(capsys, "chl", "classify", "--abcd=-2i,1,-i,2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["locus"] == "l1" and not payload["excluded"]
        assert payload["special_alpha"] == "7/25-24/25*i"
        assert payload["parameter_sum"] == "0"

    def test_center_run(self, capsys):
        code, out, _ = run_cli(capsys, "chl", "center", "--abcd", "1,2,-4,2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["Z1_central"] and payload["Z2_central"]

    @pytest.mark.parametrize("abcd, rho", [("1,1,3,1", "rho2"), ("1,2,5,0", "rho3")])
    def test_center_where_psi_radicand_vanishes(self, capsys, abcd, rho):
        code, out, err = run_cli(capsys, "chl", "center", "--abcd", abcd, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["Z1_central"] is True and payload["Z2_central"] is None
        assert payload["Z2_note"] == f"precondition violated: {rho} vanishes"
        assert "Z2_z_basis" not in payload

    def test_bad_tuple_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "chl", "params", "--abcd", "1,2")
        assert code == 2 and "abcd" in err

    @pytest.mark.parametrize("argv", [
        ("points", "--abc", "2,,3,5"),
        ("points", "--abc", "2,3,5,"),
        ("chl", "params", "--abcd", "1,2,,-4,2"),
    ], ids=["empty-middle", "trailing-comma", "empty-abcd"])
    def test_empty_list_item_is_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err

    def test_center_has_no_abcd_route(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "center", "--abcd", "1,2,-4,2")
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "error:" in err


class TestOtherCommands:
    def test_verify_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-gamma", "--alpha", "4", "--beta", "9",
            "--gamma", "25", "--abc", "2,3,5", "--format", "json")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["evaluation_kernel_dimension"] == 6
        assert not report["failures"]

    def test_verify_gamma_refuses_bad_roots(self, capsys):
        # a parameter outside the command's domain is a failed check: exit 1,
        # the reason on stderr and no report
        code, out, err = run_cli(
            capsys, "verify-gamma", "--alpha", "4", "--beta", "9",
            "--gamma", "25", "--abc", "2,3,4")
        assert code == 1
        assert err.startswith("check failed: ")
        assert "c^2 does not equal the parameter" in err
        assert out == ""

    def test_points(self, capsys):
        code, out, _ = run_cli(capsys, "points", "--abc", "2,3,5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["distinct"]
        assert payload["strata"]["0"][0] == ["1", "1/15", "1/10", "1/6"]

    def test_minors_symbolic(self, capsys):
        code, out, _ = run_cli(capsys, "minors", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["factorizations"]) == 15

    @pytest.mark.parametrize("given, missing", [
        (("--beta", "3"), "alpha"),
        (("--alpha", "2"), "beta"),
        (("--alpha", "2", "--beta", "3"), "gamma"),
    ], ids=["beta-only", "alpha-only", "no-gamma"])
    def test_minors_with_some_parameters_names_the_missing_one(self, capsys, given,
                                                                 missing):
        code, out, err = run_cli(capsys, "minors", *given)
        assert code == 2 and out == "" and f"missing --{missing}" in err

    def test_autos(self, capsys):
        code, out, _ = run_cli(capsys, "autos", "--abc", "2,3,5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbits"]["non_coordinate"] == [16]
        assert payload["orbits"]["faithful"]

    def test_identities(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["squares_suite"].values())

    def test_identities_compare_no_rings_by_value(self, capsys, monkeypatch):
        # operands of one ring share the ring object, so _lift and coerce
        # settle on identity and never reach PolyRing.__eq__
        calls = []
        equal = PolyRing.__eq__
        monkeypatch.setattr(PolyRing, "__eq__",
                            lambda self, other: calls.append(1) or equal(self, other))
        code, _, _ = run_cli(capsys, "identities")
        assert code == 0 and len(calls) == 0

    def test_iso_invariants(self, capsys):
        code, out, _ = run_cli(capsys, "iso-invariants", "--alpha", "2",
                               "--beta", "3", "--gamma", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["invariants"]) == 24
        assert all(v["match"] for v in payload["invariants"].values())

    @pytest.mark.parametrize("params", [(0, 3, 5), (0, 0, 0), (0, 1, -1)],
                             ids=lambda p: ",".join(map(str, p)))
    def test_iso_invariants_with_a_zero_parameter(self, capsys, params):
        # at alpha = 0 the bracket [x0,x1] is itself a relation, so mu1 = 0
        alpha, beta, gamma = params
        code, out, _ = run_cli(capsys, "iso-invariants", f"--alpha={alpha}",
                               f"--beta={beta}", f"--gamma={gamma}", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["invariants"]) == 24
        assert all(v["match"] for v in payload["invariants"].values())

    def test_center_sklyanin_family(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--alpha", "2", "--beta", "3",
                               "--gamma", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["squares_central"].values())

    def test_selftest_subset(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--only", "A1", "A11")
        assert code == 0
        assert "PASS A1" in out and "PASS A11" in out

    def test_selftest_stdout_is_the_verdict_alone(self, capsys):
        # the wall time goes to stderr, so stdout is the same on any host
        code, out, err = run_cli(capsys, "selftest", "--only", "A11")
        assert code == 0
        assert out == ("PASS A11: commutative quotient of degree 2 is the square-free span "
                       "(dim 6, pivot monomials [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), "
                       "(2, 3)])\n")
        assert re.fullmatch(r"A11 \d+\.\ds\n", err)

    def test_selftest_json_is_one_document(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--only", "A9", "--format", "json")
        assert code == 0
        [result] = json.loads(out)["results"]
        assert result["name"] == "A9" and result["passed"]
        assert result["seconds"] >= 0

    def test_selftest_unknown_criterion_is_exit_two(self, capsys):
        # an unknown name refuses the whole run, the known ones included
        code, out, err = run_cli(capsys, "selftest", "--only", "A1", "A99", "--format", "json")
        assert code == 2
        assert out == ""
        assert err == "error: no acceptance criterion named A99\n"

    def test_malformed_scalar_is_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "hilbert", "--alpha", "2x", "--beta",
                               "3", "--gamma", "5")
        assert code == 2


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs a pipe of settable size")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_early_is_exit_141_without_traceback(unbuffered):
    # the 4.9 kB report overfills a one-page pipe, so the CLI is still
    # writing when the reader stops, whatever the timing
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(quadralab.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadralab.cli", "points", "--abc", "2,3,5", "--format", "json"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    try:
        assert os.read(read_fd, 16).startswith(b"{")
    finally:
        os.close(read_fd)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert err == b""
