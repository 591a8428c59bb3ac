"""Command-line behavior: subcommands, exit codes, deterministic reports."""

import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import c0lat
from c0lat import cli, jordan, suites
from c0lat.blaschke import BlaschkeProduct, elementary, monomial, multiply
from c0lat.calculus import apply_blaschke
from c0lat.cli import main
from c0lat.serialize import encode_matrix, stable_json_bytes


@pytest.fixture
def files(tmp_path):
    paths = {}

    def blaschke_file(name, product):
        p = tmp_path / name
        p.write_text(json.dumps(product.to_json_dict()))
        return str(p)

    def matrix_file(name, matrix):
        p = tmp_path / name
        p.write_text(json.dumps(encode_matrix(matrix)))
        return str(p)

    paths["z"] = blaschke_file("z.json", monomial(1))
    paths["z2"] = blaschke_file("z2.json", monomial(2))
    paths["zb"] = blaschke_file("zb.json", multiply(monomial(1), elementary(0.5)))
    paths["diag"] = matrix_file("diag.json", np.diag([0.5, 0.0]).astype(complex))
    paths["unitary"] = matrix_file("unitary.json", np.eye(2))
    # eigenvalues too close for the clustering ladder to certify
    paths["close"] = matrix_file("close.json", np.diag([0.5, 0.5001]).astype(complex))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- inner -----------------------------------------------------------------------

def test_inner_gcd_prints_z(capsys, files):
    code, out, _ = run(capsys, "inner", "gcd", files["z2"], files["zb"])
    assert code == 0
    assert out.strip() == "B[z]"


def test_inner_divides(capsys, files):
    code, out, _ = run(capsys, "inner", "divides", files["z2"], files["zb"])
    assert code == 0 and out.strip() == "false"


def test_inner_eval(capsys, files):
    code, out, _ = run(capsys, "inner", "eval", files["zb"], "0.5+0j")
    assert code == 0
    assert complex(out.strip()) == pytest.approx(0.0)


def test_inner_eval_json_bytes(capsys, tmp_path):
    # evaluate keeps numpy's complex arithmetic: Python's differs in the last bits
    path = tmp_path / "b.json"
    path.write_text(json.dumps(elementary(0.5).to_json_dict()))
    code, out, _ = run(capsys, "inner", "eval", str(path), "0.3+0.1j", "--json")
    assert code == 0 and out == '{"im":-0.10344827586206898,"re":0.24137931034482762}\n'


def test_inner_eval_bad_point(capsys, files):
    code, _, err = run(capsys, "inner", "eval", files["zb"], "zzz")
    assert code == 2 and "error" in err


# --- model -----------------------------------------------------------------------

def test_model_shift_matrix(capsys, files):
    code, out, _ = run(capsys, "model", "shift", "--theta", files["z2"], "--json")
    assert code == 0
    data = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    assert np.max(np.abs(matrix - np.array([[0, 0], [1, 0]]))) < 1e-12


def test_model_lat_enum(capsys, files):
    code, out, _ = run(capsys, "model", "lat-enum", "--theta", files["z2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_model_divisor_subspace(capsys, files):
    code, out, _ = run(
        capsys, "model", "divisor-subspace", "--theta", files["z2"], "--phi", files["z2"]
    )
    assert code == 0 and "dim 0" in out


# --- calc / jordan ------------------------------------------------------------------

def test_calc_minfun(capsys, files):
    code, out, _ = run(capsys, "calc", "minfun", files["diag"])
    assert code == 0
    assert "z" in out and "0.5" in out


def test_calc_minfun_non_c0_is_input_error(capsys, files):
    code, _, err = run(capsys, "calc", "minfun", files["unitary"])
    assert code == 2 and "error" in err


def test_calc_classify_json_of_a_non_c0_matrix(capsys, files):
    code, out, _ = run(capsys, "calc", "classify", files["unitary"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["is_c0"] is False and data["annihilation_residual"] is None
    code, out, _ = run(capsys, "calc", "classify", files["unitary"])
    assert code == 0 and out.rstrip().endswith("annihilation_residual inf")


def test_calc_apply_poly(capsys, files):
    code, out, _ = run(capsys, "calc", "apply", files["diag"], "--poly", "0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 2


def test_calc_apply_requires_exactly_one_symbol(capsys, files):
    code, _, err = run(capsys, "calc", "apply", files["diag"])
    assert code == 2


def test_calc_apply_blaschke(capsys, files):
    code, out, err = run(capsys, "calc", "apply", files["diag"], "--blaschke", files["z2"], "--json")
    assert (code, err) == (0, "")
    expected = apply_blaschke(np.diag([0.5, 0.0]), monomial(2))
    assert out.encode() == stable_json_bytes(encode_matrix(expected))
    code, out, _ = run(capsys, "calc", "apply", files["diag"], "--blaschke", files["z2"])
    assert code == 0 and out == "  [+0.25+0j, +0+0j]\n  [+0+0j, +0+0j]\n"


def test_calc_apply_bad_poly_coefficient_is_usage_error(capsys, files):
    code, out, err = run(capsys, "calc", "apply", files["diag"], "--poly", "1,x")
    assert code == 2 and out == ""
    assert err == "c0lat: error: cannot parse --poly '1,x'\n"


@pytest.mark.parametrize(
    "argv", [["--poly", "nan"], ["--poly", "1,inf"], ["--poly", "nan", "--json"]],
    ids=["nan", "inf", "nan-json"],
)
def test_calc_apply_non_finite_poly_coefficient_is_input_error(capsys, files, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "calc", "apply", files["diag"], *argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "coefficients must be finite" in err


def test_jordan_model_and_quasisim(capsys, files):
    code, out, _ = run(capsys, "jordan", "model", files["diag"])
    assert code == 0 and "b(0.5" in out
    code, out, _ = run(capsys, "jordan", "quasisim", files["diag"], files["diag"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "jordan", "intertwine", files["diag"], files["diag"], "--json")
    assert code == 0
    assert json.loads(out) == {"dimension": 2, "max_rank": 2}


@pytest.mark.parametrize("command", [("jordan", "model"), ("calc", "minfun")])
def test_uncertifiable_matrix_exits_three_with_one_line(capsys, files, command):
    code, out, err = run(capsys, *command, files["close"])
    assert code == 3
    assert out == ""
    assert err.startswith("c0lat: error: ") and err.count("\n") == 1


def test_failed_quasisimilarity_certificate_exits_three(capsys, files, monkeypatch):
    monkeypatch.setattr(jordan, "are_quasisimilar", lambda *args, **kwargs: False)
    code, out, err = run(capsys, "jordan", "model", files["diag"])
    assert code == 3
    assert out == ""
    assert err.startswith("c0lat: error: ") and err.count("\n") == 1


GCD = ["inner", "gcd", "FILE", "FILE"]
APPLY = ["calc", "apply", "--poly", "1", "FILE"]
NAN_TOLS = ["--tol", "annihilate=nan", "--tol", "floor=nan"]


@pytest.mark.parametrize(
    "payload, argv",
    [
        ('{"zeros": [{"re": NaN, "im": 0.0, "mult": 1}]}', GCD),
        ('{"zeros": [], "constant": {"re": NaN, "im": 0.0}}', GCD),
        ('{"zeros": [{"re": 0.5, "im": 0.0, "mult": 1}]}', ["inner", "eval", "FILE", "nan"]),
        ('{"rows": 1, "cols": 1, "entries": [[[NaN, 0.0]]]}', APPLY),
        ('{"rows": 1, "cols": 1, "entries": [[[Infinity, 0.0]]]}', APPLY),
        (None, ["verify", "prop14", "--trials", "2", *NAN_TOLS]),
        ('[{"re": 0.5, "im": 0.0, "mult": 1}]', GCD),
        ('{"zeros": [{"re": "0.5", "im": 0.0, "mult": 1}]}', GCD),
        ('{"zeros": [{"re": "0.5", "im": 0.0, "mult": 1}]}', ["verify", "distributive", "FILE"]),
        ('{"zeros": [{"re": 0.5, "im": 0.0, "mult": 2.7}]}', GCD),
        ('{"zeros": [{"re": 0.5, "im": 0.0, "mult": true}]}', GCD),
        ('{"rows": 1, "cols": 1, "entries": [[1]]}', ["calc", "minfun", "FILE"]),
    ],
    ids=[
        "nan-zero", "nan-constant", "nan-point", "nan-matrix", "infinite-matrix", "nan-tolerance",
        "list-payload", "string-re", "string-re-verify", "fractional-mult", "boolean-mult",
        "bare-number-entry",
    ],
)
def test_non_finite_input_is_input_error(capsys, tmp_path, payload, argv):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(payload)
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("c0lat: error: ") and err.count("\n") == 1


# --- verify ----------------------------------------------------------------------------

def test_verify_passing_suite_exit_zero(capsys, files):
    code, out, _ = run(capsys, "verify", "lattice-laws", "--seed", "5", "--trials", "10")
    assert code == 0
    assert "PASSED (10 trials" in out


def test_verify_inputs_may_follow_options(capsys, files):
    before = files["tmp"] / "before.json"
    after = files["tmp"] / "after.json"
    head = ["verify", "prop14"]
    opts = ["--trials", "2", "--json"]
    assert main(head + [files["zb"]] + opts + ["--out", str(before)]) == 0
    assert main(head + opts + [files["zb"], "--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()
    code, _, err = run(capsys, *head, *opts, "--flag", files["zb"])
    assert code == 2 and "unrecognized arguments: --flag" in err
    code, _, err = run(capsys, "inner", "gcd", files["z2"], files["zb"], files["zb"])
    assert code == 2 and "unrecognized arguments" in err


def test_verify_violation_exit_one(capsys, files):
    # an unreachable floor forces honest violations and the exit-1 path:
    # every ||phi(S)|| is at most 1 < 2
    code, out, _ = run(
        capsys,
        "verify", "prop14", files["zb"],
        "--seed", "1", "--trials", "2", "--tol", "floor=2",
    )
    assert code == 1
    assert "FAILED" in out and "maximality" in out


def test_verify_json_reports_are_byte_stable(files):
    out_a = files["tmp"] / "a.json"
    out_b = files["tmp"] / "b.json"
    argv = ["verify", "calculus", "--seed", "9", "--trials", "12", "--json"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["config"]["seed"] == 9
    assert payload["passed"] is True


@pytest.mark.parametrize("suite", ["modular-thm97", "x3-transfer"])
def test_thread_count_does_not_change_report(files, monkeypatch, suite):
    # each verifier call holds its own cache while the pool runs trials
    out_a = files["tmp"] / "t1.json"
    out_b = files["tmp"] / "t4.json"
    argv = ["verify", suite, "--seed", "3", "--trials", "2", "--json"]
    monkeypatch.setenv("C0LAT_THREADS", "1")
    assert main(argv + ["--out", str(out_a)]) == 0
    monkeypatch.setenv("C0LAT_THREADS", "4")
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_thread_count_defaults_to_one_worker(monkeypatch):
    monkeypatch.delenv("C0LAT_THREADS", raising=False)
    assert suites.thread_count() == 1


@pytest.mark.parametrize(
    "command, inputs",
    [
        (("verify",), ("lattice-laws",)),
        (("jordan", "model"), ("diag",)),
        (("jordan", "quasisim"), ("diag", "diag")),
        (("jordan", "intertwine"), ("diag", "diag")),
    ],
    ids=["verify", "jordan-model", "jordan-quasisim", "jordan-intertwine"],
)
def test_negative_seed_is_input_error(capsys, files, command, inputs):
    paths = [files.get(name, name) for name in inputs]
    code, out, err = run(capsys, *command, *paths, "--seed", "-5")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"c0lat {' '.join(command)}: error: argument --seed: "
        "must be a non-negative integer; got '-5'"
    )


def test_verify_seed_changes_report(files):
    out_a = files["tmp"] / "s1.json"
    out_b = files["tmp"] / "s2.json"
    main(["verify", "prop14", "--seed", "1", "--trials", "3", "--json", "--out", str(out_a)])
    main(["verify", "prop14", "--seed", "2", "--trials", "3", "--json", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_verify_tol_override(capsys, files):
    # absurdly tight tolerance forces violations
    code, out, _ = run(
        capsys, "verify", "propq-meetjoin", "--trials", "5", "--tol", "distance=1e-18"
    )
    assert code == 1


def test_verify_bad_tol_is_usage_error(capsys, files):
    # an empty name used to reach the suite as the tolerance ""
    for pair in ("nonsense", "=3", " =3"):
        code, out, err = run(capsys, "verify", "prop14", "--tol", pair)
        assert code == 2 and out == ""
        assert err == f"c0lat: error: --tol expects NAME=VALUE, got {pair!r}\n"
    code, out, err = run(capsys, "verify", "prop14", "--tol", "annihilate=abc")
    assert code == 2 and out == ""
    assert err == "c0lat: error: --tol 'annihilate=abc': could not convert string to float: 'abc'\n"


def test_verify_seed_that_is_not_a_number_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "prop14", "--seed", "abc")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "c0lat verify: error: argument --seed: must be a non-negative integer; got 'abc'"
    )


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_needs_a_positive_trial_count(capsys, trials):
    code, out, err = run(capsys, "verify", "prop14", "--trials", trials)
    assert code == 2 and out == ""
    assert err == "c0lat: error: trials must be positive\n"


def test_verify_text_report_lists_twenty_violations_then_counts_the_rest(capsys):
    # every ||phi(S)|| is at most 1 < 2, so each maximal divisor is a violation
    code, out, _ = run(capsys, "verify", "prop14", "--trials", "30", "--tol", "floor=2")
    assert code == 1
    lines = out.splitlines()
    failed = int(lines[2].split()[1][1:])
    assert failed > 20
    assert len([line for line in lines if line.startswith("  trial ")]) == 20
    assert lines[-1] == f"  ... {failed - 20} more" and len(lines) == 3 + 20 + 1


def test_verify_rejects_a_file_that_is_neither_payload(capsys, files):
    path = files["tmp"] / "neither.json"
    path.write_text('{"foo": 1}')
    code, out, err = run(capsys, "verify", "prop14", str(path), "--trials", "1")
    assert code == 2 and out == ""
    assert err == f"c0lat: error: {path}: not a Blaschke product or matrix payload\n"


def _one_error_line(err):
    return err.startswith("c0lat: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_rejects_an_unknown_tolerance_name(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--trials", "1", "--tol", "nosuch=1e-30")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "no tolerance nosuch" in err


def test_unknown_tolerance_message_lists_the_accepted_names(capsys):
    # a misspelt name used to run with the default and list itself in the config
    argv = ["verify", "modular-thm97", "--trials", "3", "--tol", "modulr=1e-30"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "(accepted: intertwine, modular, preimage)" in err
    # suite parameters are not tolerances either
    code, _, err = run(capsys, "verify", "modular-thm97", "--trials", "1", "--tol", "triples=5")
    assert code == 2 and _one_error_line(err)
    with pytest.raises(ValueError, match="accepted: certificate"):
        suites.jordan_model_suite(trials=1, certifcate=1e-7)


BLASCHKE_INPUT_SUITES = (
    "distributive", "lattice-laws", "oracle-latmatch", "prop14", "propq-meetjoin"
)


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_rejects_input_files_of_the_wrong_kind(capsys, files, suite):
    # duality takes no inputs, so any file is the wrong kind for it
    wrong = files["diag"] if suite in BLASCHKE_INPUT_SUITES else files["zb"]
    code, out, err = run(capsys, "verify", suite, wrong, "--trials", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "input 1 is a" in err


@pytest.mark.parametrize(
    "zeros, reason",
    [
        ([(0.5, 2)], "a zero of multiplicity 2"),
        ([(0.8 * np.exp(2j * np.pi * k / 11), 1) for k in range(11)], "degree 11"),
        (
            [(0.5, 1), (0.5000001, 1), (-0.3 + 0.2j, 1)],
            "eigenvalues 0.5000001+0j and 0.5+0j closer than 1e-06",
        ),
    ],
)
def test_oracle_latmatch_rejects_inputs_the_oracle_cannot_take(capsys, files, zeros, reason):
    # these used to fail inside a trial, with the oracle's own message
    path = files["tmp"] / "theta.json"
    path.write_text(json.dumps(BlaschkeProduct(tuple(zeros)).to_json_dict()))
    code, out, err = run(capsys, "verify", "oracle-latmatch", files["zb"], str(path), "--trials", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and err.endswith(f"degree at most 10; input 2 has {reason}\n")


@pytest.mark.parametrize("suite", ["distributive", "propq-meetjoin"])
def test_zeros_below_the_separation_floor_exit_three(capsys, files, suite):
    # 0.5 and 0.5 + 4e-8 keep a maximality floor of 5.3e-8, above
    # 2 TOL_EQUALS; 0.5 and 0.5 + 1e-9 have 1.3e-9 and are refused
    paths = []
    for d in (4e-8, 1e-9):
        path = files["tmp"] / f"pair-{d}.json"
        path.write_text(json.dumps(BlaschkeProduct(((0.5, 1), (0.5 + d, 1))).to_json_dict()))
        paths.append(str(path))
    code, out, err = run(capsys, "verify", suite, paths[0], "--trials", "20")
    assert (code, err) == (0, "") and "PASSED" in out
    code, out, err = run(capsys, "verify", suite, files["zb"], paths[1], "--trials", "1")
    assert code == 3 and out == ""
    assert _one_error_line(err) and f"{suite} input 2 has zero separation 1.33e-09" in err


def test_oracle_latmatch_runs_on_a_given_theta(capsys, files):
    code, out, err = run(capsys, "verify", "oracle-latmatch", files["zb"], "--trials", "2", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["passed"] is True and report["trials"] == 2
    assert report["config"]["input_paths"] == [files["zb"]]


def test_oracle_latmatch_says_a_constant_theta_is_constant(capsys, files):
    # it used to relay "compressed shift requires a nonconstant inner function"
    path = files["tmp"] / "const.json"
    path.write_text(json.dumps(BlaschkeProduct(()).to_json_dict()))
    code, out, err = run(capsys, "verify", "oracle-latmatch", files["zb"], str(path), "--trials", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and err.endswith("degree at most 10; input 2 is constant\n")


def test_distributive_rejects_a_theta_with_too_many_divisors(capsys, files, monkeypatch):
    # 2048 divisors used to run out of memory in the pairwise closure and exit 1
    def unused(theta):
        raise AssertionError("distributive enumerated the lattice")

    monkeypatch.setattr(suites, "enumerate_lattice", unused)
    path = files["tmp"] / "theta.json"
    zeros = tuple((0.7 * np.exp(2j * np.pi * k / 11), 1) for k in range(11))
    path.write_text(json.dumps(BlaschkeProduct(zeros).to_json_dict()))
    code, out, err = run(capsys, "verify", "distributive", files["zb"], str(path), "--trials", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and err.endswith("at most 256 divisors; input 2 has 2048\n")


@pytest.mark.parametrize("suite", ["modular-thm97", "x3-transfer"])
def test_trials_count_the_sampled_checks_on_each_input_file(capsys, files, suite):
    inputs = (files["diag"], files["diag"])
    code, out, _ = run(capsys, "verify", suite, *inputs, "--trials", "2", "--json")
    assert code == 0
    assert json.loads(out)["trials"] == 4


def test_x3_transfer_rejects_a_matrix_that_is_not_c0(capsys, files):
    path = files["tmp"] / "expanding.json"
    path.write_text(json.dumps(encode_matrix(np.diag([2.0, 0.1]))))
    code, out, err = run(capsys, "verify", "x3-transfer", str(path), "--trials", "2")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "C0" in err


@pytest.mark.parametrize("suite", ["calculus", "modular-thm97", "x3-transfer"])
def test_verify_rejects_a_matrix_that_is_not_square(capsys, files, suite):
    path = files["tmp"] / "wide.json"
    path.write_text(json.dumps(encode_matrix(np.array([[0.1, 0.2]]))))
    code, out, err = run(capsys, "verify", suite, str(path), "--trials", "1")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "input 1 has shape (1, 2)" in err


EMPTY_MATRIX = {"rows": 0, "cols": 0, "entries": []}


@pytest.mark.parametrize(
    "command, expected",
    [
        (("calc", "minfun", "M"), {"constant": {"im": 0.0, "re": 1.0}, "zeros": []}),
        (("jordan", "model", "M"), {"thetas": []}),
        (("jordan", "quasisim", "M", "M"), {"quasisimilar": True}),
        (("jordan", "intertwine", "M", "M"), {"dimension": 0, "max_rank": 0}),
    ],
)
def test_matrix_commands_accept_the_zero_by_zero_payload(capsys, files, command, expected):
    # the operator on the zero space: C0, its own Jordan model, with the
    # empty identity as quasiaffinity
    path = files["tmp"] / "empty.json"
    path.write_text(json.dumps(EMPTY_MATRIX))
    argv = [str(path) if word == "M" else word for word in command]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "") and json.loads(out) == expected


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_verify_on_the_zero_by_zero_payload_exits_cleanly(capsys, files, suite):
    path = files["tmp"] / "empty.json"
    path.write_text(json.dumps(EMPTY_MATRIX))
    code, out, err = run(capsys, "verify", suite, str(path), "--trials", "2")
    assert (code, err) == (0, "") or (code == 2 and out == "" and _one_error_line(err))


def test_verify_parses_each_input_file_once(capsys, files, monkeypatch):
    loaded = []

    def recording(path):
        loaded.append(path)
        return load_json(path)

    load_json = cli.load_json
    monkeypatch.setattr(cli, "load_json", recording)
    monkeypatch.setattr(cli, "decode_matrix_file", None)  # a second parse would call it
    code, _, _ = run(capsys, "verify", "calculus", files["diag"], files["diag"], "--trials", "2")
    assert code == 0 and loaded == [files["diag"], files["diag"]]


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "nosuch"]) == 2


def test_malformed_json_is_input_error(capsys, files):
    code, _, err = run(capsys, "inner", "gcd", files["bad"], files["z2"])
    assert code == 2


def test_missing_file_is_input_error(capsys, files):
    code, _, err = run(capsys, "calc", "minfun", str(files["tmp"] / "nope.json"))
    assert code == 2


def test_help_lists_suites(capsys):
    code = main(["verify", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "modular-thm97" in out and "duality" in out


# --- cold start -------------------------------------------------------------------

def _fresh(*args):
    """Run ``python -X importtime *args`` in a fresh interpreter with the package
    on its path: (exit code, stdout, names of the modules it imported)."""
    package_root = os.path.dirname(os.path.dirname(c0lat.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    lines = done.stderr.decode().splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return done.returncode, done.stdout, imported


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import c0lat"),
        ("-m", "c0lat.cli", "inner", "gcd", "z2", "zb"),
        ("-m", "c0lat.cli", "model", "shift", "--theta", "zb"),
        ("-m", "c0lat.cli", "calc", "minfun", "diag"),
    ],
    ids=["import", "inner-gcd", "model-shift", "calc-minfun"],
)
def test_cold_path_leaves_scipy_linalg_unloaded(files, args):
    code, _, imported = _fresh(*(files.get(a, a) for a in args))
    if args[0] == "-c":
        # import c0lat loads no submodule and no numpy until a name is used
        assert code == 0 and not {m for m in imported if m.startswith(("c0lat.", "numpy"))}
    else:
        # inner's gcd is multiset arithmetic on zeros: it starts without numpy
        assert code == 0 and ("numpy" in imported) == (args[2] != "inner")
    assert "scipy.linalg" not in imported


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (("-m", "c0lat.cli", "inner", "lcm", "z2", "zb"), 0),
        (("-m", "c0lat.cli", "inner", "divides", "z2", "zb"), 0),
        (("-m", "c0lat.cli", "--help"), 0),
        (("-m", "c0lat.cli", "inner", "--help"), 0),
        (("-m", "c0lat.cli", "verify", "--help"), 0),
        (("-m", "c0lat.cli", "inner", "gcd", "z2"), 2),
        (("-c", "import c0lat.blaschke, c0lat.serialize"), 0),
    ],
    ids=["inner-lcm", "inner-divides", "help", "inner-help", "verify-help", "usage-error",
         "import-blaschke-serialize"],
)
def test_arithmetic_and_help_start_without_numpy(files, args, exit_code):
    # inner gcd is held to this by test_cold_path_leaves_scipy_linalg_unloaded
    code, _, imported = _fresh(*(files.get(a, a) for a in args))
    assert code == exit_code and not {m for m in imported if m.split(".")[0] == "numpy"}


_LOADED = """
import runpy, sys
sys.argv[0] = "c0lat"
try:
    runpy.run_module("c0lat.cli", run_name="__main__")
finally:
    print(*(m.removeprefix("c0lat.") for m in sys.modules if m.startswith("c0lat.")))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("inner", "gcd", "z2", "zb"), {"blaschke", "serialize"}),
        (("--help",), {"blaschke", "serialize"}),
        (("verify", "--help"), {"blaschke", "serialize"}),
        (("model", "shift", "--theta", "zb"),
         {"blaschke", "serialize", "modelspace", "calculus", "subspace"}),
        (("calc", "minfun", "diag"), {"blaschke", "serialize", "calculus", "subspace"}),
    ],
    ids=["inner-gcd", "help", "verify-help", "model-shift", "calc-minfun"],
)
def test_command_loads_only_the_modules_it_uses(files, argv, modules):
    # the last line is sys.modules of a fresh launch, which sees every import
    code, out, _ = _fresh("-c", _LOADED, *(files.get(a, a) for a in argv))
    assert code == 0 and set(out.decode().splitlines()[-1].split()) == modules


# the names `import c0lat` bound when it loaded every module, by home module
PUBLIC = {
    "blaschke": "BlaschkeProduct UnitDiskPoint almost_equiv divide divides divisors "
    "elementary equiv evaluate gcd lcm monomial multiply",
    "calculus": "C0Certificate apply_blaschke apply_polynomial classify_c0 eigenstructure "
    "is_c0 minimal_function radial_validate spectral_radius",
    "jordan": "IntertwinerSpace JordanModel LatticeMapReport VerificationReport Violation "
    "are_quasisimilar brute_force_lat check_lattice_isomorphism cyclic_multiplicity "
    "find_quasiaffinity intertwiner_space jordan_model lattice_map lattice_preimage "
    "theorem97_verifier theorem_x3_verifier",
    "modelspace": "ModelOperator ModelSpace compressed_shift divisor_subspace enumerate_lattice",
    "subspace": "FiniteLattice Subspace check_distributive_triple check_modular_triple "
    "contains cyclic_subspace distance equals is_invariant join lattice_is_distributive "
    "lattice_is_modular meet",
}
PACKAGE_MODULES = ("blaschke", "calculus", "jordan", "modelspace", "sampling", "subspace")


def test_package_names_resolve_to_their_home_objects():
    homes = {name: module for module, names in PUBLIC.items() for name in names.split()}
    assert len(homes) == 56 and sorted(c0lat.__all__) == sorted(homes)
    star = {}
    exec("from c0lat import *", star)
    for name, module in homes.items():
        home = getattr(importlib.import_module(f"c0lat.{module}"), name)
        assert getattr(c0lat, name) is home and star[name] is home
    assert set(homes) | set(PACKAGE_MODULES) <= set(dir(c0lat))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        c0lat.no_such_name


def test_package_loads_a_submodule_on_first_use():
    run = (
        "import sys, c0lat\n"
        f"for m in {PACKAGE_MODULES!r}:\n"
        "    assert getattr(c0lat, m) is sys.modules['c0lat.' + m]\n"
        "from c0lat import jordan_model\n"
        "assert jordan_model is c0lat.jordan.jordan_model"
    )
    code, _, imported = _fresh("-c", run)
    assert code == 0 and {f"c0lat.{m}" for m in PACKAGE_MODULES} <= imported


def test_help_summaries_cover_the_suites():
    assert set(cli.SUITE_SUMMARIES) == set(suites.SUITES)


def test_jordan_model_suite_loads_scipy_linalg_alone():
    # almost_equiv matches zero sequences without scipy.optimize, whose import
    # also brings in scipy.sparse and scipy.spatial
    run = "from c0lat import suites; suites.jordan_model_suite(trials=2, seed=0)"
    code, _, imported = _fresh("-c", run)
    assert code == 0 and "scipy.linalg" in imported
    assert not imported & {"scipy.optimize", "scipy.sparse", "scipy.spatial"}


def test_divisor_subspace_loads_scipy_on_first_use(capsys, files):
    argv = ["model", "divisor-subspace", "--theta", files["zb"], "--phi", files["z"]]
    code, out, imported = _fresh("-m", "c0lat.cli", *argv, "--json")
    assert code == 0 and "scipy.linalg" in imported
    assert main([*argv, "--json"]) == 0
    assert out == capsys.readouterr().out.encode()


# --- stable json emitter ------------------------------------------------------------------

def test_stable_json_bytes_deterministic_and_sorted():
    payload = {"b": 1.5, "a": [1, 2.25, {"z": True, "y": None}]}
    first = stable_json_bytes(payload)
    second = stable_json_bytes({"a": [1, 2.25, {"y": None, "z": True}], "b": 1.5})
    assert first == second
    assert json.loads(first) == payload


def test_stable_json_numpy_scalars():
    # serialize tells numpy scalars apart without importing numpy
    payload = {"i": np.int64(-7), "u": np.uint8(255), "h": np.float16(1.5), "s": np.float32(0.1),
               "d": np.float64(0.1), "w": np.float64(3.0), "l": [np.int32(2), np.float32(2.0)]}
    assert stable_json_bytes(payload) == (
        b'{"d":0.10000000000000001,"h":1.5,"i":-7,"l":[2,2.0],"s":0.10000000149011612,'
        b'"u":255,"w":3.0}\n'
    )
    for value in (np.True_, np.complex128(1)):
        with pytest.raises(TypeError, match="cannot serialize"):
            stable_json_bytes(value)


def test_stable_json_float_formatting():
    x = 0.1 + 0.2
    assert b"0.30000000000000004" in stable_json_bytes({"v": x})
    assert stable_json_bytes({"v": 2.0}) == b'{"v":2.0}\n'
