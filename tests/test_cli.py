import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ncfree.algebra import Algebra, LinMap, algebra_to_json, element_to_json, matrix_to_json
from ncfree import cli, partitions
from ncfree.cli import main
from ncfree.jacobi import (
    params_to_json,
    scalar_jacobi,
    semicircular,
    word_to_json,
)
from ncfree.joint import colored_word, colored_word_to_json
from ncfree.partitions import BLUE, RED

ALG1 = Algebra("full", 1)
ONE1 = np.eye(1, dtype=complex)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def semicircular_file(tmp_path, name="sc.json", scale=1.0):
    sc = semicircular(ALG1, LinMap.from_dense(ALG1, scale * ONE1))
    return write_json(tmp_path, name, params_to_json(sc))


def unit_word_file(tmp_path, n, name="w.json"):
    return write_json(tmp_path, name, word_to_json(ALG1, [ONE1] * (n + 1)))


# -- count ----------------------------------------------------------------------


def test_count_nc12(capsys):
    assert main(["count", "--family", "NC12", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["count", "--family", "NC2", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_count_nc12_n0(capsys):
    assert main(["count", "--family", "NC12", "--n", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_tcnc2_all_methods(capsys):
    rc = main(["count", "--family", "TCNC2", "--n", "10", "--k", "4", "--l", "4", "--method", "all"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["1308", "1308", "1308"]


def test_count_tcnc2_recursion_single(capsys):
    rc = main(["count", "--family", "TCNC2", "--n", "0", "--k", "2", "--l", "2", "--method", "recursion"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_tcnc2_all_methods_at_degree_zero(capsys):
    rc = main(["count", "--family", "TCNC2", "--n", "0", "--k", "3", "--l", "3", "--method", "all"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["1", "1", "1"]


def test_count_all_methods_skip_recursion_below_depth_two(capsys):
    rc = main(["count", "--family", "TCNC2", "--n", "4", "--k", "1", "--l", "1", "--method", "all"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["0", "0"]
    for n in ("0", "4"):  # the recursion refuses k = 1 at every degree, n = 0 included
        rc = main(["count", "--family", "TCNC2", "--n", n, "--k", "1", "--l", "1", "--method", "recursion"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: k >= 2 and n_max >= 1 required\n")


def test_count_usage_errors(capsys):
    assert main(["count", "--family", "TCNC2", "--n", "4"]) == 2
    assert main(["count", "--family", "TCNC2", "--n", "4", "--k", "2", "--l", "3", "--method", "recursion"]) == 2
    assert main(["count", "--family", "NC12", "--n", "4", "--method", "recursion"]) == 2
    capsys.readouterr()
    assert main(["count", "--family", "NC12", "--n", "4", "--k", "2", "--l", "7"]) == 2
    assert capsys.readouterr() == ("", "error: --l applies only to TCNC2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "TCNC2", "--k", "2", "--l", "2", "--method", "cumulant"],
        ["--family", "TCNC2", "--k", "2", "--l", "2", "--method", "recursion"],
        ["--family", "TCNC2", "--k", "2", "--l", "3", "--method", "all"],
        ["--family", "TCNC2", "--k", "2", "--l", "2", "--method", "enumerate"],
        ["--family", "NC12"],
        ["--family", "NC2", "--k", "2"],
    ],
)
def test_count_negative_n_is_usage_error(argv, capsys):
    assert main(["count", "--n", "-2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be >= 0" in captured.err


# -- table ----------------------------------------------------------------------


def test_table_output(capsys):
    assert main(["table", "--kmax", "6", "--nmax", "12"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split("\t")[0] == "k"
    rows = {ln.split("\t")[0]: [int(x) for x in ln.split("\t")[1:]] for ln in lines[1:]}
    assert rows["2"] == [2, 6, 20, 70, 252, 924]
    assert rows["3"] == [2, 8, 38, 196, 1062, 5948]
    assert rows["6"] == [2, 8, 40, 224, 1344, 8446]
    assert rows["k>6"] == [2, 8, 40, 224, 1344, 8448]


def test_table_usage(capsys):
    assert main(["table", "--kmax", "1", "--nmax", "4"]) == 2
    assert main(["table", "--kmax", "3", "--nmax", "5"]) == 2


# -- moments / joint / convolve ---------------------------------------------------


def test_moments_with_oracle(tmp_path, capsys):
    pf = semicircular_file(tmp_path)
    wf = unit_word_file(tmp_path, 6)
    assert main(["moments", "--params", pf, "--word", wf, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 6
    assert np.isclose(out["value"][0][0][0], 5.0)  # Catalan number c_3
    assert out["max_deviation"] < 1e-9


def test_moments_with_oracle_on_kraus_form_params(tmp_path, capsys):
    alg = Algebra("full", 2)
    alpha = {"kraus": [matrix_to_json(np.array([[1, 2], [0, 1j]])), matrix_to_json(np.eye(2))]}
    lam = element_to_json(alg, np.array([[1, 1j], [-1j, 2]]))
    params = {"algebra": algebra_to_json(alg), "head_lambda": [lam], "head_alpha": [alpha],
              "tail_lambda": lam, "tail_alpha": alpha, "positive": True}
    pf = write_json(tmp_path, "kraus.json", params)
    wf = write_json(tmp_path, "w2.json", word_to_json(alg, [np.eye(2)] * 5))
    assert main(["moments", "--params", pf, "--word", wf, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 4 and out["max_deviation"] < 1e-9


def refuse(*_, **__):
    raise AssertionError("a function ran that this request must not run")


def test_oracles_run_only_on_request(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("ncfree.cli.fock_moment", refuse)
    monkeypatch.setattr("ncfree.cli.joint_moment_free_recursion", refuse)
    assert main(["moments", "--params", semicircular_file(tmp_path), "--word", unit_word_file(tmp_path, 4)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"degree", "value"}
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    wf = write_json(tmp_path, "cw.json", colored_word_to_json(colored_word(ALG1, [ONE1] * 3, [BLUE, RED])))
    assert main(["joint", "--model", mf, "--word", wf]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"degree", "value"}


def test_moments_pretty_flag(tmp_path, capsys):
    pf = semicircular_file(tmp_path)
    wf = unit_word_file(tmp_path, 2)
    assert main(["moments", "--params", pf, "--word", wf, "--pretty"]) == 0
    assert "\n" in capsys.readouterr().out.strip()


def test_joint_with_oracle(tmp_path, capsys):
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    w = colored_word(ALG1, [ONE1] * 5, [BLUE, RED, BLUE, RED])
    wf = write_json(tmp_path, "cw.json", colored_word_to_json(w))
    assert main(["joint", "--model", mf, "--word", wf, "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 4
    # E[S1 S2 S1 S2] = 0 for free standard semicirculars
    assert abs(out["value"][0][0][0]) < 1e-12
    assert out["max_deviation"] < 1e-9


def test_joint_oracle_past_its_run_cap_exits_3(tmp_path, capsys):
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    w = colored_word(ALG1, [ONE1] * 10, [BLUE, RED] * 4 + [BLUE])
    wf = write_json(tmp_path, "cw.json", colored_word_to_json(w))
    assert main(["joint", "--model", mf, "--word", wf]) == 0
    capsys.readouterr()
    assert main(["joint", "--model", mf, "--word", wf, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "9 color runs" in captured.err


def test_moments_oracle_past_its_memory_cap_exits_3(tmp_path, capsys):
    # on full d = 4 a degree-10 word needs 16^6 entries per Fock vector, past the cap of 2^23
    alg = Algebra("full", 4)
    pf = write_json(tmp_path, "sc.json", params_to_json(semicircular(alg, LinMap.identity(alg))))
    wf = write_json(tmp_path, "w.json", word_to_json(alg, [np.eye(4)] * 11))
    assert main(["moments", "--params", pf, "--word", wf]) == 0
    capsys.readouterr()
    assert main(["moments", "--params", pf, "--word", wf, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Fock oracle is capped" in captured.err


def test_capped_moments_oracle_exits_before_the_engine(tmp_path, capsys, monkeypatch):
    alg = Algebra("full", 4)
    pf = write_json(tmp_path, "sc.json", params_to_json(semicircular(alg, LinMap.identity(alg))))
    wf = write_json(tmp_path, "w.json", word_to_json(alg, [np.eye(4)] * 11))
    monkeypatch.setattr("ncfree.cli.moment", refuse)
    assert main(["moments", "--params", pf, "--word", wf, "--oracle"]) == 3
    assert "Fock oracle is capped" in capsys.readouterr().err


def test_capped_joint_oracle_exits_before_the_engine(tmp_path, capsys, monkeypatch):
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    w = colored_word(ALG1, [ONE1] * 10, [BLUE, RED] * 4 + [BLUE])
    wf = write_json(tmp_path, "cw.json", colored_word_to_json(w))
    monkeypatch.setattr("ncfree.cli.joint_moment", refuse)
    assert main(["joint", "--model", mf, "--word", wf, "--oracle"]) == 3
    assert "9 color runs" in capsys.readouterr().err


def test_convolve_semicirculars(tmp_path, capsys):
    p1 = semicircular_file(tmp_path, "a.json", scale=1.0)
    p2 = semicircular_file(tmp_path, "b.json", scale=2.0)
    assert main(["convolve", "--p1", p1, "--p2", p2, "--degree", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    vals = [m[0][0][0] for m in out["moments"]]
    # semicircular of variance 3: m_{2n} = 3^n Catalan(n)
    assert np.allclose(vals, [1, 0, 3, 0, 18, 0, 135])


def test_moments_degree_cap_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(partitions, "DEGREE_CAP", 3)
    pf = semicircular_file(tmp_path)
    wf = unit_word_file(tmp_path, 5)
    assert main(["moments", "--params", pf, "--word", wf]) == 3


def test_count_by_enumeration_degree_cap_exit(capsys, monkeypatch):
    monkeypatch.setattr(partitions, "DEGREE_CAP", 4)
    assert main(["count", "--family", "TCNC2", "--method", "enumerate", "--n", "4", "--k", "2", "--l", "2"]) == 0
    capsys.readouterr()
    assert main(["count", "--family", "TCNC2", "--method", "enumerate", "--n", "5", "--k", "2", "--l", "2"]) == 3
    assert main(["count", "--family", "NC12", "--n", "5"]) == 3
    assert capsys.readouterr().out == ""


def test_bad_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    wf = unit_word_file(tmp_path, 2)
    assert main(["moments", "--params", str(bad), "--word", wf]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["moments", "--params", missing, "--word", wf]) == 2


def test_mismatched_algebras_usage(tmp_path, capsys):
    pf = semicircular_file(tmp_path)
    alg2 = Algebra("full", 2)
    w2 = write_json(tmp_path, "w2.json", word_to_json(alg2, [np.eye(2)] * 3))
    assert main(["moments", "--params", pf, "--word", w2]) == 2


@pytest.mark.parametrize("declared", ["params", "word"])
def test_element_of_another_algebra_is_usage_error(tmp_path, capsys, declared):
    alg2 = Algebra("full", 2)
    files = {"params": params_to_json(semicircular(alg2, LinMap.identity(alg2))),
             "word": word_to_json(alg2, [np.eye(2)] * 3)}
    elements = [files["params"]["tail_lambda"]] if declared == "params" else files["word"]["coeffs"]
    for element in elements:
        element["algebra"] = {"kind": "diagonal", "dim": 7}
    pf, wf = (write_json(tmp_path, f"{name}.json", obj) for name, obj in files.items())
    assert main(["moments", "--params", pf, "--word", wf]) == 2
    assert "declares the algebra" in capsys.readouterr().err


def test_convolve_of_laws_on_different_algebras_is_usage_error(tmp_path, capsys):
    alg2 = Algebra("full", 2)
    p1 = semicircular_file(tmp_path)
    p2 = write_json(tmp_path, "p2.json", params_to_json(semicircular(alg2, LinMap.identity(alg2))))
    assert main(["convolve", "--p1", p1, "--p2", p2, "--degree", "2"]) == 2
    assert "share an algebra" in capsys.readouterr().err


def test_convolve_negative_degree_is_usage_error(tmp_path, capsys):
    pf = semicircular_file(tmp_path)
    assert main(["convolve", "--p1", pf, "--p2", pf, "--degree", "-1"]) == 2
    assert "degree must be >= 0" in capsys.readouterr().err


def test_non_boolean_positive_is_usage_error(tmp_path, capsys):
    params = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    params["positive"] = "false"
    pf = write_json(tmp_path, "sc.json", params)
    assert main(["moments", "--params", pf, "--word", unit_word_file(tmp_path, 2)]) == 2
    assert "positive must be true or false" in capsys.readouterr().err


def test_non_integer_dim_is_usage_error(tmp_path, capsys):
    params = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    params["algebra"]["dim"] = 1.5
    pf = write_json(tmp_path, "sc.json", params)
    assert main(["moments", "--params", pf, "--word", unit_word_file(tmp_path, 2)]) == 2
    assert "dim must be an integer" in capsys.readouterr().err


def test_non_number_matrix_entry_is_usage_error(tmp_path, capsys):
    word = word_to_json(ALG1, [ONE1] * 3)
    word["coeffs"][1]["entries"] = [["1"]]
    wf = write_json(tmp_path, "w.json", word)
    assert main(["moments", "--params", semicircular_file(tmp_path), "--word", wf]) == 2
    assert "number or an [re, im] pair" in capsys.readouterr().err


def test_non_finite_matrix_entry_is_usage_error(tmp_path, capsys):
    params = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    params["tail_lambda"]["entries"] = [[float("nan")]]  # json.dumps writes the literal NaN
    pf = write_json(tmp_path, "sc.json", params)
    assert main(["moments", "--params", pf, "--word", unit_word_file(tmp_path, 2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite number" in captured.err


def wrong_type_probe(tmp_path, case):
    params, word = semicircular_file(tmp_path), unit_word_file(tmp_path, 2)
    top_list = write_json(tmp_path, "list.json", [1, 2])
    if case == "coeffs 5":
        word = write_json(tmp_path, "w5.json", {**word_to_json(ALG1, [ONE1]), "coeffs": 5})
    if case == "algebra [2]":
        sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
        params = write_json(tmp_path, "a2.json", {**sc, "algebra": [2]})
    return {
        "list as --params": ["moments", "--params", top_list, "--word", word],
        "list as --word": ["moments", "--params", params, "--word", top_list],
        "list as --model": ["joint", "--model", top_list, "--word", word],
        "list as --p1": ["convolve", "--p1", top_list, "--p2", params, "--degree", "2"],
        "coeffs 5": ["moments", "--params", params, "--word", word],
        "algebra [2]": ["moments", "--params", params, "--word", word],
    }[case]


@pytest.mark.parametrize(
    "case", ["list as --params", "list as --word", "list as --model", "list as --p1", "coeffs 5", "algebra [2]"]
)
def test_json_of_the_wrong_type_is_usage_error(tmp_path, capsys, case):
    assert main(wrong_type_probe(tmp_path, case)) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("colors", ["b", {"b": 1}])
def test_joint_word_colors_not_a_list_is_usage_error(tmp_path, capsys, colors):
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    w = colored_word_to_json(colored_word(ALG1, [ONE1] * 2, [BLUE]))
    wf = write_json(tmp_path, "cw.json", {**w, "colors": colors})
    assert main(["joint", "--model", mf, "--word", wf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: colors must be a JSON list")


def test_kraus_operator_of_the_wrong_size_is_refused_before_allocating(tmp_path, capsys, monkeypatch):
    # at dim 3000 the dense form of a Kraus map would take (3000^2)^2 complex entries, over 1 PiB
    params = {"algebra": {"kind": "full", "dim": 3000}, "head_lambda": [{"entries": [[1]]}],
              "head_alpha": [{"kraus": [[[1]]]}], "tail_lambda": {"entries": [[1]]}, "tail_alpha": {"kraus": [[[1]]]}}
    pf, wf = write_json(tmp_path, "big.json", params), unit_word_file(tmp_path, 2)
    monkeypatch.setattr(np, "zeros", refuse)
    assert main(["moments", "--params", pf, "--word", wf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Kraus operators must be d x d\n"


def test_empty_kraus_family_is_refused_before_allocating(tmp_path, capsys, monkeypatch):
    params = {"algebra": {"kind": "full", "dim": 3000}, "head_lambda": [], "head_alpha": [],
              "tail_lambda": {"entries": [[1]]}, "tail_alpha": {"kraus": []}}
    pf, wf = write_json(tmp_path, "big.json", params), unit_word_file(tmp_path, 2)
    monkeypatch.setattr(np, "zeros", refuse)
    assert main(["moments", "--params", pf, "--word", wf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: a Kraus family needs at least one operator\n"


def test_joint_model_file_as_params_names_the_missing_field(tmp_path, capsys):
    sc = params_to_json(semicircular(ALG1, LinMap.from_dense(ALG1, ONE1)))
    mf = write_json(tmp_path, "model.json", {"params1": sc, "params2": sc})
    assert main(["moments", "--params", mf, "--word", unit_word_file(tmp_path, 2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: JSON object lacks the field 'algebra'\n"


def test_word_file_without_coeffs_names_the_missing_field(tmp_path, capsys):
    wf = write_json(tmp_path, "w.json", {"algebra": algebra_to_json(ALG1)})
    assert main(["moments", "--params", semicircular_file(tmp_path), "--word", wf]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: JSON object lacks the field 'coeffs'\n"


# -- verify -----------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["table", "counterexample", "two_by_two", "poisson_limit"])
def test_verify_suites(suite, capsys):
    assert main(["verify", "--suite", suite]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True


def test_verify_table_reports_a_disagreeing_route(capsys, monkeypatch):
    cumulant = cli._TCNC2_ROUTES["cumulant"]
    monkeypatch.setitem(cli._TCNC2_ROUTES, "cumulant", lambda n, k, l: cumulant(n, k, l) + 1)
    assert main(["verify", "--suite", "table"]) == 1
    suite = json.loads(capsys.readouterr().out)["suites"]["table"]
    assert suite["pass"] is False
    record = next(c for c in suite["checks"] if c["name"] == "table[k=3, n=4]")
    assert record["pass"] is False
    assert record["detail"] == {"enumerate": 8, "recursion": 8, "cumulant": 9}


def test_pretty_before_subcommand_is_usage_error(capsys):
    # --pretty belongs to each subcommand; the root parser rejects it
    with pytest.raises(SystemExit) as exc:
        main(["--pretty", "verify", "--suite", "table"])
    assert exc.value.code == 2


def test_verify_all(capsys):
    assert main(["verify", "--suite", "all", "--pretty"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert set(out["suites"]) == {"table", "counterexample", "two_by_two", "poisson_limit"}


# -- one process, many requests ----------------------------------------------------


def test_main_serves_requests_in_sequence(tmp_path, capsys):
    """main keeps one parser per process: a usage error between two good
    requests changes neither their exit codes nor their output."""
    good = [
        ["count", "--family", "TCNC2", "--n", "6", "--k", "2", "--l", "3", "--method", "all"],
        ["moments", "--params", semicircular_file(tmp_path), "--word", unit_word_file(tmp_path, 4)],
    ]
    alone = []
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in good:
        proc = subprocess.run([sys.executable, "-m", "ncfree.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        alone.append(proc.stdout)

    codes, outs = [], []
    for argv in (good[0], ["count", "--family", "TCNC2", "--n", "4"], good[1]):
        codes.append(main(argv))
        outs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:  # argparse rejects an unknown choice
        main(["count", "--family", "NC3", "--n", "4"])
    codes.append(exc.value.code)
    capsys.readouterr()
    codes.append(main(good[0]))
    outs.append(capsys.readouterr().out)

    assert codes == [0, 2, 0, 2, 0]
    assert outs == [alone[0], "", alone[1], alone[0]]
