"""Command line interface: outputs, JSON envelopes, exit codes."""

import json

import pytest

from feynperiods.cli import run

TRIANGLE = "fixtures/triangle.json"
BANANA = "fixtures/banana.json"
FOURGRAPH = "fixtures/fourgraph.json"
P35 = 2.2345650561425603


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_symanzik_text(capsys):
    code, out, _ = invoke(capsys, "symanzik", TRIANGLE)
    assert code == 0
    assert "psi = a1 + a2 + a3" in out
    assert "phi = 5*a1*a2 + 4*a1*a3 + a2*a3" in out


def test_symanzik_json_envelope(capsys):
    code, out, _ = invoke(capsys, "symanzik", TRIANGLE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "results", "diagnostics"}
    assert doc["command"] == "symanzik"
    assert doc["inputs"]["graph"] == TRIANGLE
    assert doc["results"]["loop_number"] == 1
    assert doc["results"]["spanning_trees"] == 3
    assert doc["results"]["psi"] == "a1 + a2 + a3"


def test_json_output_is_deterministic(capsys):
    _, first, _ = invoke(capsys, "symanzik", FOURGRAPH, "--json")
    _, second, _ = invoke(capsys, "symanzik", FOURGRAPH, "--json")
    assert first == second


def test_divergence_reports_witness(capsys):
    code, out, _ = invoke(capsys, "divergence", FOURGRAPH)
    assert code == 0
    assert "primitive: no" in out
    assert "{3, 4}" in out
    assert "phi^4 eligible: yes" in out


def test_period_expect_pass(capsys):
    code, out, _ = invoke(
        capsys, "period", BANANA, "--samples", "10000", "--expect", "1.0"
    )
    assert code == 0
    assert "PASS" in out


def test_period_expect_whitelist(capsys):
    code, _, err = invoke(
        capsys, "period", BANANA, "--samples", "1000",
        "--expect", "().__class__.__base__.__subclasses__()",
    )
    assert code == 1
    assert "not allowed" in err
    for expr, ref in (("6*zeta(3)", 6 * 1.2020569031595942), ("-p35+2**3", 8 - P35)):
        code, out, _ = invoke(capsys, "period", BANANA, "--samples", "1000",
                              f"--expect={expr}", "--json")
        assert code == 0
        assert json.loads(out)["results"]["expect"] == pytest.approx(ref, abs=1e-13), expr
    # a leading minus also works as a separate token, without "="
    code, out, _ = invoke(capsys, "period", BANANA, "--samples", "1000",
                          "--expect", "-p35+2**3", "--json")
    assert code == 0
    assert json.loads(out)["results"]["expect"] == pytest.approx(8 - P35, abs=1e-13)


def test_period_json(capsys):
    code, out, _ = invoke(capsys, "period", BANANA, "--samples", "10000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["value"] == 1.0
    assert doc["results"]["std_error"] == 0.0
    assert doc["inputs"]["samples"] == 10000


def test_zeta_value_and_word(capsys):
    code, out, _ = invoke(capsys, "zeta", "3,5", "--digits", "12")
    assert code == 0
    assert out.startswith("zeta(3,5) = 0.037707672984847544")
    code, out, _ = invoke(capsys, "zeta", "3,5", "--word")
    assert code == 0
    assert "sign +1" in out and "10010000" in out


def test_galois_rep_and_span(capsys):
    code, out, _ = invoke(
        capsys, "galois", "rep", "zeta35", "--lam", "2",
        "--sigma3", "1", "--sigma5", "-2", "--sigma35", "4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["basis"] == ["zeta(3,5)", "zeta(3)", "1"]
    assert doc["results"]["matrix"] == [
        ["256", "0", "0"],
        ["80", "8", "0"],
        ["4", "1", "1"],
    ]
    code, out, _ = invoke(capsys, "galois", "span", "zeta(3,5)")
    assert code == 0
    assert "dimension 3" in out


def test_check_ratio_verdicts(capsys):
    code, out, _ = invoke(capsys, "galois", "check-ratio", "3024/5", "-7308/5")
    assert code == 0
    assert "PASS" in out and "sign -1" in out
    # a failed check is still a completed run
    code, out, _ = invoke(capsys, "galois", "check-ratio", "3025/5", "-7308/5")
    assert code == 0
    assert "FAIL" in out
    # a negative fraction first is a coefficient, not an option
    code, out, _ = invoke(capsys, "galois", "check-ratio", "-3024/5", "7308/5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["c1"] == "-3024/5"
    assert doc["results"]["passed"] and doc["results"]["sign"] == -1


def test_exit_codes(capsys, tmp_path):
    assert invoke(capsys, "symanzik", "missing.json")[0] == 1
    assert invoke(capsys, "zeta", "1,0")[0] == 1
    assert invoke(capsys, "galois", "check-ratio", "1/2")[0] == 2
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "galois", "rep", "zeta-even", "--n", "3")[0] == 1
    code, _, err = invoke(capsys, "galois", "rep", "2pii", "--sigma", "x=1")
    assert code == 1 and "--sigma N=VALUE" in err and "'x=1'" in err
    code, _, err = invoke(capsys, "divergence", "fixtures/k4.json", "--numerator", "1/0")
    assert code == 1 and err.startswith("error:") and "'1/0'" in err
    bad = tmp_path / "edges.json"
    bad.write_text(json.dumps({"vertices": ["u", "v"], "edges": 3}))
    code, _, err = invoke(capsys, "symanzik", str(bad))
    assert code == 1 and err.startswith("error:") and "'edges'" in err
