"""Command line interface: outputs, JSON envelopes, exit codes."""

import json

import pytest

from feynperiods.cli import build_parser, run

TRIANGLE = "fixtures/triangle.json"
BANANA = "fixtures/banana.json"
FOURGRAPH = "fixtures/fourgraph.json"
K4 = "fixtures/k4.json"
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


def test_divergence_verdict_follows_the_spec(capsys):
    # K4 is primitive, but this numerator over psi^3 diverges on the triangle {1, 2, 4}
    code, out, _ = invoke(capsys, "divergence", K4, "--numerator",
                          "2*a1*a2*a3 + a4^3 + 1/3*a5^2*a6", "--psi-power", "3", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["primitive"], results["witness"]) == (True, None)
    assert (results["convergent"], results["convergence_witness"]) == (False, [1, 2, 4])
    # the massless banana with 1/xi diverges; no massless edge may certify a verdict
    code, out, _ = invoke(capsys, "divergence", BANANA, "--psi-power", "0", "--xi-power", "1")
    assert code == 0
    assert "convergent: no   (subgraph {1} has omega 0)" in out
    code, out, _ = invoke(capsys, "divergence", BANANA, "--numerator", "a1*a2", "--xi-power", "1")
    assert code == 0
    assert "convergent: yes, not certified   (xi and a massless edge: necessary test only)" in out


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
    code, _, err = invoke(capsys, "period", K4, "--samples", "100", "--boundary-bias", "1e-60")
    assert code == 1 and err.startswith("error:") and "too small for 6 variables" in err
    code, _, err = invoke(capsys, "period", FOURGRAPH, "--samples", "100")
    assert code == 1 and err == "error: the integral diverges: subgraph {3, 4} has omega 0\n"
    bad = tmp_path / "edges.json"
    bad.write_text(json.dumps({"vertices": ["u", "v"], "edges": 3}))
    code, _, err = invoke(capsys, "symanzik", str(bad))
    assert code == 1 and err.startswith("error:") and "'edges'" in err
    two_bananas = tmp_path / "two_bananas.json"
    two_bananas.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": i, "ends": ends}
                  for i, ends in enumerate([["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"]], 1)],
    }))
    for command in ("period", "symanzik"):
        code, _, err = invoke(capsys, command, str(two_bananas))
        assert code == 1 and err.startswith("error:") and "connected" in err, (command, err)


# argv, its exact text output, and the command, results and diagnostics of
# its --json document; inputs are checked against the parser instead
PINNED = [
    pytest.param(
        ["symanzik", TRIANGLE],
        "graph: fixtures/triangle.json\n"
        "edges: 3   loops: 1   spanning trees: 3\n"
        "psi = a1 + a2 + a3\n"
        "phi = 5*a1*a2 + 4*a1*a3 + a2*a3\n"
        "xi  = 8*a1*a2 + 8*a1*a3 + a1^2 + 6*a2*a3 + 2*a2^2 + 3*a3^2\n",
        {"command": "symanzik",
         "results": {"edges": 3,
                     "loop_number": 1,
                     "phi": "5*a1*a2 + 4*a1*a3 + a2*a3",
                     "psi": "a1 + a2 + a3",
                     "spanning_trees": 3,
                     "xi": "8*a1*a2 + 8*a1*a3 + a1^2 + 6*a2*a3 + 2*a2^2 + 3*a3^2"},
         "diagnostics": {}},
        id="symanzik-triangle",
    ),
    pytest.param(
        ["symanzik", FOURGRAPH],
        "graph: fixtures/fourgraph.json\n"
        "edges: 4   loops: 2   spanning trees: 5\n"
        "psi = a1*a3 + a1*a4 + a2*a3 + a2*a4 + a3*a4\n"
        "phi = 0\n"
        "xi  = 0\n",
        {"command": "symanzik",
         "results": {"edges": 4,
                     "loop_number": 2,
                     "phi": "0",
                     "psi": "a1*a3 + a1*a4 + a2*a3 + a2*a4 + a3*a4",
                     "spanning_trees": 5,
                     "xi": "0"},
         "diagnostics": {}},
        id="symanzik-fourgraph",
    ),
    pytest.param(
        ["divergence", FOURGRAPH],
        "graph: fixtures/fourgraph.json\n"
        "edges: 4   loops: 2\n"
        "projective degree: 0   (integrand is well defined)\n"
        "primitive: no   (witness subgraph {3, 4})\n"
        "convergent: no   (subgraph {3, 4} has omega 0)\n"
        "phi^4 eligible: yes\n"
        "weight bound (informational): 8\n",
        {"command": "divergence",
         "results": {"certified": True,
                     "convergence_witness": [3, 4],
                     "convergent": False,
                     "edges": 4,
                     "integrable": True,
                     "loop_number": 2,
                     "phi4": True,
                     "primitive": False,
                     "projective_degree": 0,
                     "weight_bound": 8,
                     "witness": [3, 4]},
         "diagnostics": {}},
        id="divergence-fourgraph",
    ),
    pytest.param(
        ["divergence", K4],
        "graph: fixtures/k4.json\n"
        "edges: 6   loops: 3\n"
        "projective degree: 0   (integrand is well defined)\n"
        "primitive: yes\n"
        "convergent: yes\n"
        "phi^4 eligible: yes\n"
        "weight bound (informational): 12\n",
        {"command": "divergence",
         "results": {"certified": True,
                     "convergence_witness": None,
                     "convergent": True,
                     "edges": 6,
                     "integrable": True,
                     "loop_number": 3,
                     "phi4": True,
                     "primitive": True,
                     "projective_degree": 0,
                     "weight_bound": 12,
                     "witness": None},
         "diagnostics": {}},
        id="divergence-k4",
    ),
    pytest.param(
        ["period", BANANA, "--expect", "1.0"],
        "graph: fixtures/banana.json\n"
        "value = 1 +- 0   (samples=1000000, seed=0, workers=1)\n"
        "expect 1.0 = 1: PASS   (|diff| = 0, 3*sigma = 0)\n",
        {"command": "period",
         "results": {"expect": 1.0,
                     "expect_diff": 0.0,
                     "expect_passed": True,
                     "std_error": 0.0,
                     "value": 1.0},
         "diagnostics": {"chart": "simplex", "samples": 1000000, "seed": 0, "workers": 1}},
        id="period-banana",
    ),
    pytest.param(
        ["period", K4, "--samples", "5000", "--boundary-bias", "0.5", "--expect", "6*zeta(3)"],
        "graph: fixtures/k4.json\n"
        "value = 7.119456811 +- 0.2277   (samples=5000, seed=0, workers=1)\n"
        "expect 6*zeta(3) = 7.212341419: PASS   (|diff| = 0.09288, 3*sigma = 0.6831)\n",
        {"command": "period",
         "results": {"expect": 7.212341418957566,
                     "expect_diff": 0.09288460799562959,
                     "expect_passed": True,
                     "std_error": 0.2277124696383248,
                     "value": 7.119456810961936},
         "diagnostics": {"chart": "simplex", "samples": 5000, "seed": 0, "workers": 1}},
        id="period-k4-biased",
    ),
    pytest.param(
        ["zeta", "3,5"],
        "zeta(3,5) = 0.03770767298484754387683292   (error bound 2.008E-11, 10 digits)\n",
        {"command": "zeta",
         "results": {"digits": 10,
                     "error_bound": "2.007933963338928006081798E-11",
                     "indices": [3, 5],
                     "value": "0.03770767298484754387683292"},
         "diagnostics": {}},
        id="zeta-value",
    ),
    pytest.param(
        ["zeta", "3,5", "--word"],
        "word for zeta(3,5): sign +1, letters 10010000   (weight 8, depth 2)\n",
        {"command": "zeta",
         "results": {"depth": 2,
                     "indices": [3, 5],
                     "letters": "10010000",
                     "sign": 1,
                     "weight": 8},
         "diagnostics": {}},
        id="zeta-word",
    ),
    pytest.param(
        ["galois", "rep", "zeta35", "--lam", "2", "--sigma3", "1", "--sigma5", "-2", "--sigma35", "4"],
        "basis: (zeta(3,5), zeta(3), 1)\n"
        "[ 256  0  0 ]\n"
        "[  80  8  0 ]\n"
        "[   4  1  1 ]\n",
        {"command": "galois rep",
         "results": {"basis": ["zeta(3,5)", "zeta(3)", "1"],
                     "matrix": [["256", "0", "0"], ["80", "8", "0"], ["4", "1", "1"]]},
         "diagnostics": {}},
        id="galois-rep-zeta35",
    ),
    pytest.param(
        ["galois", "rep", "zeta-odd", "--n", "7", "--sigma", "7=2"],
        "basis: (zeta(7), 1)\n"
        "[ 1  0 ]\n"
        "[ 2  1 ]\n",
        {"command": "galois rep",
         "results": {"basis": ["zeta(7)", "1"], "matrix": [["1", "0"], ["2", "1"]]},
         "diagnostics": {}},
        id="galois-rep-zeta-odd",
    ),
    pytest.param(
        ["galois", "span", "zeta(3,5)"],
        "conjugates of zeta(3,5) span: (zeta(3,5), zeta(3), 1)   dimension 3\n",
        {"command": "galois span",
         "results": {"dimension": 3,
                     "period": "zeta(3,5)",
                     "span": ["zeta(3,5)", "zeta(3)", "1"]},
         "diagnostics": {}},
        id="galois-span",
    ),
    pytest.param(
        ["galois", "check-ratio", "3024/5", "-7308/5"],
        "c1 = 3024/5, c2 = -7308/5\n"
        "ratio c1/c2 = -12/29   magnitude required: 12/29\n"
        "PASS   (sign -1)\n",
        {"command": "galois check-ratio",
         "results": {"c1": "3024/5",
                     "c2": "-7308/5",
                     "passed": True,
                     "ratio": "-12/29",
                     "required_magnitude": "12/29",
                     "sign": -1},
         "diagnostics": {}},
        id="check-ratio-pass",
    ),
    pytest.param(
        ["galois", "check-ratio", "3025/5", "-7308/5"],
        "c1 = 605, c2 = -7308/5\n"
        "ratio c1/c2 = -3025/7308   magnitude required: 12/29\n"
        "FAIL   (sign -1)\n",
        {"command": "galois check-ratio",
         "results": {"c1": "605",
                     "c2": "-7308/5",
                     "passed": False,
                     "ratio": "-3025/7308",
                     "required_magnitude": "12/29",
                     "sign": -1},
         "diagnostics": {}},
        id="check-ratio-fail",
    ),
]


@pytest.mark.parametrize("argv, text, doc", PINNED)
def test_pinned_outputs(capsys, argv, text, doc):
    assert invoke(capsys, *argv) == (0, text, "")
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert {key: json.loads(out)[key] for key in doc} == doc


@pytest.mark.parametrize("argv", [case.values[0] for case in PINNED],
                         ids=[case.id for case in PINNED])
def test_json_inputs_echo_parsed_arguments(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    parsed = vars(build_parser().parse_args(argv))
    for key in ("command", "galois_command", "func", "json"):
        parsed.pop(key, None)
    assert json.loads(out)["inputs"] == parsed


def test_cached_parser_leaks_no_state(capsys):
    # one parser serves every run of a process; no run may see another's arguments
    assert build_parser() is build_parser()
    code, out, _ = invoke(capsys, "galois", "rep", "zeta35", "--sigma", "3=2", "--json")
    assert code == 0 and json.loads(out)["inputs"]["sigma"] == ["3=2"]
    code, out, _ = invoke(capsys, "galois", "rep", "zeta35", "--json")
    assert code == 0 and json.loads(out)["inputs"]["sigma"] == []
    for _ in range(2):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and out.startswith("usage: feynperiods")
    assert invoke(capsys, "zeta", "3,5", "--digits")[0] == 2
    (zeta_value,) = [case for case in PINNED if case.id == "zeta-value"]
    argv, _, doc = zeta_value.values
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert {key: json.loads(out)[key] for key in doc} == doc
