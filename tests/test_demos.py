"""The quick demos run to completion and print something."""

import runpy

import pytest

# period_monte_carlo is left out: it draws millions of samples (about 15 s)
DEMOS = ("symanzik_walkthrough", "divergence_analysis", "zeta_values", "galois_matrices")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(f"demos/{name}.py", run_name="__main__")
    assert capsys.readouterr().out.strip()
