"""The quick demos run to completion and print something."""

import runpy

import pytest

DEMOS = (
    "symanzik_walkthrough", "divergence_analysis", "zeta_values", "galois_matrices",
    "period_monte_carlo",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(f"demos/{name}.py", run_name="__main__")
    assert capsys.readouterr().out.strip()
