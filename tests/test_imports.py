"""The import graph: exact, convergence and number work loads neither numpy nor the pool."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib
import io
import math
import sys

HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


import feynperiods
from feynperiods import cli

assert loaded() == [], ("import feynperiods", loaded())
k4 = feynperiods.load_graph("fixtures/k4.json")
feynperiods.mzv_with_error((3, 5), 12)
feynperiods.rep_zeta35(feynperiods.GaloisElement(lam=2, sigma={3: 1, 5: -1}, sigma35=3))
feynperiods.SymanzikSet.of(k4)
assert loaded() == [], ("exact and number layers", loaded())
for argv in (
    ["zeta", "3,5", "--digits", "12"],
    ["galois", "check-ratio", "12", "29"],
    ["symanzik", "fixtures/k4.json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
    assert loaded() == [], (argv, loaded())

assert feynperiods.is_primitive(k4) == (True, None)
assert loaded() == [], ("is_primitive", loaded())
numerator = feynperiods.IntegrandSpec(feynperiods.parse_polynomial("a1*a2*a3"), psi_power=3)
assert feynperiods.convergence(k4, numerator) == (False, (4, 5, 6), 0, True)
triangle = feynperiods.load_graph("fixtures/triangle.json")
with_xi = feynperiods.IntegrandSpec(psi_power=1, xi_power=1)
assert feynperiods.convergence(triangle, with_xi) == (True, None, None, True)
assert loaded() == [], ("convergence", loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["divergence", "fixtures/k4.json", "--json"]) == 0
assert loaded() == [], ("divergence", loaded())
# a pooled integrate samples in its workers, so numpy first loads here
assert math.isfinite(feynperiods.SymanzikSet.of(k4).psi.evaluate({i: 0.5 for i in range(1, 7)}))
assert loaded() == ["numpy"], ("evaluate", loaded())
est = feynperiods.integrate(k4, samples=2 * 2**18, seed=3, workers=2)
assert math.isfinite(est.value) and est.std_error > 0, est
assert loaded() == list(HEAVY), ("integrate", loaded())
print("ok")
"""


def test_exact_and_number_work_loads_neither_numpy_nor_the_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    # empty stderr: the pool also shuts down at exit without an "Exception ignored" line
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
