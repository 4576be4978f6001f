"""Monte Carlo period integration: exactness, reproducibility, consistency."""

import math
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feynperiods import periods
from feynperiods.divergence import IntegrandSpec
from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, load_graph
from feynperiods.periods import _BLOCK, _CHUNK, PeriodEstimate, g_minus_2_two_loop, integrate
from feynperiods.polynomials import SparsePolynomial, parse_polynomial


def banana(mass_sq=0):
    return FeynmanGraph(
        vertices=("u", "v"),
        edges=(Edge(1, ("u", "v"), mass_sq), Edge(2, ("u", "v"), mass_sq)),
        legs=(ExternalLeg("u", (1, 0, 0, 0)), ExternalLeg("v", (-1, 0, 0, 0))),
    )


# 1 / (a1*a2 + (a1+a2)^2) on the simplex reduces to integral of
# 1/(t(1-t)+1) over (0,1), which elementary calculus evaluates exactly.
MASSIVE_BANANA_EXACT = 4 * math.asinh(0.5) / math.sqrt(5)
MASSIVE_SPEC = IntegrandSpec(psi_power=0, xi_power=1)


def test_massless_banana_is_exact():
    # psi = a1 + a2 equals 1 on the simplex, so every sample is exactly 1
    est = integrate(banana(), samples=10_000, seed=0)
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.samples == 10_000 and est.workers == 1


def test_massive_banana_matches_closed_form():
    est = integrate(banana(1), MASSIVE_SPEC, samples=200_000, seed=11)
    assert est.std_error < 2e-4
    assert abs(est.value - MASSIVE_BANANA_EXACT) < 4 * est.std_error


def test_affine_chart_agrees():
    simplex = integrate(banana(1), MASSIVE_SPEC, samples=200_000, seed=11)
    affine = integrate(banana(1), MASSIVE_SPEC, samples=200_000, seed=11, chart="affine")
    assert abs(affine.value - MASSIVE_BANANA_EXACT) < 4 * affine.std_error
    joint = math.hypot(simplex.std_error, affine.std_error)
    assert abs(simplex.value - affine.value) < 4 * joint


def test_error_shrinks_like_root_n():
    small = integrate(banana(1), MASSIVE_SPEC, samples=200_000, seed=11)
    big = integrate(banana(1), MASSIVE_SPEC, samples=400_000, seed=11)
    ratio = small.std_error / big.std_error
    assert 1.25 < ratio < 1.60  # sqrt(2) up to sampling noise


def test_reproducible_for_any_worker_count():
    # chunk c always draws from stream (seed, c); partials reduce in chunk
    # order, so the result cannot depend on how chunks land on workers
    runs = [
        integrate(banana(1), MASSIVE_SPEC, samples=600_000, seed=4, workers=w)
        for w in (1, 3, 3)
    ]
    assert len({r.value for r in runs}) == 1
    assert len({r.std_error for r in runs}) == 1
    assert runs[1].workers == 3


# One full chunk plus a partial one that ends 7 rows into its fourth block.
GOLDEN_SAMPLES = _CHUNK + 3 * _BLOCK + 7
GOLDEN_NUMERATOR = IntegrandSpec(
    numerator=parse_polynomial("2*a1*a2*a3 + a4^3 + 1/3*a5^2*a6"), psi_power=3
)


@pytest.mark.parametrize(
    "graph, spec, kwargs, value, std_error",
    [
        ("k4", None, {}, "7.210551942580054", "0.14631132399244098"),
        ("k4", None, {"boundary_bias": 0.5}, "7.189517702746506", "0.025219908662613"),
        # Dirichlet(1) is the uniform law, draw for draw
        ("k4", None, {"boundary_bias": 1.0}, "7.210551942580054", "0.14631132399244098"),
        (
            "banana", MASSIVE_SPEC, {"chart": "affine"},
            "0.8609077242855216", "0.00010333998149073306",
        ),
        ("banana", MASSIVE_SPEC, {}, "0.8609072548564936", "0.00010327697316276544"),
        ("k4", GOLDEN_NUMERATOR, {"boundary_bias": 0.5}, "932.621065540807", "286.5601314960576"),
    ],
    ids=[
        "simplex-uniform", "simplex-dirichlet", "simplex-dirichlet-1", "affine-xi", "simplex-xi",
        "numerator",
    ],
)
def test_seeded_bits_are_pinned(graph, spec, kwargs, value, std_error):
    # a change to the draws, the weights, the integrand's arithmetic or the
    # order of the sums moves these bits
    g = load_graph("fixtures/k4.json") if graph == "k4" else banana(1)
    est = integrate(g, spec, samples=GOLDEN_SAMPLES, seed=20261018, **kwargs)
    assert (repr(est.value), repr(est.std_error)) == (value, std_error)


@settings(max_examples=8, deadline=None)
@given(
    case=st.sampled_from(["banana-xi", "k4-dirichlet"]),
    samples=st.integers(_CHUNK + 1, 3 * _CHUNK + _BLOCK + 1),
    seed=st.integers(0, 2**32),
)
def test_same_bits_on_one_two_and_three_workers(case, samples, seed):
    if case == "banana-xi":
        g, spec, kwargs = banana(1), MASSIVE_SPEC, {}
    else:
        g, spec, kwargs = load_graph("fixtures/k4.json"), None, {"boundary_bias": 0.5}
    runs = {
        (est.value, est.std_error)
        for est in (
            integrate(g, spec, samples=samples, seed=seed, workers=w, **kwargs) for w in (1, 2, 3)
        )
    }
    assert len(runs) == 1


def test_pool_is_reused_replaced_and_restarted():
    # the pinned "simplex-xi" bits, from each pool state
    def run(workers):
        est = integrate(banana(1), MASSIVE_SPEC, samples=GOLDEN_SAMPLES, seed=20261018,
                        workers=workers)
        return repr(est.value), repr(est.std_error)

    pinned = ("0.8609072548564936", "0.00010327697316276544")
    assert run(2) == pinned
    pool = periods._pool[1]
    assert run(2) == pinned and periods._pool[1] is pool
    assert run(3) == pinned and periods._pool[0] == 3
    assert run(2) == pinned and periods._pool[0] == 2
    pool = periods._pool[1]
    procs = list(pool._processes.values())
    for proc in procs:
        proc.terminate()
    # the pool's own thread may reap the workers first, so poll instead of join
    deadline = time.monotonic() + 10
    while any(proc.exitcode is None for proc in procs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(proc.exitcode is not None for proc in procs)
    try:
        assert run(2) == pinned
    except BrokenProcessPool:
        pass
    assert run(2) == pinned and periods._pool[1] is not pool


def test_boundary_bias_weight_is_unbiased():
    # integrand is exactly 1, so the estimate is the mean importance weight
    est = integrate(banana(), samples=50_000, seed=3, boundary_bias=0.7)
    assert est.std_error > 0
    assert abs(est.value - 1.0) < 4 * est.std_error


def test_boundary_bias_validation():
    with pytest.raises(ValueError, match="simplex"):
        integrate(banana(), chart="affine", boundary_bias=0.5)
    for bad in (0.0, -0.3, 1.5):
        with pytest.raises(ValueError, match="boundary_bias"):
            integrate(banana(), boundary_bias=bad)


def test_rejects_bad_inputs():
    triangle = FeynmanGraph(
        vertices=("x", "y", "z"),
        edges=(Edge(1, ("x", "y")), Edge(2, ("y", "z")), Edge(3, ("z", "x"))),
    )
    with pytest.raises(ValueError, match="degree"):
        integrate(triangle)  # degree 3 - 2*1 = 1
    with pytest.raises(ValueError, match="samples"):
        integrate(banana(), samples=1)
    with pytest.raises(ValueError, match="workers"):
        integrate(banana(), workers=0)
    with pytest.raises(ValueError, match="chart"):
        integrate(banana(), chart="torus")
    with pytest.raises(ValueError, match="seed"):
        integrate(banana(), seed=-1)
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match="boundary_bias must be a real number"):
            integrate(banana(), boundary_bias=bad)

    tadpole = FeynmanGraph(vertices=("u",), edges=(Edge(1, ("u", "u")),))
    spec = IntegrandSpec(numerator=SparsePolynomial.variable(1))
    with pytest.raises(ValueError, match="two edges"):
        integrate(tadpole, spec)

    fourgraph = FeynmanGraph(
        vertices=("v1", "v2", "v3"),
        edges=(
            Edge(1, ("v1", "v2")),
            Edge(2, ("v2", "v3")),
            Edge(3, ("v3", "v1")),
            Edge(4, ("v3", "v1")),
        ),
    )
    singular = IntegrandSpec(
        numerator=SparsePolynomial.variable(1), psi_power=1, xi_power=1
    )
    with pytest.raises(ValueError, match="vanishes"):
        integrate(fourgraph, singular)  # no legs, no masses: xi == 0


@pytest.mark.parametrize(
    "name, bad",
    [
        ("samples", 2.5),
        ("samples", 1e6),
        ("samples", True),
        ("seed", 1.0),
        ("seed", "3"),
        ("seed", False),
        ("workers", 1.5),
        ("workers", True),
        ("workers", None),
    ],
)
def test_count_arguments_must_be_integers(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        integrate(banana(), **{name: bad})


def test_numpy_integers_are_accepted():
    est = integrate(banana(), samples=np.int64(1000), seed=np.uint32(5), workers=np.int8(1))
    assert (est.value, est.samples, est.seed, est.workers) == (1.0, 1000, 5, 1)
    assert type(est.samples) is int


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_integrand_raises():
    # Dirichlet(0.01) draws underflow to 0, so psi vanishes at some samples;
    # the estimate must not come back as nan +- 0
    k4 = load_graph("fixtures/k4.json")
    with pytest.raises(ValueError, match="psi = 0 or xi = 0"):
        integrate(k4, samples=4096, seed=0, boundary_bias=0.01)


def test_period_estimate_validation():
    with pytest.raises(ValueError, match="samples"):
        PeriodEstimate(value=1.0, std_error=0.0, samples=0, seed=0)
    with pytest.raises(ValueError, match="std_error"):
        PeriodEstimate(value=1.0, std_error=-1.0, samples=10, seed=0)
    for value, std_error in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PeriodEstimate(value=value, std_error=std_error, samples=10, seed=0)


def test_g_minus_2_closed_form():
    assert abs(g_minus_2_two_loop() - (-0.3284789655791937928)) < 1e-14
