"""Monte Carlo period integration: exactness, reproducibility, consistency."""

import functools
import math
import re
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feynperiods import periods, symanzik
from feynperiods.divergence import IntegrandSpec, convergence
from feynperiods.graphs import Edge, ExternalLeg, FeynmanGraph, load_graph
from feynperiods.periods import _BLOCK, _CHUNK, PeriodEstimate, g_minus_2_two_loop, integrate
from feynperiods.polynomials import SparsePolynomial, parse_polynomial
from feynperiods.symanzik import SymanzikSet, psi_enumerate, spanning_trees


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
    numerator=parse_polynomial("2*a1*a2*a4 + a1*a3*a5 + 1/3*a4*a5*a6"), psi_power=3
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
        ("k4", GOLDEN_NUMERATOR, {"boundary_bias": 0.5}, "1.6556691566475952", "0.009685832666004967"),
        # 8 variables: the normalising sum adds them left to right, as every other width
        ("wheel4", None, {"boundary_bias": 0.5}, "21.78870296310272", "1.1503290594625264"),
        # the Jacobian multiplies 5 columns
        ("k4", None, {"chart": "affine"}, "7.3457062311012775", "0.2774633805199603"),
    ],
    ids=[
        "simplex-uniform", "simplex-dirichlet", "simplex-dirichlet-1", "affine-xi", "simplex-xi",
        "numerator", "wheel4-dirichlet", "affine-k4",
    ],
)
def test_seeded_bits_are_pinned(graph, spec, kwargs, value, std_error):
    # a change to the draws, the weights, the integrand's arithmetic or the
    # order of the sums moves these bits
    g = banana(1) if graph == "banana" else load_graph(f"fixtures/{graph}.json")
    est = integrate(g, spec, samples=GOLDEN_SAMPLES, seed=20261018, **kwargs)
    assert (repr(est.value), repr(est.std_error)) == (value, std_error)


def _bits(a):
    return a.view(np.int64)


def test_row_sums_match_numpy_bit_for_bit():
    # left to right, as a row-wise cumsum, on rows that mix magnitudes from
    # 1e-300 to 1e300, signs and signed zeros; the sum starts from the first
    # entry plus 0.0, so a zero sum is 0.0, never -0.0
    rng = np.random.default_rng(20261019)
    for n in range(1, 301):
        d = 10.0 ** rng.uniform(-300, 300, size=(40, n))
        d[20:] *= rng.choice([-1.0, 1.0], size=(20, n))
        d[30:] *= rng.random(size=(10, n)) < 0.5
        d[39] = -0.0
        got = periods._row_sums(np.ascontiguousarray(d.T))
        assert np.array_equal(_bits(got), _bits(np.cumsum(d, axis=1)[:, -1] + 0.0)), n


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 12),
    m=st.integers(1, 2 * _BLOCK + 3),
    b=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    seed=st.integers(0, 2**32),
)
@example(n=8, m=_BLOCK + 1, b=0.5, seed=0)
@example(n=10, m=2 * _BLOCK + 3, b=0.3, seed=1)
# a last block of one row: numpy would sum an (n, 1) block pairwise at these widths
@example(n=9, m=_BLOCK + 1, b=0.5, seed=2)
@example(n=16, m=_BLOCK + 1, b=1.0, seed=3)
def test_column_blocks_match_row_wise_oracle(n, m, b, seed):
    # the charts' columns and weights, against the row-wise computation on
    # the same draws, with every reduction across a row taken left to right
    def stacked(blocks):
        points, weights = zip(*blocks)
        for x in points:
            assert x.shape[0] == n and x.flags.c_contiguous
        return np.concatenate(points, axis=1).T, np.concatenate(weights)

    draws = np.random.default_rng(seed).standard_gamma(b, size=(m, n))
    x = draws / np.cumsum(draws, axis=1)[:, -1:]
    volume = math.gamma(b) ** n / math.gamma(n * b)
    w = volume * np.prod(x ** (1 - b), axis=1)
    got_x, got_w = stacked(periods._simplex(np.random.default_rng(seed), m, n, b))
    assert np.array_equal(_bits(got_x), _bits(x))
    assert np.array_equal(_bits(got_w), _bits(w))

    d = np.random.default_rng(seed).random(size=(m, n - 1))
    x = np.column_stack((d / (1.0 - d), np.ones(m)))
    jacobian = np.prod(1.0 / (1.0 - d) ** 2, axis=1)
    got_x, got_w = stacked(periods._affine(np.random.default_rng(seed), m, n))
    assert np.array_equal(_bits(got_x), _bits(x))
    assert np.array_equal(_bits(got_w), _bits(jacobian))


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


def wheels(*spokes):
    """Disjoint wheels with the given numbers of spokes, as one graph."""
    vertices, edges = [], []
    for w, n in enumerate(spokes):
        hub, rim = f"h{w}", [f"r{w}.{i}" for i in range(n)]
        vertices += [hub, *rim]
        ends = [(hub, r) for r in rim] + [(rim[i], rim[(i + 1) % n]) for i in range(n)]
        edges += [Edge(len(edges) + i, e) for i, e in enumerate(ends, 1)]
    return FeynmanGraph(vertices=tuple(vertices), edges=tuple(edges))


@pytest.mark.parametrize(
    "sampler", [functools.partial(periods._simplex, b=0.5), periods._affine],
    ids=["simplex", "affine"],
)
def test_chunk_memory_is_one_block(sampler):
    # A chunk keeps its one vector of _CHUNK values and, in (n, _BLOCK)
    # arrays, what one block keeps alive at its peak: the previous block's
    # points, still bound in _run_chunk's loop, the new block's draws and
    # points, and one temporary of the chart: on the affine chart 1 - x,
    # squared and inverted in place.  That is four; k = 5 leaves one for
    # the evaluator's rows and the Dirichlet weight's powers.  A chunk that
    # draws all its rows at once holds 16 blocks of draws, about 27 MiB
    # here against the bound's 8.25 MiB.
    g = wheels(5)
    n, k = g.n_edges, 5
    denominators = [(psi_enumerate(g), 2)]
    tracemalloc.start()
    try:
        periods._run_chunk(sampler, 7, _CHUNK, sorted(g.edge_ids()), None, denominators, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _CHUNK * 8 + k * n * _BLOCK * 8, peak / 2**20


def test_pool_is_reused_replaced_and_restarted():
    # the pinned "simplex-xi" bits, from each pool state
    def run(workers):
        est = integrate(banana(1), MASSIVE_SPEC, samples=GOLDEN_SAMPLES, seed=20261018,
                        workers=workers)
        return repr(est.value), repr(est.std_error)

    pinned = ("0.8609072548564936", "0.00010327697316276544")
    periods._shutdown_pool()  # an earlier test may leave a larger pool
    assert run(3) == pinned
    pool = periods._pool[1]
    # 2 chunks are 2 tasks on 2 or 3 workers, so one pool serves both
    assert run(2) == pinned and periods._pool[1] is pool
    assert run(3) == pinned and periods._pool[1] is pool
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


def test_pool_holds_no_more_processes_than_chunks():
    # a forking executor starts all its processes at once, so size it by the work
    periods._shutdown_pool()  # an earlier test may leave a larger pool
    serial = integrate(banana(1), MASSIVE_SPEC, samples=2 * _CHUNK, seed=3, workers=1)
    pooled = integrate(banana(1), MASSIVE_SPEC, samples=2 * _CHUNK, seed=3, workers=5)
    assert len(periods._pool[1]._processes) == 2
    assert (pooled.value, pooled.std_error, pooled.workers) == (serial.value, serial.std_error, 5)
    integrate(banana(1), MASSIVE_SPEC, samples=3 * _CHUNK, seed=3, workers=5)
    pool = periods._pool[1]
    assert len(pool._processes) == 3  # grown for a third chunk
    integrate(banana(1), MASSIVE_SPEC, samples=2 * _CHUNK, seed=3, workers=2)
    assert periods._pool[1] is pool  # a larger pool serves fewer tasks
    # 4 chunks on 3 workers are 2 tasks of 2 chunks, so 2 processes
    periods._shutdown_pool()
    serial = integrate(banana(1), MASSIVE_SPEC, samples=4 * _CHUNK, seed=3, workers=1)
    pooled = integrate(banana(1), MASSIVE_SPEC, samples=4 * _CHUNK, seed=3, workers=3)
    assert len(periods._pool[1]._processes) == 2
    assert (pooled.value, pooled.std_error, pooled.workers) == (serial.value, serial.std_error, 3)


def test_exit_handler_shuts_the_pool_down():
    # registered with atexit, so the pool goes while concurrent.futures is still loaded
    periods._shutdown_pool()  # an earlier test may leave a larger pool
    integrate(banana(), samples=2 * _CHUNK, seed=1, workers=2)
    procs = list(periods._pool[1]._processes.values())
    periods._shutdown_pool()
    assert periods._pool is None and all(proc.exitcode is not None for proc in procs)
    periods._shutdown_pool()  # a second call finds no pool
    integrate(banana(), samples=2 * _CHUNK, seed=1, workers=2)
    assert periods._pool[0] == 2


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
    # Gamma(b)^6 overflows a float; refused before any chunk runs
    with pytest.raises(ValueError, match="boundary_bias 1e-60 is too small for 6 variables"):
        integrate(load_graph("fixtures/k4.json"), samples=100, boundary_bias=1e-60)


@pytest.mark.parametrize(
    "g, spec, witness",
    [
        # a bubble: 2 edges, 1 loop
        (load_graph("fixtures/fourgraph.json"), None, "{3, 4}"),
        # the a5^2*a6 term keeps ord 0 on the triangle (1, 2, 4), where psi^3 has ord 3
        (
            load_graph("fixtures/k4.json"),
            IntegrandSpec(numerator=parse_polynomial("2*a1*a2*a3 + a4^3 + 1/3*a5^2*a6"),
                          psi_power=3),
            "{1, 2, 4}",
        ),
        # xi = a1*a2 has ord 1 on one edge
        (banana(), IntegrandSpec(psi_power=0, xi_power=1), "{1}"),
    ],
    ids=["fourgraph", "k4-numerator", "massless-banana-xi"],
)
def test_divergent_integrals_are_refused(g, spec, witness):
    message = f"the integral diverges: subgraph {witness} has omega 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate(g, spec, samples=100)


TWO_WHEELS = wheels(4, 4)


@pytest.mark.parametrize(
    "run, message",
    [
        (functools.partial(integrate, TWO_WHEELS),
         "convergence test needs a connected graph (components: 2)"),
        # refused at subset size 7, before that layer is built
        (functools.partial(integrate, wheels(12)), "the convergence test on 24 edges needs"),
        # Gamma(172) overflows a float, but the gate refuses first
        (functools.partial(integrate, wheels(86), samples=100),
         "the convergence test on 172 edges needs"),
        (functools.partial(integrate, load_graph("fixtures/fourgraph.json")),
         "the integral diverges: subgraph {3, 4} has omega 0"),
        *[
            (functools.partial(f, TWO_WHEELS),
             "spanning tree enumeration needs a connected graph (components: 2)")
            for f in (spanning_trees, psi_enumerate, SymanzikSet.of)
        ],
        # a massless wheel-5 with no legs: its zero xi is built with no forest sweep
        *[
            (functools.partial(run, wheels(5), spec),
             "xi vanishes identically; the integrand is singular")
            for run, spec in (
                (convergence, IntegrandSpec(psi_power=0, xi_power=1)),
                (integrate, IntegrandSpec(parse_polynomial("a1"), psi_power=1, xi_power=1)),
            )
        ],
    ],
    ids=["integrate-two-wheels", "integrate-w12", "integrate-w86", "integrate-fourgraph",
         "spanning-trees", "psi-enumerate", "symanzik-set",
         "convergence-zero-xi", "integrate-zero-xi"],
)
def test_nothing_is_enumerated_before_a_refusal(monkeypatch, run, message):
    calls = []
    sweep = symanzik._spanning_forests

    def counted(g, k):
        calls.append(len(g.vertices) - k)
        return sweep(g, k)

    monkeypatch.setattr(symanzik, "_spanning_forests", counted)
    with pytest.raises(ValueError, match=re.escape(message)):
        run()
    assert calls == []


def test_zero_xi_is_refused_whatever_the_numerator():
    # no legs and no masses, so xi = 0; the numerator 0 makes the integrand 0/0
    g = FeynmanGraph(vertices=("u", "v"), edges=(Edge(1, ("u", "v")), Edge(2, ("u", "v"))))
    spec = IntegrandSpec(numerator=SparsePolynomial.zero(), psi_power=0, xi_power=1)
    for run in (functools.partial(integrate, samples=100), convergence):
        with pytest.raises(ValueError, match="xi vanishes identically"):
            run(g, spec)


def massive_wheel(
    spokes, legs=(ExternalLeg("h0", (1, 0, 0, 0)), ExternalLeg("r0.0", (-1, 0, 0, 0)))
):
    """A wheel with every edge at mass 1 and, by default, one momentum through it."""
    w = wheels(spokes)
    return FeynmanGraph(
        vertices=w.vertices,
        edges=tuple(Edge(e.id, e.ends, 1) for e in w.edges),
        legs=legs,
    )


A1_OVER_PSI_XI = IntegrandSpec(parse_polynomial("a1"), psi_power=1, xi_power=1)


@pytest.mark.parametrize(
    "run",
    [
        functools.partial(integrate, spec=A1_OVER_PSI_XI, samples=100),
        lambda g: (SymanzikSet.of(g), symanzik.xi(g)),
    ],
    ids=["integrate", "symanzik-set-then-xi"],
)
def test_each_forest_sweep_runs_once_per_graph(monkeypatch, run):
    # psi sweeps the spanning trees and phi the 2-forests, once per graph,
    # whichever of integrate, SymanzikSet.of and xi asks first
    convergent, _, _, certified = convergence(massive_wheel(4), A1_OVER_PSI_XI)
    assert convergent and certified
    sizes = []
    sweep = symanzik._spanning_forests

    def counted(g, k):
        sizes.append(len(g.vertices) - k)
        return sweep(g, k)

    monkeypatch.setattr(symanzik, "_spanning_forests", counted)
    g = massive_wheel(4)
    run(g)
    n = len(g.vertices)
    assert sorted(sizes) == [n - 2, n - 1]  # one 2-forest sweep, one tree sweep


@pytest.mark.parametrize("spokes", [6, 7])
def test_gate_certifies_massive_wheels_without_a_sweep(monkeypatch, spokes):
    # ord_S(xi) comes from the vertex classes, so the gate builds no graph
    # polynomial and its layer cap counts no xi term
    calls = []
    sweep = symanzik._spanning_forests

    def counted(g, k):
        calls.append(len(g.vertices) - k)
        return sweep(g, k)

    monkeypatch.setattr(symanzik, "_spanning_forests", counted)
    assert convergence(massive_wheel(spokes), A1_OVER_PSI_XI) == (True, None, None, True)
    assert calls == []


def test_a1_over_psi_xi_integrates_on_massive_wheel6():
    est = integrate(massive_wheel(6), A1_OVER_PSI_XI, samples=2**12, seed=5)
    assert math.isfinite(est.value) and est.value > 0 and est.std_error > 0


@pytest.mark.parametrize(
    "legs",
    [(), (ExternalLeg("h0", (1, 0, 0, 0)), ExternalLeg("h0", (-1, 0, 0, 0)))],
    ids=["no-legs", "two-legs-on-one-vertex"],
)
def test_phi_without_net_momentum_sweeps_no_forest(monkeypatch, legs):
    # no vertex carries net momentum, so every (q^T1)^2 is 0: phi is zero
    # without a 2-forest sweep, and xi is the mass term times psi
    sizes = []
    sweep = symanzik._spanning_forests

    def counted(g, k):
        sizes.append(len(g.vertices) - k)
        return sweep(g, k)

    monkeypatch.setattr(symanzik, "_spanning_forests", counted)
    g = massive_wheel(4, legs)
    s = SymanzikSet.of(g)
    assert s.phi.is_zero() and s.xi == symanzik.mass_term(g) * s.psi
    assert sizes == [len(g.vertices) - 1]  # the tree sweep alone


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
    # the run parameters that integrate refuses
    for run, message in (
        ({"samples": True}, "samples must be an integer"),
        ({"samples": 2.5}, "samples must be an integer"),
        ({"samples": 1}, "need at least 2 samples"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 0.5}, "seed must be an integer"),
        ({"workers": 0}, "workers must be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            PeriodEstimate(**{"value": 1.0, "std_error": 0.1, "samples": 10, "seed": 0, **run})


def test_g_minus_2_closed_form():
    assert abs(g_minus_2_two_loop() - (-0.3284789655791937928)) < 1e-14
